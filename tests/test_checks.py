"""The shared argument checks at every public call site: a value that must be
positive rejects 0, -1 and NaN, and a count rejects one below its minimum and
any value that is not an integer."""

import math
import os

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    LayerNorms,
    ParameterError,
    TrainConfig,
    analyze_network,
    build_linear_network,
    cover_budget,
    cover_element_for,
    dudley_closed_form,
    dudley_numeric,
    generalization_bound_fixed,
    generalization_bound_uniform,
    margin_bound_assembly,
    margin_distribution,
    summarize,
    matrix_cover_logsize,
    maurey_sparsify,
    network_cover_logsize,
    rademacher_linear_estimate,
    rademacher_linear_trials,
    ramp_loss,
    ramp_risk_empirical,
    synth_blobs,
    synth_images,
    write_idx,
)
from conftest import random_dataset, random_network

NET = random_network(np.random.default_rng(11), depth=2)
DS = random_dataset(np.random.default_rng(12), NET)
NORMS = [LayerNorms(s=2.0, b=1.0, rho=1.0), LayerNorms(s=3.0, b=0.5, rho=1.0)]
X = np.random.default_rng(13).standard_normal((6, 3))


def entropy(eps):
    return 1.0 / (eps * eps)


def config(**fields):
    return TrainConfig(**{"layer_widths": (3, 2), "epochs": 1, "batch_size": 1, "seed": 0,
                          **fields})


# call site -> the call with the checked argument set to v
POSITIVE = {
    "matrix_cover_logsize.a": lambda v: matrix_cover_logsize(v, 1.0, 2, 2.0, 1.0, 3),
    "matrix_cover_logsize.b": lambda v: matrix_cover_logsize(1.0, v, 2, 2.0, 1.0, 3),
    "matrix_cover_logsize.eps": lambda v: matrix_cover_logsize(1.0, 1.0, 2, 2.0, v, 3),
    "network_cover_logsize.eps": lambda v: network_cover_logsize(1.0, 4, NORMS, v),
    "cover_budget.eps": lambda v: cover_budget(v, NORMS),
    "dudley_closed_form.R": lambda v: dudley_closed_form(v, 10),
    "dudley_numeric.alpha": lambda v: dudley_numeric(entropy, 10, v),
    "generalization_bound_fixed.data_bound":
        lambda v: generalization_bound_fixed(0.1, v, 4, 10, 1.0, 0.1, NORMS),
    "generalization_bound_fixed.gamma":
        lambda v: generalization_bound_fixed(0.1, 1.0, 4, 10, v, 0.1, NORMS),
    "generalization_bound_uniform.gamma": lambda v: generalization_bound_uniform(NET, DS, v, 0.1),
    "analyze_network.gamma": lambda v: analyze_network(NET, DS, gamma=v),
    "cover_element_for.eps": lambda v: cover_element_for(np.ones((3, 2)), X, v),
    "ramp_loss.gamma": lambda v: ramp_loss(0.5, v),
    "ramp_risk_empirical.gamma": lambda v: ramp_risk_empirical(NET, DS, v),
    "margin_distribution.r_a": lambda v: margin_distribution(NET, DS, v),
    "margin_distribution.gamma": lambda v: margin_distribution(NET, DS, 1.0, gamma=v),
    "rademacher_linear_trials.radius": lambda v: rademacher_linear_trials(X, v, 5),
    "rademacher_linear_estimate.radius": lambda v: rademacher_linear_estimate(X, v, 5),
    "TrainConfig.learning_rate": lambda v: config(learning_rate=v),
}

# call site -> (minimum, the call with the checked count set to v)
AT_LEAST = {
    "Dataset.k": (1, lambda v: Dataset(X=np.ones((2, 2)), y=np.array([1, 1]), k=v)),
    "synth_blobs.k": (1, lambda v: synth_blobs(5, 2, v, 1.0)),
    "synth_blobs.d": (1, lambda v: synth_blobs(5, v, 2, 1.0)),
    "matrix_cover_logsize.m": (1, lambda v: matrix_cover_logsize(1.0, 1.0, v, 2.0, 1.0, 3)),
    "matrix_cover_logsize.d": (1, lambda v: matrix_cover_logsize(1.0, 1.0, 2, 2.0, 1.0, v)),
    "dudley_closed_form.n": (1, lambda v: dudley_closed_form(1.0, v)),
    "dudley_numeric.n": (1, lambda v: dudley_numeric(entropy, v, 0.5)),
    "margin_bound_assembly.n": (1, lambda v: margin_bound_assembly(0.1, 0.1, v, 0.1)),
    "generalization_bound_fixed.n":
        (2, lambda v: generalization_bound_fixed(0.1, 1.0, 4, v, 1.0, 0.1, NORMS)),
    "maurey_sparsify.k": (1, lambda v: maurey_sparsify(np.eye(2), [0.5, 0.5], v)),
    "build_linear_network.depth": (2, lambda v: build_linear_network([3.0, 4.0], v)),
    "rademacher_linear_trials.trials": (1, lambda v: rademacher_linear_trials(X, 1.0, v)),
    "TrainConfig.epochs": (1, lambda v: config(epochs=v)),
    "TrainConfig.batch_size": (1, lambda v: config(batch_size=v)),
    "TrainConfig.seed": (0, lambda v: config(seed=v)),
    "synth_images.k": (1, lambda v: synth_images(2, k=v, side=2)),
    "summarize.bins": (2, lambda v: summarize(margin_distribution(NET, DS, 1.0), v)),
    "write_idx.rows": (1, lambda v: write_idx(DS, os.devnull, os.devnull, rows=v)),
    "build_linear_network.widths": (2, lambda v: build_linear_network([3.0, 4.0], 3, [v, 2])),
}

# call site -> (a valid count, the call with the checked count set to v), for
# counts bounded through another argument (n >= k, rows * cols = d)
INTEGER = {
    "synth_blobs.n": (2, lambda v: synth_blobs(v, 2, 2, 1.0)),
    "synth_images.n": (2, lambda v: synth_images(v, k=2, side=2)),
    "write_idx.cols": (1, lambda v: write_idx(DS, os.devnull, os.devnull, 1, v)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("site", sorted(POSITIVE))
def test_positive_check_rejects(site, value):
    with pytest.raises(ParameterError, match="must be positive"):
        POSITIVE[site](value)


@pytest.mark.parametrize("site", sorted(AT_LEAST))
def test_at_least_check_rejects_one_below(site):
    low, call = AT_LEAST[site]
    with pytest.raises(ParameterError, match="must be at least"):
        call(low - 1)
    call(low)  # the minimum itself is accepted


@pytest.mark.parametrize("site", sorted(AT_LEAST) + sorted(INTEGER))
def test_count_check_rejects_non_integer(site):
    low, call = AT_LEAST[site] if site in AT_LEAST else INTEGER[site]
    with pytest.raises(ParameterError, match="must be an integer"):
        call(low + 0.5)
