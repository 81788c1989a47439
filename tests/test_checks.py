"""The shared argument checks at every public call site: a value that must be
positive rejects 0, -1, NaN and anything that is not a number (a bool included),
so does one that must be nonnegative except at 0, a ramp risk lies in [0,1], a
norm exponent rejects one below 1 and any non-number, a count rejects one below
its minimum and any value that is not an integer, and a label is a whole number
in 1..k; every seed is a count from 0."""

import math
import os

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    Identity,
    LayerNorms,
    MaxPool,
    ParameterError,
    Relu,
    TrainConfig,
    analyze_network,
    build_linear_network,
    cover_budget,
    cover_element_for,
    cover_resolution,
    dudley_closed_form,
    dudley_numeric,
    generalization_bound_fixed,
    generalization_bound_uniform,
    group_norm,
    margin_bound_assembly,
    margin_distribution,
    margin_operator,
    margins_of_outputs,
    summarize,
    matrix_cover_logsize,
    maurey_sparsify,
    network_cover_logsize,
    rademacher_linear_estimate,
    rademacher_linear_trials,
    ramp_loss,
    ramp_risk_empirical,
    randomize_inputs_gaussian,
    randomize_labels,
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

# call site -> the call with the checked argument set to v
NONNEGATIVE = {
    "margin_bound_assembly.rademacher": lambda v: margin_bound_assembly(0.1, v, 10, 0.1),
    "cover_resolution.eps": lambda v: cover_resolution([0.1, v], [1.0, 1.0], [2.0, 2.0]),
    "cover_resolution.rho": lambda v: cover_resolution([0.1, 0.1], [1.0, v], [2.0, 2.0]),
    "cover_resolution.c": lambda v: cover_resolution([0.1, 0.1], [1.0, 1.0], [v, 2.0]),
}

# call site -> the call with the ramp risk set to v
RAMP_RISK = {
    "generalization_bound_fixed.ramp_risk":
        lambda v: generalization_bound_fixed(v, 1.0, 4, 10, 1.0, 0.1, NORMS),
    "margin_bound_assembly.ramp_risk": lambda v: margin_bound_assembly(v, 0.1, 10, 0.1),
}

# call site -> the call with the norm exponent set to v
EXPONENT = {
    "group_norm.p": lambda v: group_norm(X, v, 2.0),
    "group_norm.q": lambda v: group_norm(X, 2.0, v),
    "Relu.lipschitz.p": lambda v: Relu().lipschitz(v),
    "Identity.lipschitz.p": lambda v: Identity().lipschitz(v),
    "MaxPool.lipschitz.p": lambda v: MaxPool([[0, 1]]).lipschitz(v),
    "matrix_cover_logsize.r": lambda v: matrix_cover_logsize(1.0, 1.0, 2, v, 1.0, 3),
    "cover_element_for.q": lambda v: cover_element_for(np.ones((3, 2)), X, 1.0, q=v),
    "cover_element_for.s": lambda v: cover_element_for(np.ones((3, 2)), X, 1.0, s_exp=v),
}

# call site -> the call with delta set to v
DELTA = {
    "generalization_bound_fixed.delta":
        lambda v: generalization_bound_fixed(0.1, 1.0, 4, 10, 1.0, v, NORMS),
    "generalization_bound_uniform.delta": lambda v: generalization_bound_uniform(NET, DS, 1.0, v),
    "margin_bound_assembly.delta": lambda v: margin_bound_assembly(0.1, 0.1, 10, v),
}

# call site -> the call with the two labels of a 2-row, 2-class problem set to y
LABELS = {
    "Dataset": lambda y: Dataset(X=np.ones((2, 2)), y=y, k=2),
    "margins_of_outputs": lambda y: margins_of_outputs(np.eye(2), y),
    "margin_operator": lambda y: margin_operator([1.0, 2.0], y[0]),
}
BAD_LABELS = {"fractional": [1.5, 1.5], "nan": [math.nan, math.nan], "string": ["a", "a"],
              "boolean": [True, True]}

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
    "synth_blobs.seed": (0, lambda v: synth_blobs(5, 2, 2, 1.0, seed=v)),
    "synth_images.seed": (0, lambda v: synth_images(2, k=2, side=2, seed=v)),
    "maurey_sparsify.seed": (0, lambda v: maurey_sparsify(np.eye(2), [0.5, 0.5], 1, seed=v)),
    "cover_element_for.seed": (0, lambda v: cover_element_for(np.ones((3, 2)), X, 1.0, seed=v)),
    "rademacher_linear_trials.seed": (0, lambda v: rademacher_linear_trials(X, 1.0, 5, seed=v)),
    "rademacher_linear_estimate.seed":
        (0, lambda v: rademacher_linear_estimate(X, 1.0, 5, seed=v)),
    "randomize_labels.seed": (0, lambda v: randomize_labels(DS, seed=v)),
    "randomize_inputs_gaussian.seed": (0, lambda v: randomize_inputs_gaussian(DS, seed=v)),
}

# call site -> (a valid count, the call with the checked count set to v), for
# counts bounded through another argument (n >= k, rows * cols = d)
INTEGER = {
    "synth_blobs.n": (2, lambda v: synth_blobs(v, 2, 2, 1.0)),
    "synth_images.n": (2, lambda v: synth_images(v, k=2, side=2)),
    "write_idx.cols": (1, lambda v: write_idx(DS, os.devnull, os.devnull, 1, v)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, True, "1"],
                         ids=["zero", "negative", "nan", "bool", "string"])
@pytest.mark.parametrize("site", sorted(POSITIVE))
def test_positive_check_rejects(site, value):
    with pytest.raises(ParameterError, match="must be positive"):
        POSITIVE[site](value)


@pytest.mark.parametrize("value", [-1.0, math.nan, True, "0.1"],
                         ids=["negative", "nan", "bool", "string"])
@pytest.mark.parametrize("site", sorted(NONNEGATIVE))
def test_nonnegative_check_rejects(site, value):
    with pytest.raises(ParameterError, match="must be at least 0.0"):
        NONNEGATIVE[site](value)
    NONNEGATIVE[site](0.0)  # zero is accepted


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan, True, "0.1"],
                         ids=["negative", "above-one", "nan", "bool", "string"])
@pytest.mark.parametrize("site", sorted(RAMP_RISK))
def test_ramp_risk_check_rejects(site, value):
    with pytest.raises(ParameterError, match=r"ramp_risk must lie in \[0,1\]"):
        RAMP_RISK[site](value)
    for end in (0.0, 1.0):  # both ends are accepted
        RAMP_RISK[site](end)


@pytest.mark.parametrize("value", [0.5, True, "2"], ids=["below-one", "bool", "string"])
@pytest.mark.parametrize("site", sorted(EXPONENT))
def test_exponent_check_rejects(site, value):
    with pytest.raises(ParameterError, match="must be at least 1.0"):
        EXPONENT[site](value)
    EXPONENT[site](math.inf)  # the max-norm exponent is accepted


@pytest.mark.parametrize("value", [0.0, 1.0, math.nan, "0.1"], ids=["zero", "one", "nan", "string"])
@pytest.mark.parametrize("site", sorted(DELTA))
def test_delta_check_rejects(site, value):
    with pytest.raises(ParameterError, match=r"delta must lie in \(0,1\)"):
        DELTA[site](value)


@pytest.mark.parametrize("field", ["s", "b", "rho"])
def test_layer_norms_reject_nan(field):
    with pytest.raises(ParameterError, match=f"layer norm {field} must be"):
        LayerNorms(**{"s": 1.0, "b": 1.0, "rho": 1.0, field: math.nan})


@pytest.mark.parametrize("labels", sorted(BAD_LABELS))
@pytest.mark.parametrize("site", sorted(LABELS))
def test_label_check_rejects_non_whole_number(site, labels):
    with pytest.raises(ParameterError, match=r"labels must lie in 1\.\.2"):
        LABELS[site](BAD_LABELS[labels])


def test_label_check_accepts_whole_floats():
    y = Dataset(X=np.ones((2, 2)), y=[2.0, 1.0], k=2).y
    assert y.dtype == np.int64 and y.tolist() == [2, 1]
    assert margins_of_outputs(np.eye(2), [1.0, 2.0]).tolist() == [1.0, 1.0]
    assert margin_operator([1.0, 2.0], 2.0) == 1.0


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
