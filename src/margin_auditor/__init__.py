"""Spectrally-normalized margin diagnostics for dense feedforward networks:
norms, margin distributions, covering-number machinery, generalization-bound
values, and a deterministic SGD trainer, with a CLI wiring them together."""

import os as _os

# MARGIN_AUDITOR_THREADS caps the worker threads of the underlying matrix
# kernels (0 or unset = automatic).  Must happen before numpy loads its BLAS.
_threads = _os.environ.get("MARGIN_AUDITOR_THREADS", "0")
if _threads.isdigit() and _threads != "0":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .complexity import (
    BoundReport,
    CoverBudget,
    LayerNorms,
    analyze_network,
    cover_budget,
    cover_resolution,
    dudley_closed_form,
    dudley_numeric,
    generalization_bound_fixed,
    generalization_bound_uniform,
    layer_norms,
    margin_bound_assembly,
    matrix_cover_logsize,
    network_cover_logsize,
    pac_bayes_complexity,
    pac_bayes_complexity_of,
    spectral_complexity,
)
from .covering import SparsifyResult, cover_element_for, maurey_sparsify
from .data import (
    Dataset,
    inspect_idx,
    load_dataset,
    load_idx,
    randomize_inputs_gaussian,
    randomize_labels,
    save_dataset,
    synth_blobs,
    synth_images,
    write_idx,
)
from .errors import (
    DegenerateNetworkError,
    DimensionError,
    InputOutputError,
    MarginAuditorError,
    NumericDegeneracyError,
    ParameterError,
    ParseError,
    TrainingDivergedError,
)
from .linalg import (
    as_matrix,
    frobenius_norm,
    group_norm,
    jacobi_singular_values,
    norm_2_1_of_transpose,
    read_mat1,
    spectral_norm,
    write_mat1,
)
from .lowerbound import (
    build_linear_network,
    rademacher_linear_estimate,
    rademacher_linear_trials,
)
from .margins import (
    DistributionSummary,
    MarginDistribution,
    default_gamma,
    error_rate,
    margin_distribution,
    margin_operator,
    margins_of_outputs,
    ramp_loss,
    ramp_risk_empirical,
    summarize,
)
from .network import (
    Identity,
    Layer,
    MaxPool,
    Network,
    Relu,
    load_manifest,
    save_manifest,
)
from .training import EpochSnapshot, TrainConfig, epochs, init_network, loss_and_gradients, train

__version__ = "0.1.0"
