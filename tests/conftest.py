import tracemalloc

import numpy as np
import pytest

from margin_auditor import Dataset, Identity, Layer, MaxPool, Network, Relu


def random_network(rng, depth=None, width_lo=2, width_hi=8, input_dim=None,
                   output_dim=None, zero_refs=True, scale=1.0):
    """Seeded random dense ReLU network with a linear output layer."""
    if depth is None:
        depth = int(rng.integers(1, 4))
    dims = [input_dim or int(rng.integers(width_lo, width_hi + 1))]
    for _ in range(depth - 1):
        dims.append(int(rng.integers(width_lo, width_hi + 1)))
    dims.append(output_dim or int(rng.integers(2, width_hi + 1)))
    layers = []
    for i in range(depth):
        weight = scale * rng.standard_normal((dims[i + 1], dims[i]))
        reference = None if zero_refs else scale * 0.1 * rng.standard_normal(weight.shape)
        nl = Identity() if i == depth - 1 else Relu()
        layers.append(Layer(weight=weight, nonlinearity=nl, reference=reference))
    return Network(layers=tuple(layers))


def random_dataset(rng, net, n=20):
    x = rng.standard_normal((n, net.input_dim))
    k = net.output_dim
    y = rng.integers(1, k + 1, size=n)
    return Dataset(X=x, y=y, k=k)


def peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes above the traced size
    at the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng():
    return np.random.default_rng(0xA5A5)
