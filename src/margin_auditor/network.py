"""Feedforward networks: dense layers composed with fixed nonlinearities.

A network is an ordered chain of layers, each a weight matrix (acting on
column vectors), a reference matrix of the same shape, and a nonlinearity.
Data flows through with examples as rows; evaluation is pure and
deterministic, so concurrent use is safe.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import _GEMM_ROWS, DimensionError, ParameterError, ParseError, _check_integer, _row_blocks
from .linalg import _check_exponent, as_matrix, read_mat1, write_mat1
from .serialize import _output_dir, _read_json, write_json_17g


class _Coordinatewise:
    """Coordinatewise map fixing 0: 1-Lipschitz for every p-norm, same dimension."""

    def lipschitz(self, p):
        _check_exponent(p, "p")
        return 1.0

    def output_dim(self, input_dim):
        return input_dim

    def to_json(self):
        return {"kind": self.kind}

    def __eq__(self, other):
        return isinstance(other, type(self))


class Relu(_Coordinatewise):
    """Coordinatewise max(0, z)."""

    kind = "relu"

    def apply(self, z):
        return np.maximum(z, 0.0)


class Identity(_Coordinatewise):
    """The identity map."""

    kind = "identity"

    def apply(self, z):
        return z


class MaxPool:
    """Coordinate-group max pooling.

    ``groups`` is a collection of index sets over the input coordinates; output
    coordinate i is the max of the input over groups[i].  The Lipschitz
    constant w.r.t. the p-norm is m**(1/p), where m is the largest number of
    groups any single input coordinate belongs to (m=1 for a partition).
    Maps 0 to 0.
    """

    kind = "maxpool"

    def __init__(self, groups):
        groups = tuple(tuple(_check_integer(i, "maxpool group index") for i in g) for g in groups)
        if not groups or any(not g for g in groups):
            raise ParameterError("maxpool needs at least one nonempty group")
        if any(i < 0 for g in groups for i in g):
            raise ParameterError("maxpool group indices must be nonnegative")
        self.groups = groups

    @property
    def multiplicity(self):
        counts = {}
        for g in self.groups:
            for i in set(g):
                counts[i] = counts.get(i, 0) + 1
        return max(counts.values())

    def apply(self, z):
        return np.stack([z[:, g].max(axis=1) for g in self.groups], axis=1)

    def lipschitz(self, p):
        _check_exponent(p, "p")
        if math.isinf(p):
            return 1.0
        return float(self.multiplicity) ** (1.0 / p)

    def output_dim(self, input_dim):
        return len(self.groups)

    def to_json(self):
        return {"kind": "maxpool", "groups": [list(g) for g in self.groups]}

    def __eq__(self, other):
        return isinstance(other, MaxPool) and self.groups == other.groups


@dataclass(frozen=True)
class Layer:
    """One layer: weight A (out x in), reference M of the same shape, nonlinearity."""

    weight: np.ndarray
    nonlinearity: object
    reference: np.ndarray = None

    def __post_init__(self):
        w = as_matrix(self.weight)
        r = np.zeros_like(w) if self.reference is None else as_matrix(self.reference)
        if r.shape != w.shape:
            raise DimensionError(
                f"reference shape {r.shape} must equal weight shape {w.shape}"
            )
        if isinstance(self.nonlinearity, MaxPool):
            used = set()
            for g in self.nonlinearity.groups:
                used.update(g)
            if used != set(range(w.shape[0])):
                raise DimensionError(
                    f"maxpool groups must cover exactly the {w.shape[0]} output coordinates"
                )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "reference", r)

    @property
    def output_dim(self):
        return self.nonlinearity.output_dim(self.weight.shape[0])

    @property
    def input_dim(self):
        return self.weight.shape[1]


@dataclass(frozen=True)
class Network:
    """Ordered layer chain with consistent dimensions."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ParameterError("a network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if b.input_dim != a.output_dim:
                raise DimensionError(
                    f"layer input dim {b.input_dim} does not chain from previous output dim {a.output_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self):
        return self.layers[0].input_dim

    @property
    def output_dim(self):
        return self.layers[-1].output_dim

    @property
    def width(self):
        dims = [self.input_dim]
        for layer in self.layers:
            dims.append(layer.weight.shape[0])
            dims.append(layer.output_dim)
        return max(dims)

    def forward(self, x):
        """Evaluate the network on examples given as rows of ``x``."""
        return self._forward(as_matrix(x))

    def forward_images(self, x):
        """Per-layer forward images (X_0, ..., X_L), examples as rows; X_0 is the input."""
        return self._forward(as_matrix(x), keep=True)

    def _forward(self, z, keep=False):
        """Output on a trusted matrix ``z`` such as a ``Dataset.X``, or every image
        if ``keep``; ReLU works in place on each fresh GEMM output.  The output
        alone runs the chain on row blocks of at most _GEMM_ROWS rows, written
        into one n x k array, so no image of all n rows is held."""
        if z.shape[1] != self.input_dim:
            raise DimensionError(
                f"input has {z.shape[1]} columns, network expects {self.input_dim}"
            )
        if keep:
            images = [z]
            self._chain(z, images)
            return images
        out = np.empty((z.shape[0], self.output_dim))
        for start, stop in _row_blocks(z.shape[0], _GEMM_ROWS):
            out[start:stop] = self._chain(z[start:stop])
        return out

    def _chain(self, z, images=None):
        """The layer chain on ``z``, appending each layer's image to ``images``."""
        for layer in self.layers:
            nl, z = layer.nonlinearity, z @ layer.weight.T
            z = np.maximum(z, 0.0, out=z) if isinstance(nl, Relu) else nl.apply(z)
            if images is not None:
                images.append(z)
        return z


def _nonlinearity_from_json(obj, path=None):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "relu":
        return Relu()
    if kind == "identity":
        return Identity()
    if kind == "maxpool":
        try:
            return MaxPool(obj.get("groups", []))
        except (TypeError, ParameterError):
            raise ParseError("maxpool groups must be nonempty lists of nonnegative indices, "
                             f"got {obj!r}", path=path) from None
    raise ParseError(f"nonlinearity must be an object of a known kind, got {obj!r}", path=path)


def load_manifest(path):
    """Load a network from a JSON manifest.

    The manifest lists layers in order; each entry has a ``weight`` path
    (MAT1), a ``reference`` that is a path or "zero" or "identity", and a
    ``nonlinearity`` object.  Paths are resolved relative to the manifest.
    """
    doc = _read_json(path, "manifest")
    base = os.path.dirname(os.path.abspath(path))
    entries = doc.get("layers") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ParseError("manifest must contain a nonempty 'layers' list", path=path)
    layers = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("weight"), str)):
            raise ParseError(f"manifest layer {entry!r} has no 'weight' path", path=path)
        weight = read_mat1(os.path.join(base, entry["weight"]))
        ref_spec = entry.get("reference", "zero")
        if not isinstance(ref_spec, str):
            raise ParseError(f"manifest layer reference {ref_spec!r} is not a string", path=path)
        if ref_spec == "zero":
            reference = None
        elif ref_spec == "identity":
            if weight.shape[0] != weight.shape[1]:
                raise ParseError(
                    f"identity reference needs a square weight, got {weight.shape}",
                    path=path,
                )
            reference = np.eye(weight.shape[0])
        else:
            reference = read_mat1(os.path.join(base, ref_spec))
        nl = _nonlinearity_from_json(entry.get("nonlinearity", {"kind": "relu"}), path)
        layers.append(Layer(weight=weight, nonlinearity=nl, reference=reference))
    return Network(layers=tuple(layers))


def save_manifest(net, directory, name="network"):
    """Write a network as MAT1 weight files plus a manifest JSON; returns the manifest path."""
    _output_dir(directory)
    entries = []
    for idx, layer in enumerate(net.layers):
        wname = f"{name}_w{idx}.mat"
        write_mat1(os.path.join(directory, wname), layer.weight)
        if not layer.reference.any():
            ref = "zero"
        elif layer.weight.shape[0] == layer.weight.shape[1] and np.array_equal(
            layer.reference, np.eye(layer.weight.shape[0])
        ):
            ref = "identity"
        else:
            ref = f"{name}_m{idx}.mat"
            write_mat1(os.path.join(directory, ref), layer.reference)
        entries.append(
            {"weight": wname, "reference": ref, "nonlinearity": layer.nonlinearity.to_json()}
        )
    manifest_path = os.path.join(directory, f"{name}.json")
    write_json_17g(manifest_path, {"layers": entries})
    return manifest_path
