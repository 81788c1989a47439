import json
import math

import numpy as np
import pytest

from margin_auditor import (
    DimensionError,
    Identity,
    Layer,
    MaxPool,
    Network,
    ParameterError,
    ParseError,
    Relu,
    TrainConfig,
    frobenius_norm,
    init_network,
    load_manifest,
    save_manifest,
    spectral_norm,
)
from margin_auditor.errors import _GEMM_ROWS
from margin_auditor.margins import _outputs
from margin_auditor.network import _nonlinearity_from_json
from conftest import peak_bytes, random_network


def scalar_loop_forward(net, x_row):
    """Independent straight-line oracle: pure-python loops, no shared code path."""
    values = [float(v) for v in x_row]
    for layer in net.layers:
        w = layer.weight
        pre = []
        for i in range(w.shape[0]):
            acc = 0.0
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * values[j]
            pre.append(acc)
        if isinstance(layer.nonlinearity, Relu):
            values = [max(0.0, v) for v in pre]
        elif isinstance(layer.nonlinearity, Identity):
            values = pre
        elif isinstance(layer.nonlinearity, MaxPool):
            values = [max(pre[i] for i in g) for g in layer.nonlinearity.groups]
    return values


class TestForward:
    def test_identity_layer(self):
        net = Network(layers=(Layer(weight=np.eye(3), nonlinearity=Identity()),))
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert np.array_equal(net.forward(x), x)

    def test_relu_layer(self):
        net = Network(layers=(Layer(weight=np.eye(2), nonlinearity=Relu()),))
        out = net.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(99)
        net = random_network(rng, depth=2)
        x = rng.standard_normal((5, net.input_dim))
        out = net.forward(x)
        for r in range(5):
            expected = scalar_loop_forward(net, x[r])
            assert np.max(np.abs(out[r] - np.array(expected))) <= 1e-12

    def test_dimension_mismatch(self):
        net = Network(layers=(Layer(weight=np.eye(3), nonlinearity=Relu()),))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 4)))


class TestForwardImages:
    def test_single_layer_length(self):
        net = Network(layers=(Layer(weight=np.eye(2), nonlinearity=Relu()),))
        assert len(net.forward_images(np.ones((3, 2)))) == 2

    def test_identity_chain(self):
        layer = Layer(weight=np.eye(2), nonlinearity=Identity())
        net = Network(layers=(layer, layer, layer))
        x = np.random.default_rng(1).standard_normal((4, 2))
        for image in net.forward_images(x):
            assert np.array_equal(image, x)

    def test_last_image_is_forward(self, rng):
        net = random_network(rng, depth=3)
        x = rng.standard_normal((6, net.input_dim))
        images = net.forward_images(x)
        assert np.array_equal(images[-1], net.forward(x))

    def test_forward_image_norm_bound(self, rng):
        # each layer image norm is at most ||X||_2 * prod rho_j * s_j
        for _ in range(20):
            net = random_network(rng, depth=3)
            x = rng.standard_normal((5, net.input_dim))
            images = net.forward_images(x)
            bound = frobenius_norm(x)
            for layer, image in zip(net.layers, images[1:]):
                bound *= layer.nonlinearity.lipschitz(2.0) * spectral_norm(layer.weight)
                if image.any():
                    assert frobenius_norm(image) <= bound * (1 + 1e-10)


def glorot_network(widths):
    return init_network(TrainConfig(layer_widths=widths, epochs=1, batch_size=4, seed=3))


class TestBlockedForward:
    """From _GEMM_ROWS + 1 rows up, the output alone is computed in row blocks."""

    @pytest.mark.parametrize("widths", [(784, 256, 256, 10), (784, 1024, 10)],
                             ids=["784-256-256-10", "784-1024-10"])
    @pytest.mark.parametrize("n", [513, 700, 1000, 1023, 1024, 1025, 4609, 4735, 5000, 6000])
    def test_bitwise_equal_to_the_whole_chain(self, widths, n):
        net = glorot_network(widths)
        x = np.random.default_rng(n).uniform(0.0, 1.0, (n, 784))
        assert _outputs(net, x).tobytes() == net.forward_images(x)[-1].tobytes()

    def test_maxpool_chain(self, rng):
        net = Network(layers=(
            Layer(rng.standard_normal((6, 5)), MaxPool([[0, 1], [2, 3, 1], [4, 5]])),
            Layer(rng.standard_normal((2, 3)), Identity()),
        ))
        x = rng.standard_normal((3 * _GEMM_ROWS + 7, 5))
        assert net.forward(x).tobytes() == net.forward_images(x)[-1].tobytes()

    def test_peak_memory_is_two_block_images_and_the_output(self):
        # the whole chain holds two 5,000 x 256 images at once, 20.5 MB
        net = glorot_network((784, 256, 256, 10))
        x = np.random.default_rng(6).uniform(0.0, 1.0, (5000, 784))
        out, peak = peak_bytes(_outputs, net, x)
        assert peak < 2 * (2 * _GEMM_ROWS - 1) * 256 * 8 + out.nbytes


class TestNonlinearities:
    def test_relu_lipschitz(self):
        assert Relu().lipschitz(2.0) == 1.0

    def test_partition_pool_lipschitz(self):
        pool = MaxPool([[0, 1], [2, 3]])
        assert pool.lipschitz(2.0) == 1.0

    def test_overlap_pool_lipschitz(self):
        # one coordinate shared by 9 groups -> multiplicity 9 -> 9^(1/2) = 3
        pool = MaxPool([[0, i + 1] for i in range(9)])
        assert pool.lipschitz(2.0) == pytest.approx(3.0)
        assert pool.lipschitz(1.0) == pytest.approx(9.0)
        assert pool.lipschitz(math.inf) == 1.0

    def test_bad_exponent(self):
        with pytest.raises(ParameterError):
            Relu().lipschitz(0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_empirical_lipschitz(self, rng, p):
        cases = [
            (Relu(), 6, 1.0),
            (MaxPool([[0, 1, 2], [3, 4, 5]]), 6, 1.0),
            (MaxPool([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]), 6, None),
        ]
        for nl, dim, expected in cases:
            rho = nl.lipschitz(p)
            if expected is not None:
                assert rho == pytest.approx(expected)
            for _ in range(200):
                z = rng.standard_normal((1, dim))
                zp = rng.standard_normal((1, dim))
                lhs = np.linalg.norm((nl.apply(z) - nl.apply(zp)).ravel(), ord=p)
                rhs = rho * np.linalg.norm((z - zp).ravel(), ord=p)
                assert lhs <= rhs + 1e-12

    def test_zero_maps_to_zero(self):
        z = np.zeros((1, 4))
        for nl in (Relu(), Identity(), MaxPool([[0, 1], [2, 3]])):
            assert not nl.apply(z).any()

    def test_equality_by_kind(self):
        assert Relu() == Relu()
        assert Identity() == Identity()
        assert Relu() != Identity()
        assert Identity() != Relu()

    @pytest.mark.parametrize(
        "nl, doc",
        [
            (Relu(), {"kind": "relu"}),
            (Identity(), {"kind": "identity"}),
            (MaxPool([[0, 2], [1]]), {"kind": "maxpool", "groups": [[0, 2], [1]]}),
        ],
        ids=["relu", "identity", "maxpool"],
    )
    def test_json_round_trip(self, nl, doc):
        assert nl.to_json() == doc
        back = _nonlinearity_from_json(nl.to_json())
        assert type(back) is type(nl)
        assert back == nl


class TestPositiveHomogeneity:
    def test_scaling_one_layer_scales_output(self, rng):
        for _ in range(10):
            net = random_network(rng, depth=3)
            x = rng.standard_normal((4, net.input_dim))
            j = int(rng.integers(0, 3))
            c = float(rng.uniform(0.5, 3.0))
            scaled_layers = list(net.layers)
            scaled_layers[j] = Layer(
                weight=c * net.layers[j].weight, nonlinearity=net.layers[j].nonlinearity
            )
            scaled = Network(layers=tuple(scaled_layers))
            assert np.allclose(scaled.forward(x), c * net.forward(x), rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_reference_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Layer(weight=np.eye(2), nonlinearity=Relu(), reference=np.zeros((3, 2)))

    def test_maxpool_must_cover_outputs(self):
        with pytest.raises(DimensionError):
            Layer(weight=np.eye(3), nonlinearity=MaxPool([[0, 1]]))

    @pytest.mark.parametrize("groups", [[[0.7], [1]], [[0], [1, True]]],
                             ids=["fractional", "boolean"])
    def test_maxpool_index_must_be_an_integer(self, groups):
        with pytest.raises(ParameterError, match="maxpool group index"):
            MaxPool(groups)

    @pytest.mark.parametrize("groups, message", [
        ([], "nonempty group"), ([[0], []], "nonempty group"), ([[0], [-1]], "nonnegative"),
    ], ids=["no-groups", "empty-group", "negative"])
    def test_maxpool_groups_nonempty_and_nonnegative(self, groups, message):
        with pytest.raises(ParameterError, match=message):
            MaxPool(groups)

    def test_empty_network(self):
        with pytest.raises(ParameterError, match="at least one layer"):
            Network(layers=())

    def test_chain_mismatch(self):
        l1 = Layer(weight=np.zeros((3, 2)) + 1.0, nonlinearity=Relu())
        l2 = Layer(weight=np.ones((2, 4)), nonlinearity=Relu())
        with pytest.raises(DimensionError):
            Network(layers=(l1, l2))

    def test_width(self):
        l1 = Layer(weight=np.ones((5, 2)), nonlinearity=Relu())
        l2 = Layer(weight=np.ones((3, 5)), nonlinearity=Relu())
        assert Network(layers=(l1, l2)).width == 5

    def test_maxpool_width_counts_pooled_dim(self):
        layer = Layer(weight=np.ones((4, 2)), nonlinearity=MaxPool([[0, 1], [2, 3]]))
        net = Network(layers=(layer,))
        assert net.output_dim == 2
        assert net.width == 4


class TestManifest:
    @pytest.mark.parametrize("zero_refs", [False, True])
    def test_round_trip(self, tmp_path, rng, zero_refs):
        net = random_network(rng, depth=3, zero_refs=zero_refs)
        manifest = save_manifest(net, tmp_path, name="net")
        with open(manifest, encoding="utf-8") as f:
            entries = json.load(f)["layers"]
        assert all((e["reference"] == "zero") == zero_refs for e in entries)
        back = load_manifest(manifest)
        assert len(back.layers) == len(net.layers)
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.reference, b.reference)
            assert b.reference.any() != zero_refs
            assert a.nonlinearity == b.nonlinearity

    def test_identity_reference(self, tmp_path):
        net = Network(
            layers=(Layer(weight=2 * np.eye(3), nonlinearity=Relu(), reference=np.eye(3)),)
        )
        manifest = save_manifest(net, tmp_path)
        back = load_manifest(manifest)
        assert np.array_equal(back.layers[0].reference, np.eye(3))

    def test_maxpool_round_trip(self, tmp_path):
        net = Network(
            layers=(Layer(weight=np.ones((4, 3)), nonlinearity=MaxPool([[0, 1], [2, 3]])),)
        )
        back = load_manifest(save_manifest(net, tmp_path))
        assert back.layers[0].nonlinearity == MaxPool([[0, 1], [2, 3]])

    def test_unknown_kind(self, tmp_path):
        from margin_auditor import write_mat1

        write_mat1(tmp_path / "w.mat", np.eye(2))
        (tmp_path / "m.json").write_text(
            '{"layers": [{"weight": "w.mat", "nonlinearity": {"kind": "sgmd"}}]}'
        )
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "m.json")

    def test_missing_manifest(self, tmp_path):
        from margin_auditor import InputOutputError

        with pytest.raises(InputOutputError):
            load_manifest(tmp_path / "none.json")
