import math
import tracemalloc

import numpy as np
import pytest

from margin_auditor import (
    DimensionError,
    NumericDegeneracyError,
    ParameterError,
    ParseError,
    TrainConfig,
    as_matrix,
    frobenius_norm,
    group_norm,
    init_network,
    jacobi_singular_values,
    norm_2_1_of_transpose,
    read_mat1,
    spectral_norm,
    write_mat1,
)

INF = math.inf


def brute_force_row_21(a):
    # Independent oracle: sum of row 2-norms by explicit loops.
    total = 0.0
    for row in a:
        total += math.sqrt(sum(float(v) ** 2 for v in row))
    return total


def brute_force_frobenius(a):
    return math.sqrt(sum(float(v) ** 2 for v in a.ravel()))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.array([[3.0, 0.0], [0.0, -1.0]])) == pytest.approx(3.0, rel=1e-12)

    def test_matches_jacobi_oracle_on_seeded_8x8(self):
        a = np.random.default_rng(7).standard_normal((8, 8))
        oracle = jacobi_singular_values(a)[0]
        assert spectral_norm(a) == pytest.approx(oracle, rel=1e-10)

    def test_near_degenerate_top_pair_matches_jacobi_oracle(self):
        # sigma_1 = 1 and sigma_2 = 1 - 1e-6: a solver that stops when its
        # estimate changes slowly returns about 1 - 1e-6 here.
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((60, 40)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        sv = np.linspace(0.1, 0.5, 40)
        sv[:2] = 1.0, 1.0 - 1e-6
        a = (u * sv) @ v.T
        oracle = jacobi_singular_values(a)[0]
        assert abs(spectral_norm(a) - oracle) <= 1e-14 * oracle

    def test_glorot_layer_with_close_top_pair(self):
        # Layer 0 of this seeded net has sigma_2 / sigma_1 = 0.99974.
        net = init_network(TrainConfig(layer_widths=(784, 256, 256, 10), epochs=1,
                                       batch_size=4, seed=39))
        w = net.layers[0].weight
        oracle = np.linalg.svd(w, compute_uv=False)[0]
        assert abs(spectral_norm(w) - oracle) <= 1e-14 * oracle

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            spectral_norm(np.zeros((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            spectral_norm(np.array([[1.0, np.nan]]))

    def test_deterministic(self):
        a = np.random.default_rng(3).standard_normal((12, 5))
        assert spectral_norm(a) == spectral_norm(a.copy())


class TestJacobiOracle:
    def test_full_spectrum_of_diagonal(self):
        sv = jacobi_singular_values(np.diag([2.0, -5.0, 1.0]))
        assert np.allclose(sv, [5.0, 2.0, 1.0])

    def test_rectangular_and_transpose_agree(self):
        a = np.random.default_rng(11).standard_normal((9, 4))
        assert np.allclose(jacobi_singular_values(a), jacobi_singular_values(a.T), rtol=1e-12)

    def test_frobenius_consistency(self):
        # sum of squared singular values equals the squared Frobenius norm
        a = np.random.default_rng(12).standard_normal((6, 6))
        sv = jacobi_singular_values(a)
        assert float(np.sum(sv**2)) == pytest.approx(brute_force_frobenius(a) ** 2, rel=1e-12)


class TestGroupNorm:
    def test_p2_q1(self):
        assert group_norm(np.array([[3.0, 0.0], [0.0, 4.0]]), 2, 1) == pytest.approx(7.0)

    def test_p2_q2_frobenius(self):
        assert group_norm(np.array([[3.0, 0.0], [0.0, 4.0]]), 2, 2) == pytest.approx(5.0)

    def test_p1_qinf(self):
        assert group_norm(np.array([[3.0, 0.0], [0.0, 4.0]]), 1, INF) == pytest.approx(4.0)

    def test_matches_frobenius(self, rng):
        a = rng.standard_normal((5, 7))
        assert group_norm(a, 2, 2) == pytest.approx(frobenius_norm(a), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(0.5, 2), (2, 0.0), (-1, 1)])
    def test_bad_exponents(self, p, q):
        with pytest.raises(ParameterError):
            group_norm(np.eye(2), p, q)

    def test_absolute_homogeneity_and_triangle(self, rng):
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((4, 6))
            c = float(rng.standard_normal())
            p = float(rng.uniform(1.0, 4.0))
            q = float(rng.uniform(1.0, 4.0))
            na, nb = group_norm(a, p, q), group_norm(b, p, q)
            assert group_norm(c * a, p, q) == pytest.approx(abs(c) * na, rel=1e-10, abs=1e-12)
            for c in (2.0**500, 2.0**-500):
                assert group_norm(c * a, p, q) == pytest.approx(c * na, rel=1e-10, abs=0.0)
                assert frobenius_norm(c * a) == pytest.approx(c * frobenius_norm(a), rel=1e-10, abs=0.0)
            assert group_norm(a + b, p, q) <= na + nb + 1e-10


class TestNorm21Transpose:
    def test_diagonal(self):
        assert norm_2_1_of_transpose(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(7.0)

    def test_all_ones(self):
        assert norm_2_1_of_transpose(np.ones((2, 2))) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_matches_row_sum_oracle(self):
        a = np.random.default_rng(21).standard_normal((6, 4))
        assert norm_2_1_of_transpose(a) == pytest.approx(brute_force_row_21(a), rel=1e-14)


class TestFrobenius:
    def test_three_four(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_matches_entrywise_oracle(self):
        a = np.random.default_rng(31).standard_normal((5, 5))
        assert frobenius_norm(a) == pytest.approx(brute_force_frobenius(a), rel=1e-14)

    def test_result_beyond_float64_range_rejected(self):
        with pytest.raises(NumericDegeneracyError):
            frobenius_norm(np.full((2, 2), 1e308))

    def test_allocates_one_input_sized_temporary(self):
        # The |a| temporary is squared in place; a second a-sized array
        # (as b * b would make) doubles the peak.
        a = np.random.default_rng(32).standard_normal((1000, 1000))
        tracemalloc.start()
        try:
            frobenius_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * a.nbytes


class TestNormInequalities:
    def test_spectral_frobenius_sandwich(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = rng.standard_normal((n, m))
            s = spectral_norm(a)
            f = frobenius_norm(a)
            assert s <= f * (1 + 1e-10)
            assert f <= math.sqrt(min(n, m)) * s * (1 + 1e-10)

    def test_21_vs_frobenius(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = rng.standard_normal((n, m))
            assert norm_2_1_of_transpose(a) <= math.sqrt(n) * frobenius_norm(a) * (1 + 1e-12)

    def test_spectral_homogeneity(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            c = float(rng.standard_normal())
            assert spectral_norm(c * a) == pytest.approx(abs(c) * spectral_norm(a), rel=1e-9, abs=1e-12)
            for c in (2.0**500, 2.0**-500):
                assert spectral_norm(c * a) == pytest.approx(c * spectral_norm(a), rel=1e-9, abs=0.0)


class TestMat1:
    def test_round_trip_bit_exact(self, tmp_path):
        a = np.random.default_rng(5).standard_normal((7, 3))
        path = tmp_path / "a.mat"
        write_mat1(path, a)
        back = read_mat1(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError) as err:
            read_mat1(path)
        assert err.value.offset == 0

    def test_truncation_detected(self, tmp_path):
        a = np.ones((2, 2))
        path = tmp_path / "t.mat"
        write_mat1(path, a)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ParseError):
            read_mat1(path)

    def test_missing_file(self, tmp_path):
        from margin_auditor import InputOutputError

        with pytest.raises(InputOutputError):
            read_mat1(tmp_path / "nope.mat")

    def test_as_matrix_copies_and_validates(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        with pytest.raises(DimensionError):
            as_matrix(np.zeros(3))
