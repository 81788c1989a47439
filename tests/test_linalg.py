import ast
import inspect
import itertools
import math
import textwrap
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
from margin_auditor import linalg

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
        assert spectral_norm(a) == pytest.approx(oracle, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("m", range(1, 66))
    def test_round_robin_schedule_covers_each_pair_once(self, m):
        # the oracle's schedule for m columns: an odd m is padded with a zero
        # column n - 1, which each real column meets once, in the round it idles
        n = m + (m & 1)
        rounds = linalg._round_robin(n)
        assert len(rounds) == n - 1
        pairs = []
        for ij in rounds:
            columns = ij.ravel().tolist()
            assert len(set(columns)) == len(columns) == n  # disjoint within a round
            pairs.extend(zip(ij[0].tolist(), ij[1].tolist()))
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))

    @staticmethod
    def _clustered_top_pair():
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.standard_normal((30, 20)))
        v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        sv = np.linspace(0.1, 0.6, 20)[::-1].copy()
        sv[:2] = 1.0, 1.0 - 1e-12
        return (u * sv) @ v.T

    @staticmethod
    def _rank_deficient():
        a = np.random.default_rng(9).standard_normal((7, 6))
        a[:, 2] = 0.0
        a[:, 4] = a[:, 1]
        return a

    @staticmethod
    def _underflowing_columns():
        # Their squared norms underflow to 0 while their dot products with
        # the other columns do not: such pairs must be skipped, not rotated.
        a = np.random.default_rng(14).standard_normal((6, 4))
        a[:, 1] *= 1e-170
        a[:, 3] *= 1e-250
        return a

    @pytest.mark.parametrize("case", ["clustered", "rank_deficient", "underflowing", "row",
                                      "column", "zero"])
    def test_matches_lapack_svd(self, case):
        rng = np.random.default_rng(10)
        a = {
            "clustered": self._clustered_top_pair,
            "rank_deficient": self._rank_deficient,
            "underflowing": self._underflowing_columns,
            "row": lambda: rng.standard_normal((1, 9)),
            "column": lambda: rng.standard_normal((9, 1)),
            "zero": lambda: np.zeros((5, 3)),
        }[case]()
        sv = jacobi_singular_values(a)
        reference = np.linalg.svd(a, compute_uv=False)
        assert sv.shape == reference.shape
        assert np.all(np.diff(sv) <= 0.0)
        assert np.max(np.abs(sv - reference)) <= 1e-14 * reference[0]

    def test_matches_lapack_svd_on_random_shapes(self):
        # Every 10th matrix of the criterion-1 suite: sides 2..64, odd and even.
        for i in range(0, 500, 10):
            rng = np.random.default_rng(1000 + i)
            a = rng.standard_normal((int(rng.integers(2, 65)), int(rng.integers(2, 65))))
            reference = np.linalg.svd(a, compute_uv=False)
            assert np.max(np.abs(jacobi_singular_values(a) - reference)) <= 1e-14 * reference[0]

    def test_exactly_homogeneous_under_powers_of_two(self):
        a = np.random.default_rng(0).standard_normal((6, 4))
        base = jacobi_singular_values(a)
        for k in (300, -300, 500, -500, 520, -520, -540):
            assert np.array_equal(np.ldexp(jacobi_singular_values(np.ldexp(a, k)), -k), base), k

    def test_result_beyond_float64_range_rejected(self):
        with pytest.raises(NumericDegeneracyError):
            jacobi_singular_values(np.full((3, 3), 1e308))

    def test_seeded_64x64_converges_in_ten_sweeps(self, monkeypatch):
        # Small-angle rotations need 10 sweeps here; large-angle ones plus a
        # confirming sweep needed 15.
        a = np.random.default_rng(7).standard_normal((64, 64))
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 10)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(jacobi_singular_values(a) - reference)) <= 1e-14 * reference[0]

    @staticmethod
    def _hadamard_rows():
        # Exactly orthogonal rows with exactly computed dot products.
        h = np.array([[1.0]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        return h

    @pytest.mark.parametrize("cosine, accepted", [(0.0, True), (0.5e-15, True), (2e-15, False)])
    def test_all_pairs_check_threshold(self, cosine, accepted):
        wt = self._hadamard_rows()
        wt[5] += cosine * wt[2]  # rows 2 and 5 now meet at about this cosine
        assert linalg._no_pair_active(wt) is accepted

    def test_all_pairs_check_skips_underflowing_pairs(self):
        # Columns 1 and 3 have squared norms that underflow to 0 and nonzero
        # dot products with the rest; with columns 0 and 2 made orthogonal,
        # every pair left is skipped, so the rows count as converged.
        wt = self._underflowing_columns().T.copy()
        wt[2] -= (wt[0] @ wt[2]) / (wt[0] @ wt[0]) * wt[0]
        assert wt[0] @ wt[1] != 0.0 and wt[0] @ wt[3] != 0.0
        assert linalg._no_pair_active(wt)
        wt[1] *= 1e150  # a squared norm in range again: the pair (0, 1) is active
        assert not linalg._no_pair_active(wt)

    def test_sweep_cap_raises(self, monkeypatch):
        a = np.random.default_rng(13).standard_normal((8, 8))
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericDegeneracyError, match="did not converge"):
            jacobi_singular_values(a)

    @pytest.mark.parametrize("case", ["diagonal", "hadamard"])
    def test_orthogonal_columns_need_no_sweep(self, monkeypatch, case):
        # The all-pairs check runs before the first sweep, so a cap of 0
        # sweeps still returns the exact values of orthogonal columns.
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
        a, expected = {
            "diagonal": (np.diag([2.0, -5.0, 1.0]), [5.0, 2.0, 1.0]),
            "hadamard": (self._hadamard_rows(), [math.sqrt(8.0)] * 8),
        }[case]
        assert np.array_equal(jacobi_singular_values(a), expected)

    def test_pair_with_zero_d_and_p_left_unrotated(self):
        # Columns 0 and 3, a pair of round 0, are orthogonal with equal norms,
        # so that round meets d = p_03 = 0, and arctan2(0, 0) = 0 must leave
        # them unrotated; columns 1 and 2 still need rotations.
        a = np.array([[1.0, 3.0, 1.0, 2.0],
                      [2.0, -1.0, 2.0, 1.0],
                      [2.0, 2.0, -1.0, -2.0],
                      [0.0, 1.0, 3.0, 0.0],
                      [0.0, 4.0, 1.0, 0.0]])
        assert [0, 3] in linalg._round_robin(4)[0].T.tolist()
        assert a[:, 0] @ a[:, 3] == 0.0 and a[:, 0] @ a[:, 0] == a[:, 3] @ a[:, 3]
        assert a[:, 1] @ a[:, 2] != 0.0
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(jacobi_singular_values(a) - reference)) <= 1e-14 * reference[0]

    @pytest.mark.parametrize("name", ["jacobi_singular_values", "_no_pair_active", "_round_robin"])
    def test_oracle_reaches_no_blas_or_lapack(self, name):
        # The oracle checks spectral_norm's LAPACK call, so it must not share
        # that route: no @, no dot-style product, no np.linalg, and no einsum
        # with optimize=..., which hands contractions to BLAS.
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(linalg, name))))
        blas_routes = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot", "linalg"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.MatMult), ast.unparse(node)
            if isinstance(node, ast.Attribute):
                assert node.attr not in blas_routes, ast.unparse(node)
            if isinstance(node, ast.Name):
                assert node.id not in blas_routes, node.id
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum"):
                assert all(k.arg != "optimize" for k in node.keywords), ast.unparse(node)


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
        # Only the isfinite mask (1/8 of a) and a 65-row block buffer are
        # allocated; |a| and its squares never exist as whole arrays.
        a = np.random.default_rng(32).standard_normal((1000, 1000))
        tracemalloc.start()
        try:
            frobenius_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * a.nbytes


def whole_array_group_norm(a, p, q):
    # Reference: |a| -> ldexp -> column p-norm -> vector q-norm, each over
    # the whole (C-contiguous) array at once.
    b = np.abs(np.ascontiguousarray(a))
    e = math.frexp(float(b.max()))[1] - 1
    b = np.ldexp(b, -e)
    if math.isinf(p):
        cols = b.max(axis=0)
    elif p == 2.0:
        cols = np.sqrt(np.sum(b * b, axis=0))
    else:
        cols = np.sum(b**p, axis=0) ** (1.0 / p)
    if math.isinf(q):
        v = float(cols.max())
    elif q == 1.0:
        v = float(cols.sum())
    elif q == 2.0:
        v = math.sqrt(cols @ cols)
    else:
        v = float(np.sum(cols**q) ** (1.0 / q))
    return math.ldexp(v, e)


class TestBlockedGroupNorm:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 1000])
    @pytest.mark.parametrize("cols", [1, 7, 40])
    def test_bitwise_equal_to_whole_array_reduction(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        a = rng.standard_normal((rows, cols)) * rng.uniform(0.0, 10.0, (rows, cols))
        views = [a, np.ascontiguousarray(a.T).T, rng.standard_normal((cols, rows)).T]
        for view, scale in itertools.product(views, (1.0, 2.0**300, 2.0**-300)):
            for p, q in itertools.product((1.0, 2.0, 3.0, INF), (1.0, 2.0, INF)):
                expected = whole_array_group_norm(view * scale, p, q)
                assert group_norm(view * scale, p, q) == expected
                assert linalg._group_norm(view * scale, p, q) == expected
        assert frobenius_norm(a) == whole_array_group_norm(a, 2.0, 2.0)
        assert norm_2_1_of_transpose(a) == whole_array_group_norm(a.T, 2.0, 1.0)

    def test_transposed_view_is_not_copied(self):
        a = np.random.default_rng(33).standard_normal((1000, 1000))
        tracemalloc.start()
        try:
            norm_2_1_of_transpose(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * a.nbytes


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
