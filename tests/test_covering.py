import math

import numpy as np
import pytest

from margin_auditor import (
    NumericDegeneracyError,
    ParameterError,
    cover_element_for,
    maurey_sparsify,
)
from conftest import peak_bytes


def recompute_error_sq(atoms, alpha, counts):
    # brute-force evaluation of || sum a_i V_i - (||a||_1/k) sum k_i V_i ||^2
    atoms = [np.asarray(v, dtype=float) for v in atoms]
    beta = float(np.sum(alpha))
    k = int(sum(counts))
    target = sum(a * v for a, v in zip(alpha, atoms))
    approx = (beta / k) * sum(c * v for c, v in zip(counts, atoms))
    diff = (target - approx).ravel()
    return float(diff @ diff)


class TestMaureySparsify:
    def test_orthonormal_pair_exact_at_even_counts(self):
        atoms = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        alpha = [1.0, 1.0]
        # the (2,2) allocation represents U exactly and meets the guarantee 1
        assert recompute_error_sq(atoms, alpha, (2, 2)) == 0.0
        result = maurey_sparsify(atoms, alpha, 4, seed=11)
        assert sum(result.counts) == 4
        assert result.approx_error_sq <= result.guarantee == pytest.approx(1.0)

    def test_single_atom(self):
        result = maurey_sparsify([np.array([2.0, 1.0])], [0.7], 9, seed=0)
        assert result.counts == (9,)
        assert result.approx_error_sq == 0.0

    def test_random_instances_meet_guarantee(self, rng):
        for trial in range(100):
            d = 6
            atoms = rng.standard_normal((d, 4))
            alpha = rng.uniform(0.0, 1.0, size=d)
            alpha[int(rng.integers(0, d))] += 0.5  # keep it nonzero
            result = maurey_sparsify(list(atoms), alpha, 10, seed=trial)
            assert sum(result.counts) == 10
            assert result.approx_error_sq <= result.guarantee
            # independent recomputation of both sides
            assert result.approx_error_sq == pytest.approx(
                recompute_error_sq(list(atoms), alpha, result.counts), rel=1e-10, abs=1e-12
            )
            norms_sq = [float(v @ v) for v in atoms]
            assert result.guarantee == pytest.approx(
                float(np.sum(alpha)) ** 2 / 10 * max(norms_sq), rel=1e-12
            )

    def test_matrix_atoms(self, rng):
        atoms = [rng.standard_normal((3, 2)) for _ in range(5)]
        alpha = rng.uniform(0.1, 1.0, size=5)
        result = maurey_sparsify(atoms, alpha, 8, seed=1)
        assert result.approx_error_sq <= result.guarantee

    def test_guarantee_nonincreasing_in_k(self, rng):
        atoms = [rng.standard_normal(4) for _ in range(3)]
        alpha = [0.2, 0.5, 0.3]
        values = [maurey_sparsify(atoms, alpha, k, seed=2).guarantee for k in (1, 2, 4, 8, 16)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            maurey_sparsify([np.ones(2)], [0.0], 3)
        with pytest.raises(ParameterError):
            maurey_sparsify([np.ones(2), np.ones(3)], [1.0, 1.0], 3)
        with pytest.raises(ParameterError):
            maurey_sparsify([np.ones(2)], [-1.0], 3)
        with pytest.raises(ParameterError):
            maurey_sparsify([np.ones(2)], [1.0], 0)
        with pytest.raises(ParameterError, match="at least one atom"):
            maurey_sparsify([], [], 3)
        with pytest.raises(ParameterError, match="one coefficient per atom"):
            maurey_sparsify([np.ones(2)], [0.5, 0.5], 3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                maurey_sparsify([np.ones(2), np.array([1.0, bad])], [1.0, 1.0], 3)


    def test_retry_cap_exhausted_is_a_degeneracy(self, monkeypatch):
        from margin_auditor import covering

        monkeypatch.setattr(covering, "_MAUREY_RETRY_CAP", 0)
        with pytest.raises(NumericDegeneracyError, match="within 0 draws"):
            maurey_sparsify(np.eye(2), [0.5, 0.5], 4)


class TestCoverElement:
    def test_zero_weight_matrix(self, rng):
        x = rng.standard_normal((5, 3))
        w_hat, result = cover_element_for(np.zeros((3, 2)), x, eps=0.5)
        assert not w_hat.any()
        assert result.approx_error_sq == 0.0

    def test_identity_data_single_column(self):
        a = np.array([[0.6], [0.8]])  # a single column of norm 1
        w_hat, _ = cover_element_for(a, np.eye(2), eps=2.0, seed=3)
        err = np.linalg.norm(np.eye(2) @ a - w_hat)
        assert err <= 2.0

    def test_cover_property_over_seeds(self):
        for seed in range(60):
            r = np.random.default_rng(2000 + seed)
            x = r.standard_normal((8, 4))
            a = r.standard_normal((4, 3))
            eps = float(r.uniform(0.3, 2.0))
            w_hat, result = cover_element_for(a, x, eps, q=2.0, s_exp=1.0, seed=seed)
            err = float(np.linalg.norm(x @ a - w_hat))
            assert err <= eps
            assert result.approx_error_sq <= result.guarantee

    def test_zero_column_dropped(self, rng):
        x = rng.standard_normal((6, 3))
        x[:, 1] = 0.0
        a = rng.standard_normal((3, 2))
        w_hat, _ = cover_element_for(a, x, eps=1.0, seed=5)
        assert np.linalg.norm(x @ a - w_hat) <= 1.0

    def test_all_zero_x_rejected(self):
        with pytest.raises(ParameterError):
            cover_element_for(np.ones((2, 2)), np.zeros((3, 2)), eps=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="columns but A has"):
            cover_element_for(np.ones((3, 2)), np.ones((4, 2)), eps=1.0)

    def test_conjugate_exponent_constraint(self, rng):
        # q < 2 makes the conjugate p > 2, outside the sparsifier's regime
        with pytest.raises(ParameterError):
            cover_element_for(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)),
                              eps=1.0, q=1.5)

    def test_shrinking_eps_grows_budget_and_still_covers(self):
        r = np.random.default_rng(77)
        x = r.standard_normal((6, 3))
        a = r.standard_normal((3, 2))
        errs = []
        sizes = []
        for eps in (2.0, 0.5, 0.1):
            w_hat, result = cover_element_for(a, x, eps, seed=9)
            errs.append(float(np.linalg.norm(x @ a - w_hat)))
            sizes.append(sum(result.counts))
            assert errs[-1] <= eps
        assert sizes[0] < sizes[1] < sizes[2]


def explicit_atoms(a, x, q):
    """The Lemma 3.2 atoms sign(b_ij) * y_i e_j^T of the cover for XA, built densely,
    with their weights |b_ij| in the row-major order of B's nonzero entries."""
    p = 1.0 if math.isinf(q) else q / (q - 1.0)
    col_norms = np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p)
    b = a * col_norms[:, None]
    atoms, weights = [], []
    for i, j in zip(*np.nonzero(b)):
        atom = np.zeros((x.shape[0], a.shape[1]))
        atom[:, j] = math.copysign(1.0, b[i, j]) * x[:, i] / col_norms[i]
        atoms.append(atom)
        weights.append(abs(b[i, j]))
    return atoms, weights


def cover_case(name):
    r = np.random.default_rng(11)
    n, d, m = {"a_1x1": (5, 1, 1), "a_1xm": (4, 1, 5), "a_dx1": (4, 5, 1)}.get(name, (6, 4, 3))
    x, a = r.standard_normal((n, d)), r.standard_normal((d, m))
    if name == "zero_row_of_a":
        a[1] = 0.0
    if name == "zero_column_of_x":
        x[:, 2] = 0.0
    return a, x, 0.4 * float(np.linalg.norm(x @ a))


class TestAtomFreeCover:
    @pytest.mark.parametrize("case", ["gaussian", "zero_row_of_a", "zero_column_of_x",
                                      "a_1x1", "a_1xm", "a_dx1"])
    @pytest.mark.parametrize("s_exp", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("q", [2.0, 3.0, math.inf])
    def test_matches_sparsifying_explicit_atoms(self, q, s_exp, case):
        a, x, eps = cover_case(case)
        w_hat, result = cover_element_for(a, x, eps, q=q, s_exp=s_exp, seed=7)
        atoms, weights = explicit_atoms(a, x, q)
        k = sum(result.counts)
        ref = maurey_sparsify(atoms, weights, k, seed=7)
        assert result.counts == ref.counts
        assert result.retries == ref.retries
        assert result.guarantee == pytest.approx(ref.guarantee, rel=1e-14)
        assert abs(result.approx_error_sq - ref.approx_error_sq) <= 1e-13 * ref.guarantee
        ref_w_hat = float(np.sum(weights)) / k * sum(c * v for c, v in zip(ref.counts, atoms))
        assert np.abs(w_hat - ref_w_hat).max() <= 1e-14 * np.abs(x @ a).max()
        assert np.linalg.norm(x @ a - w_hat) <= eps

    def test_peak_memory_builds_no_atoms(self):
        # 4,096 dense 16 x 64 atoms would take 33.5 MB; the atom-free draw needs well under 1 MB
        r = np.random.default_rng(0)
        a, x = r.standard_normal((64, 64)), r.standard_normal((16, 64))
        (_, result), peak = peak_bytes(cover_element_for, a, x, 800.0)
        assert sum(result.counts) == 406
        assert peak <= 1_000_000

    def test_huge_eps_needs_one_atom(self, rng):
        # eps * eps overflows in the atom budget; one atom already meets eps
        a, x = rng.standard_normal((3, 2)), rng.standard_normal((4, 3))
        w_hat, result = cover_element_for(a, x, 1e200, seed=1)
        assert sum(result.counts) == 1
        assert np.linalg.norm(x @ a - w_hat) <= 1e200

    def test_huge_eps_over_tiny_operands_needs_one_atom(self, rng):
        # eps / 2**e overflows float64 here, though k = 1 does not
        a, x = 1e-300 * rng.standard_normal((3, 2)), 1e-300 * rng.standard_normal((4, 3))
        _, result = cover_element_for(a, x, 1e200, seed=1)
        assert sum(result.counts) == 1

    def test_budget_beyond_float64_range_rejected(self, rng):
        a, x = rng.standard_normal((3, 2)), rng.standard_normal((4, 3))
        with pytest.raises(NumericDegeneracyError):
            cover_element_for(a, x, 1e-170)

