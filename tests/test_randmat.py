import math

import numpy as np
import pytest

import qexpand as qx
from qexpand.errors import DenseCapExceeded
from qexpand.linalg import RngSpec, spectral_norm


class TestUnitarySumNorm:
    def test_single_unitary_is_isometry(self):
        # (U (x) conj(U))(1-P) acts unitarily on the trace-zero space
        rep = qx.unitary_sum_norm([1.0], 8, 10, RngSpec(9, 0))
        assert rep.mean_norm == pytest.approx(1.0, abs=1e-8)
        assert rep.std_norm < 1e-8

    def test_pair_value_is_exactly_two(self):
        # any unitary pair keeps a fixed trace-zero vector, value 2 = 2 sqrt(n-1)
        rep = qx.unitary_sum_norm([1.0, 1.0], 12, 10, RngSpec(9, 1))
        for v in rep.values:
            assert v == pytest.approx(2.0, abs=1e-8)

    def test_hastings_scale_at_moderate_size(self):
        rep = qx.unitary_sum_norm([1.0] * 4, 32, 10, RngSpec(10, 1), tol=1e-7)
        assert 3.3 <= rep.mean_norm <= 4.2

    def test_per_sample_edge_slack(self):
        # finite-size edges fluctuate around 2 sqrt(n-1); 0.05 covers N = 64
        rep = qx.unitary_sum_norm([1.0] * 4, 64, 10, RngSpec(10, 2), tol=1e-7)
        for v in rep.values:
            assert v >= 2 * math.sqrt(3) - 0.05

    def test_homogeneity_per_sample(self):
        a = qx.unitary_sum_norm([1.0, 0.5], 6, 10, RngSpec(11, 0))
        b = qx.unitary_sum_norm([2.0, 1.0], 6, 10, RngSpec(11, 0))
        assert np.allclose(np.array(b.values), 2 * np.array(a.values), atol=1e-9)

    def test_coeff_validation(self):
        with pytest.raises(ValueError):
            qx.unitary_sum_norm([], 4, 10, RngSpec(1, 0))
        with pytest.raises(ValueError):
            qx.unitary_sum_norm([1.0], 4, 5, RngSpec(1, 0))


class TestGaussianDecoupledNorm:
    def test_single_factor_matches_product_oracle(self):
        # |Y (x) conj(Y')| = |Y| |Y'|; independence gives (E|Y|)^2
        rep = qx.gaussian_decoupled_norm([1.0], 64, 20, RngSpec(11, 1), tol=1e-7)
        gen = RngSpec(11, 2).generator()
        mean_norm = np.mean([spectral_norm(qx.sample_ginibre(64, gen)) for _ in range(200)])
        assert rep.mean_norm == pytest.approx(mean_norm**2, rel=0.07)

    def test_homogeneity(self):
        a = qx.gaussian_decoupled_norm([1.0, 1.0], 8, 10, RngSpec(12, 3))
        b = qx.gaussian_decoupled_norm([3.0, 3.0], 8, 10, RngSpec(12, 3))
        assert np.allclose(np.array(b.values), 3 * np.array(a.values), atol=1e-9)

    def test_dominance_headroom(self):
        uni = qx.unitary_sum_norm([1.0] * 8, 16, 10, RngSpec(12, 0), tol=1e-7)
        gau = qx.gaussian_decoupled_norm([1.0] * 8, 16, 10, RngSpec(12, 1), tol=1e-7)
        assert uni.mean_norm <= 8 * gau.mean_norm


class TestChi:
    def test_small_N_positive_below_one(self):
        rep = qx.chi_n_estimate(2, 20000, RngSpec(100, 0))
        assert 0.0 < rep.value < 1.0
        assert rep.ci_lo <= rep.value <= rep.ci_hi

    def test_limit_value(self):
        rep = qx.chi_n_estimate(64, 200, RngSpec(101, 0))
        assert rep.value == pytest.approx((8 / (3 * math.pi)) ** 2, rel=0.05)

    def test_bounded_away_from_zero(self):
        for N, samples in ((2, 2000), (4, 1000), (8, 500), (16, 300)):
            rep = qx.chi_n_estimate(N, samples, RngSpec(102 + N, 0))
            assert rep.value > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            qx.chi_n_estimate(1, 1000, RngSpec(1, 0))
        with pytest.raises(ValueError):
            qx.chi_n_estimate(4, 10, RngSpec(1, 0))


class TestTwirl:
    def test_residual_small(self):
        rep = qx.twirl_identity_check(2, 100_000, RngSpec(13, 0))
        assert rep.residual <= 0.02
        assert rep.centered_residual <= 0.02

    def test_projection_is_rank_one_trace_one(self):
        v = np.eye(2, dtype=complex).reshape(-1) / math.sqrt(2)
        p = np.outer(v, v.conj())
        s = np.linalg.svd(p, compute_uv=False)
        assert s[0] == pytest.approx(1.0) and np.all(s[1:] < 1e-14)
        assert np.trace(p) == pytest.approx(1.0)

    def test_off_projection_component_vanishes(self):
        # Re <W, Y (x) conj(Y)> has mean 0 for a fixed trace-zero direction W
        gen = RngSpec(14, 0).generator()
        N, samples = 2, 20_000
        w = np.zeros((4, 4), dtype=complex)
        w[0, 1] = 1.0  # off the identity-projection direction
        vals = np.empty(samples)
        for s in range(samples):
            y = qx.sample_ginibre(N, gen)
            k = np.einsum("ac,bd->abcd", y, y.conj()).reshape(4, 4)
            vals[s] = np.vdot(w, k).real
        sigma = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean()) <= 3 * sigma

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            qx.twirl_identity_check(16, 1000, RngSpec(1, 0))


class TestMatrixCoefficientSum:
    def test_k1_reduces_to_scalar_path(self):
        for N in (4, 17):  # dense and Lanczos path
            scalar = qx.unitary_sum_norm([1.0, 0.7], N, 10, RngSpec(15, 0))
            matrix = qx.matrix_coefficient_sum(
                [np.eye(1), 0.7 * np.eye(1)], N, 10, RngSpec(15, 0)
            )
            assert matrix.values == scalar.values

    def test_diagonal_cells(self):
        n = 3
        blocks = [np.zeros((n, n)) for _ in range(n)]
        for j in range(n):
            blocks[j][j, j] = 1.0
        rep = qx.matrix_coefficient_sum(blocks, 4, 10, RngSpec(16, 0))
        assert rep.rhs == pytest.approx(1.0)
        assert rep.mean_norm <= 8 * rep.rhs

    def test_homogeneity(self):
        a = qx.matrix_coefficient_sum([np.eye(2), np.eye(2)], 3, 10, RngSpec(17, 0))
        b = qx.matrix_coefficient_sum([2 * np.eye(2), 2 * np.eye(2)], 3, 10, RngSpec(17, 0))
        assert np.allclose(np.array(b.values), 2 * np.array(a.values), atol=1e-9)

    def test_block_identity_beyond_old_dense_cap(self):
        # k N^2 = 32768: I_8 (x) U (x) conj(U) is unitary on the trace-zero blocks
        rep = qx.matrix_coefficient_sum([np.eye(8)], 64, 10, RngSpec(1, 0))
        assert np.abs(np.array(rep.values) - 1.0).max() <= 1e-12

    def test_matrix_free_matches_kronecker_oracle(self):
        # k N^2 = 288 runs Lanczos; the oracle is the explicit Kronecker sum
        k, N, rng = 2, 12, RngSpec(22, 0)
        blocks = [np.eye(k), np.array([[0.3, 1.0], [-0.5j, 0.8]])]
        rep = qx.matrix_coefficient_sum(blocks, N, 10, rng)
        v = np.eye(N).reshape(-1) / math.sqrt(N)
        q = np.eye(N * N) - np.outer(v, v)
        for s, value in enumerate(rep.values):
            gen = rng.substream(2, s)
            us = [qx.sample_haar_unitary(N, gen) for _ in blocks]
            total = sum(np.kron(a, np.kron(u, u.conj()) @ q) for a, u in zip(blocks, us))
            assert value == pytest.approx(np.linalg.svd(total, compute_uv=False)[0], abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            qx.matrix_coefficient_sum([np.eye(2), np.eye(3)], 4, 10, RngSpec(1, 0))


class TestNonFiniteCoefficients:
    # _sum_norm_report checks once, before any draw or solve, and names coeffs
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("-inf"))])
    def test_scalar_sums(self, bad):
        with pytest.raises(ValueError, match="coeffs must be nonempty and finite"):
            qx.unitary_sum_norm([bad, 1, 1, 1], 4, 10, RngSpec(0))
        with pytest.raises(ValueError, match="coeffs must be nonempty and finite"):
            qx.gaussian_decoupled_norm([bad, 1], 17, 10, RngSpec(0))

    def test_block_sum(self):
        blocks = [np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])]
        with pytest.raises(ValueError, match="coeffs must be nonempty and finite"):
            qx.matrix_coefficient_sum(blocks, 3, 10, RngSpec(0))


class TestReports:
    def test_moment_report_json(self):
        rep = qx.unitary_sum_norm([1.0], 4, 10, RngSpec(18, 0))
        obj = rep.to_json()
        assert obj["samples"] == 10
        assert "mean_norm" in obj and "std_norm" in obj

    @pytest.mark.parametrize("fn", [qx.unitary_sum_norm, qx.gaussian_decoupled_norm])
    def test_statistics_scale_past_the_square_overflow(self, fn):
        # at 1e200 the squares inside ||a||_2 and the std overflow unless each
        # statistic is computed on values scaled by a power of two
        a = fn([1.0, 0.5, 1j], 8, 10, RngSpec(11, 8))
        b = fn([1e200, 0.5e200, 1e200j], 8, 10, RngSpec(11, 8))
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12, abs=0)
        for key in ("mean_norm", "std_norm"):
            assert getattr(b, key) == pytest.approx(1e200 * getattr(a, key), rel=1e-12, abs=0)

    def test_std_uses_unbiased_estimator(self):
        rep = qx.gaussian_decoupled_norm([1.0], 4, 12, RngSpec(19, 0))
        assert rep.std_norm == pytest.approx(np.std(rep.values, ddof=1))

    def test_bootstrap_ci_brackets_mean(self):
        from qexpand.randmat import bootstrap_mean_ci

        vals = RngSpec(20, 0).generator().normal(5.0, 1.0, size=100)
        lo, hi = bootstrap_mean_ci(vals, RngSpec(20, 1).generator())
        assert lo <= np.mean(vals) <= hi
        assert hi - lo < 1.0

    def test_bootstrap_ci_seeding_matches_samplers(self):
        # None is the fixed default stream, and an RngSpec is its generator
        from qexpand.randmat import bootstrap_mean_ci

        vals = [0.5, 3.0, 1.5, 4.0, 0.25]
        assert bootstrap_mean_ci(vals, None) == bootstrap_mean_ci(vals, None)
        spec = RngSpec(20, 1)
        assert bootstrap_mean_ci(vals, spec) == bootstrap_mean_ci(vals, spec.generator())

    def test_unconverged_samples_are_counted(self, monkeypatch):
        # N = 13 runs Lanczos under "auto"; a 2-apply cap leaves every sample unconverged
        for fn in (qx.unitary_sum_norm, qx.gaussian_decoupled_norm):
            rep = fn([1.0] * 4, 13, 10, RngSpec(23, 0))
            assert rep.unconverged == 0 and rep.to_json()["unconverged"] == 0
        # cap every Lanczos run of the lockstep solver at 2 applies
        lanczos = qx.superop._lanczos
        monkeypatch.setattr(qx.superop, "_lanczos", lambda *args: lanczos(*args[:-1], 2))
        for fn in (qx.unitary_sum_norm, qx.gaussian_decoupled_norm):
            rep = fn([1.0] * 4, 13, 10, RngSpec(23, 0))
            assert rep.unconverged == 10 and rep.to_json()["unconverged"] == 10

    def test_tol_must_be_positive(self):
        # dense solves at N = 4, lockstep Lanczos chunks at N = 13
        for N in (4, 13):
            with pytest.raises(ValueError):
                qx.unitary_sum_norm([1.0, 1.0], N, 10, RngSpec(21, 0), tol=0.0)

    def test_per_sample_streams_are_independent_of_count(self):
        # the first 10 samples agree bit for bit between a 10-sample and a
        # 20-sample run: dense solves at N = 4, lockstep Lanczos chunks at N = 13
        for N in (4, 13):
            a = qx.unitary_sum_norm([1.0, 1.0], N, 10, RngSpec(21, 0))
            b = qx.unitary_sum_norm([1.0, 1.0], N, 20, RngSpec(21, 0))
            assert a.values == b.values[:10]
