import math
from types import SimpleNamespace

import numpy as np
import pytest

import qexpand as qx
from qexpand.errors import (
    BoundViolation,
    DimensionMismatch,
    InfeasibleOverlap,
    NormingOrbitError,
)
from qexpand.linalg import RngSpec

from conftest import identity_tuple, random_tuple


def _gapped(x):
    """Stand-in gap report that calls any tuple gapped (value n - 1)."""
    return SimpleNamespace(value=x.n - 1.0)


class TestTupleDistance:
    def test_zero_on_equal(self, rng):
        u = qx.haar_tuple(3, 4, rng)
        assert qx.tuple_distance(u, u) == 0.0

    def test_antipodal_unitaries(self, rng):
        u = qx.haar_tuple(5, 4, rng)
        v = qx.MatrixTuple(-u.mats, unitary=True)
        assert qx.tuple_distance(u, v) == pytest.approx(2 * math.sqrt(5), abs=1e-12)

    def test_expansion_identity(self, rng):
        # d^2 = 2n - 2 Re sum tr(u_j v_j*)/N for unitary tuples
        u = qx.haar_tuple(4, 6, rng)
        v = qx.haar_tuple(4, 6, rng)
        overlap = sum(np.trace(u[j] @ v[j].conj().T).real for j in range(4)) / 6
        want = math.sqrt(2 * 4 - 2 * overlap)
        assert qx.tuple_distance(u, v) == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            qx.tuple_distance(qx.haar_tuple(2, 3, rng), qx.haar_tuple(2, 4, rng))


class TestSeparation:
    def test_self_pair_unseparated(self, rng):
        u = qx.haar_tuple(3, 5, rng)
        rep = qx.separation(u, u, method="dense")
        assert rep.delta == pytest.approx(0.0, abs=1e-10)
        assert rep.norm_value == pytest.approx(3.0, abs=1e-10)

    def test_small_dimension_defeats_separation(self):
        # (X, Y) vs (Y, Z): the 4x4 materialization has norm exactly 2
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        u = qx.MatrixTuple(np.stack([x, y]), unitary=True)
        v = qx.MatrixTuple(np.stack([y, z]), unitary=True)
        rep = qx.separation(u, v, method="dense")
        assert rep.norm_value == pytest.approx(2.0, abs=1e-10)
        assert rep.delta == pytest.approx(0.0, abs=1e-10)

    def test_haar_pairs_separate(self):
        hits = 0
        for s in range(10):
            gen = RngSpec(555, s).generator()
            u = qx.haar_tuple(8, 32, gen)
            v = qx.haar_tuple(8, 32, gen)
            rep = qx.separation(u, v, method="lanczos", tol=1e-8, rng=gen)
            hits += rep.delta > 0.2
        assert hits >= 9

    def test_witnesses_reproduce_norm(self, rng):
        u = qx.haar_tuple(3, 6, rng)
        v = qx.haar_tuple(3, 6, rng)
        rep = qx.separation(u, v, method="dense")
        T = qx.SuperOperator(u, v)
        val = abs(np.vdot(rep.witness_eta, qx.apply(T, rep.witness_xi)))
        assert val == pytest.approx(rep.norm_value, abs=1e-6)

    def test_haagerup_cauchy_schwarz(self, rng):
        # |T_xy| <= sqrt(|T_xx| |T_yy|) for arbitrary (non-unitary) tuples
        for _ in range(100):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(2, 6))
            x = random_tuple(n, N, rng)
            y = random_tuple(n, N, rng)
            rep = qx.separation(x, y, method="dense")
            geo = math.sqrt(rep.self_norm_u * rep.self_norm_v)
            assert rep.norm_value <= geo + 1e-8


class TestOrbitDistance:
    def test_orbit_member_recovered(self, rng):
        u = qx.haar_tuple(4, 8, rng)
        a = qx.sample_haar_unitary(8, rng)
        b = qx.sample_haar_unitary(8, rng)
        v = u.transform(left=a, right=b)
        rep = qx.orbit_distance(u, v, restarts=5, rng=rng)
        assert rep.upper <= 1e-5 * math.sqrt(4)

    def test_phase_absorbed(self, rng):
        u = qx.haar_tuple(3, 6, rng)
        v = u.scale(np.exp(1.234j))
        rep = qx.orbit_distance(u, v, restarts=5, rng=rng)
        assert rep.upper <= 1e-5 * math.sqrt(3)

    def test_upper_reproducible_from_witnesses(self, rng):
        u = qx.haar_tuple(3, 8, rng)
        v = qx.haar_tuple(3, 8, rng)
        rep = qx.orbit_distance(u, v, restarts=6, rng=rng)
        moved = u.transform(left=rep.best_u, right=rep.best_v)
        assert qx.tuple_distance(moved, v) == pytest.approx(rep.upper, abs=1e-12)
        # near the orbit, sqrt(2n - 2F) cancels to 0.0 here (F rounds above n);
        # upper must still be the direct distance of the returned pair
        x = qx.haar_tuple(2, 6, RngSpec(2, 1).generator())
        gen = RngSpec(2, 0).generator()
        w, _ = qx.find_norming_tuple(x, restarts=2, rng=gen)
        rep = qx.orbit_distance(x, w, restarts=10, rng=gen)
        moved = x.transform(left=rep.best_u, right=rep.best_v)
        assert rep.upper == qx.tuple_distance(moved, w)
        assert rep.upper != 0.0

    def test_separated_pair_obeys_lower_bound(self):
        gen = RngSpec(41, 0).generator()
        u = qx.haar_tuple(6, 16, gen)
        v = qx.haar_tuple(6, 16, gen)
        rep = qx.separation(u, v, method="dense")
        od = qx.orbit_distance(u, v, restarts=6, rng=gen, separation_delta=rep.delta)
        assert od.lower == pytest.approx(math.sqrt(2 * rep.delta * 6), abs=1e-12)
        assert od.upper >= od.lower - 1e-4

    def test_bi_invariance(self):
        gen = RngSpec(311, 0).generator()
        u = qx.haar_tuple(4, 8, gen)
        v = qx.haar_tuple(4, 8, gen)
        a = qx.sample_haar_unitary(8, gen)
        b = qx.sample_haar_unitary(8, gen)
        r1 = qx.orbit_distance(u, v, restarts=12, rng=RngSpec(312, 0).generator())
        r2 = qx.orbit_distance(
            u.transform(left=a, right=b), v, restarts=12, rng=RngSpec(313, 0).generator()
        )
        assert abs(r1.upper - r2.upper) <= 1e-6

    def test_converse_bound_on_every_ascent(self):
        # whenever the measured cross norm is n*eps', every ascent value keeps
        # d(U.u.V, v) >= sqrt(2n(1-eps'))
        gen = RngSpec(42, 0).generator()
        u = qx.haar_tuple(6, 16, gen)
        v = qx.haar_tuple(6, 16, gen)
        eps_prime = qx.separation(u, v, method="dense").norm_value / 6
        od = qx.orbit_distance(u, v, restarts=8, rng=gen)
        target = math.sqrt(2 * 6 * (1 - eps_prime))
        for f in od.f_values:
            assert target <= math.sqrt(max(2 * 6 - 2 * f, 0.0)) + 1e-6

    def test_certified_maximum_stops_the_restarts(self, monkeypatch):
        import qexpand.geometry as geo

        ascents = []

        def counted(*args):
            ascents.append(1)
            return ascent(*args)

        ascent = geo._orbit_ascent
        monkeypatch.setattr(geo, "_orbit_ascent", counted)
        # same orbit: restart 0 reaches the bound F = n, so one ascent decides
        gen = RngSpec(314, 0).generator()
        u = qx.haar_tuple(4, 8, gen)
        v = u.transform(left=qx.sample_haar_unitary(8, gen), right=qx.sample_haar_unitary(8, gen))
        rep = qx.orbit_distance(u, v, restarts=5, rng=gen)
        assert len(ascents) == 1 and rep.restarts_used == 1 and rep.certified
        assert rep.f_values == (rep.f_best,) and rep.f_best >= 4 * (1 - 1e-12)
        assert rep.upper <= 1e-5 * math.sqrt(4)
        assert rep.to_json()["certified"] is True
        ascents.clear()
        # generic pair: F stays below n, so every restart runs
        w = qx.haar_tuple(4, 8, gen)
        rep = qx.orbit_distance(u, w, restarts=5, rng=gen)
        assert len(ascents) == 5 and rep.restarts_used == 5 and not rep.certified
        assert len(rep.f_values) == 5 and rep.f_best < 4 * (1 - 1e-12)
        assert rep.to_json()["certified"] is False

    def test_requires_unitary(self, rng):
        with pytest.raises(ValueError):
            qx.orbit_distance(random_tuple(2, 3, rng), random_tuple(2, 3, rng))


class TestBoundFormulas:
    def test_lower_bound_from_separation(self):
        assert qx.lower_bound_from_separation(0.0, 5) == 0.0
        assert qx.lower_bound_from_separation(0.5, 4) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            qx.lower_bound_from_separation(1.5, 4)

    def test_separation_bound_at_zero_distance_parameter(self):
        assert qx.separation_bound(0.04, 0.0, two_sided=True) == pytest.approx(0.08)
        assert qx.separation_bound(0.04, 0.0, two_sided=False) == pytest.approx(0.4)

    def test_separation_bound_direct_substitution(self):
        # 3 * 0.001^(1/3) + 2 * 0.01 = 0.32
        val = 3 * 0.001 ** (1 / 3) + 2 * 0.01
        assert val == pytest.approx(0.32)
        assert qx.separation_bound(0.01, 0.001, two_sided=True) == pytest.approx(
            min(0.32, qx.separation_bound(0.01, 0.001, two_sided=False))
        )

    def test_live_check_raises_on_bogus_hypotheses(self, rng):
        u = qx.haar_tuple(3, 6, rng)
        with pytest.raises(BoundViolation):
            # u against itself has norm n, far above the claimed bound
            qx.separation_from_distance(u, u, eps=0.01, eps_prime=1e-6)

    def test_live_check_passes_under_valid_hypotheses(self):
        gen = RngSpec(43, 0).generator()
        u = qx.haar_tuple(8, 32, gen)
        v = qx.haar_tuple(8, 32, gen)
        gu = qx.certify(u, tol=1e-8, method="lanczos", rng=gen).gap.value
        gv = qx.certify(v, tol=1e-8, method="lanczos", rng=gen).gap.value
        eps = max(gu, gv) / 8
        s = qx.separation(u, v, method="lanczos", tol=1e-8, rng=gen).norm_value / 8
        # the converse direction certifies d' >= sqrt(2n(1-s))
        bound = qx.separation_from_distance(
            u, v, eps=eps, eps_prime=s, method="lanczos", tol=1e-8, rng=gen
        )
        assert s <= bound + 1e-6

    def test_near_norming_radius_vanishes_like_fourth_root(self):
        eps = 0.3
        prev = None
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            val = qx.near_norming_radius(eps, delta)
            assert val / delta**0.25 < 6.0
            if prev is not None:
                assert val < prev
            prev = val

    def test_near_norming_radius_fallback(self):
        assert qx.near_norming_radius(0.5, 0.9) == 3.0

    def test_near_norming_radius_domain(self):
        with pytest.raises(ValueError):
            qx.near_norming_radius(0.0, 0.5)
        with pytest.raises(ValueError):
            qx.near_norming_radius(0.5, 1.0)


class TestMixAction:
    def test_unitary_mix_preserves_self_operator(self, rng):
        # sum_i (w.v)_i (x) conj((w.v)_i) = sum_j v_j (x) conj(v_j) for unitary w
        v = qx.haar_tuple(3, 4, rng)
        w = qx.sample_haar_unitary(3, rng)
        lhs = qx.materialize(qx.SuperOperator(qx.mix_tuple(w, v), qx.mix_tuple(w, v)))
        rhs = qx.materialize(qx.SuperOperator(v, v))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_contraction_bound(self, rng):
        # |sum (w.v) (x) conj(w.v)| <= |w|^2 |sum v (x) conj(v)| for any w
        for _ in range(10):
            v = random_tuple(3, 4, rng)
            w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mixed = qx.mix_tuple(w, v)
            lhs = qx.operator_norm(qx.SuperOperator(mixed, mixed), method="dense").value
            rhs = qx.operator_norm(qx.SuperOperator(v, v), method="dense").value
            wn = np.linalg.svd(w, compute_uv=False)[0]
            assert lhs <= wn * wn * rhs + 1e-8

    def test_cross_bound_with_unitaries(self, rng):
        # |sum u_i (x) conj((w.v)_i)| <= |w| n for unitary tuples
        u = qx.haar_tuple(3, 4, rng)
        v = qx.haar_tuple(3, 4, rng)
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        val = qx.operator_norm(
            qx.SuperOperator(u, qx.mix_tuple(w, v)), method="dense"
        ).value
        wn = np.linalg.svd(w, compute_uv=False)[0]
        assert val <= wn * 3 + 1e-8


class TestStrongSeparation:
    def test_rotation_attains_one(self):
        gen = RngSpec(6, 0).generator()
        u = qx.haar_tuple(3, 8, gen)
        w0 = qx.sample_haar_unitary(3, gen)
        est = qx.strong_separation_estimate(u, qx.mix_tuple(w0, u), restarts=5, rng=gen)
        assert est == pytest.approx(1.0, abs=1e-8)

    def test_n1_reduces_to_separation(self):
        gen = RngSpec(8, 0).generator()
        u = qx.haar_tuple(1, 6, gen)
        v = qx.haar_tuple(1, 6, gen)
        est = qx.strong_separation_estimate(u, v, restarts=3, rng=gen)
        plain = qx.separation(u, v, method="dense").norm_value
        assert est == pytest.approx(plain, abs=1e-8)

    def test_dominates_plain_separation(self):
        gen = RngSpec(7, 0).generator()
        u = qx.haar_tuple(4, 16, gen)
        v = qx.haar_tuple(4, 16, gen)
        est = qx.strong_separation_estimate(u, v, restarts=4, rng=gen, iters=40)
        plain = qx.separation(u, v, method="dense").norm_value / 4
        assert est >= plain - 1e-9


class TestDeltaOverlapAndDcb:
    def test_pauli_overlap_zero(self, pauli):
        assert qx.delta_overlap(pauli) == 0.0

    def test_repeated_member_overlap(self):
        t = identity_tuple(2, 3)
        assert qx.delta_overlap(t) == pytest.approx(4.0)

    def test_haar_overlap_small_at_large_N(self):
        hits = 0
        for s in range(100):
            t = qx.haar_tuple(4, 64, RngSpec(60, s).generator())
            hits += qx.delta_overlap(t) < 1.0
        assert hits >= 95

    def test_needs_two_members(self, rng):
        with pytest.raises(ValueError):
            qx.delta_overlap(qx.haar_tuple(1, 4, rng))

    def test_dcb_formula(self):
        assert qx.dcb_lower_bound(0.5, 0.01, 4) == pytest.approx(2.0)

    def test_gamma1_solution(self):
        # delta = 3/4: gamma1 = 1 - sqrt(1/4) = 1/2
        delta = 0.75
        gamma1 = 1 - math.sqrt(1 - delta)
        assert gamma1 == pytest.approx(0.5)
        assert qx.dcb_lower_bound(delta, 0.49, 4) == pytest.approx(4.0)
        with pytest.raises(InfeasibleOverlap):
            qx.dcb_lower_bound(delta, 0.51, 4)

    def test_infeasibility_names_inequality(self):
        with pytest.raises(InfeasibleOverlap) as exc:
            qx.dcb_lower_bound(0.5, 2.0, 4)
        assert "gamma1" in str(exc.value)

    def test_small_N_pipeline_rejected(self):
        # at N=2 the overlap is overwhelmingly too large
        gen = RngSpec(17, 0).generator()
        t = qx.haar_tuple(3, 2, gen)
        ov = qx.delta_overlap(t)
        with pytest.raises(InfeasibleOverlap):
            qx.dcb_lower_bound(0.5, ov, 3)


class TestNorming:
    def test_pauli_attains_n_on_orbit(self):
        v, attained = qx.find_norming_tuple(
            qx.pauli_tuple(), restarts=5, rng=RngSpec(1, 0).generator()
        )
        assert attained == pytest.approx(4.0, abs=1e-9)
        rep = qx.orbit_distance(qx.pauli_tuple(), v, restarts=8, rng=RngSpec(1, 1).generator())
        assert rep.upper <= 1e-4 * 2

    def test_certified_haar_attains(self):
        gen = RngSpec(77, 0).generator()
        x = qx.haar_tuple(4, 16, gen)
        v, attained = qx.find_norming_tuple(x, restarts=5, rng=gen)
        assert attained >= 4 - 1e-3
        assert v.unitary

    def test_orbit_check_raises_when_forced_tight(self, monkeypatch):
        # x = a (+) b has gap n, so it is normed off its orbit by a (+) W-type
        # witnesses; the check reports that once x is made to look gapped
        import qexpand.geometry as geo

        gen = RngSpec(2, 1).generator()
        x = qx.direct_sum(qx.haar_tuple(2, 3, gen), qx.haar_tuple(2, 3, gen))
        # precondition: replay the search and the check's last orbit_distance
        # call (the dense gap solve draws nothing from gen)
        gen = RngSpec(2, 0).generator()
        w, attained = qx.find_norming_tuple(x, restarts=2, rng=gen)
        assert attained == pytest.approx(2.0, abs=1e-9)
        assert qx.orbit_distance(x, w, restarts=10, rng=gen).upper > 1e-2
        monkeypatch.setattr(geo, "spectral_gap", lambda x, rng=None: _gapped(x))
        with pytest.raises(NormingOrbitError):
            qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        # negative control: a gapped Haar tuple is normed on its orbit, so the
        # check stays quiet. Every n = 2 tuple is gapless (x + W x W* with
        # W = u1* u2 has norm 2 on the trace-zero part of W), so it takes n = 3.
        y = qx.haar_tuple(3, 6, RngSpec(2, 1).generator())
        assert qx.spectral_gap(y, method="dense").value < 3 - 1e-6
        _, attained = qx.find_norming_tuple(y, restarts=2, rng=RngSpec(2, 0).generator())
        assert attained == pytest.approx(3.0, abs=1e-9)

    def test_orbit_check_stops_once_decided(self, monkeypatch):
        import qexpand.geometry as geo

        ascents = []

        def counted(*args):
            ascents.append(1)
            return ascent(*args)

        ascent = geo._orbit_ascent
        monkeypatch.setattr(geo, "_orbit_ascent", counted)
        # gapped: restart 0 lands on the orbit, so one ascent decides
        x = qx.haar_tuple(3, 6, RngSpec(2, 1).generator())
        v, attained = qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert len(ascents) == 1
        ascents.clear()
        # the check only reads the result: same witness and value bit for bit
        # as a run whose orbit check is stubbed out
        with monkeypatch.context() as m:
            m.setattr(geo, "orbit_distance", lambda *a, **k: SimpleNamespace(upper=0.0))
            w, unchecked = qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert not ascents
        assert np.array_equal(v.mats, w.mats) and attained == unchecked
        # a (+) b made to look gapped: no restart reaches the orbit, so the
        # first check's restart and all 10 of the last one run
        gen = RngSpec(2, 1).generator()
        x = qx.direct_sum(qx.haar_tuple(2, 3, gen), qx.haar_tuple(2, 3, gen))
        monkeypatch.setattr(geo, "spectral_gap", lambda x, rng=None: _gapped(x))
        with pytest.raises(NormingOrbitError):
            qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert len(ascents) == 11

    def test_gap_solved_only_when_the_guard_fails(self, monkeypatch):
        import qexpand.geometry as geo

        gaps, ascents = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(geo, "spectral_gap", counted(gaps, geo.spectral_gap))
        monkeypatch.setattr(geo, "_orbit_ascent", counted(ascents, geo._orbit_ascent))
        # gapped Haar tuple: the guard passes, so the gap is never solved
        x = qx.haar_tuple(3, 6, RngSpec(2, 1).generator())
        _, attained = qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert not gaps and attained == pytest.approx(3.0, abs=1e-9)
        # gapless a (+) b: the first guard restart misses, one gap solve finds no
        # gap and ends the guard there, no error
        gen = RngSpec(2, 1).generator()
        x = qx.direct_sum(qx.haar_tuple(2, 3, gen), qx.haar_tuple(2, 3, gen))
        ascents.clear()
        v, attained = qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert len(gaps) == 1 and len(ascents) == 1
        monkeypatch.setattr(geo, "orbit_distance", lambda *a, **k: SimpleNamespace(upper=0.0))
        w, unchecked = qx.find_norming_tuple(x, restarts=2, rng=RngSpec(2, 0).generator())
        assert len(gaps) == 1 and len(ascents) == 1
        assert np.array_equal(v.mats, w.mats) and attained == unchecked

    def test_orbit_check_skipped_for_gapless_tuple(self):
        # the identity tuple has no gap, so the auto mode skips the orbit assertion
        v, attained = qx.find_norming_tuple(
            identity_tuple(2, 3), restarts=2, rng=RngSpec(3, 0).generator()
        )
        assert attained == pytest.approx(2.0, abs=1e-9)

    def test_block_reducible_nonorbit_witness(self):
        # x = a (+) b is normed by a (+) 0, which is not unitary, hence not in Orb(x)
        gen = RngSpec(5, 0).generator()
        a = qx.haar_tuple(2, 3, gen)
        b = qx.haar_tuple(2, 4, gen)
        x = qx.direct_sum(a, b)
        w = qx.zero_pad(a, 7)
        rep = qx.separation(x, w, method="dense")
        assert rep.norm_value == pytest.approx(2.0, abs=1e-9)
        assert rep.self_norm_v == pytest.approx(2.0, abs=1e-9)
        assert not w.unitary
        assert w.member_residuals().max() > 0.5
        # the reducible tuple itself has no spectral gap
        assert qx.spectral_gap(x, method="dense").value == pytest.approx(2.0, abs=1e-9)


class TestPadding:
    def test_zero_pad_shapes(self, rng):
        t = qx.haar_tuple(2, 3, rng)
        p = qx.zero_pad(t, 5)
        assert p.dim == 5 and p.n == 2
        assert np.allclose(p.mats[:, :3, :3], t.mats)
        assert np.abs(p.mats[:, 3:, :]).max() == 0.0
        with pytest.raises(DimensionMismatch):
            qx.zero_pad(t, 2)

    def test_direct_sum_requires_matching_n(self, rng):
        with pytest.raises(DimensionMismatch):
            qx.direct_sum(qx.haar_tuple(2, 3, rng), qx.haar_tuple(3, 3, rng))

    def test_rectangular_separation(self):
        # u gapped at N, v unitary in dimension k <= (1 - radius^2) N, zero-padded:
        # the pair is delta-separated
        gen = RngSpec(15, 0).generator()
        N, n, delta = 24, 4, 0.001
        u = qx.haar_tuple(n, N, gen)
        gap = qx.spectral_gap(u, method="dense").value
        eps = gap / n
        rad = qx.near_norming_radius(eps, delta)
        k = int((1 - rad * rad) * N)
        assert k >= 2
        v = qx.zero_pad(qx.haar_tuple(n, k, gen), N)
        val = qx.operator_norm(qx.SuperOperator(u, v), method="dense").value
        assert val <= n * (1 - delta) + 1e-6
