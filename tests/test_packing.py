import json
import math

import numpy as np
import pytest

import qexpand as qx
import qexpand.superop as superop
from qexpand.linalg import RngSpec


def _replay(n, N, eps, delta, max_samples, rng):
    """greedy_pack's admission rule with one dense SVD per pair.

    Returns (members, rejected_uncertified, rejected_close, since_last_admission).
    """
    members, uncertified, close, since = [], 0, 0, 0
    for idx in range(max_samples):
        gen = rng.substream(idx)
        u = qx.haar_tuple(n, N, gen)
        since += 1
        if qx.certify(u, tol=1e-6, rng=gen).epsilon < eps:
            uncertified += 1
            continue
        norms = (
            np.linalg.svd(qx.materialize(qx.SuperOperator(u, m)), compute_uv=False)[0]
            for m in members
        )
        if any(max(1.0 - v / n, 0.0) < delta for v in norms):
            close += 1
            continue
        members.append(u)
        since = 0
    return members, uncertified, close, since


class TestGreedyPack:
    def test_zero_delta_admits_every_certified_sample(self):
        fam = qx.greedy_pack(2, 3, 0.0, 0.0, 30, RngSpec(50, 0))
        assert fam.count + fam.rejected_count == 30
        assert fam.count == 30  # eps = 0 certifies everything

    def test_family_invariants(self):
        fam = qx.greedy_pack(4, 4, 0.02, 0.08, 60, RngSpec(51, 0))
        m = fam.count
        assert fam.pairwise.shape == (m, m)
        assert np.allclose(fam.pairwise, fam.pairwise.T, atol=1e-8)
        assert np.all(np.diag(fam.pairwise) == 0.0)
        off = fam.pairwise[~np.eye(m, dtype=bool)]
        assert np.all(off >= fam.accept_delta)
        assert all(g >= 0 for g in fam.gap_values)

    def test_determinism(self):
        a = qx.greedy_pack(3, 4, 0.02, 0.05, 40, RngSpec(52, 0))
        b = qx.greedy_pack(3, 4, 0.02, 0.05, 40, RngSpec(52, 0))
        assert a.count == b.count
        for x, y in zip(a.members, b.members):
            assert np.array_equal(x.mats, y.mats)

    def test_monotone_in_delta(self):
        counts = []
        for delta in (0.0, 0.05, 0.1, 0.2, 0.3):
            fam = qx.greedy_pack(4, 4, 0.0, delta, 50, RngSpec(53, 0))
            counts.append(fam.count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_log_count_below_upper_bound(self):
        fam = qx.greedy_pack(4, 4, 0.02, 0.05, 50, RngSpec(54, 0))
        assert fam.count > 0
        assert fam.log_count() <= qx.packing_upper_bound(4, 4, 0.05)

    def test_admitted_pairs_orbit_distance(self):
        # d'(u, v) >= sqrt(2 delta n) for every admitted pair
        fam = qx.greedy_pack(6, 4, 0.05, 0.05, 12, RngSpec(55, 0))
        lb = math.sqrt(2 * 0.05 * 6)
        gen = RngSpec(55, 1).generator()
        for i in range(min(fam.count, 4)):
            for j in range(i + 1, min(fam.count, 4)):
                rep = qx.orbit_distance(fam.members[i], fam.members[j], restarts=4, rng=gen)
                assert rep.upper >= lb - 1e-4

    @pytest.mark.parametrize(
        "args",
        [
            (2, 3, 0.0, 0.0, 30, 50),
            (4, 4, 0.02, 0.08, 60, 51),
            (3, 4, 0.02, 0.05, 40, 52),
            (4, 4, 0.0, 0.2, 50, 53),
            (4, 4, 0.02, 0.05, 50, 54),
            (4, 4, 0.15, 0.15, 60, 61),
        ],
    )
    def test_batched_pairs_match_per_pair_replay(self, args):
        *shape, seed = args
        fam = qx.greedy_pack(*shape, RngSpec(seed, 0))
        members, uncertified, close, since = _replay(*shape, RngSpec(seed, 0))
        assert fam.count == len(members)
        assert fam.rejected_count == uncertified + close
        assert (fam.rejected_uncertified, fam.rejected_close) == (uncertified, close)
        assert fam.since_last_admission == since
        assert fam.unconverged == 0
        for x, y in zip(fam.members, members):
            assert np.array_equal(x.mats, y.mats)

    def test_rejections_split_by_cause(self):
        # eps near the median certificate at (4, 4) rejects about half the samples
        fam = qx.greedy_pack(4, 4, 0.15, 0.15, 60, RngSpec(61, 0))
        assert fam.rejected_uncertified > 0 and fam.rejected_close > 0
        assert fam.rejected_count == fam.rejected_uncertified + fam.rejected_close
        assert fam.count + fam.rejected_count == 60
        assert 0 < fam.since_last_admission < 60 - fam.count

    def test_pairwise_matches_dense_svd_across_chunks(self):
        fam = qx.greedy_pack(4, 4, 0.02, 0.08, 60, RngSpec(51, 0))
        assert fam.count > superop._batch_size(4, 4, 4)  # the pairs span two batches
        for i in range(fam.count):
            for j in range(i):
                T = qx.SuperOperator(fam.members[i], fam.members[j])
                want = max(1.0 - qx.operator_norm(T, method="dense").value / 4, 0.0)
                assert abs(fam.pairwise[i, j] - want) <= 1e-13

    def test_lanczos_pairs_above_dense_switch(self, monkeypatch):
        # N^2 = 169 > AUTO_DENSE_DIM: the pairs run Lanczos in lockstep, each
        # exactly as its own solve would
        fam = qx.greedy_pack(3, 13, 0.0, 0.0, 4, RngSpec(62, 0))
        assert fam.count == 4 and fam.unconverged == 0
        for i in range(4):
            for j in range(i):
                T = qx.SuperOperator(fam.members[i], fam.members[j])
                rep = qx.operator_norm(T, method="lanczos", tol=1e-6, witness=False)
                assert fam.pairwise[i, j] == max(1.0 - rep.value / 3, 0.0)
        # the pair batches read the apply cap when called; the certificates'
        # operator_norm bound its default when it was defined
        monkeypatch.setattr(superop, "_MAX_APPLIES", 2)
        fam = qx.greedy_pack(3, 13, 0.0, 0.0, 4, RngSpec(62, 0))
        assert fam.unconverged == 6  # the 4 * 3 / 2 pair solves, none of the certificates

    def test_save_layout(self, tmp_path):
        fam = qx.greedy_pack(2, 3, 0.0, 0.02, 10, RngSpec(56, 0))
        paths = fam.save(tmp_path)
        assert (tmp_path / "family.csv").exists()
        assert (tmp_path / "meta.json").exists()
        members = sorted(tmp_path.glob("member_*.json"))
        assert len(members) == fam.count
        back = qx.load_tuple(members[0])
        assert back.n == 2 and back.dim == 3 and back.unitary
        lines = (tmp_path / "family.csv").read_text().strip().splitlines()
        assert lines[0] == "i,j,delta_ij"
        assert len(lines) == 1 + fam.count * (fam.count - 1) // 2
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["rejected"] == meta["rejected_uncertified"] + meta["rejected_close"]
        assert meta["since_last_admission"] == fam.since_last_admission
        assert meta["unconverged"] == 0


class TestGreedyCover:
    def _cloud(self, count, gen):
        return [qx.haar_tuple(4, 8, gen) for _ in range(count)]

    def test_huge_radius_single_center(self, rng):
        points = self._cloud(10, rng)
        est = qx.greedy_cover(points, 10 * math.sqrt(4))
        assert est.count == 1
        assert est.max_assignment_distance <= 10 * math.sqrt(4)

    def test_tiny_radius_all_points(self, rng):
        points = self._cloud(8, rng)
        est = qx.greedy_cover(points, 1e-9)
        assert est.count == 8

    def test_cover_property(self, rng):
        points = self._cloud(30, rng)
        radius = 0.9 * math.sqrt(4)
        est = qx.greedy_cover(points, radius)
        for p in points:
            assert min(qx.tuple_distance(p, c) for c in est.centers) < radius

    def test_net_duality(self, rng):
        # a cover at radius r has at least as many points as a packing at 2r
        points = self._cloud(40, rng)
        r = 0.8 * math.sqrt(4)
        cover = qx.greedy_cover(points, r)
        packing = []  # online maximal sub-family at pairwise distance >= 2r
        for p in points:
            if all(qx.tuple_distance(p, q) >= 2 * r for q in packing):
                packing.append(p)
        assert cover.count >= len(packing)

    def test_orbit_metric(self, rng):
        points = [qx.haar_tuple(2, 4, rng) for _ in range(6)]
        est = qx.greedy_cover(points, 1.0, metric="d_prime", rng=rng)
        assert est.count >= 1
        assert est.metric == "d_prime"

    def test_bad_metric(self, rng):
        with pytest.raises(ValueError):
            qx.greedy_cover(self._cloud(3, rng), 1.0, metric="euclid")


class TestCountBounds:
    def test_packing_bound_values(self):
        assert qx.packing_upper_bound(3, 5, 2.0) == pytest.approx(2 * 3 * 25 * math.log(2))
        assert qx.packing_upper_bound(1, 1, 0.5) == pytest.approx(2 * math.log(3))
        with pytest.raises(ValueError):
            qx.packing_upper_bound(3, 5, 0.0)
        with pytest.raises(ValueError):
            qx.packing_upper_bound(3, 5, 2.5)

    def test_packing_bound_below_crude_form(self):
        for delta in (0.05, 0.2, 1.0):
            assert qx.packing_upper_bound(4, 8, delta) <= 2 * math.sqrt(2 / delta) * 4 * 64

    def test_net_bound_values(self):
        assert qx.net_size_bound(2, 3, 2 / 3) == pytest.approx(2 * 2 * 9 * math.log(4))
        with pytest.raises(ValueError):
            qx.net_size_bound(2, 3, 1.0)

    def test_net_bound_monotone_decreasing(self):
        vals = [qx.net_size_bound(2, 4, d) for d in (0.05, 0.1, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scalar_case_matches_functional_bound_order(self):
        # at N = 1 the bound has the same log(1/delta) growth as the classical
        # n log(3/delta) functional-count bound
        for delta in (0.3, 0.1, 0.03, 0.01):
            ours = qx.net_size_bound(1, 1, delta) / 2  # per real dimension
            classical = math.log(3 / delta)
            assert 0.6 <= ours / classical <= 1.4


class TestSubgaussianTail:
    def test_tail_table(self):
        rep = qx.subgaussian_tail_check(4, 8, 2000, RngSpec(57, 0))
        assert not rep.any_flagged
        assert rep.rows[0].lam == 0.0
        assert rep.rows[0].empirical == pytest.approx(0.5, abs=0.05)
        assert rep.rows[0].bound == 1.0
        # Var(sum_j Re tr u_j) = n/2
        assert rep.empirical_variance == pytest.approx(2.0, rel=0.15)
        assert rep.b_n == pytest.approx(8 / (3 * math.pi), rel=0.05)

    def test_bounds_decreasing_in_lambda(self):
        rep = qx.subgaussian_tail_check(4, 8, 200, RngSpec(58, 0), bn_samples=50)
        bounds = [r.bound for r in rep.rows]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("n, N", [(3, 5), (8, 16)])
    def test_batched_draws_match_per_sample_replay(self, n, N):
        # b_n and the sums from one Haar draw and one trace at a time, summed in order
        spec, samples = RngSpec(61, n), 150
        rep = qx.subgaussian_tail_check(n, N, samples, spec, bn_samples=40)
        g = spec.substream(0)
        b_n = float(np.mean([qx.trace_norm(qx.sample_ginibre(N, g)) / N for _ in range(40)]))
        sums = np.empty(samples)
        for s in range(samples):
            gen = spec.substream(1, s)
            total = 0.0
            for _ in range(n):
                total += float(np.trace(qx.sample_haar_unitary(N, gen)).real)
            sums[s] = total
        assert rep.b_n == b_n
        assert rep.empirical_variance == float(np.var(sums, ddof=1))
        assert [r.empirical for r in rep.rows] == [float(np.mean(sums > r.lam)) for r in rep.rows]

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            qx.subgaussian_tail_check(4, 8, 50, RngSpec(59, 0))

    def test_csv_rows(self):
        rep = qx.subgaussian_tail_check(2, 4, 200, RngSpec(60, 0), bn_samples=50)
        rows = list(rep.to_csv_rows())
        assert rows[0] == ["lambda", "empirical", "bound", "sigma", "flagged"]
        assert len(rows) == 1 + len(rep.rows)
