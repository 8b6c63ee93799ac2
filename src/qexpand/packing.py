"""Greedy packing of separated expander tuples and covering estimates.

Desk-scale instantiation of the packing phenomenon: sample Haar tuples,
keep the certified expanders, and admit a sample when it is measurably
delta-separated from every member so far (an online maximal family). The
closed-form count bounds are evaluated on a log scale so they stay finite
for the sizes where the true counts are astronomically large.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .expanders import _epsilon, haar_tuple
from .geometry import orbit_distance, tuple_distance
from .linalg import (
    _BATCH_BYTES,
    MatrixTuple,
    RngSpec,
    _ginibre_stack,
    ginibre_singular_mean,
    polar_unitary,
    save_tuple,
)
from .superop import _batch_size, _gap, _norms

__all__ = [
    "PackingFamily",
    "CoverEstimate",
    "TailRow",
    "TailReport",
    "greedy_pack",
    "greedy_cover",
    "packing_upper_bound",
    "net_size_bound",
    "subgaussian_tail_check",
]


@dataclass
class PackingFamily:
    """A greedily built family of pairwise delta-separated expander tuples.

    Rejections are split by cause: ``rejected_uncertified`` samples had a
    certificate epsilon below ``eps``, ``rejected_close`` samples had a pair
    below ``accept_delta``. ``since_last_admission`` counts the samples drawn
    after the last admitted one (all of them if none was admitted); a long
    run suggests the family is near saturation. ``unconverged`` counts the
    certificate and pair solves whose Lanczos run stopped at its apply cap.
    """

    members: list[MatrixTuple]
    pairwise: np.ndarray
    accept_delta: float
    eps: float
    seed: RngSpec
    rejected_uncertified: int
    rejected_close: int
    since_last_admission: int
    unconverged: int
    gap_values: list[float] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return self.rejected_uncertified + self.rejected_close

    @property
    def count(self) -> int:
        return len(self.members)

    def log_count(self) -> float:
        return math.log(self.count) if self.count else -math.inf

    def save(self, out_dir) -> list[Path]:
        """Write member tuple files, family.csv (i, j, delta_ij) and meta.json."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, m in enumerate(self.members):
            p = out / f"member_{i:04d}.json"
            save_tuple(p, m)
            paths.append(p)
        fam = out / "family.csv"
        with fam.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "delta_ij"])
            for i in range(self.count):
                for j in range(i + 1, self.count):
                    w.writerow([i, j, format(self.pairwise[i, j], ".17g")])
        paths.append(fam)
        meta = out / "meta.json"
        n = self.members[0].n if self.members else 0
        N = self.members[0].dim if self.members else 0
        meta.write_text(
            json.dumps(
                {
                    "n": n,
                    "N": N,
                    "eps": self.eps,
                    "delta": self.accept_delta,
                    "seed": self.seed.to_json(),
                    "members": self.count,
                    "rejected": self.rejected_count,
                    "rejected_uncertified": self.rejected_uncertified,
                    "rejected_close": self.rejected_close,
                    "since_last_admission": self.since_last_admission,
                    "unconverged": self.unconverged,
                    "log_count": self.log_count() if self.count else None,
                    "log_count_upper_bound": packing_upper_bound(n, N, self.accept_delta)
                    if self.count and self.accept_delta > 0
                    else None,
                },
                indent=2,
            )
            + "\n"
        )
        paths.append(meta)
        return paths


def greedy_pack(
    n: int,
    N: int,
    eps: float,
    delta: float,
    max_samples: int,
    rng: RngSpec,
) -> PackingFamily:
    """Online maximal family: admit certified samples separated from all members.

    A sample's separation from member v is 1 - ||T_uv|| / n (the self-norms
    of unitary tuples are exactly n). Each sample is certified at tol 1e-6,
    with ``certify``'s epsilon from a gap solve that computes no witness.
    The members are kept stacked in chunks of ``superop._batch_size`` tuples,
    and the norms against one chunk come from one ``superop._norms`` call:
    dense Gram solves up to the dense switch (N^2 <= 144 by default),
    Lanczos at tol 1e-6 in lockstep above it. The checks stop after the
    first chunk that holds a pair below ``delta``, so above the switch a
    rejected sample may solve up to one chunk of pairs (each counted in
    ``unconverged`` if capped) where it once stopped at the first close pair.

    Admission order is fixed by the sample stream, so identical seeds
    reproduce identical families. An empty family is a valid outcome.
    """
    if n < 1 or N < 1 or max_samples < 0:
        raise ValueError("n, N must be positive and max_samples non-negative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    chunk = _batch_size(n, N, N)
    members: list[MatrixTuple] = []
    stacks: list[np.ndarray] = []  # member matrices, chunk per stack
    gaps: list[float] = []
    rows: list[list[float]] = []  # member i's deltas against members 0..i-1
    uncertified = close = since = unconverged = 0
    for idx in range(max_samples):
        gen = rng.substream(idx)
        u = haar_tuple(n, N, gen)
        gap = _gap(u, "auto", 1e-6, gen, witness=False)
        unconverged += gap.method == "lanczos-unconverged"
        since += 1
        if _epsilon(gap.value, n) < eps:
            uncertified += 1
            continue
        deltas: list[float] = []
        ok = True
        for start in range(0, len(members), chunk):
            vs = stacks[start // chunk][: len(members) - start]
            norms, _, converged = _norms(u.mats[None], vs, False, [None] * len(vs), 1e-6)
            unconverged += int(np.count_nonzero(~converged))
            d = np.maximum(1.0 - norms / n, 0.0)
            deltas.extend(d.tolist())
            if d.min() < delta:
                ok = False
                break
        if not ok:
            close += 1
            continue
        if len(members) % chunk == 0:
            stacks.append(np.empty((chunk, n, N, N), dtype=complex))
        stacks[-1][len(members) % chunk] = u.mats
        rows.append(deltas)
        members.append(u)
        gaps.append(gap.value)
        since = 0
    count = len(members)
    pairwise = np.zeros((count, count))
    for i, row in enumerate(rows):
        pairwise[i, :i] = pairwise[:i, i] = row
    return PackingFamily(
        members=members,
        pairwise=pairwise,
        accept_delta=delta,
        eps=eps,
        seed=rng,
        rejected_uncertified=uncertified,
        rejected_close=close,
        since_last_admission=since,
        unconverged=unconverged,
        gap_values=gaps,
    )


@dataclass
class CoverEstimate:
    """Greedy cover of a tuple cloud: every point within radius of a center."""

    radius: float
    centers: list[MatrixTuple]
    metric: str
    count: int
    center_indices: list[int] = field(default_factory=list)
    max_assignment_distance: float = 0.0

    def to_json(self) -> dict:
        return {
            "radius": float(self.radius),
            "metric": self.metric,
            "count": int(self.count),
            "center_indices": list(self.center_indices),
            "max_assignment_distance": float(self.max_assignment_distance),
        }


def _metric_fn(metric: str, rng):
    if metric == "d":
        return tuple_distance
    if metric == "d_prime":
        def d_prime(a, b):
            return orbit_distance(a, b, restarts=6, rng=rng).upper

        return d_prime
    raise ValueError(f"metric must be 'd' or 'd_prime', got {metric!r}")


def greedy_cover(
    points: list[MatrixTuple],
    radius: float,
    metric: str = "d",
    rng=None,
) -> CoverEstimate:
    """Farthest-point greedy cover; the count upper-bounds the covering number.

    For metric "d_prime" the distances are ascent upper bounds from 6
    restarts of ``orbit_distance``, which keeps
    the cover property valid (a point within the reported distance is within
    the true orbit distance too).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not points:
        return CoverEstimate(radius, [], metric, 0)
    dist = _metric_fn(metric, rng)
    to_cover = np.full(len(points), np.inf)
    centers: list[int] = []
    next_center = 0
    while True:
        centers.append(next_center)
        c = points[next_center]
        for i, p in enumerate(points):
            if to_cover[i] > 0:
                to_cover[i] = min(to_cover[i], dist(p, c))
        worst = int(np.argmax(to_cover))
        if to_cover[worst] < radius:
            break
        next_center = worst
    return CoverEstimate(
        radius=radius,
        centers=[points[i] for i in centers],
        metric=metric,
        count=len(centers),
        center_indices=centers,
        max_assignment_distance=float(np.max(to_cover)),
    )


def packing_upper_bound(n: int, N: int, delta: float) -> float:
    """Log of the volume-argument cap on a delta-separated family in U(N)^n.

    log m_max <= 2 n N^2 log(1 + sqrt(2/delta)).
    """
    if n < 1 or N < 1:
        raise ValueError("n, N must be positive")
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must be in (0, 2], got {delta}")
    return 2.0 * n * N * N * math.log1p(math.sqrt(2.0 / delta))


def net_size_bound(n: int, N: int, delta: float) -> float:
    """Log of the generic functional-net count: 2 n N^2 log(1 + 2/delta).

    This caps how many N x N blocks any n-dimensional space needs for a
    (1-delta)^-1-embedding; the matching lower bound exp(b n N^2) holds for
    the extremal spaces with an existential constant b > 0.
    """
    if n < 1 or N < 1:
        raise ValueError("n, N must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return 2.0 * n * N * N * math.log1p(2.0 / delta)


@dataclass
class TailRow:
    lam: float
    empirical: float
    bound: float
    sigma: float
    flagged: bool


@dataclass
class TailReport:
    """SubGaussian tail table for S = sum_j Re tr(u_j) over Haar tuples.

    bound = exp(-k_hat lam^2 / n) with k_hat = b_N^2 the squared mean
    singular value of the Ginibre ensemble; a row is flagged when the
    empirical exceedance beats the bound by more than 3 binomial sigma.
    """

    rows: list[TailRow]
    n: int
    N: int
    samples: int
    b_n: float
    k_hat: float
    empirical_variance: float

    @property
    def any_flagged(self) -> bool:
        return any(r.flagged for r in self.rows)

    def to_csv_rows(self):
        yield ["lambda", "empirical", "bound", "sigma", "flagged"]
        for r in self.rows:
            yield [
                format(r.lam, ".17g"),
                format(r.empirical, ".17g"),
                format(r.bound, ".17g"),
                format(r.sigma, ".17g"),
                int(r.flagged),
            ]


def subgaussian_tail_check(
    n: int,
    N: int,
    samples: int,
    rng: RngSpec,
    bn_samples: int = 200,
) -> TailReport:
    """Monte Carlo exceedance frequencies of sum_j Re tr(u_j) against the tail bound
    at lambda = 0.5 k sqrt(n), k = 0, ..., 8."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    b_n = ginibre_singular_mean(N, bn_samples, rng.substream(0))
    k_hat = b_n * b_n
    sums = np.empty(samples)
    chunk = max(1, _BATCH_BYTES // (16 * n * N * N))
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        draws = np.empty((hi - lo, n, N, N), dtype=complex)
        for i, s in enumerate(range(lo, hi)):
            draws[i] = _ginibre_stack(N, n, rng.substream(1, s))
        traces = np.trace(polar_unitary(draws), axis1=-2, axis2=-1).real
        # running sums in member order, as a scalar loop would add them
        sums[lo:hi] = np.cumsum(traces, axis=1)[:, -1]
    rows = []
    for lam in (0.5 * k * math.sqrt(n) for k in range(9)):
        emp = float(np.mean(sums > lam))
        bound = math.exp(-k_hat * lam * lam / n)
        sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / samples)
        rows.append(TailRow(lam, emp, bound, sigma, emp > bound + 3.0 * sigma))
    return TailReport(
        rows=rows,
        n=n,
        N=N,
        samples=samples,
        b_n=b_n,
        k_hat=k_hat,
        empirical_variance=float(np.var(sums, ddof=1)),
    )
