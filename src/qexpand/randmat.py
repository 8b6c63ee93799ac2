"""Monte Carlo experiments comparing unitary and Gaussian matrix sums.

Norm statistics of sum_j a_j U_j (x) conj(U_j) restricted to the trace-zero
space, the decoupled Gaussian comparison sum_j a_j Y_j (x) conj(Y'_j) that
dominates it, the twirl average E[Y (x) conj(Y)] (the rank-one projection
onto the identity direction), and the diagonal-product constant of |Y| whose
inverse controls the comparison. Norms come in ``superop._solve`` batches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DenseCapExceeded
from .linalg import RngSpec, _JsonFields, _ginibre_stack, _haar_stack, as_generator, sample_ginibre
from .superop import _batch_size, _kron_sums, _scale_to_unit, _solve, center

__all__ = [
    "MomentReport",
    "ChiReport",
    "TwirlReport",
    "unitary_sum_norm",
    "gaussian_decoupled_norm",
    "chi_n_estimate",
    "twirl_identity_check",
    "matrix_coefficient_sum",
]


@dataclass
class MomentReport(_JsonFields):
    """Mean/std of a random matrix-sum norm over independent samples.

    ``unconverged`` counts the samples whose Lanczos solve stopped at its
    iteration cap, so that their values are only lower bounds.
    """

    n: int
    N: int
    coeffs: tuple
    samples: int
    mean_norm: float
    std_norm: float
    values: tuple[float, ...] = field(repr=False, default=())
    ratio: Optional[float] = None
    rhs: Optional[float] = None
    seed: Optional[RngSpec] = None
    unconverged: int = 0

    _json_fields = ("n", "N", "samples", "mean_norm", "std_norm", "unconverged", "ratio", "rhs", "seed")


def _scaled(f, x) -> float:
    """f(x) for a statistic f of degree one, by ``superop._solve``'s scale rule: f runs on
    x scaled by a power of two to unit max-abs (``_scale_to_unit``), and its value is
    scaled back, so an in-range value keeps its bits and no square inside f overflows."""
    s, e = _scale_to_unit(np.asarray(x, dtype=complex), None)
    return math.ldexp(f(s), e.item())


def _sum_norm_report(coeffs, a, N, samples, rng, tol, draw, restrict_h0) -> MomentReport:
    """Norm statistics of one random superoperator per sample index.

    ``draw(s, a)`` builds sample s's operator from the coefficients ``a``
    (shape (n, k, k)) out of its own RNG substreams and returns its left and
    right member stacks with the generator its norm solver draws from
    (used above the dense switch only). The samples are solved in chunks of
    ``superop._batch_size`` operators by one ``superop._solve`` call each,
    which picks the dense or the Lanczos solver; a sample's value does not
    depend on the chunk it fell in.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if samples < 10:
        raise ValueError(f"need at least 10 samples, got {samples}")
    if not a.size or not np.isfinite(a).all():
        raise ValueError("coeffs must be nonempty and finite")
    n, k = a.shape[:2]
    R = k * N
    vals = np.empty(samples)
    unconverged = 0
    chunk = _batch_size(n, R, N)
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        left = np.empty((hi - lo, n, R, R), dtype=complex)
        right = np.empty((hi - lo, n, N, N), dtype=complex)
        gens = []
        for b, s in enumerate(range(lo, hi)):
            left[b], right[b], gen = draw(s, a)
            gens.append(gen)
        vals[lo:hi], _, _, converged, *_ = _solve(left, right, restrict_h0, gens, tol)
        unconverged += int(np.count_nonzero(~converged))
    return MomentReport(
        n=n,
        N=N,
        coeffs=coeffs,
        samples=samples,
        mean_norm=_scaled(lambda s: s.real.mean(), vals),
        std_norm=_scaled(lambda s: s.real.std(ddof=1), vals),
        values=tuple(float(v) for v in vals),
        seed=rng,
        unconverged=unconverged,
    )


def _scalar_report(coeffs, N, samples, rng, tol, draw, restrict_h0) -> MomentReport:
    """``_sum_norm_report`` for scalar coefficients, with ratio = mean / ||a||_2."""
    coeffs = tuple(complex(c) for c in coeffs)
    a = np.asarray(coeffs).reshape(-1, 1, 1)
    rep = _sum_norm_report(coeffs, a, N, samples, rng, tol, draw, restrict_h0)
    l2 = _scaled(lambda s: math.sqrt(sum(abs(c) ** 2 for c in s.ravel().tolist())), a)
    rep.ratio = rep.mean_norm / l2 if l2 > 0 else None
    return rep


def _unitary_draw(rng: RngSpec, N: int):
    """Sample s: xi -> sum_j (a_j (x) U_j) xi U_j* on the blockwise trace-zero space.

    The U_j are Haar unitaries drawn in order from substream (2, s).
    """

    def draw(s, a):
        gen = rng.substream(2, s)
        u = _haar_stack(N, len(a), gen)
        n, k = a.shape[:2]
        left = (a[:, :, None, :, None] * u[:, None, :, None, :]).reshape(n, k * N, k * N)
        return left, u, gen

    return draw


def unitary_sum_norm(
    coeffs: Sequence[complex],
    N: int,
    samples: int,
    rng: RngSpec,
    tol: float = 1e-8,
) -> MomentReport:
    """Norm statistics of sum_j a_j U_j (x) conj(U_j) on the trace-zero space."""
    return _scalar_report(coeffs, N, samples, rng, tol, _unitary_draw(rng, N), True)


def gaussian_decoupled_norm(
    coeffs: Sequence[complex],
    N: int,
    samples: int,
    rng: RngSpec,
    tol: float = 1e-8,
) -> MomentReport:
    """Norm statistics of the decoupled Gaussian sum sum_j a_j Y_j (x) conj(Y'_j)."""

    def draw(s, a):
        gen_y = rng.substream(0, s)
        gen_yp = rng.substream(1, s)
        y = _ginibre_stack(N, len(a), gen_y)
        yp = _ginibre_stack(N, len(a), gen_yp)
        return a * y, yp, gen_y

    return _scalar_report(coeffs, N, samples, rng, tol, draw, False)


def bootstrap_mean_ci(values: Sequence[float], rng) -> tuple[float, float]:
    """95% percentile bootstrap interval for the mean from 1000 resamples.
    Non-rigorous, reporting only."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise ValueError("need at least two values")
    gen = as_generator(rng)
    idx = gen.integers(0, vals.size, size=(1000, vals.size))
    means = vals[idx].mean(axis=1)
    # not [0.025, 0.975]: (1 - 0.95) / 2 is another float, and moves the interval
    lo, hi = np.quantile(means, [(1 - 0.95) / 2, (1 + 0.95) / 2])
    return float(lo), float(hi)


@dataclass
class ChiReport:
    """Monte Carlo estimate of E[|Y|_ii |Y|_jj] over off-diagonal pairs."""

    value: float
    ci_lo: float
    ci_hi: float
    N: int
    samples: int


def chi_n_estimate(N: int, samples: int, rng: RngSpec) -> ChiReport:
    """Average of |Y|_ii |Y|_jj over all i != j pairs and Ginibre draws.

    |Y| is the positive square root of Y*Y via SVD. The estimate converges
    to the squared quarter-circle mean (8/(3 pi))^2 ~ 0.7205 as N grows and
    stays bounded away from 0, which is what the comparison constant needs.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")

    def one(s: int) -> float:
        y = sample_ginibre(N, rng.substream(0, s))
        _, sv, vh = np.linalg.svd(y)
        mod = vh.conj().T @ (sv[:, None] * vh)
        d = np.real(np.diag(mod))
        total = d.sum()
        return float((total * total - np.dot(d, d)) / (N * (N - 1)))

    vals = np.array([one(s) for s in range(samples)])
    lo, hi = bootstrap_mean_ci(vals, rng.substream(1))
    return ChiReport(float(vals.mean()), lo, hi, N, samples)


@dataclass
class TwirlReport(_JsonFields):
    """Distance of the empirical mean of Y (x) conj(Y) from the identity projection."""

    residual: float
    centered_residual: float
    N: int
    samples: int

    _json_fields = ("N", "samples", "residual", "centered_residual")


def twirl_identity_check(N: int, samples: int, rng: RngSpec) -> TwirlReport:
    """Estimate E[Y (x) conj(Y)] at small N and compare to the rank-one projection.

    Also reports the norm of the estimate composed with (I - P), which is the
    Monte Carlo form of the mean of the centered sum vanishing.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if N > 8:
        raise DenseCapExceeded(f"twirl materializes N^4 entries; N={N} exceeds cap 8")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    d = N * N
    acc = np.zeros((d, d), dtype=complex)
    batch = 2048
    for c, lo in enumerate(range(0, samples, batch)):
        ys = _ginibre_stack(N, min(batch, samples - lo), rng.substream(0, c))[None]
        acc += _kron_sums(ys, ys)[0]
    est = acc / samples
    v = np.eye(N, dtype=complex).reshape(-1) / math.sqrt(N)
    p = np.outer(v, v.conj())
    residual = float(np.linalg.norm(est - p))
    centered = float(np.linalg.norm(center(est.reshape(d, N, N))))
    return TwirlReport(residual, centered, N, samples)


def matrix_coefficient_sum(
    coeff_mats: Sequence[np.ndarray],
    N: int,
    samples: int,
    rng: RngSpec,
) -> MomentReport:
    """Norm statistics of sum_j a_j (x) U_j (x) conj(U_j) (1-P) with k x k blocks a_j.

    Each sample is the block superoperator xi -> sum_j (a_j (x) U_j) xi U_j*
    on the kN x N matrices with trace-zero blocks, solved like the scalar
    sums. Records the Gaussian-comparison right-hand side
    max(|sum a*a|, |sum a a*|)^(1/2) for headroom checks. With k = 1 this
    is exactly the scalar unitary sum: same draws, same operator.
    """
    mats = tuple(np.asarray(a, dtype=complex) for a in coeff_mats)
    if not mats:
        raise ValueError("coeff_mats must be nonempty")
    k = mats[0].shape[0]
    if k < 1 or any(a.shape != (k, k) for a in mats):
        raise ValueError("all coefficient blocks must be square of equal positive size")
    draw = _unitary_draw(rng, N)
    rep = _sum_norm_report(mats, np.stack(mats), N, samples, rng, 1e-8, draw, True)
    rep.rhs = _scaled(lambda s: math.sqrt(max(
        float(np.linalg.svd(sum(a.conj().T @ a for a in s), compute_uv=False)[0]),
        float(np.linalg.svd(sum(a @ a.conj().T for a in s), compute_uv=False)[0]))), np.stack(mats))
    return rep
