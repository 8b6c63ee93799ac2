"""Separation geometry of unitary tuples.

Tuple distance, two-sided orbit distance (alternating trace maximization),
delta-separation reports, strong separation estimates, pair overlap, the
certified cb-distance lower bound, and the norming-tuple search. The ascent
routines return one-sided bounds only: upper bounds for orbit distances,
lower bounds for norms; the reports carry which side they certify.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BoundViolation, DimensionMismatch, InfeasibleOverlap, NormingOrbitError
from .linalg import MatrixTuple, as_generator, polar_unitary, sample_haar_unitary
from .superop import SuperOperator, _applier, apply, operator_norm, spectral_gap

__all__ = [
    "SeparationReport",
    "OrbitDistanceReport",
    "tuple_distance",
    "separation",
    "orbit_distance",
    "lower_bound_from_separation",
    "separation_bound",
    "separation_from_distance",
    "near_norming_radius",
    "strong_separation_estimate",
    "delta_overlap",
    "dcb_lower_bound",
    "find_norming_tuple",
    "zero_pad",
    "direct_sum",
    "mix_tuple",
]


def _check_shapes(x: MatrixTuple, y: MatrixTuple):
    if x.n != y.n or x.dim != y.dim:
        raise DimensionMismatch(
            f"tuples have shapes ({x.n}, {x.dim}) and ({y.n}, {y.dim})"
        )


def tuple_distance(x: MatrixTuple, y: MatrixTuple) -> float:
    """Euclidean distance in the normalized trace norm, aggregated over members.

    d(x, y)^2 = sum_j tr|x_j - y_j|^2 / N; for unitary tuples this expands to
    2n - 2 Re sum_j tr(x_j y_j*)/N.
    """
    _check_shapes(x, y)
    return float(np.linalg.norm(x.mats - y.mats)) / math.sqrt(x.dim)


@dataclass
class SeparationReport:
    """Measured pair separation delta = 1 - |T_uv| / sqrt(|T_uu| |T_vv|)."""

    delta: float
    norm_value: float
    witness_xi: Optional[np.ndarray] = field(default=None, repr=False)
    witness_eta: Optional[np.ndarray] = field(default=None, repr=False)
    method: str = "dense"
    self_norm_u: float = 0.0
    self_norm_v: float = 0.0

    def to_json(self) -> dict:
        return {
            "delta": float(self.delta),
            "norm_value": float(self.norm_value),
            "method": self.method,
            "self_norm_u": float(self.self_norm_u),
            "self_norm_v": float(self.self_norm_v),
        }


def separation(
    u: MatrixTuple,
    v: MatrixTuple,
    method: str = "auto",
    tol: float = 1e-10,
    rng=None,
) -> SeparationReport:
    """Measure the separation of a pair of tuples.

    The self-norms of unitary tuples are exactly n and are not recomputed.
    """
    _check_shapes(u, v)
    cross = operator_norm(SuperOperator(u, v), method=method, tol=tol, rng=rng)
    su = float(u.n) if u.unitary else operator_norm(
        SuperOperator(u, u), method=method, tol=tol, rng=rng, witness=False
    ).value
    sv = float(v.n) if v.unitary else operator_norm(
        SuperOperator(v, v), method=method, tol=tol, rng=rng, witness=False
    ).value
    geo = math.sqrt(su * sv)
    delta = min(max(1.0 - cross.value / geo, 0.0), 1.0) if geo > 0 else 0.0
    eta = None
    xi = cross.top_vector
    if xi is not None and cross.value > 0:
        image = apply(SuperOperator(u, v), xi)
        nrm = np.linalg.norm(image)
        if nrm > 0:
            eta = image / nrm
    return SeparationReport(
        delta=delta,
        norm_value=cross.value,
        witness_xi=xi,
        witness_eta=eta,
        method=cross.method,
        self_norm_u=su,
        self_norm_v=sv,
    )


@dataclass
class OrbitDistanceReport:
    """Bracketing of the two-sided orbit distance d'(u, v).

    ``upper`` is attained by (best_u, best_v): it equals
    d(best_u . u . best_v, v) and is reproducible by direct evaluation.
    ``lower`` is 0 unless a separation certificate was supplied.
    ``certified`` says that ``f_best`` reached the bound F <= n to within
    n * 1e-12, so no further restart could lower ``upper`` by more than
    about 1.4e-6 sqrt(n); otherwise ``upper`` is a best-of-restarts value.
    """

    upper: float
    best_u: np.ndarray = field(repr=False)
    best_v: np.ndarray = field(repr=False)
    restarts_used: int
    lower: float = 0.0
    f_best: float = 0.0
    f_values: tuple[float, ...] = ()
    certified: bool = False

    def to_json(self) -> dict:
        return {
            "upper": float(self.upper),
            "lower": float(self.lower),
            "restarts_used": int(self.restarts_used),
            "f_best": float(self.f_best),
            "certified": bool(self.certified),
        }


_ORBIT_ITERS = 3000  # step cap of one orbit ascent
_ORBIT_CERTIFIED = 1e-12  # F >= n (1 - this) is the global maximum F = n up to rounding


def _orbit_ascent(uv, vu, U0, V0, iters):
    """Alternating maximization of F(U, V) = Re sum_j tr(U u_j V v_j*)/N.

    ``uv`` and ``vu`` evaluate V -> sum_j u_j V v_j* and U -> sum_j v_j* U u_j.
    Each half-step takes the adjoint polar factor of the relevant trace
    matrix, the exact block maximizer, so F is non-decreasing until it gains
    less than 1e-14, where the ascent stops.
    """
    N = U0.shape[0]
    U, V = U0, V0
    f = -math.inf
    for _ in range(iters):
        U = polar_unitary(uv(V)).conj().T
        p, s, qh = np.linalg.svd(vu(U))
        V = (p @ qh).conj().T
        f_new = float(s.sum()) / N
        if f_new - f < 1e-14:
            f = max(f, f_new)
            break
        f = f_new
    return f, U, V


def orbit_distance(
    u: MatrixTuple,
    v: MatrixTuple,
    restarts: int = 20,
    iters: int = _ORBIT_ITERS,
    rng=None,
    separation_delta: Optional[float] = None,
) -> OrbitDistanceReport:
    """Upper-bound the orbit distance d'(u, v) = inf_{U,V} d(U u V, v).

    Each half-step is a globally optimal unitary (polar factor of the
    relevant trace matrix), so the ascent of F is monotone. Restart 0 starts
    from the identity pair and draws nothing from ``rng``; each later restart
    draws its Haar pair when it is reached, so ``restarts=1`` is one
    draw-free ascent (the first step of ``find_norming_tuple``'s orbit
    check). ``upper`` is the direct distance d(best_u . u . best_v, v) of
    the returned pair, not sqrt(2n - 2F): that formula cancels and cannot
    resolve distances below about 1e-8. ``f_best`` and ``f_values`` are the
    ascent values of F.

    Every |tr(U u_j V v_j*)| is at most N for unitaries, so F <= n on every
    pair. The restarts therefore stop at the first one whose F reaches
    n (1 - 1e-12), and the report is ``certified``: no later restart could
    raise F by more than n * 1e-12. Same-orbit pairs usually stop after
    restart 0 and draw no Haar starts from ``rng``; generic pairs stay below
    n and run every restart.
    """
    _check_shapes(u, v)
    u.require_unitary()
    v.require_unitary()
    gen = as_generator(rng)
    N = u.dim
    uv = _applier(SuperOperator(u, v))
    vu = _applier(SuperOperator(v.adjoint(), u.adjoint()))
    f_max = u.n * (1.0 - _ORBIT_CERTIFIED)
    runs = []
    for r in range(max(restarts, 1)):
        if r == 0:
            U0 = V0 = np.eye(N, dtype=complex)
        else:
            U0 = sample_haar_unitary(N, gen)
            V0 = sample_haar_unitary(N, gen)
        runs.append(_orbit_ascent(uv, vu, U0, V0, iters))
        if runs[-1][0] >= f_max:
            break
    f_best, U, V = max(runs, key=lambda run: run[0])
    upper = tuple_distance(u.transform(left=U, right=V), v)
    lower = 0.0
    if separation_delta is not None:
        lower = lower_bound_from_separation(separation_delta, u.n)
    return OrbitDistanceReport(
        upper=upper,
        best_u=U,
        best_v=V,
        restarts_used=len(runs),
        lower=lower,
        f_best=f_best,
        f_values=tuple(run[0] for run in runs),
        certified=f_best >= f_max,
    )


def lower_bound_from_separation(delta: float, n: int) -> float:
    """Certified orbit-distance lower bound sqrt(2 delta n) of a delta-separated pair."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.sqrt(2.0 * delta * n)


def separation_bound(eps: float, eps_prime: float, two_sided: bool = True) -> float:
    """Upper bound on |sum u_j (x) conj(v_j)| / n for a gapped, orbit-distant pair.

    Hypotheses: u has contraction certificate |T_u| <= eps n on the
    trace-zero space, |sum v (x) conj(v)| <= n, and d'(u, v) >= sqrt(2n(1-eps')).
    The two-sided branch additionally assumes the same certificate for v and
    is tighter for small parameters.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    if not 0.0 <= eps_prime <= 1.0:
        raise ValueError(f"eps_prime must be in [0, 1], got {eps_prime}")
    one_sided = eps_prime ** 0.2 * (2.0 ** -0.8 + 2.0 ** 1.2) + 2.0 * math.sqrt(eps)
    if not two_sided:
        return one_sided
    both = 3.0 * eps_prime ** (1.0 / 3.0) + 2.0 * eps
    return min(both, one_sided)


def separation_from_distance(
    u: MatrixTuple,
    v: MatrixTuple,
    eps: float,
    eps_prime: float,
    two_sided: bool = True,
    method: str = "auto",
    tol: float = 1e-10,
    rng=None,
) -> float:
    """Evaluate the separation bound and live-check it against the measured norm.

    The caller is responsible for the hypotheses (certified eps, and an orbit
    distance lower bound establishing eps'); a measured norm above the bound
    plus 1e-6 indicates violated preconditions and raises BoundViolation.
    Returns the bound on |sum u_j (x) conj(v_j)| / n.
    """
    _check_shapes(u, v)
    bound = separation_bound(eps, eps_prime, two_sided=two_sided)
    measured = operator_norm(
        SuperOperator(u, v), method=method, tol=tol, rng=rng, witness=False
    ).value / u.n
    if measured > bound + 1e-6:
        raise BoundViolation(
            f"measured cross norm {measured:.6g} exceeds bound {bound:.6g} "
            f"(eps={eps}, eps'={eps_prime}, two_sided={two_sided}); "
            "check the certificates backing the hypotheses"
        )
    return bound


def near_norming_radius(eps: float, delta: float) -> float:
    """Orbit radius certified for near-norming tuples of a gapped tuple.

    If u has contraction certificate eps (gap value eps*n) and v in the unit
    ball attains |sum u (x) conj(v)| > n(1-delta), then d'(u, v) is below
    this radius times sqrt(n). Piecewise: sqrt(2 theta) while theta < 1,
    else the fixed fallback 3 (any value >= 2 is vacuous there). The radius
    is O(delta^(1/4)) as delta -> 0 for fixed eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    q = 2.0 * delta - delta * delta
    inv = 1.0 / (1.0 - eps)
    theta = delta + math.sqrt(2.0) * math.sqrt(2.0 * q * (inv + 1.0)) + inv * q
    if theta >= 1.0:
        return 3.0
    return math.sqrt(2.0 * theta)


def mix_tuple(w: np.ndarray, t: MatrixTuple) -> MatrixTuple:
    """Coefficient action (w.t)_i = sum_j w_ij t_j."""
    w = np.asarray(w, dtype=complex)
    if w.shape != (t.n, t.n):
        raise DimensionMismatch(f"w must be {t.n}x{t.n}, got {w.shape}")
    return MatrixTuple((w @ t.mats.reshape(t.n, -1)).reshape(t.mats.shape))


def _polar_ascent(operator, polar, p, xi, iters, inc_tol, gen):
    """Alternate the top singular pair (xi, eta) of operator(p) with p = polar(xi, eta).

    Each norm solve (tol 1e-10) is warm-started from the previous xi; the
    ascent stops once the value gains less than inc_tol. Returns the last
    value and the parameter p whose operator attained it.
    """
    val = -math.inf
    for step in range(iters):
        if step:
            image = apply(T, xi)
            nrm = np.linalg.norm(image)
            if nrm == 0:
                break
            p = polar(xi, image / nrm)
        T = operator(p)
        rep = operator_norm(T, tol=1e-10, rng=gen, start=xi)
        gain, val, xi = rep.value - val, rep.value, rep.top_vector
        if gain < inc_tol:
            break
    return val, p


def strong_separation_estimate(
    u: MatrixTuple,
    v: MatrixTuple,
    restarts: int = 20,
    rng=None,
    iters: int = 200,
) -> float:
    """Estimate sup over unitary w of |sum_ij w_ij u_j (x) conj(v_i)| / n.

    Alternating ascent over (w, xi, eta), with norm solves at tol 1e-10, until
    the value gains less than 1e-12; the returned value is a LOWER bound
    on the true supremum, so 1 - estimate over-estimates the strong
    separation constant. Certifying the supremum would need a net over U(n)
    of size exponential in n^2, which is out of reach; treat the result as an
    estimate only. v may be any tuple normalized to the unit ball
    (|sum v (x) conj(v)| <= n), e.g. a unitary recombination of a unitary
    tuple; only u itself must be unitary.
    """
    _check_shapes(u, v)
    u.require_unitary()
    gen = as_generator(rng)
    n, N = u.n, u.dim

    def w_step(xi, eta):
        # d_ij = tr(u_j xi v_i* eta*); the best unitary w maximizes Re tr(w d^T)
        p = u.mats @ xi
        q = eta @ v.mats
        d = q.reshape(n, -1).conj() @ p.reshape(n, -1).T
        return polar_unitary(d.T).conj().T

    best = -math.inf
    for r in range(max(restarts, 1)):
        if r == 0:
            # channel fixed point: recovers the rotation aligning u with v
            fix = np.eye(N, dtype=complex) / math.sqrt(N)
            w = w_step(fix, fix)
        elif r == 1:
            w = np.eye(n, dtype=complex)
        else:
            w = sample_haar_unitary(n, gen)
        val, _ = _polar_ascent(
            lambda w: SuperOperator(mix_tuple(w, u), v),
            w_step, w, None, iters, 1e-12, gen,
        )
        best = max(best, val)
    return best / n


def delta_overlap(t: MatrixTuple) -> float:
    """Pairwise overlap n^2 max_{i != j} |tr(t_i t_j*)| / N."""
    if t.n < 2:
        raise ValueError(f"overlap needs n >= 2, got n={t.n}")
    flat = t.mats.reshape(t.n, -1)
    gram = flat @ flat.conj().T / t.dim
    np.fill_diagonal(gram, 0.0)
    return float(t.n * t.n * np.max(np.abs(gram)))


def dcb_lower_bound(delta_strong: float, overlap: float, n: int) -> float:
    """Certified cb-distance lower bound (1 - delta)^-1 for strongly separated spans.

    Requires the pair overlap to stay below gamma1 = 1 - sqrt(1 - delta);
    the bound is conditional on delta_strong being a true strong-separation
    constant (the alternating search only estimates it).
    """
    if not 0.0 < delta_strong < 1.0:
        raise ValueError(f"delta_strong must be in (0, 1), got {delta_strong}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if overlap < 0.0:
        raise ValueError(f"overlap must be non-negative, got {overlap}")
    gamma1 = 1.0 - math.sqrt(1.0 - delta_strong)
    if overlap >= gamma1:
        raise InfeasibleOverlap(
            f"pair overlap {overlap:.6g} >= gamma1 = 1 - sqrt(1 - delta) = "
            f"{gamma1:.6g}: the trace-duality step needs overlap < gamma1"
        )
    return 1.0 / (1.0 - delta_strong)


def find_norming_tuple(
    x: MatrixTuple, restarts: int = 20, rng=None
) -> tuple[MatrixTuple, float]:
    """Ascend |sum x_j (x) conj(v_j)| over unit-ball tuples v.

    The witness recursion alternates the top singular pair (xi, eta) with the
    per-member polar maximizers v_j = polar(eta* x_j xi), which keeps v
    unitary (the boundary of the feasible ball). Restart 0 starts from
    xi = eta = I/sqrt(N), the channel fixed point; a restart stops after 200
    steps or once the value gains less than 1e-10. For a gapped x the
    maximizers form a single orbit, so the best v is checked to lie near
    Orb(x), with tolerance 1e-4 sqrt(n) on the direct distance. The check
    is three calls: ``orbit_distance(x, v, restarts=1)``, whose identity
    start draws nothing from the generator and usually settles a gapped x;
    only if that misses, ``spectral_gap(x)``, and a gapless x passes there
    (a (+) b is normed off its orbit by a (+) W for any unitary W); and
    only if x is gapped, ``orbit_distance(x, v, restarts=10)``, whose miss
    raises NormingOrbitError with its ``upper``. (v, value) are fixed
    before the check and do not depend on it.
    """
    x.require_unitary()
    gen = as_generator(rng)
    N = x.dim

    def polar(xi, eta):
        stack = eta.conj().T @ x.mats @ xi
        return MatrixTuple(polar_unitary(stack), unitary=True)

    best_val = -math.inf
    best_v = None
    for r in range(max(restarts, 1)):
        if r == 0:
            xi = np.eye(N, dtype=complex) / math.sqrt(N)
            eta = xi
        else:
            xi = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
            xi /= np.linalg.norm(xi)
            eta = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
            eta /= np.linalg.norm(eta)
        val, v = _polar_ascent(
            lambda v: SuperOperator(x, v),
            polar, polar(xi, eta), xi, 200, 1e-10, gen,
        )
        if val > best_val:
            best_val, best_v = val, v
    tol = 1e-4 * math.sqrt(x.n)
    if (
        orbit_distance(x, best_v, restarts=1, rng=gen).upper > tol
        and spectral_gap(x, rng=gen).value < x.n - 1e-6
    ):
        dist = orbit_distance(x, best_v, restarts=10, rng=gen).upper
        if dist > tol:
            raise NormingOrbitError(
                f"norming witness sits {dist:.3e} from the orbit (tolerance {tol:.3e}); "
                "the input tuple may not have a spectral gap"
            )
    return best_v, float(best_val)


def zero_pad(t: MatrixTuple, N: int) -> MatrixTuple:
    """Embed k x k members into the top-left corner of N x N zeros."""
    if N < t.dim:
        raise DimensionMismatch(f"cannot pad dim {t.dim} down to {N}")
    if N == t.dim:
        return MatrixTuple(t.mats, unitary=t.unitary)
    out = np.zeros((t.n, N, N), dtype=complex)
    out[:, : t.dim, : t.dim] = t.mats
    return MatrixTuple(out)


def direct_sum(a: MatrixTuple, b: MatrixTuple) -> MatrixTuple:
    """Member-wise block-diagonal sum of two tuples with equal n."""
    if a.n != b.n:
        raise DimensionMismatch(f"tuples have n={a.n} and n={b.n}")
    N = a.dim + b.dim
    out = np.zeros((a.n, N, N), dtype=complex)
    out[:, : a.dim, : a.dim] = a.mats
    out[:, a.dim :, a.dim :] = b.mats
    return MatrixTuple(out, unitary=a.unitary and b.unitary)
