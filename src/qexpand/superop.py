"""Superoperators T(xi) = sum_j x_j xi y_j* on Hilbert-Schmidt space.

The operator acts on (kN x N) matrices xi, read as k stacked N x N blocks:
the x_j are kN x kN and the y_j are N x N, so a left member a (x) u maps the
blocks as a (x) (u . u*). k = 1 is the square case. The operator is held as a
pair of matrix tuples and applied matrix-free at cost O(n k^2 N^3); an
explicit kN^2 x kN^2 matrix is only built on request (and under a size cap)
as the dense oracle. ``restrict_h0`` composes the action with the projection
onto the blockwise trace-zero subspace on both sides, which is applied
analytically as xi_b -> xi_b - tr(xi_b)/N * I on every block, never as a
matrix. ``operator_norm`` takes the dense SVD for small kN^2 and otherwise
runs thick-restart Lanczos on T*T through the matrix-free action.

Dense matrices sum_j x_j (x) conj(y_j) come from one matmul over the members,
for one operator (``materialize``) or for K unrestricted k = 1 operators
(u, v_1), ..., (u, v_K) at once (``pair_norms``, the packing hot path, which
takes their norms from one batched ``eigvalsh`` of the Gram matrices M*M).
The dense ``operator_norm`` without a witness uses the same Gram kernel.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DenseCapExceeded, DimensionMismatch
from .linalg import MatrixTuple, as_generator

__all__ = [
    "SuperOperator",
    "GapReport",
    "dense_cap",
    "center",
    "apply",
    "materialize",
    "pair_norms",
    "auto_dense",
    "operator_norm",
    "spectral_gap",
]

DEFAULT_DENSE_CAP = 4096
# Above this kN^2 "auto" switches from the dense SVD to Lanczos. Median ms
# per operator_norm call (8 operators, 3 timings each, tol=1e-8, one BLAS
# thread on a 2-vCPU Xeon), dense / Lanczos; U = restricted Haar unitary
# sums, G = unrestricted Ginibre sums, w = with witness:
#
#   kN^2 (k, N)    U n=4       U n=8       U n=8 w      G n=8       G n=8 w
#   121  (1, 11)   3.6 / 5.9   4.1 / 5.6   7.9 / 5.4    2.7 / 2.3   5.7 / 2.2
#   144  (1, 12)   5.5 / 6.6   5.6 / 5.8   10.2 / 5.7   4.2 / 2.4   8.0 / 2.4
#   162  (2, 9)    6.6 / 5.2   6.4 / 4.7   11.3 / 4.6   5.5 / 3.0   10.6 / 3.1
#   169  (1, 13)   7.4 / 6.9   7.7 / 6.0   14.4 / 6.0   5.7 / 2.9   12.1 / 3.1
#   256  (1, 16)   21.8 / 8.0  22.5 / 8.6  39.9 / 8.5   15.1 / 3.7  31.6 / 3.8
#
# Dense keeps the witness-free restricted unitary solves, the slowest case
# for Lanczos, up to 144; from 169 on Lanczos is faster in every case. At
# tol=1e-10 the unitary n=4 crossover moves to 169-196. The two paths agree
# to 1.2e-14 on all of these.
AUTO_DENSE_DIM = 144
# Lanczos basis size and the Ritz vectors kept at a thick restart. A larger
# basis costs more per step (Gram-Schmidt against the whole basis, and a
# larger eigh at each convergence check) and more memory than it saves in
# applies.
LANCZOS_BASIS = 24
LANCZOS_KEEP = 6
# Applies between Ritz convergence checks. One eigh of the projected matrix
# costs 11-99 us (6x6 to 24x24) against 145 us for a T*T apply at n=8, N=16.
# At that size checking every 4th apply instead of every apply took a median
# solve (tol=1e-8, one BLAS thread) from 9.1-9.6 to 7.5-7.9 ms for Haar
# unitary sums and from 5.2 to 3.9-4.1 ms for Ginibre sums, at 1.5-2 more
# applies. A late check only adds applies, which tighten the lower bound.
LANCZOS_CHECK = 4
# beta below this multiple of the largest ||T*T q|| seen is rounding noise:
# the basis spans an invariant subspace.
_BREAKDOWN = 1e-13


def dense_cap() -> int:
    """Materialization cap on N^2, overridable via QEX_DENSE_CAP."""
    raw = os.environ.get("QEX_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"QEX_DENSE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"QEX_DENSE_CAP must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class SuperOperator:
    """T = sum_j left_j (.) right_j*, optionally restricted to the trace-zero subspace.

    left members are kN x kN and right members N x N; T acts on kN x N matrices.
    """

    left: MatrixTuple
    right: MatrixTuple
    restrict_h0: bool = False

    def __post_init__(self):
        if self.left.n != self.right.n or self.left.dim % self.right.dim:
            raise DimensionMismatch(
                f"left tuple is ({self.left.n}, {self.left.dim}), "
                f"right is ({self.right.n}, {self.right.dim})"
            )

    @classmethod
    def conjugation(cls, u: MatrixTuple, restrict_h0: bool = True) -> "SuperOperator":
        """The channel-like map xi -> sum_j u_j xi u_j*."""
        return cls(u, u, restrict_h0=restrict_h0)

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (kN, N) of the matrices T acts on."""
        return self.left.dim, self.right.dim

    def adjoint(self) -> "SuperOperator":
        """Adjoint with respect to the Hilbert-Schmidt inner product."""
        return SuperOperator(
            self.left.adjoint(), self.right.adjoint(), restrict_h0=self.restrict_h0
        )


def center(xi: np.ndarray) -> np.ndarray:
    """Project each N x N block of a kN x N matrix onto the trace-zero subspace."""
    out = np.array(xi, dtype=complex, order="C")
    N = out.shape[1]
    diag = out.reshape(-1, N * N)[:, :: N + 1]
    diag -= np.trace(out.reshape(-1, N, N), axis1=1, axis2=2)[:, None] / N
    return out


def _applier(T: SuperOperator):
    """Closure evaluating T as two stacked GEMMs (faster than batched matmul).

    sum_j x_j a y_j* = [x_1 a | ... | x_n a] @ [y_1*; ...; y_n*] after
    stacking the x_j vertically and the y_j* vertically.
    """
    n, (R, N) = T.n, T.shape
    left_stack = np.ascontiguousarray(T.left.mats.reshape(n * R, R))
    right_adj_stack = np.ascontiguousarray(
        T.right.mats.conj().transpose(0, 2, 1).reshape(n * N, N)
    )
    restrict = T.restrict_h0

    def f(a: np.ndarray) -> np.ndarray:
        if restrict:
            a = center(a)
        w = (left_stack @ a).reshape(n, R, N)
        out = w.transpose(1, 0, 2).reshape(R, n * N) @ right_adj_stack
        if restrict:
            out = center(out)
        return out

    return f


def apply(T: SuperOperator, xi) -> np.ndarray:
    """Evaluate T(xi) matrix-free; cost O(n k^2 N^3)."""
    a = np.asarray(xi, dtype=complex)
    if a.shape != T.shape:
        raise DimensionMismatch(f"xi has shape {a.shape}, operator acts on {T.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("xi contains non-finite entries")
    return _applier(T)(a)


def _kron_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j kron(left_j, conj(right_kj)) for each k: (n, R, R), (K, n, N, N) -> (K, RN, RN).

    Rows (a, b) and columns (c, e) follow row-major vec(xi) of R x N xi; one
    (R^2 x n) @ (n x K N^2) product gives every sum over j, indexed (a c, k b e).
    """
    n, R = left.shape[:2]
    K, N = right.shape[0], right.shape[-1]
    prod = left.reshape(n, R * R).T @ right.conj().transpose(1, 0, 2, 3).reshape(n, K * N * N)
    return prod.reshape(R, R, K, N, N).transpose(2, 0, 3, 1, 4).reshape(K, R * N, R * N)


def materialize(T: SuperOperator, cap: Optional[int] = None) -> np.ndarray:
    """Dense kN^2 x kN^2 matrix acting on row-major vec(xi).

    Raises DenseCapExceeded beyond the cap; use the matrix-free path there.
    """
    limit = dense_cap() if cap is None else cap
    R, N = T.shape
    d = R * N
    if d > limit:
        raise DenseCapExceeded(
            f"kN^2 = {d} exceeds dense cap {limit}; "
            "use operator_norm(..., method='lanczos') instead"
        )
    m = _kron_sums(T.left.mats, T.right.mats[None])[0]
    if T.restrict_h0:
        v = np.eye(N, dtype=complex).reshape(-1) / math.sqrt(N)
        q = np.eye(d, dtype=complex)
        for b in range(0, d, N * N):  # I - I_k (x) vv*
            q[b : b + N * N, b : b + N * N] -= np.outer(v, v.conj())
        m = q @ m @ q
    return m


def _top_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., r, c) stack.

    Taken as the square root of the top eigenvalue of the Gram matrix m*m:
    one batched ``eigvalsh`` costs less than a batched SVD and agrees with it
    to rounding (relative error O(machine eps) in the top singular value).
    """
    gram = m.conj().swapaxes(-1, -2) @ m
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def pair_norms(u: MatrixTuple, vs) -> np.ndarray:
    """Norms of xi -> sum_j u_j xi v_kj* for each tuple v_k of a (K, n, N, N) stack.

    Dense and unrestricted: entry k equals operator_norm(SuperOperator(u,
    MatrixTuple(vs[k])), method="dense").value to rounding. Obeys the same
    cap as ``materialize``; temporaries hold 2 K N^4 complex numbers, so
    callers pass bounded chunks.
    """
    v = np.asarray(vs, dtype=complex)
    n, N = u.n, u.dim
    if v.ndim != 4 or v.shape[1:] != u.mats.shape:
        raise DimensionMismatch(f"stack has shape {v.shape}, expected (K, {n}, {N}, {N})")
    d, limit = N * N, dense_cap()
    if d > limit:
        raise DenseCapExceeded(f"N^2 = {d} exceeds dense cap {limit}")
    return _top_singular_values(_kron_sums(u.mats, v))


def auto_dense(dim: int) -> bool:
    """Whether method="auto" solves an operator on kN^2 = dim entries densely."""
    return dim <= min(AUTO_DENSE_DIM, dense_cap())


@dataclass
class GapReport:
    """Certified value of a superoperator norm with its witness.

    ``value`` is exact for the dense method; for the Lanczos method it is the
    square root of the top Ritz value theta of T*T, a lower bound on the norm.
    ``residual`` = ||T*T(xi) - theta xi||_F for the normalized witness xi,
    recomputed explicitly; ``iterations`` counts the applies of T*T (1 for
    dense).
    """

    value: float
    method: str
    iterations: int
    residual: float
    top_vector: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "method": self.method,
            "iterations": int(self.iterations),
            "residual": float(self.residual),
        }


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _start_vector(T: SuperOperator, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal(T.shape) + 1j * gen.standard_normal(T.shape)
    if T.restrict_h0:
        z = center(z)
    return z / _frob(z)


def _lanczos(op, z, tol, max_iter):
    """Top eigenpair of the Hermitian PSD map ``op`` by thick-restart Lanczos.

    Runs from the unit vector z with full reorthogonalization (two classical
    Gram-Schmidt passes against the stacked basis). When the basis holds
    LANCZOS_BASIS vectors it restarts Krylov-Schur style from the top
    LANCZOS_KEEP Ritz vectors plus the residual vector. Breakdown (beta
    negligible: the basis spans an invariant subspace) is tested after every
    apply. The Ritz pair comes from an eigh of the projected matrix, run only
    on the first apply (so a start that is already an eigenvector stops after
    one), every LANCZOS_CHECK applies, at the last step of each cycle (whose
    eigh also serves the restart), on breakdown and at max_iter. Stops when
    such a check finds the residual bound beta * |y_last| at most tol * theta,
    on breakdown, or after max_iter applies. Returns (theta, x, applies,
    converged) with x the unit Ritz vector.
    """
    shape = z.shape
    m, keep = LANCZOS_BASIS, LANCZOS_KEEP
    Q = np.empty((m + 1, z.size), dtype=complex)
    Q[0] = z.ravel()
    H = np.zeros((m, m))
    k = applies = 0
    scale = 0.0
    while True:
        for j in range(k, m):
            w = op(Q[j].reshape(shape)).ravel()
            applies += 1
            scale = max(scale, _frob(w))
            basis = Q[: j + 1]
            h = (basis @ w.conj()).conj()
            w -= h @ basis
            h2 = (basis @ w.conj()).conj()
            w -= h2 @ basis
            H[j, j] = (h[j] + h2[j]).real
            beta = _frob(w)
            breakdown = beta <= _BREAKDOWN * scale
            capped = applies >= max_iter
            if breakdown or capped or j == m - 1 or applies == 1 or applies % LANCZOS_CHECK == 0:
                theta, Y = np.linalg.eigh(H[: j + 1, : j + 1])
                y = Y[:, -1]
                converged = breakdown or beta * abs(y[-1]) <= tol * theta[-1]
                if converged or capped:
                    x = y @ basis
                    return float(theta[-1]), (x / _frob(x)).reshape(shape), applies, converged
            Q[j + 1] = w / beta
            if j + 1 < m:
                H[j + 1, j] = H[j, j + 1] = beta
        # Thick restart from the last step's eigh of the full H:
        # A Q_keep = Q_keep diag(theta) + q_m (beta Y[-1])^T.
        Y = Y[:, -keep:]
        Q[:keep] = Y.T @ Q[:m]
        Q[keep] = Q[m]
        H[:] = 0.0
        H[np.arange(keep), np.arange(keep)] = theta[-keep:]
        H[keep, :keep] = H[:keep, keep] = beta * Y[-1]
        k = keep


def operator_norm(
    T: SuperOperator,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = 100_000,
    rng=None,
    start: Optional[np.ndarray] = None,
    witness: bool = True,
) -> GapReport:
    """Operator norm of T on Hilbert-Schmidt space.

    method "dense" computes the exact top singular value of the materialized
    matrix (from the full SVD with a witness, from the Gram eigvalsh that
    ``pair_norms`` uses without one); "lanczos" runs matrix-free thick-restart
    Lanczos on T*T from ``start`` (or a random vector drawn from ``rng``).
    There ``tol`` is a relative Ritz residual bound on T*T: the run stops once
    the top Ritz pair (theta, x) has ||T*T x - theta x|| <= tol * theta, or
    after ``max_iter`` applies of T*T, when the method reads
    "lanczos-unconverged". "auto" picks
    dense for kN^2 <= min(AUTO_DENSE_DIM, dense_cap()), which is kN^2 <= 144
    (N <= 12 for k = 1) by default, and lanczos above. A restricted T with
    N = 1 acts on {0}; Lanczos reports value 0 there without a witness.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    R, N = T.shape
    if method == "auto":
        method = "dense" if auto_dense(R * N) else "lanczos"
    if method == "dense":
        m = materialize(T)
        if witness:
            _, s, vh = np.linalg.svd(m)
            val = float(s[0])
            xi = vh[0].conj().reshape(R, N)
            w = apply(T.adjoint(), apply(T, xi))
            resid = _frob(w - val * val * xi)
            return GapReport(val, "dense", 1, resid, xi)
        return GapReport(float(_top_singular_values(m)), "dense", 1, 0.0, None)
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    if T.restrict_h0 and N == 1:
        return GapReport(0.0, "lanczos", 0, 0.0, None)

    z = None
    if start is not None:
        z = np.asarray(start, dtype=complex)
        if T.restrict_h0:
            z = center(z)
        nz = _frob(z)
        z = z / nz if nz > 0 else None
    if z is None:
        z = _start_vector(T, as_generator(rng))
    fwd = _applier(T)
    adj = _applier(T.adjoint())

    def op(a):
        return adj(fwd(a))

    theta, x, applies, converged = _lanczos(op, z, tol, max_iter)
    resid = _frob(op(x) - theta * x)
    tag = "lanczos" if converged else "lanczos-unconverged"
    return GapReport(math.sqrt(max(theta, 0.0)), tag, applies, resid, x if witness else None)


def spectral_gap(
    u: MatrixTuple,
    method: str = "auto",
    tol: float = 1e-10,
    rng=None,
) -> GapReport:
    """Norm of xi -> sum_j u_j xi u_j* on the trace-zero subspace.

    The expander parameter of a unitary tuple is eps = 1 - value/n.
    """
    u.require_unitary()
    T = SuperOperator.conjugation(u, restrict_h0=True)
    return operator_norm(T, method=method, tol=tol, rng=rng)
