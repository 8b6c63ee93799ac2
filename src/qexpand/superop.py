"""Superoperators T(xi) = sum_j x_j xi y_j* on Hilbert-Schmidt space.

The operator is held as a pair of matrix tuples and applied matrix-free at
cost O(n N^3); an explicit N^2 x N^2 matrix is only built on request (and
under a size cap) as the dense oracle. ``restrict_h0`` composes the action
with the projection onto the trace-zero subspace on both sides, which is
applied analytically as xi -> xi - tr(xi)/N * I, never as a matrix.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DenseCapExceeded, DimensionMismatch
from .linalg import MatrixTuple, as_generator, as_square_matrix

__all__ = [
    "SuperOperator",
    "GapReport",
    "dense_cap",
    "center",
    "apply",
    "materialize",
    "operator_norm",
    "spectral_gap",
]

DEFAULT_DENSE_CAP = 4096
# Above this dimension "auto" switches from the dense SVD to power iteration.
AUTO_DENSE_DIM = 256
DEFAULT_MAX_ITER = 100_000


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
    """T = sum_j left_j (.) right_j*, optionally restricted to the trace-zero subspace."""

    left: MatrixTuple
    right: MatrixTuple
    restrict_h0: bool = False

    def __post_init__(self):
        if self.left.n != self.right.n or self.left.dim != self.right.dim:
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
    def dim(self) -> int:
        return self.left.dim

    def adjoint(self) -> "SuperOperator":
        """Adjoint with respect to the Hilbert-Schmidt inner product."""
        return SuperOperator(
            self.left.adjoint(), self.right.adjoint(), restrict_h0=self.restrict_h0
        )


def center(xi: np.ndarray) -> np.ndarray:
    """Project onto the trace-zero subspace: xi - tr(xi)/N * I."""
    a = np.asarray(xi, dtype=complex)
    out = a.copy()
    t = np.trace(a) / a.shape[0]
    out[np.diag_indices(a.shape[0])] -= t
    return out


def _applier(T: SuperOperator):
    """Closure evaluating T as two stacked GEMMs (faster than batched matmul).

    sum_j x_j a y_j* = [x_1 a | ... | x_n a] @ [y_1*; ...; y_n*] after
    stacking the x_j vertically and the y_j* vertically.
    """
    n, N = T.n, T.dim
    left_stack = np.ascontiguousarray(T.left.mats.reshape(n * N, N))
    right_adj_stack = np.ascontiguousarray(
        T.right.mats.conj().transpose(0, 2, 1).reshape(n * N, N)
    )
    restrict = T.restrict_h0

    def f(a: np.ndarray) -> np.ndarray:
        if restrict:
            a = center(a)
        w = (left_stack @ a).reshape(n, N, N)
        out = w.transpose(1, 0, 2).reshape(N, n * N) @ right_adj_stack
        if restrict:
            out = center(out)
        return out

    return f


def apply(T: SuperOperator, xi) -> np.ndarray:
    """Evaluate T(xi) matrix-free; cost O(n N^3)."""
    a = as_square_matrix(xi, "xi")
    if a.shape[0] != T.dim:
        raise DimensionMismatch(f"xi has dim {a.shape[0]}, operator has {T.dim}")
    return _applier(T)(a)


def materialize(T: SuperOperator, cap: Optional[int] = None) -> np.ndarray:
    """Dense N^2 x N^2 matrix acting on row-major vec(xi).

    Raises DenseCapExceeded beyond the cap; use the matrix-free path there.
    """
    limit = dense_cap() if cap is None else cap
    d = T.dim * T.dim
    if d > limit:
        raise DenseCapExceeded(
            f"N^2 = {d} exceeds dense cap {limit}; "
            "use operator_norm(..., method='power') instead"
        )
    # sum_j kron(x_j, conj(y_j)): rows indexed (a, b), columns (c, d)
    m = np.einsum("jac,jbd->abcd", T.left.mats, T.right.mats.conj()).reshape(d, d)
    if T.restrict_h0:
        v = np.eye(T.dim, dtype=complex).reshape(-1) / math.sqrt(T.dim)
        q = np.eye(d, dtype=complex) - np.outer(v, v.conj())
        m = q @ m @ q
    return m


@dataclass
class GapReport:
    """Certified value of a superoperator norm with its witness.

    ``value`` is exact for the dense method and a converged lower bound for
    the power method, with ``residual`` = ||T*T(xi) - lambda xi||_F for the
    normalized witness xi.
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
    N = T.dim
    z = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
    if T.restrict_h0:
        z = center(z)
    nz = _frob(z)
    if nz == 0.0:  # vanishing draw is measure zero; fall back to a basis element
        z = np.zeros((N, N), dtype=complex)
        z[0, (1 if T.restrict_h0 and N > 1 else 0)] = 1.0
        if T.restrict_h0:
            z = center(z)
        nz = _frob(z)
    return z / nz


def _power_run(fwd, adj, z, tol, max_iter):
    """Power iteration on T*T from start z; returns (value, z, residual, iters, ok)."""
    lam = 0.0
    prev = -math.inf
    for k in range(1, max_iter + 1):
        w = adj(fwd(z))
        lam = float(np.real(np.vdot(z, w)))
        val = math.sqrt(max(lam, 0.0))
        nw = _frob(w)
        if nw == 0.0:
            return 0.0, z, 0.0, k, True
        if abs(val - prev) < tol:
            resid = _frob(w - lam * z)
            return val, z, resid, k, True
        prev = val
        z = w / nw
    resid = _frob(adj(fwd(z)) - lam * z)
    return math.sqrt(max(lam, 0.0)), z, resid, max_iter, False


def operator_norm(
    T: SuperOperator,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = 1,
    rng=None,
    start: Optional[np.ndarray] = None,
    witness: bool = True,
) -> GapReport:
    """Operator norm of T on Hilbert-Schmidt space.

    method "dense" computes the exact top singular value of the materialized
    matrix; "power" runs matrix-free power iteration on T*T, stopping when
    the norm estimate increment drops below ``tol``, then restarts once from
    an orthogonalized random vector and keeps the max (the spectral edge of
    random instances is often near-degenerate). "auto" picks dense for
    N^2 <= min(AUTO_DENSE_DIM, dense_cap()), which is N^2 <= 256 by default,
    and power above.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if method == "auto":
        method = "dense" if T.dim * T.dim <= min(AUTO_DENSE_DIM, dense_cap()) else "power"
    if method == "dense":
        m = materialize(T)
        if witness:
            _, s, vh = np.linalg.svd(m)
            val = float(s[0])
            xi = vh[0].conj().reshape(T.dim, T.dim)
            w = apply(T.adjoint(), apply(T, xi))
            resid = _frob(w - val * val * xi)
            return GapReport(val, "dense", 1, resid, xi)
        s = np.linalg.svd(m, compute_uv=False)
        return GapReport(float(s[0]), "dense", 1, 0.0, None)
    if method != "power":
        raise ValueError(f"unknown method {method!r}")

    gen = as_generator(rng)
    fwd = _applier(T)
    adj = _applier(T.adjoint())
    best = (-math.inf, None, math.inf)
    total_iters = 0
    converged = True
    z0 = start
    for r in range(restarts + 1):
        if z0 is None:
            z0 = _start_vector(T, gen)
            if best[1] is not None:  # orthogonalize restarts against the found vector
                z0 = z0 - np.vdot(best[1], z0) * best[1]
                nz = _frob(z0)
                z0 = z0 / nz if nz > 0 else _start_vector(T, gen)
        else:
            z0 = np.asarray(z0, dtype=complex)
            if T.restrict_h0:
                z0 = center(z0)
            nz = _frob(z0)
            z0 = z0 / nz if nz > 0 else _start_vector(T, gen)
        val, z, resid, iters, ok = _power_run(fwd, adj, z0, tol, max_iter)
        total_iters += iters
        converged = converged and ok
        if val > best[0]:
            best = (val, z, resid)
        z0 = None
    tag = "power" if converged else "power-unconverged"
    return GapReport(best[0], tag, total_iters, best[2], best[1] if witness else None)


def spectral_gap(
    u: MatrixTuple,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = 1,
    rng=None,
) -> GapReport:
    """Norm of xi -> sum_j u_j xi u_j* on the trace-zero subspace.

    The expander parameter of a unitary tuple is eps = 1 - value/n.
    """
    u.require_unitary()
    T = SuperOperator.conjugation(u, restrict_h0=True)
    return operator_norm(
        T, method=method, tol=tol, max_iter=max_iter, restarts=restarts, rng=rng
    )
