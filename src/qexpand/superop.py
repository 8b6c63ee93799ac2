"""Superoperators T(xi) = sum_j x_j xi y_j* on Hilbert-Schmidt space.

The operator acts on (kN x N) matrices xi, read as k stacked N x N blocks:
the x_j are kN x kN and the y_j are N x N, so a left member a (x) u maps the
blocks as a (x) (u . u*). k = 1 is the square case. The operator is held as a
pair of matrix tuples and applied matrix-free at cost O(n k^2 N^3); an
explicit kN^2 x kN^2 matrix is only built on request (and under a size cap)
as the dense oracle. ``restrict_h0`` composes the action with the projection
onto the blockwise trace-zero subspace on both sides. ``center`` applies it
analytically as xi_b -> xi_b - tr(xi_b)/N * I on every block, never as a
matrix, for ``apply`` and (on the columns and rows) for ``materialize``.
``operator_norm`` takes a dense Gram eigen-solve for small kN^2 and otherwise
runs thick-restart Lanczos on T*T through the matrix-free action. The one
Lanczos routine, ``_lanczos``, runs B operators of one shape in lockstep on
stacked (B, kN, N) GEMMs and batched ``eigh``s, each run stopping after the
applies it would take alone; ``operator_norm`` is its B = 1 call.

Dense matrices sum_j x_j (x) conj(y_j) come from one matmul over the members
(``_dense``), for one operator (``materialize``) or for a batch. Their norms
come from one batched ``eigvalsh`` of the Gram matrices M*M, the kernel of
the dense ``operator_norm`` without a witness too. The batched norm entry
``_norms`` owns the choice between the two solvers for the Monte Carlo
samples of ``randmat`` and the pair norms of ``packing``, and
``_batch_size`` sizes their batches under one byte budget.
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
    "auto_dense",
    "operator_norm",
    "spectral_gap",
]

DEFAULT_DENSE_CAP = 4096
# Above this kN^2 "auto" switches from the dense Gram eigen-solve to Lanczos.
# Median ms per operator_norm call (8 operators, 3 timings each, tol=1e-8,
# one BLAS thread on a 2-vCPU Xeon), dense / Lanczos; U = restricted Haar
# unitary sums, G = unrestricted Ginibre sums, w = with witness (dense w was
# timed with the full-SVD witness and dense-projector restriction since gone):
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
# applies. A lockstep batch of B runs holds B such bases.
LANCZOS_BASIS = 24
LANCZOS_KEEP = 6
# Applies between Ritz convergence checks, shared by every run of a batch.
# At n=8, N=16 (one BLAS thread) a T*T apply costs 84 us for one operator and
# 60 us per operator in a batch of 4, and the eigh of one projected matrix
# 12-109 us (6x6 to 24x24). When it cost 145 us per apply, checking every
# 4th apply instead of every apply took a median solve (tol=1e-8) from
# 9.1-9.6 to 7.5-7.9 ms for Haar unitary sums and from 5.2 to 3.9-4.1 ms for
# Ginibre sums, at 1.5-2 more applies. A late check only adds applies, which
# tighten the lower bound.
LANCZOS_CHECK = 4
# Cap on T*T applies per Lanczos run.
_MAX_APPLIES = 100_000
# beta below this multiple of the largest ||T*T q|| seen is rounding noise:
# the basis spans an invariant subspace.
_BREAKDOWN = 1e-13
# Bytes per ``_norms`` batch (``_batch_size`` says what an operator costs).
# Lanczos at n = 8, N = 16, 200 kB per operator (one BLAS thread, 10 unitary
# and 10 Gaussian samples, fastest of 8 rounds): the norm statistics took 108
# ms one sample at a time and 82, 69, 64 and 60 ms in batches of 2 to 5, for
# 0.2, 0.4, 0.6, 1.1 and 1.35 MB more peak RSS; batches of 4 keep the
# benchmark's montecarlo peak RSS (41 MB) within 3%. Dense at d = 16: the
# temporaries peak at 3 d^2 entries per operator (tracemalloc), but
# greedy_pack(6, 4, 0.05, 0.05, 100) took 1.08x, 1.11x and 1.12x as long in
# batches of 39, 48 and 66 as in 32, and 0.99-1.03x in 16 to 28 (one BLAS
# thread, median of 12 rotating rounds), so the dense charge is 5 d^2.
_LOCKSTEP_BYTES = 800 << 10


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
    """Copy of a (..., kN, N) stack with every N x N block projected to trace zero."""
    out = np.array(xi, dtype=complex, order="C")
    _center_in_place(out)
    return out


def _center_in_place(out: np.ndarray) -> None:
    """``center`` on a C-contiguous complex (..., kN, N) stack, overwriting it."""
    N = out.shape[-1]
    diag = out.reshape(-1, N * N)[:, :: N + 1]
    diag -= np.trace(out.reshape(-1, N, N), axis1=1, axis2=2)[:, None] / N


def _adjoint_members(m: np.ndarray) -> np.ndarray:
    """C-contiguous member-wise conjugate transpose of a (..., N, N) stack."""
    return np.conj(m.swapaxes(-1, -2), order="C")


def _gemm_operands(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked members [x_1; ...; x_n] and [y_1*; ...; y_n*] of T = sum_j x_j (.) y_j*.

    Takes the (..., n, R, R) and (..., n, N, N) member arrays and returns
    (..., nR, R) and (..., nN, N) stacks for ``_product``.
    """
    *lead, n, R, _ = left.shape
    N = right.shape[-1]
    return left.reshape(*lead, n * R, R), _adjoint_members(right).reshape(*lead, n * N, N)


def _product(xs: np.ndarray, ys: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j x_j a y_j* from ``_gemm_operands``, batched over leading axes.

    Two stacked GEMMs (faster than a matmul per member): sum_j x_j a y_j* =
    [x_1 a | ... | x_n a] @ [y_1*; ...; y_n*]. The result is a new
    C-contiguous array.
    """
    *lead, R, N = a.shape
    n = xs.shape[-2] // R
    w = (xs @ a).reshape(*lead, n, R, N)
    return w.swapaxes(-3, -2).reshape(*lead, R, n * N) @ ys


def _applier(T: SuperOperator):
    """Closure evaluating T on a kN x N matrix, centring its input and output when restricted."""
    xs, ys = _gemm_operands(T.left.mats, T.right.mats)
    restrict = T.restrict_h0

    def f(a: np.ndarray) -> np.ndarray:
        out = _product(xs, ys, center(a) if restrict else a)
        if restrict:
            _center_in_place(out)
        return out

    return f


def _gram_apply(operands, restrict: bool, a: np.ndarray) -> np.ndarray:
    """T_b*T_b a_b for every b of a (B, kN, N) stack a inside the operators' domain.

    ``operands`` are T's ``_gemm_operands`` (xs, ys). T* needs no operands of
    its own: T*(b) = (sum_j y_j* b* x_j)* is ``_product(ys, xs, b*)``
    conjugate-transposed. With the restriction the input is not centred
    again (it already lies in the trace-zero space); each of the two
    products is centred once, in place.
    """
    xs, ys = operands
    out = _product(xs, ys, a)
    if restrict:
        _center_in_place(out)
    out = _adjoint_members(_product(ys, xs, _adjoint_members(out)))
    if restrict:
        _center_in_place(out)
    return out


def apply(T: SuperOperator, xi) -> np.ndarray:
    """Evaluate T(xi) matrix-free; cost O(n k^2 N^3)."""
    a = np.asarray(xi, dtype=complex)
    if a.shape != T.shape:
        raise DimensionMismatch(f"xi has shape {a.shape}, operator acts on {T.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("xi contains non-finite entries")
    return _applier(T)(a)


def _kron_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j kron(left_kj, conj(right_kj)) for each k: (L, n, R, R), (K, n, N, N) -> (K, RN, RN).

    L is K, or 1 for a left tuple shared by all K sums. Rows (a, b) and
    columns (c, e) follow row-major vec(xi) of R x N xi; per left row l, one
    (R^2 x n) @ (n x (K/L) N^2) product gives its sums over j, indexed
    (a c, k b e).
    """
    L, n, R = left.shape[:3]
    K, N = right.shape[0], right.shape[-1]
    M = K // L
    ys = right.conj().reshape(L, M, n, N * N).transpose(0, 2, 1, 3).reshape(L, n, M * N * N)
    prod = left.reshape(L, n, R * R).swapaxes(1, 2) @ ys
    return prod.reshape(L, R, R, M, N, N).transpose(0, 3, 1, 4, 2, 5).reshape(K, R * N, R * N)


def _dense(left: np.ndarray, right: np.ndarray, restrict_h0: bool) -> np.ndarray:
    """Dense (K, kN^2, kN^2) matrices of the K operators sum_j left_kj (.) right_kj*.

    The restriction Q m Q (Q = I - I_k (x) vv*, real symmetric) centres every
    column, then every row, of each unrestricted matrix.
    """
    m = _kron_sums(left, right)
    if restrict_h0:
        K, d = m.shape[:2]
        R, N = left.shape[-1], right.shape[-1]
        m = center(m.swapaxes(1, 2).reshape(K, d, R, N)).reshape(K, d, d).swapaxes(1, 2)
        m = center(m.reshape(K, d, R, N)).reshape(K, d, d)
    return m


def materialize(T: SuperOperator) -> np.ndarray:
    """Dense kN^2 x kN^2 matrix acting on row-major vec(xi).

    Raises DenseCapExceeded beyond ``dense_cap()``; use the matrix-free path
    there.
    """
    R, N = T.shape
    if R * N > (limit := dense_cap()):
        raise DenseCapExceeded(
            f"kN^2 = {R * N} exceeds dense cap {limit}; "
            "use operator_norm(..., method='lanczos') instead"
        )
    return _dense(T.left.mats[None], T.right.mats[None], T.restrict_h0)[0]


def _top_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., r, c) stack.

    Taken as the square root of the top eigenvalue of the Gram matrix m*m:
    one batched ``eigvalsh`` costs less than a batched SVD and agrees with it
    to rounding (relative error O(machine eps) in the top singular value).
    """
    gram = m.conj().swapaxes(-1, -2) @ m
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def auto_dense(dim: int) -> bool:
    """Whether method="auto" solves an operator on kN^2 = dim entries densely."""
    return dim <= min(AUTO_DENSE_DIM, dense_cap())


def _batch_size(n: int, R: int, N: int) -> int:
    """Operators of n members acting on R x N matrices per ``_norms`` batch.

    Each operator is charged its left and right member stacks and the
    conjugated right stack, plus, with d = RN, a Lanczos basis of
    LANCZOS_BASIS + 1 vectors of d entries or, on the dense side, 5 d^2
    entries (see _LOCKSTEP_BYTES). A batch holds as many operators as
    _LOCKSTEP_BYTES allows, and at least one.
    """
    d = R * N
    work = 5 * d * d if auto_dense(d) else (LANCZOS_BASIS + 1) * d
    return max(1, _LOCKSTEP_BYTES // (16 * (work + n * (R * R + 2 * N * N))))


@dataclass
class GapReport:
    """Certified value of a superoperator norm with its witness.

    ``value`` is exact for the dense method; for the Lanczos method it is the
    square root of the top Ritz value theta of T*T, a lower bound on the norm.
    ``residual`` = ||T*T(xi) - theta xi||_F for the normalized witness xi,
    recomputed explicitly through the matrix-free action, except for a solve
    with ``witness=False``, which returns no witness and reports 0.0;
    ``iterations`` counts the applies of T*T (1 for dense).
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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (B, d) complex array."""
    return np.sqrt((a[:, None, :] @ a[:, :, None].conj())[:, 0, 0].real)


def _start_vector(shape, restrict_h0: bool, start, rng) -> np.ndarray:
    """Unit vector in the domain: ``start`` if nonzero there, else a random draw from ``rng``."""

    def project(z):
        return center(z) if restrict_h0 else z

    z = None if start is None else project(np.asarray(start, dtype=complex))
    if z is None or not _frob(z) > 0:
        gen = as_generator(rng)
        z = project(gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    return z / _frob(z)


def _compact(arrays, rows) -> tuple:
    """Move the given rows (increasing indices) of each array to its front, in place.

    Returns the leading views, so that a shrinking batch allocates nothing.
    """
    for a in arrays:
        for i, r in enumerate(rows):
            if i != r:
                a[i] = a[r]
    return tuple(a[: len(rows)] for a in arrays)


def _lanczos(left, right, restrict_h0, Z, tol, max_iter):
    """Top eigenpairs of T_b*T_b for B operators of one shape, by thick-restart Lanczos in lockstep.

    Operator b is sum_j left[b, j] (.) right[b, j]* (optionally restricted),
    from the (B, n, kN, kN) and (B, n, N, N) member stacks, and its run
    starts from the unit vector Z[b] of the (B, kN, N) stack Z. One closure
    applies all live T_b*T_b as stacked GEMMs. Every run keeps full
    reorthogonalization (two classical Gram-Schmidt passes against its
    basis). When a basis holds LANCZOS_BASIS vectors it restarts Krylov-Schur
    style from the top LANCZOS_KEEP Ritz vectors plus the residual vector.
    Breakdown (beta negligible: the basis spans an invariant subspace) is
    tested after every apply. The Ritz pairs come from a batched eigh of the
    projected matrices, run on the first apply (so a start that is already
    an eigenvector stops after one), every LANCZOS_CHECK applies, at the last
    step of each cycle (whose eigh also serves the restart), on a breakdown
    and at max_iter. A run stops when such a scheduled check finds its
    residual bound beta * |y_last| at most tol * theta, on its own breakdown,
    or after max_iter applies; it then leaves the batch. So every run takes
    the applies it would take alone (B = 1), and its arithmetic does not
    depend on the other runs. Returns per-run arrays (theta, X, applies,
    converged) with X[b] the unit Ritz vector.
    """
    B, R, N = Z.shape
    d = R * N
    m, keep = LANCZOS_BASIS, LANCZOS_KEEP
    operands = _gemm_operands(left, right)

    def op(a):
        return _gram_apply(operands, restrict_h0, a)

    Q = np.empty((B, m + 1, d), dtype=complex)
    Q[:, 0] = Z.reshape(B, d)
    H = np.zeros((B, m, m))
    scale = np.zeros(B)
    live = np.arange(B)  # input index of each row still running
    theta_out, X = np.empty(B), np.empty((B, d), dtype=complex)
    applies_out, converged_out = np.empty(B, dtype=int), np.empty(B, dtype=bool)
    k = applies = 0
    while True:
        for j in range(k, m):
            w = op(Q[:, j].reshape(-1, R, N)).reshape(-1, d)
            applies += 1
            scale = np.maximum(scale, _row_norms(w))
            basis = Q[:, : j + 1]
            h = (basis @ w[:, :, None].conj())[:, :, 0].conj()
            w -= (h[:, None, :] @ basis)[:, 0]
            h2 = (basis @ w[:, :, None].conj())[:, :, 0].conj()
            w -= (h2[:, None, :] @ basis)[:, 0]
            H[:, j, j] = (h[:, j] + h2[:, j]).real
            beta = _row_norms(w)
            breakdown = beta <= _BREAKDOWN * scale
            capped = applies >= max_iter
            scheduled = capped or j == m - 1 or applies == 1 or applies % LANCZOS_CHECK == 0
            if scheduled or breakdown.any():
                theta, Y = np.linalg.eigh(H[:, : j + 1, : j + 1])
                y = Y[:, :, -1]
                converged = breakdown | (scheduled & (beta * np.abs(y[:, -1]) <= tol * theta[:, -1]))
                done = converged | capped
                if done.any():
                    x = (y[:, None, :] @ basis)[done, 0]
                    rows = live[done]
                    theta_out[rows] = theta[done, -1]
                    X[rows] = x / _row_norms(x)[:, None]
                    applies_out[rows] = applies
                    converged_out[rows] = converged[done]
                    if done.all():
                        return theta_out, X.reshape(B, R, N), applies_out, converged_out
                    run = np.flatnonzero(~done)
                    live, Q, H, scale, w, beta, theta, Y = _compact(
                        (live, Q, H, scale, w, beta, theta, Y), run
                    )
                    operands = _compact(operands, run)
            Q[:, j + 1] = w / beta[:, None]
            if j + 1 < m:
                H[:, j + 1, j] = H[:, j, j + 1] = beta
        # Thick restart from the last step's eigh of the full H:
        # A Q_keep = Q_keep diag(theta) + q_m (beta Y[-1])^T.
        Yk = Y[:, :, -keep:]
        Q[:, :keep] = Yk.swapaxes(1, 2) @ Q[:, :m]
        Q[:, keep] = Q[:, m]
        H[:] = 0.0
        H[:, np.arange(keep), np.arange(keep)] = theta[:, -keep:]
        H[:, keep, :keep] = H[:, :keep, keep] = beta[:, None] * Yk[:, -1]
        k = keep


def operator_norm(
    T: SuperOperator,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = _MAX_APPLIES,
    rng=None,
    start: Optional[np.ndarray] = None,
    witness: bool = True,
) -> GapReport:
    """Operator norm of T on Hilbert-Schmidt space.

    method "dense" computes the exact top singular value of the materialized
    matrix m by a Gram eigen-solve on m*m (``eigh`` for the witness, the
    ``eigvalsh`` that ``_norms`` uses without one); "lanczos" runs
    matrix-free thick-restart Lanczos on T*T from ``start`` (or a random
    vector drawn from ``rng``), as a batch of one for ``_lanczos``. There
    ``tol`` is a relative Ritz residual bound on T*T: the run stops once the
    top Ritz pair (theta, x) has ||T*T x - theta x|| <= tol * theta, or
    after ``max_iter`` applies of T*T, when the method reads
    "lanczos-unconverged". "auto" picks dense for
    kN^2 <= min(AUTO_DENSE_DIM, dense_cap()), which is kN^2 <= 144 (N <= 12
    for k = 1) by default, and lanczos above. A restricted T with
    N = 1 acts on {0}; Lanczos reports value 0 there without a witness.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    R, N = T.shape
    if method == "auto":
        method = "dense" if auto_dense(R * N) else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" and not witness:
        return GapReport(float(_top_singular_values(materialize(T))), "dense", 1, 0.0, None)
    if method == "lanczos" and T.restrict_h0 and N == 1:
        return GapReport(0.0, "lanczos", 0, 0.0, None)
    left, right = T.left.mats[None], T.right.mats[None]
    if method == "dense":
        m = materialize(T)
        evals, evecs = np.linalg.eigh(m.conj().T @ m)
        theta, x, applies, converged = float(evals[-1]), evecs[:, -1].reshape(R, N), 1, True
    else:
        z = _start_vector(T.shape, T.restrict_h0, start, rng)
        thetas, xs, iters, flags = _lanczos(left, right, T.restrict_h0, z[None], tol, max_iter)
        theta, x, applies, converged = float(thetas[0]), xs[0], int(iters[0]), bool(flags[0])
    tag = method if converged else "lanczos-unconverged"
    value = math.sqrt(max(theta, 0.0))
    if not witness:
        return GapReport(value, tag, applies, 0.0, None)
    tx = _gram_apply(_gemm_operands(left, right), T.restrict_h0, center(x) if T.restrict_h0 else x)
    return GapReport(value, tag, applies, _frob(tx[0] - theta * x), x)


def _norms(left, right, restrict_h0: bool, rngs, tol: float):
    """Norms of B operators of one shape, solved as one batch.

    Operator b is SuperOperator(left[b], right[b], restrict_h0) for complex
    (B, n, kN, kN) and (B, n, N, N) member stacks; a (1, n, kN, kN) left
    stack is shared by all. The call writes into neither. Operator b gets
    the value, applies and convergence flag of operator_norm(..., tol=tol,
    rng=rngs[b], witness=False): a batched dense Gram solve where
    ``auto_dense(kN^2)``, lockstep ``_lanczos`` above, with run b's start
    drawn from rngs[b]. ``_batch_size`` bounds B. Returns (values, applies,
    converged) arrays.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    B, R, N = len(right), left.shape[-1], right.shape[-1]
    if auto_dense(R * N):
        values = _top_singular_values(_dense(left, right, restrict_h0))
        return values, np.ones(B, dtype=int), np.ones(B, dtype=bool)
    if restrict_h0 and N == 1:
        return np.zeros(B), np.zeros(B, dtype=int), np.ones(B, dtype=bool)
    Z = np.stack([_start_vector((R, N), restrict_h0, None, g) for g in rngs])
    # _lanczos moves the rows of its operand stacks as runs finish
    left = np.repeat(left, B // len(left), axis=0)
    theta, _, applies, converged = _lanczos(left, right, restrict_h0, Z, tol, _MAX_APPLIES)
    return np.sqrt(np.maximum(theta, 0.0)), applies, converged


def spectral_gap(
    u: MatrixTuple,
    method: str = "auto",
    tol: float = 1e-10,
    rng=None,
) -> GapReport:
    """Norm of xi -> sum_j u_j xi u_j* on the trace-zero subspace.

    The expander parameter of a unitary tuple is eps = 1 - value/n.
    """
    return _gap(u, method, tol, rng, witness=True)


def _gap(u: MatrixTuple, method: str, tol: float, rng, witness: bool) -> GapReport:
    """``spectral_gap``, computing the witness only if asked."""
    u.require_unitary()
    T = SuperOperator.conjugation(u, restrict_h0=True)
    return operator_norm(T, method=method, tol=tol, rng=rng, witness=witness)
