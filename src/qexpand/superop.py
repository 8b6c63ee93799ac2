"""Superoperators T(xi) = sum_j x_j xi y_j* on Hilbert-Schmidt space.

The operator acts on (kN x N) matrices xi, read as k stacked N x N blocks:
the x_j are kN x kN and the y_j are N x N, so a left member a (x) u maps the
blocks as a (x) (u . u*). k = 1 is the square case. The operator is held as a
pair of matrix tuples and applied matrix-free at cost O(n k^2 N^3), as two
GEMMs with no copy in between (``_product``) on its members laid out once
for them (``_gemm_operands``); a Gram solve lays out T* as well
(``_gram_operands``), once per solve. An explicit kN^2 x kN^2 matrix is
only built on request (and under a size cap) as the dense oracle.
``restrict_h0`` composes the action with the projection onto the blockwise
trace-zero subspace on both sides. ``center`` applies it analytically as
xi_b -> xi_b - tr(xi_b)/N * I on every block, never as a matrix, for
``apply`` and (on the columns and rows) for ``materialize``.

``_solve`` is the one norm solve, for B operators of one shape given as
member stacks: it checks ``tol`` and ``max_iter``, answers the restricted
N = 1 case (the domain is {0}), scales each operator's members by powers
of two to unit max-abs, takes one batched Gram eigen-solve of their
``_dense`` matrices or runs thick-restart Lanczos on T*T matrix-free, and
scales the results back. That scaling is exact, so a norm does not depend
on the members' scale; one beyond the float range is a ValueError. The one
Lanczos routine, ``_lanczos``, runs the B operators in lockstep on stacked
(B, kN, N) GEMMs and batched ``eigh``s, each run stopping after the
applies it would take alone; its recurrence runs on the real view of its
basis. At loose tolerances (tol >= _SINGLE_TOL = 1e-6) ``_solve`` runs the
Krylov cycles in complex64 and certifies their Ritz vector with a
complex128 run. One ``_gram_apply`` gives T a and T*T a, for the Lanczos
step and the witness.

``operator_norm`` is its batch of one, and ``spectral_gap`` that on the
restricted conjugation. The Monte Carlo samples of ``randmat`` and the
pair norms of ``packing`` call ``_solve`` in batches sized under one byte
budget by ``_batch_size``, and the norming and strong-separation searches
(``geometry._polar_ascent``) call it on their member stacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DenseCapExceeded, DimensionMismatch
from .linalg import MatrixTuple, _JsonFields, as_generator

__all__ = [
    "SuperOperator",
    "GapReport",
    "apply",
    "materialize",
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
# the basis spans an invariant subspace. The multiple is for complex128; a
# complex64 run scales it by the ratio of the machine epsilons (2^29).
_BREAKDOWN = 1e-13
# Lanczos solves at tol >= this run their Krylov cycles in complex64 and
# finish in complex128 (see ``_solve``). Median ms per restricted gap of
# n = 4 Haar tuples (one BLAS thread, 2-vCPU Xeon, 4-6 tuples x 3 rounds),
# complex128 only / mixed, with the mixed run's complex128 applies:
#
#   N    tol=1e-6            tol=1e-8              tol=1e-10
#   13   7.5 / 7.4 (1.0)     10.7 / 10.5 (11.3)    11.4 / 14.5 (26.0)
#   17   11.2 / 10.9 (1.0)   13.9 / 14.9 (10.7)    15.0 / 19.7 (30.7)
#   32   27.6 / 20.4 (1.0)   35.2 / 32.9 (18.0)    45.1 / 50.1 (45.7)
#   64   133 / 74 (1.0)      146 / 111 (24.0)      201 / 216 (64.0)
#
# The complex64 phase takes the applies a complex128-only solve takes. Below
# tol 1e-6 the complex128 run restarts from one vector and needs 10-64 more
# applies; that loses at 1e-10 everywhere and at 1e-8 for small N.
_SINGLE_TOL = 1e-6
# Bytes per batch of a ``_solve`` caller (``_batch_size`` says what an operator costs).
# Lanczos at n = 8, N = 16 is charged 292 KiB per operator: a basis of 25
# vectors, the members and their four ``_gram_operands`` stacks. With one
# BLAS thread, 10 unitary and 10 Gaussian samples at tol 1e-8 (fastest of 24
# rounds in 3 processes, 2-vCPU Xeon), the norm statistics took 96 ms one
# sample at a time and 71, 73, 59 and 58 ms in batches of 2 to 5, at a
# process peak RSS of 37.7, 37.9, 38.4, 38.8 and 39.0 MB; the budget holds
# batches of 4. Dense at d = 16: the temporaries peak at 3 d^2 entries per
# operator (tracemalloc), but greedy_pack(6, 4, 0.05, 0.05, 100) took 1.08x,
# 1.11x and 1.12x as long in batches of 39, 48 and 66 as in 32, and
# 0.99-1.03x in 16 to 28 (one BLAS thread, median of 12 rotating rounds).
# So the dense charge, 8 d^2, is not a measured peak: it is set so that this
# budget, sized for the Lanczos side, still gives the dense batches of 32
# (36.5 KiB per n = 6, N = 4 operator with its members).
_LOCKSTEP_BYTES = 1200 << 10


def dense_cap() -> int:
    """Materialization cap on kN^2: ``materialize`` refuses larger operators."""
    return DEFAULT_DENSE_CAP


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
    """``center`` on a C-contiguous complex (..., kN, N) stack, overwriting it.

    Sums each block's strided diagonal view (``diag.sum(-1)`` without its
    Python wrapper), the reduction ``np.trace`` runs, so the bits agree.
    """
    N = out.shape[-1]
    diag = out.reshape(-1, N * N)[:, :: N + 1]
    diag -= np.add.reduce(diag, -1, keepdims=True) / N


def _gemm_operands(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GEMM layout (X, Y) of T = sum_j x_j (.) y_j* for ``_product``.

    Takes the (..., n, R, R) and (..., n, N, N) member arrays and returns new
    C-contiguous arrays X (..., R, Rn) with X[i, (r, j)] = x_j[i, r] and
    Y = [y_1* | ... | y_n*] (..., N, nN). Each is one copy of a transposed
    2-D view, (n, R^2) -> (R^2, n) and (nN, N) -> (N, nN), which numpy runs
    about twice as fast as the equivalent 3-D ``moveaxis`` copy.
    """
    *lead, n, R, _ = left.shape
    N = right.shape[-1]
    X = np.array(left.reshape(*lead, n, R * R).swapaxes(-1, -2), order="C")
    Y = np.conj(right.reshape(*lead, n * N, N).swapaxes(-1, -2), order="C")
    return X.reshape(*lead, R, R * n), Y


def _gram_operands(X: np.ndarray, Y: np.ndarray) -> tuple:
    """T's ``_gemm_operands`` (X, Y), then T*'s pair, for ``_gram_apply``.

    T* = sum_j x_j* (.) y_j has X'[i, (r, j)] = conj(x_j[r, i]) = conj(X[r, (i, j)])
    and Y' = [y_1 | ... | y_n], Y'[s, (j, c)] = conj(Y[c, (j, s)]): each is a
    new C-contiguous conjugated transpose of T's, with the same entries.
    """
    *lead, R, Rn = X.shape
    N, nN = Y.shape[-2:]
    Xa = np.conj(np.swapaxes(X.reshape(*lead, R, R, Rn // R), -3, -2), order="C")
    Ya = np.conj(np.swapaxes(Y.reshape(*lead, N, nN // N, N), -3, -1), order="C")
    return X, Y, Xa.reshape(X.shape), Ya.reshape(Y.shape)


def _product(X: np.ndarray, Y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j x_j a y_j* from its ``_gemm_operands`` (X, Y), batched over leading axes.

    Two GEMMs and no copy: a @ Y = [a y_1* | ... | a y_n*] is C-contiguous,
    so it reshapes for free to the (Rn, N) stack of the rows of the a y_j*,
    interleaved as X's columns are, and X @ that is sum_j x_j a y_j*. The
    result is a new C-contiguous array.
    """
    p = a @ Y
    return X @ p.reshape(*p.shape[:-2], -1, a.shape[-1])


def _image(X: np.ndarray, Y: np.ndarray, restrict: bool, a: np.ndarray) -> np.ndarray:
    """``_product(X, Y, a)`` for a inside the domain, centred in place when restricted."""
    out = _product(X, Y, a)
    if restrict:
        _center_in_place(out)
    return out


def _gram_apply(operands, restrict: bool, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_b a_b, T_b*T_b a_b) for every b of a (B, kN, N) stack a inside the operators' domain.

    ``operands`` are T's ``_gram_operands`` (X, Y, X', Y'): T on its pair,
    then T* on its own. With the restriction the input is not centred again
    (it already lies in the trace-zero space); each of the two products is
    centred once, in place.
    """
    X, Y, Xa, Ya = operands
    image = _image(X, Y, restrict, a)
    # Centring T*(image) is load-bearing though _lanczos centres each new basis
    # vector after Gram-Schmidt: left out, a Ritz value can exceed the norm.
    return image, _image(Xa, Ya, restrict, image)


def apply(T: SuperOperator, xi) -> np.ndarray:
    """Evaluate T(xi) matrix-free; cost O(n k^2 N^3)."""
    a = np.asarray(xi, dtype=complex)
    if a.shape != T.shape:
        raise DimensionMismatch(f"xi has shape {a.shape}, operator acts on {T.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("xi contains non-finite entries")
    restrict = T.restrict_h0
    return _image(*_gemm_operands(T.left.mats, T.right.mats), restrict, center(a) if restrict else a)


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
    """Dense (K, kN^2, kN^2) matrices of sum_j left_kj (.) right_kj*, at most DEFAULT_DENSE_CAP.

    The restriction Q m Q (Q = I - I_k (x) vv*, real symmetric) centres every
    column, then every row, of each unrestricted matrix, in place: it
    subtracts the block traces through a view of the block-diagonal rows,
    then centres the N x N blocks of every row with ``_center_in_place``. The
    column traces are summed from a contiguous copy of those rows (d^2 / N
    entries), so that every trace is summed in the order ``center`` sums it.
    """
    R, N = left.shape[-1], right.shape[-1]
    if R * N > DEFAULT_DENSE_CAP:
        raise DenseCapExceeded(
            f"kN^2 = {R * N} exceeds dense cap {DEFAULT_DENSE_CAP}; "
            "use operator_norm(..., method='lanczos') instead"
        )
    m = _kron_sums(left, right)
    if restrict_h0:
        K, d = m.shape[:2]
        rows = m.reshape(K, -1, N * N, d)[:, :, :: N + 1]
        rows -= np.ascontiguousarray(rows.swapaxes(2, 3)).sum(-1)[:, :, None] / N
        _center_in_place(m.reshape(-1, N, N))
    return m


def materialize(T: SuperOperator) -> np.ndarray:
    """Dense kN^2 x kN^2 matrix acting on row-major vec(xi).

    Raises DenseCapExceeded above kN^2 = DEFAULT_DENSE_CAP (4096); use the
    matrix-free path there.
    """
    return _dense(T.left.mats[None], T.right.mats[None], T.restrict_h0)[0]


def auto_dense(dim: int) -> bool:
    """Whether method="auto" solves an operator on kN^2 = dim entries densely."""
    return dim <= AUTO_DENSE_DIM


def _batch_size(n: int, R: int, N: int) -> int:
    """Operators of n members acting on R x N matrices per ``_solve`` batch.

    Each operator is charged, in complex128 entries, with d = RN: its left
    and right member stacks; on the dense side the conjugated right stack
    of ``_kron_sums`` and 8 d^2 (a batch-size choice, see _LOCKSTEP_BYTES);
    on the Lanczos side its four ``_gram_operands`` stacks (two more copies
    of the members) and a basis of LANCZOS_BASIS + 1 vectors of d entries.
    A batch holds as many operators as _LOCKSTEP_BYTES allows, and at least
    one.
    """
    d = R * N
    members = n * (R * R + N * N)
    if auto_dense(d):
        work = 8 * d * d + members + n * N * N
    else:
        work = (LANCZOS_BASIS + 1) * d + 3 * members
    return max(1, _LOCKSTEP_BYTES // (16 * work))


@dataclass
class GapReport(_JsonFields):
    """Certified value of a superoperator norm with its witness.

    ``value`` is exact for the dense method; for the Lanczos method it is the
    square root of the top Ritz value theta of T*T, a lower bound on the norm.
    ``residual`` = ||T*T(xi) - theta xi||_F for the normalized witness xi,
    recomputed explicitly through the matrix-free action, except for a solve
    with ``witness=False``, which returns no witness and reports 0.0;
    ``iterations`` counts the applies of T*T (1 for dense), and
    ``single_applies`` those of them run in complex64 (see ``_solve``).
    ``top_image`` is T(top_vector), the product the residual is computed
    from, so that a caller needing the top left singular vector
    T(xi) / ||T(xi)|| need not apply T again.
    """

    value: float
    method: str
    iterations: int
    residual: float
    top_vector: Optional[np.ndarray] = field(default=None, repr=False)
    single_applies: int = 0
    top_image: Optional[np.ndarray] = field(default=None, repr=False)

    _json_fields = ("value", "method", "iterations", "single_applies", "residual")


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (B, d) complex array."""
    return np.sqrt((a[:, None, :] @ a[:, :, None].conj())[:, 0, 0].real)


def _scale_to_unit(a: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """(a * 2^-e, e) for complex a, with exponents e putting max |entry| over ``axes`` in [1/2, 1).

    e keeps ``axes`` as size one. A power of two scales without rounding (above
    the subnormals), so no digit moves and no finite input overflows on the way.
    An all-zero slice keeps e = 0; where every e is 0, a itself is returned.
    """
    e = np.frexp(np.abs(a).max(axis=axes, keepdims=True))[1]
    if not e.any():
        return a, e
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    return out, e


def _start_vector(shape, restrict_h0: bool, start, rng) -> np.ndarray:
    """Unit vector in the domain: ``start`` if nonzero there, else a random draw from ``rng``.

    A finite ``start`` of any size is scaled by a power of two (``_scale_to_unit``)
    before it is projected and normalised; a non-finite one raises ValueError,
    and one of another shape DimensionMismatch.
    """

    def project(z):
        return center(z) if restrict_h0 else z

    z = None
    if start is not None:
        z = np.asarray(start, dtype=complex)
        if z.shape != shape:
            raise DimensionMismatch(f"start has shape {z.shape}, operator acts on {shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("start contains non-finite entries")
        z = project(_scale_to_unit(z, None)[0])
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


def _lanczos(operands, restrict_h0, Z, tol, max_iter):
    """Top eigenpairs of T_b*T_b for B operators of one shape, by thick-restart Lanczos in lockstep.

    Operator b is given by row b of its ``_gram_operands`` (optionally
    restricted), and its run starts from the unit vector Z[b] of the
    (B, kN, N) stack Z. One ``_gram_apply`` applies all live T_b*T_b as
    stacked GEMMs; as runs finish, the rows of the operand stacks are moved
    in place (``_compact``). Every run keeps full reorthogonalization (two classical
    Gram-Schmidt passes against its basis). When a basis holds LANCZOS_BASIS
    vectors it restarts Krylov-Schur style from the top LANCZOS_KEEP Ritz
    vectors plus the residual vector. Breakdown (beta negligible: the basis
    spans an invariant subspace) is tested after every apply. The Ritz pairs
    come from a batched eigh of the projected matrices, run on the first
    apply (so a start that is already an eigenvector stops after one), every
    LANCZOS_CHECK applies, at the last step of each cycle (whose eigh also
    serves the restart), on a breakdown and at max_iter. A run stops when
    such a scheduled check finds its residual bound beta * |y_last| at most
    tol * theta, on its own breakdown, or after max_iter applies; it then
    leaves the batch. So every run takes the applies it would take alone
    (B = 1), and its arithmetic does not depend on the other runs. Returns
    per-run arrays (theta, X, applies, converged) with X[b] the unit Ritz
    vector.

    T*T is Hermitian, so its Lanczos coefficients are real, and the
    recurrence runs on the real view of the basis (each complex vector of d
    entries read as 2d reals): Gram-Schmidt, the norms, the Ritz combination
    and the restart are real GEMMs with no conjugated copies. This is
    Lanczos on T*T as a real symmetric map of R^2d, whose eigenvalues are
    those of T*T, so theta is still a Rayleigh-Ritz lower bound. With the
    restriction each new basis vector is centred after Gram-Schmidt, so the
    basis stays in the domain on which the T_b*T_b are Hermitian.

    The basis Q, and so every apply, is kept in Z's dtype (complex128 or
    complex64; the operands must have the same), while H, theta and the
    Ritz vectors X are float64 and complex128. The breakdown threshold
    scales with the dtype's machine epsilon. ``max_iter`` is one int cap for
    every run of the batch; after a complex64 phase ``_solve`` passes what
    the batch's longest complex64 run left.
    """
    B, R, N = Z.shape
    d = R * N
    m, keep = LANCZOS_BASIS, LANCZOS_KEEP
    noise = _BREAKDOWN * (np.finfo(Z.dtype).eps / np.finfo(complex).eps)
    real = np.finfo(Z.dtype).dtype

    Q = np.empty((B, m + 1, d), dtype=Z.dtype)
    Q[:, 0] = Z.reshape(B, d)
    Qr = Q.view(real)
    H = np.zeros((B, m, m))
    scale = np.zeros(B)
    live = np.arange(B)  # input index of each row still running
    theta_out, X = np.empty(B), np.empty((B, d), dtype=complex)
    applies_out, converged_out = np.empty(B, dtype=int), np.empty(B, dtype=bool)
    k = applies = 0
    while True:
        for j in range(k, m):
            a = _gram_apply(operands, restrict_h0, Q[:, j].reshape(-1, R, N))[1]
            w = a.reshape(-1, d).view(real)
            applies += 1
            scale = np.maximum(scale, _row_norms(w))
            basis = Qr[:, : j + 1]
            h = basis @ w[:, :, None]
            w -= (h.swapaxes(1, 2) @ basis)[:, 0]
            h2 = basis @ w[:, :, None]
            w -= (h2.swapaxes(1, 2) @ basis)[:, 0]
            if restrict_h0:
                # _gram_apply does not centre its input, so every basis vector
                # must stay in the trace-zero space: near a missed breakdown,
                # w / beta would carry rounding out of it, magnified by 1/beta
                _center_in_place(a)
            H[:, j, j] = h[:, j, 0] + h2[:, j, 0]
            beta = _row_norms(w)
            breakdown = beta <= noise * scale
            capped = applies >= max_iter
            scheduled = capped or j == m - 1 or applies == 1 or applies % LANCZOS_CHECK == 0
            if scheduled or breakdown.any():
                theta, Y = np.linalg.eigh(H[:, : j + 1, : j + 1])
                y = Y[:, :, -1]
                converged = breakdown | (scheduled & (beta * np.abs(y[:, -1]) <= tol * theta[:, -1]))
                done = converged | capped
                if done.any():
                    x = (y[done, None, :] @ basis[done])[:, 0]
                    rows = live[done]
                    theta_out[rows] = theta[done, -1]
                    X.view(float)[rows] = x / _row_norms(x)[:, None]
                    applies_out[rows] = applies
                    converged_out[rows] = converged[done]
                    if done.all():
                        return theta_out, X.reshape(B, R, N), applies_out, converged_out
                    run = np.flatnonzero(~done)
                    live, Q, H, scale, w, beta, theta, Y = _compact(
                        (live, Q, H, scale, w, beta, theta, Y), run
                    )
                    Qr = Q.view(real)
                    operands = _compact(operands, run)
            # q = w / beta, as numpy divides a complex array by a real one: times 1/beta
            np.multiply(w, 1 / beta[:, None], out=Qr[:, j + 1])
            if j + 1 < m:
                H[:, j + 1, j] = H[:, j, j + 1] = beta
        # Thick restart from the last step's eigh of the full H:
        # A Q_keep = Q_keep diag(theta) + q_m (beta Y[-1])^T.
        Yk = Y[:, :, -keep:]
        Qr[:, :keep] = Yk.swapaxes(1, 2) @ Qr[:, :m]
        Qr[:, keep] = Qr[:, m]
        H[:] = 0.0
        H[:, np.arange(keep), np.arange(keep)] = theta[:, -keep:]
        H[:, keep, :keep] = H[:, :keep, keep] = beta[:, None] * Yk[:, -1]
        k = keep


def _solve(left, right, restrict_h0, rngs, tol, *, starts=None, dense=None, max_iter=_MAX_APPLIES,
           witness=False):
    """Norms of T_b = sum_j left_bj (.) right_bj* for B operators of one shape: every norm solve.

    ``left`` is a (B or 1, n, kN, kN) member stack, ``right`` a (B, n, N, N)
    one, and the call writes into neither. The one scale rule: both stacks
    of each operator are scaled by powers of two to unit max-abs
    (``_scale_to_unit``), so T_b = 2^e_b S_b; the solve runs on S_b and
    scales its norms and images back by 2^e_b and its T*T residuals by
    2^2e_b. Every IEEE step commutes with exact power-of-two scaling, so
    in-range values are bit-equal to an unscaled solve's, and the members'
    scale cannot overflow or underflow the solve. A norm beyond the float
    range raises ValueError; a witness residual beyond it (a norm above
    about 1e154) reads inf. ``dense`` None picks the solver by
    ``auto_dense(kN^2)``. With ``dense``, one batched Gram eigen-solve
    counts as one apply, on the ``_dense`` matrices (one operator's from
    ``materialize``, so a traced run times it there). Otherwise run b starts
    from starts[b], or where that (or ``starts``) is None from a draw from
    rngs[b], and the runs go through ``_lanczos`` in lockstep on the
    ``_gram_operands``. Where tol >= _SINGLE_TOL and max_iter > 1 they first
    take up to max_iter - 1 applies on those operands and starts cast to
    complex64; their Ritz vectors, re-centred and normalised in complex128,
    start the complex128 run with the batch's rest of max_iter. That run is
    the certificate: a complex128 Rayleigh-Ritz lower bound with a
    complex128 residual stop. A restricted N = 1 operator acts on {0}: value
    0, no vector, no Lanczos apply. Returns per-run (values, applies,
    single, converged, X, image, residual): applies over both phases, single
    the complex64 ones; with ``witness`` (B = 1: the runs reorder the
    operands) the unit vectors X, T_b(X_b) and ||T_b*T_b X_b - theta_b
    X_b||_F.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    B, R, N = len(rngs), left.shape[-1], right.shape[-1]
    if dense is None:
        dense = auto_dense(R * N)
    zeros, converged = np.zeros(B, dtype=int), np.ones(B, dtype=bool)
    if restrict_h0 and N == 1:
        return np.zeros(B), zeros + dense, zeros, converged, None, None, None
    (left, e), (right, f) = _scale_to_unit(left, (1, 2, 3)), _scale_to_unit(right, (1, 2, 3))
    e, single = (e + f).reshape(B), zeros
    if dense:
        m = _dense(left, right, restrict_h0) if B > 1 else materialize(
            SuperOperator(MatrixTuple(left[0]), MatrixTuple(right[0]), restrict_h0))[None]
        gram = m.conj().swapaxes(-1, -2) @ m
        evals, vecs = np.linalg.eigh(gram) if witness else (np.linalg.eigvalsh(gram), None)
        X = vecs[..., -1].reshape(B, R, N) if witness else None
        theta, applies = evals[:, -1], zeros + 1
    if not dense or witness:
        left = np.broadcast_to(left, right.shape[:1] + left.shape[1:])
        operands = _gram_operands(*_gemm_operands(left, right))
    if not dense:
        starts = starts or [None] * B
        Z = np.stack([_start_vector((R, N), restrict_h0, z, g) for z, g in zip(starts, rngs)])
        if tol >= _SINGLE_TOL and max_iter > 1:
            low = tuple(a.astype(np.complex64) for a in operands)
            _, Z, single, _ = _lanczos(low, restrict_h0, Z.astype(np.complex64), tol, max_iter - 1)
            if restrict_h0:
                _center_in_place(Z)
            Z /= _row_norms(Z.reshape(B, -1))[:, None, None]
            max_iter = max_iter - int(single.max())
        theta, X, applies, converged = _lanczos(operands, restrict_h0, Z, tol, max_iter)
        applies = applies + single
    image = residual = None
    with np.errstate(over="ignore"):  # a norm overflow raises below; a residual may read inf
        values = np.ldexp(np.sqrt(np.maximum(theta, 0.0)), e)
        if witness:
            image, tx = _gram_apply(operands, restrict_h0, center(X) if restrict_h0 else X)
            residual = np.ldexp([_frob(t - th * x) for t, th, x in zip(tx, theta, X)], 2 * e)
            k = e[:, None, None]
            image.real, image.imag = np.ldexp(image.real, k), np.ldexp(image.imag, k)
    if not np.isfinite(values).all():
        raise ValueError("the norm exceeds the float range; scale the members down")
    return values, applies, single, converged, X, image, residual


def operator_norm(
    T: SuperOperator,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int = _MAX_APPLIES,
    rng=None,
    start: Optional[np.ndarray] = None,
    witness: bool = True,
) -> GapReport:
    """Operator norm of T on Hilbert-Schmidt space, as a batch of one for ``_solve``.

    method "dense" computes the exact top singular value of the dense
    matrix m by a Gram eigen-solve on m*m; "lanczos" runs matrix-free
    thick-restart Lanczos on T*T from ``start`` (or a random vector drawn
    from ``rng``). There ``tol`` is a relative Ritz residual bound on T*T:
    the run stops once the top Ritz pair (theta, x) has ||T*T x - theta x||
    <= tol * theta, or after ``max_iter`` applies of T*T, when the method
    reads "lanczos-unconverged". At tol >= _SINGLE_TOL (1e-6) the Krylov
    cycles run in complex64 before a complex128 run certifies their Ritz
    vector (see ``_solve``); ``single_applies`` counts the complex64
    applies within ``iterations``. "auto" picks dense for
    kN^2 <= AUTO_DENSE_DIM, which is kN^2 <= 144 (N <= 12 for k = 1), and
    lanczos above. A restricted T with N = 1 acts on {0}; both methods
    report value 0 there without a witness. A value does not depend on the
    members' scale; one beyond the float range raises ValueError (``_solve``).
    """
    R, N = T.shape
    if method == "auto":
        method = "dense" if auto_dense(R * N) else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    values, applies, singles, converged, X, image, residual = _solve(
        T.left.mats[None], T.right.mats[None], T.restrict_h0, [rng], tol, starts=[start],
        dense=method == "dense", max_iter=max_iter, witness=witness,
    )
    value, iters, single = float(values[0]), int(applies[0]), int(singles[0])
    tag = method if converged[0] else "lanczos-unconverged"
    if image is None:
        return GapReport(value, tag, iters, 0.0, single_applies=single)
    return GapReport(value, tag, iters, float(residual[0]), X[0], single, image[0])


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
    return operator_norm(SuperOperator.conjugation(u), method=method, tol=tol, rng=rng)
