"""Reference norms for checking qexpand's outputs, independent of its solvers.

A superoperator here is a pair of stacked arrays ``(L, R)`` of shape
(n, N, N) acting as xi -> sum_j L_j xi R_j^*, optionally composed on both
sides with the projection onto the trace-zero subspace. Two solvers:

* ``dense_norm``: the explicit N^2 x N^2 matrix sum_j kron(L_j, conj(R_j))
  and LAPACK's SVD. Used wherever N^2 fits under ``dense_max``.
* ``lanczos_norm``: Lanczos on T*T with full reorthogonalization, stopped on
  the Ritz residual bound. Used above ``dense_max``.

Both return ``(value, residual)`` with residual = ||T*T(xi) - value^2 xi||_F
for the unit witness xi, the same definition as ``GapReport.residual``.

Run as a script to regenerate the stored references under ``refs/``:

    python3 perfbench/reference.py --workload hastings --seed 0

``run.py`` runs it the same way, with ``--seconds``, ``--dense-max``,
``--part`` and ``--out``, for seeds that have no stored references: two
processes each take every other input, and the memory the solvers use does
not count toward the workload process's peak.
"""
from __future__ import annotations

import math

import numpy as np

LANCZOS_TOL = 1e-13
LANCZOS_MAX_STEPS = 1500


def _center(x: np.ndarray) -> np.ndarray:
    y = x.copy()
    idx = np.arange(x.shape[-1])
    y[..., idx, idx] -= (np.trace(x, axis1=-2, axis2=-1) / x.shape[-1])[..., None]
    return y


def apply_ref(L: np.ndarray, R: np.ndarray, x: np.ndarray, restrict: bool) -> np.ndarray:
    """T(x) = sum_j L_j x R_j^* by batched products (not the package's stacked GEMMs)."""
    if restrict:
        x = _center(x)
    y = np.matmul(np.matmul(L, x), R.conj().transpose(0, 2, 1)).sum(axis=0)
    return _center(y) if restrict else y


def dense_matrices(L: np.ndarray, R: np.ndarray, restrict: bool) -> np.ndarray:
    """Explicit matrices of a batch of operators; L, R have shape (..., n, N, N)."""
    N = L.shape[-1]
    d = N * N
    lead = L.shape[:-3]
    m = np.zeros(lead + (d, d), dtype=complex)
    for j in range(L.shape[-3]):
        a, b = L[..., j, :, :], R[..., j, :, :].conj()
        # kron(a, b)[(p, q), (r, s)] = a[p, r] b[q, s], batched over the lead axes
        m += (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(lead + (d, d))
    if restrict:
        v = np.eye(N, dtype=complex).reshape(-1) / math.sqrt(N)
        mv = m @ v
        vm = v.conj() @ m
        vmv = vm @ v
        m = (m - mv[..., :, None] * v.conj() - v[:, None] * vm[..., None, :]
             + vmv[..., None, None] * np.outer(v, v.conj()))
    return m


def dense_norms(L: np.ndarray, R: np.ndarray, restrict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Top singular values and witness residuals of a batch of operators."""
    m = dense_matrices(L, R, restrict)
    _, s, vh = np.linalg.svd(m)
    x = vh[..., 0, :].conj()
    w = np.einsum("...ba,...b->...a", m.conj(), np.einsum("...ab,...b->...a", m, x))
    res = np.linalg.norm(w - (s[..., 0] ** 2)[..., None] * x, axis=-1)
    return s[..., 0], res


def dense_norm(L, R, restrict: bool) -> tuple[float, float]:
    s, res = dense_norms(np.asarray(L)[None], np.asarray(R)[None], restrict)
    return float(s[0]), float(res[0])


def lanczos_norm(L, R, restrict: bool, seed: int = 0) -> tuple[float, float]:
    """Largest singular value by Lanczos on T*T with full reorthogonalization."""
    L = np.asarray(L, dtype=complex)
    R = np.asarray(R, dtype=complex)
    N = L.shape[-1]
    d = N * N
    LH, RH = L.conj().transpose(0, 2, 1), R.conj().transpose(0, 2, 1)

    def op(v):
        x = v.reshape(N, N)
        return apply_ref(LH, RH, apply_ref(L, R, x, restrict), restrict).reshape(-1)

    gen = np.random.default_rng(seed)
    q = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
    if restrict:
        q = _center(q)
    steps = min(LANCZOS_MAX_STEPS, d - (1 if restrict else 0))
    Q = np.zeros((steps + 1, d), dtype=complex)
    Q[0] = q.reshape(-1) / np.linalg.norm(q)
    alpha, beta = [], []
    theta, s = 0.0, None
    for k in range(steps):
        w = op(Q[k])
        alpha.append(float(np.real(np.vdot(Q[k], w))))
        for _ in range(2):  # two classical Gram-Schmidt passes over the whole basis
            w -= Q[: k + 1].T @ (Q[: k + 1].conj() @ w)
        b = float(np.linalg.norm(w))
        beta.append(b)
        if k % 10 == 9 or k == steps - 1 or b == 0.0:
            t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
            vals, vecs = np.linalg.eigh(t)
            theta, s = float(vals[-1]), vecs[:, -1]
            if b * abs(s[-1]) <= LANCZOS_TOL * max(theta, 1e-300) or b == 0.0:
                break
        Q[k + 1] = w / b
    x = Q[: len(alpha)].T @ s
    x /= np.linalg.norm(x)
    res = float(np.linalg.norm(op(x) - theta * x))
    return math.sqrt(max(theta, 0.0)), res


def norm(L, R, restrict: bool, dense_max: int, seed: int = 0) -> tuple[float, float]:
    """Dense oracle when N^2 <= dense_max, Lanczos otherwise."""
    N = np.asarray(L).shape[-1]
    if N * N <= dense_max:
        return dense_norm(L, R, restrict)
    return lanczos_norm(L, R, restrict, seed=seed)


def main(argv=None) -> int:
    import argparse
    import json
    import os
    from pathlib import Path

    import run

    parser = argparse.ArgumentParser(description="write a workload's reference file")
    parser.add_argument("--workload", required=True, choices=run.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="the inputs of a run this long (default: every input of the pool)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--dense-max", type=int, default=None,
                        help="largest N^2 for the dense oracle (default: dense_cap())")
    parser.add_argument("--out", default=None, help="default: the stored file under refs/")
    parser.add_argument("--part", type=int, nargs=2, default=(0, 1), metavar=("I", "PARTS"),
                        help="only inputs I, I + PARTS, I + 2 PARTS, ...")
    args = parser.parse_args(argv)
    qx = run.import_package()
    dense_max = qx.superop.dense_cap() if args.dense_max is None else args.dense_max
    run.OUT_DIR.mkdir(exist_ok=True)
    workload = run.make_workload(args.workload, args.seed, args.size,
                                 run.OUT_DIR / f"refgen_{args.workload}_{os.getpid()}", args.seconds)
    try:
        part, parts = args.part
        refs = workload.reference(dense_max, range(part, workload.rounds, parts))
    finally:
        workload.cleanup()
    path = Path(args.out) if args.out else run.stored_refs_path(args.workload, args.seed)
    path.write_text(json.dumps(refs) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
