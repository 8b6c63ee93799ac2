"""Fixed-seed probe of the norm solver: one SHA-256 over about 320 solves.

Hashes the values, witnesses, images, residuals and apply counts of dense,
complex128 and mixed-precision solves, restricted and not, with and without
witness, at N = 3 to 32 (block operators with k = 2 included), lockstep
``_norms`` batches, Monte Carlo statistics and two ``greedy_pack`` runs. A
change to ``superop`` that is meant to keep every value bit for bit must
leave the digest as it was. Run from a checkout:

    PYTHONPATH=src python3 tools/solve_probe.py
"""
import hashlib

import numpy as np

import qexpand as qx
from qexpand import superop
from qexpand.linalg import MatrixTuple, RngSpec

digest = hashlib.sha256()
solves = 0


def feed(*items):
    for item in items:
        if isinstance(item, np.ndarray):
            digest.update(np.ascontiguousarray(item).tobytes())
        elif item is not None:
            digest.update(repr(item).encode())


def ginibre(n, R, gen):
    return MatrixTuple(gen.standard_normal((n, R, R)) + 1j * gen.standard_normal((n, R, R)))


def report(rep):
    global solves
    solves += 1
    feed(rep.value, rep.method, rep.iterations, rep.single_applies, rep.residual,
         rep.top_vector, rep.top_image)


gen = RngSpec(2024, 7).generator()
# operator_norm: dense, complex128 and mixed Lanczos, both restrictions, witness on and off
for N in (3, 4, 6, 11, 12, 13, 17, 32):
    for k in (1, 2) if N <= 13 else (1,):
        u, v = qx.haar_tuple(3, N, gen), qx.haar_tuple(3, N, gen)
        left = ginibre(3, k * N, gen) if k > 1 else u
        for restrict in (False, True):
            T = qx.SuperOperator(left, v, restrict_h0=restrict)
            methods = ("dense", "lanczos") if k * N * N <= 1024 else ("lanczos",)
            for method in methods:
                for tol in (1e-10, 1e-6) if method == "lanczos" else (1e-10,):
                    for witness in (True, False):
                        report(qx.operator_norm(T, method=method, tol=tol, rng=gen, witness=witness))
# warm starts, caps and spectral gaps
for N in (13, 17):
    u = qx.haar_tuple(4, N, gen)
    T = qx.SuperOperator.conjugation(u)
    start = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
    for tol in (1e-6, 1e-8):
        report(qx.operator_norm(T, "lanczos", tol=tol, rng=gen, start=start))
        report(qx.operator_norm(T, "lanczos", tol=tol, max_iter=7, rng=gen))
    report(qx.spectral_gap(u, tol=1e-6, rng=gen))
report(qx.spectral_gap(qx.haar_tuple(4, 32, gen), tol=1e-6, rng=gen))
# lockstep batches of _norms, dense and Lanczos, shared and per-operator left stacks
for N, tol in ((4, 1e-8), (13, 1e-8), (13, 1e-6), (16, 1e-6)):
    for restrict in (False, True):
        left = np.stack([qx.haar_tuple(3, N, gen).mats for _ in range(4)])
        right = np.stack([qx.haar_tuple(3, N, gen).mats for _ in range(4)])
        for lt in (left, left[:1]):
            rngs = [RngSpec(5, b).generator() for b in range(4)]
            values, applies, converged = superop._norms(lt, right, restrict, rngs, tol)
            solves += 4
            feed(values, applies, converged)
# Monte Carlo statistics: dense and Lanczos, scalar and k = 2 block coefficients
for N in (8, 13, 16):
    for fn in (qx.unitary_sum_norm, qx.gaussian_decoupled_norm):
        rep = fn([1.0, 0.5, 1j], N, 10, RngSpec(11, N))
        solves += 10
        feed(rep.values, rep.unconverged)
for N in (8, 9):
    rep = qx.matrix_coefficient_sum([np.eye(2), np.diag([1.0, -1.0]), np.ones((2, 2))], N, 10,
                                    RngSpec(12, N))
    solves += 10
    feed(rep.values, rep.rhs)
# greedy packing, dense (N = 4) and lockstep Lanczos (N = 13)
for n, N, samples in ((6, 4, 30), (3, 13, 6)):
    fam = qx.greedy_pack(n, N, 0.05, 0.05, samples, RngSpec(13, N))
    feed(fam.pairwise, fam.gap_values, fam.rejected_close, fam.rejected_uncertified, fam.unconverged)
# dense matrices with k = 2 blocks, restricted and not
for restrict in (False, True):
    T = qx.SuperOperator(ginibre(2, 6, gen), ginibre(2, 3, gen), restrict_h0=restrict)
    feed(qx.materialize(T))

print(f"{solves} solves")
print(digest.hexdigest())
