"""Fixed-seed ledger: every number of a chain of ``qex`` runs and of solver cases.

Runs every command (all five ``appendix`` experiments, both ``cover``
metrics, dense and Lanczos gaps, one run that must fail, two ``appendix``
runs at coefficients of 1e200, a ``strong-sep`` and a ``norming`` run that
stop at their certified maximum, then a ``norming`` run on a gapless direct
sum, whose first orbit check misses and whose gap solve passes) as its own
``python -m qexpand.cli`` process on the package in SRC, each into its own
directory under OUT, then the cases of ``run_solves`` in this process on the
same package, with BLAS on one thread. Each line is a name, two spaces, then
the ``repr`` of a number, string or bool, or ``sha256:<hex>`` of the bytes of
an array (numpy, or a tuple's ``matrices_b64``). A name is ``<run>/<file>``
or a case, then ``:<key>`` per JSON key or field and ``[<i>]`` per list item
or CSV row: ``gap-dense/gap.json:value``, ``mix/mix.csv[3]:residual``,
``gap/N=32:residual``. ``run.json`` is read without ``started`` and
``finished`` and with OUT as ``<out>``. Two trees are compared by ``diff`` of
the output on their ``src``. Exits 1, showing the run's stderr, if a run's
exit code is not the one listed, if a run listed with exit code 0 writes
anything to stderr (a warning or a traceback), or if the run listed as
failing writes anything but one ``error:`` line; 2 if OUT is not empty or
``qexpand`` is not SRC's.

    python3 tools/qex_chain.py src /tmp/chain > ledger.txt
"""
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# (run name, seed, command, params, expected exit code); "@path" is that file or
# directory under OUT, written by an earlier run or first (``write_inputs``)
CHAIN = [
    ("u", 1, "sample-haar", {"n": 3, "N": 11}, 0),
    ("v", 2, "sample-haar", {"n": 3, "N": 11}, 0),
    ("w", 3, "sample-haar", {"n": 4, "N": 16}, 0),
    ("cayley", 0, "cayley", {"group": "@group.json"}, 0),
    ("certify", 4, "certify", {"tuple": "@u/tuple.json"}, 0),
    ("certify-lanczos", 5, "certify", {"tuple": "@w/tuple.json", "tol": 1e-8}, 0),
    ("gap-dense", 6, "gap", {"tuple": "@u/tuple.json"}, 0),
    ("gap-mixed", 7, "gap", {"tuple": "@w/tuple.json", "tol": 1e-6}, 0),
    ("gap-lanczos", 8, "gap", {"tuple": "@u/tuple.json", "method": "lanczos"}, 0),
    ("mix", 9, "mix", {"tuple": "@u/tuple.json", "steps": 20}, 0),
    ("mix-x0", 10, "mix", {"tuple": "@u/tuple.json", "x0": "@gap-dense/witness.json", "steps": 10}, 0),
    ("separate", 11, "separate", {"u": "@u/tuple.json", "v": "@v/tuple.json"}, 0),
    ("orbit-dist", 12, "orbit-dist", {"u": "@u/tuple.json", "v": "@v/tuple.json", "restarts": 4}, 0),
    ("strong-sep", 13, "strong-sep", {"u": "@u/tuple.json", "v": "@v/tuple.json", "restarts": 3}, 0),
    ("norming", 14, "norming", {"tuple": "@u/tuple.json", "restarts": 2}, 0),
    ("delta-overlap", 15, "delta-overlap", {"tuple": "@cayley/tuple.json"}, 0),
    ("dcb-bound", 16, "dcb-bound", {"delta_strong": 0.1, "overlap": 0.02, "n": 3}, 0),
    ("pack", 17, "pack", {"n": 3, "N": 4, "eps": 0.05, "delta": 0.05, "max_samples": 30}, 0),
    ("cover-d", 18, "cover", {"tuples": "@pack", "radius": 1.5}, 0),
    ("cover-d-prime", 19, "cover", {"tuples": "@pack", "radius": 1.5, "metric": "d_prime"}, 0),
    ("bounds", 20, "bounds", {"n": 3, "N": 4}, 0),
    ("subgauss", 21, "subgauss", {"n": 3, "N": 4, "samples": 200}, 0),
    ("chi", 22, "appendix", {"experiment": "chi", "N": 8, "samples": 100}, 0),
    ("twirl", 23, "appendix", {"experiment": "twirl", "N": 3, "samples": 20}, 0),
    ("dominance", 24, "appendix", {"experiment": "dominance", "n": 3, "N": 8, "samples": 10}, 0),
    ("hastings", 25, "appendix",
     {"experiment": "hastings", "n": 3, "N": 12, "samples": 10, "coeffs": "1,0.5,0.25"}, 0),
    ("matrix-coeff", 26, "appendix", {"experiment": "matrix-coeff", "n": 2, "N": 6, "samples": 10, "k": 2}, 0),
    ("validate", 27, "validate", {"tuple": "@u/tuple.json"}, 0),
    ("failed", 28, "pack", {"n": 2, "N": 2, "eps": 0.0, "delta": 1.5, "max_samples": 2}, 1),
    # coefficients whose squares overflow: the statistics are scaled by powers of two
    ("hastings-1e200", 29, "appendix",
     {"experiment": "hastings", "n": 3, "N": 12, "samples": 10, "coeffs": "1e200,1e200,1e200"}, 0),
    ("matrix-coeff-1e200", 30, "appendix",
     {"experiment": "matrix-coeff", "n": 3, "N": 6, "samples": 10, "k": 2, "coeffs": "1e200,1e200,1e200"}, 0),
    # ascents that stop at their certified maximum n (1 - 1e-12): strong
    # separation against a unitary recombination (Lanczos from the fixed
    # point), and a norming search whose first random restart reaches it
    ("strong-sep-mix", 31, "strong-sep", {"u": "@recombined/u.json", "v": "@recombined/v.json", "restarts": 5}, 0),
    ("norming-5", 32, "norming", {"tuple": "@u/tuple.json", "restarts": 5}, 0),
    # a (+) b is normed off its orbit: the orbit ascent misses, spectral_gap finds no gap
    ("norming-gapless", 33, "norming", {"tuple": "@gapless.json", "restarts": 2}, 0),
]
# the cycle graph of Z_5, as GroupPresentation.to_json writes it
GROUP = {"order": 5, "generators": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]], "labels": ["+1", "-1"]}


def write_inputs(out: Path):
    """Write group.json, recombined/{u,v}.json (a Haar tuple and a unitary recombination of
    it) and gapless.json (the direct sum of two Haar tuples)."""
    import qexpand as qx

    (out / "group.json").write_text(json.dumps(GROUP))
    gen = qx.RngSpec(2026, 31).generator()
    u = qx.haar_tuple(3, 13, gen)
    (out / "recombined").mkdir()
    qx.save_tuple(out / "recombined" / "u.json", u)
    qx.save_tuple(out / "recombined" / "v.json", qx.mix_tuple(qx.sample_haar_unitary(3, gen), u))
    gen = qx.RngSpec(2026, 33).generator()
    qx.save_tuple(out / "gapless.json", qx.direct_sum(qx.haar_tuple(2, 3, gen), qx.haar_tuple(2, 3, gen)))


def emit(name, value):
    """Print the lines of value under name, as the module docstring states; None prints none."""
    if isinstance(value, dict):
        for key, item in value.items():
            emit(f"{name}:{key}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            emit(f"{name}[{i}]", item)
    elif isinstance(value, bytes) or hasattr(value, "tobytes"):
        print(f"{name}  sha256:{hashlib.sha256(memoryview(value).tobytes()).hexdigest()}")
    elif value is not None:
        print(f"{name}  {value!r}")


def read_file(path: Path, out: Path):
    """The values in a file a run wrote: CSV rows by column, or JSON."""
    if path.suffix == ".csv":
        return list(csv.DictReader(path.read_text().splitlines()))
    record = json.loads(path.read_text().replace(str(out), "<out>"))
    if path.name == "run.json":
        del record["started"], record["finished"]
    if "matrices_b64" in record:
        record["matrices_b64"] = record["matrices_b64"].encode()
    return record


def unexpected(name, want, proc) -> bool:
    """Whether a run's exit code or stderr breaks the rule of the module docstring; prints why."""
    lines = proc.stderr.splitlines()
    ok = len(lines) == 1 and lines[0].startswith("error: ") if want else not lines
    if proc.returncode == want and ok:
        return False
    print(f"{name}: exit code {proc.returncode} (expected {want}), stderr:\n{proc.stderr}",
          file=sys.stderr)
    return True


def run_chain(src: Path, out: Path) -> int:
    """Run CHAIN into out and print its files; returns the number of ``unexpected`` runs."""
    write_inputs(out)
    env = {**os.environ, "PYTHONPATH": str(src)}
    bad = 0
    for name, seed, command, params, want in CHAIN:
        flags = []
        for key, val in params.items():
            if isinstance(val, str) and val.startswith("@"):
                val = out / val[1:]
            flags += ["-p", f"{key}={val}"]
        argv = [sys.executable, "-m", "qexpand.cli", "--seed", str(seed),
                "--out", str(out / name), command, *flags]
        bad += unexpected(name, want, subprocess.run(argv, env=env, capture_output=True, text=True))
        for path in sorted((out / name).iterdir()):
            emit(f"{name}/{path.name}", read_file(path, out))
    return bad


def run_solves():
    """Print the solver cases, all drawn in turn from fixed seeds."""
    import numpy as np

    import qexpand as qx

    def ginibre(n, R, gen):
        return qx.MatrixTuple(gen.standard_normal((n, R, R)) + 1j * gen.standard_normal((n, R, R)))

    def report(case, rep):
        extra = {key: getattr(rep, key, None) for key in ("top_vector", "top_image", "values")}
        emit(case, {**rep.to_json(), **extra})

    gen = qx.RngSpec(2024, 7).generator()
    # operator_norm: dense, complex128 and mixed Lanczos, both restrictions, witness on and off
    for N in (3, 4, 6, 11, 12, 13, 17, 32):
        for k in (1, 2) if N <= 13 else (1,):
            u, v = qx.haar_tuple(3, N, gen), qx.haar_tuple(3, N, gen)
            left = ginibre(3, k * N, gen) if k > 1 else u
            for restrict in (False, True):
                T = qx.SuperOperator(left, v, restrict_h0=restrict)
                for method in ("dense", "lanczos") if k * N * N <= 1024 else ("lanczos",):
                    for tol in (1e-10, 1e-6) if method == "lanczos" else (1e-10,):
                        for witness in (True, False):
                            report(f"norm/N={N},k={k},restrict={restrict},{method},tol={tol},"
                                   f"witness={witness}",
                                   qx.operator_norm(T, method=method, tol=tol, rng=gen, witness=witness))
    # warm starts, caps and spectral gaps
    for N in (13, 17):
        u = qx.haar_tuple(4, N, gen)
        T = qx.SuperOperator.conjugation(u)
        start = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
        for tol in (1e-6, 1e-8):
            report(f"warm/N={N},tol={tol}", qx.operator_norm(T, "lanczos", tol=tol, rng=gen, start=start))
            report(f"cap/N={N},tol={tol}", qx.operator_norm(T, "lanczos", tol=tol, max_iter=7, rng=gen))
        report(f"gap/N={N}", qx.spectral_gap(u, tol=1e-6, rng=gen))
    report("gap/N=32", qx.spectral_gap(qx.haar_tuple(4, 32, gen), tol=1e-6, rng=gen))
    # lockstep batches of _solve, dense and Lanczos, shared and per-operator left stacks
    for N, tol in ((4, 1e-8), (13, 1e-8), (13, 1e-6), (16, 1e-6)):
        for restrict in (False, True):
            left = np.stack([qx.haar_tuple(3, N, gen).mats for _ in range(4)])
            right = np.stack([qx.haar_tuple(3, N, gen).mats for _ in range(4)])
            for lt in (left, left[:1]):
                rngs = [qx.RngSpec(5, b).generator() for b in range(4)]
                values, applies, _, converged, *_ = qx.superop._solve(lt, right, restrict, rngs, tol)
                emit(f"norms/N={N},tol={tol},restrict={restrict},left={len(lt)}",
                     dict(values=values.tolist(), applies=applies.tolist(), converged=converged.tolist()))
    # Monte Carlo statistics: dense and Lanczos, scalar and k = 2 block coefficients
    for N in (8, 13, 16):
        for fn in (qx.unitary_sum_norm, qx.gaussian_decoupled_norm):
            report(f"{fn.__name__}/N={N}", fn([1.0, 0.5, 1j], N, 10, qx.RngSpec(11, N)))
    mats = [np.eye(2), np.diag([1.0, -1.0]), np.ones((2, 2))]
    for N in (8, 9):
        report(f"matrix_coefficient_sum/N={N}", qx.matrix_coefficient_sum(mats, N, 10, qx.RngSpec(12, N)))
    # greedy packing, dense (N = 4) and lockstep Lanczos (N = 13)
    for n, N, samples in ((6, 4, 30), (3, 13, 6)):
        fam = qx.greedy_pack(n, N, 0.05, 0.05, samples, qx.RngSpec(13, N))
        emit(f"greedy_pack/n={n},N={N}", {key: getattr(fam, key) for key in (
            "pairwise", "gap_values", "rejected_close", "rejected_uncertified", "unconverged")})
    # dense matrices with k = 2 blocks, restricted and not
    for restrict in (False, True):
        T = qx.SuperOperator(ginibre(2, 6, gen), ginibre(2, 3, gen), restrict_h0=restrict)
        emit(f"materialize/restrict={restrict}", qx.materialize(T))
    # scale-free solves: restricted gaps with the left stack times powers of
    # two and times 1e80 and 1e-100, each from the same start as at scale 1
    gen = qx.RngSpec(2025, 27).generator()
    for N, method, tols in ((20, "lanczos", (1e-10, 1e-6)), (6, "dense", (1e-10,))):
        u = qx.haar_tuple(3, N, gen)
        for tol in tols:
            for label, s in (("1", 1.0), ("2^-600", 2.0**-600), ("2^600", 2.0**600),
                             ("1e80", 1e80), ("1e-100", 1e-100)):
                T = qx.SuperOperator(u.scale(s), u, restrict_h0=True)
                report(f"scale/N={N},{method},tol={tol},s={label}",
                       qx.operator_norm(T, method, tol, rng=qx.RngSpec(2025, N).generator()))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out}: not empty", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.path.insert(0, str(src))
    import qexpand
    if not Path(qexpand.__file__).resolve().is_relative_to(src):
        print(f"qexpand imports from {qexpand.__file__}, not from {src}", file=sys.stderr)
        return 2
    bad = run_chain(src, out)
    run_solves()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
