"""Fixed-seed chain of ``qex`` runs: one SHA-256 per file they write.

Runs every command (all five ``appendix`` experiments, both ``cover``
metrics, dense and Lanczos gaps, one run that must fail) as its own
``python -m qexpand.cli`` process on the package in SRC, each into its own
directory under OUT, and prints ``<sha256>  <run>/<file>`` for every file
written. A ``run.json`` is hashed without its ``started`` and ``finished``
timestamps and with OUT replaced by ``<out>``, so two checkouts that write
the same numbers print the same lines. BLAS runs on one thread. Exits
nonzero if a run ends with an exit code other than the one listed for it.

    python3 tools/qex_chain.py src /tmp/chain > hashes.txt

OUT must not exist yet, or be empty.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# (run name, seed, command, params, expected exit code); "@name/file" is the
# file of that name written by an earlier run, "@group.json" the group file
# written first and "@pack" the directory of the pack run
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
    ("matrix-coeff", 26, "appendix",
     {"experiment": "matrix-coeff", "n": 2, "N": 6, "samples": 10, "k": 2}, 0),
    ("validate", 27, "validate", {"tuple": "@u/tuple.json"}, 0),
    ("failed", 28, "pack", {"n": 2, "N": 2, "eps": 0.0, "delta": 1.5, "max_samples": 2}, 1),
]
# the cycle graph of Z_5, as GroupPresentation.to_json writes it
GROUP = {"order": 5, "generators": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]], "labels": ["+1", "-1"]}
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def file_hash(path: Path, out: Path) -> str:
    if path.name != "run.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    record = json.loads(path.read_text().replace(str(out), "<out>"))
    record.pop("started")
    record.pop("finished")
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out}: not empty", file=sys.stderr)
        return 2
    (out / "group.json").write_text(json.dumps(GROUP))
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in _THREADS}}
    bad = 0
    for name, seed, command, params, want in CHAIN:
        flags = []
        for key, val in params.items():
            if isinstance(val, str) and val.startswith("@"):
                val = out / val[1:]
            flags += ["-p", f"{key}={val}"]
        argv = [sys.executable, "-m", "qexpand.cli", "--seed", str(seed),
                "--out", str(out / name), command, *flags]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != want:
            print(f"{name}: exit code {proc.returncode}, expected {want}\n{proc.stderr}",
                  file=sys.stderr)
            bad += 1
        for path in sorted((out / name).iterdir()):
            print(f"{file_hash(path, out)}  {name}/{path.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
