"""The four benchmark workloads: inputs, calls, references and output checks.

Each workload builds its inputs from ``--seed`` with its own sampler (the
library receives only the generated inputs), and exposes:

* ``rounds``: how many rounds a run makes. It is fixed by ``--seconds`` and
  a rate in ``SIZES``, never by how fast the code runs, so two commits time
  the same inputs the same number of times. Round i uses input i only, so
  each input is visited once and a run averages over as many instances as
  it has rounds.
* ``cycle(i)``: the calls of the i-th round, the same mix in every round.
* ``reference(dense_max, ks)``: JSON-able reference values of the inputs
  ``ks``, computed by the solvers in ``reference.py``, never by the
  package's own solver. They sit in a list under ``refs_key``, one entry
  per input.
* ``check(call, out, refs)``: ``(err, ok, units)`` for one call's output.

Outputs are read from the values public calls return, and for the CLI from
``run.json`` and the artifacts it lists, never from stdout.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import qexpand as qx
import qexpand.cli  # noqa: F401  (makes qx.cli available)
from qexpand.linalg import RngSpec

import reference as ref
from tracing import is_unconverged

# Shapes at full size and at the tiny size the self-test uses. ``per_s`` is
# the number of untraced rounds per second the seed commit made on a 2-vCPU
# x86-64 machine with one BLAS thread; a run of S seconds makes
# round(S * per_s) rounds whatever the speed of the code under test, and at
# most ``pool``, the number of inputs the stored references cover.
SIZES = {
    "hastings": {"full": dict(n=4, N=32, pool=96, per_s=3.6),
                 "tiny": dict(n=3, N=17, pool=2, per_s=100)},
    "montecarlo": {
        "full": dict(n=8, N=16, samples=10, tail=(8, 16, 100), pool=48, per_s=1.4),
        "tiny": dict(n=3, N=17, samples=10, tail=(3, 4, 100), pool=1, per_s=100),
    },
    "pack": {
        "full": dict(n=6, N=4, eps=0.05, delta=0.05, max_samples=100, pool=64, per_s=1.8),
        "tiny": dict(n=6, N=4, eps=0.05, delta=0.05, max_samples=12, pool=2, per_s=100),
    },
    "pipeline": {
        "full": dict(n=8, N=17, big=(4, 48), pool=32, orbit_restarts=5, norming_restarts=2,
                     per_s=1.2),
        "tiny": dict(n=3, N=17, big=(2, 20), pool=1, orbit_restarts=5, norming_restarts=1,
                     per_s=100),
    },
}

# Stream ids of ``np.random.default_rng([seed, stream, k])`` per input kind.
_HAAR_STREAM, _SPEC_STREAM, _CHAIN_STREAM = 1, 2, 3


def haar_unitary(N: int, gen: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR with the R-diagonal phase fix (Mezzadri 2007)."""
    z = (gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_stack(n: int, N: int, gen: np.random.Generator) -> np.ndarray:
    return np.stack([haar_unitary(N, gen) for _ in range(n)])


def write_tuple(path: Path, mats: np.ndarray, unitary: bool) -> None:
    """Tuple file in the documented format: row-major [re, im] pairs per member."""
    obj = {
        "n": int(mats.shape[0]),
        "N": int(mats.shape[1]),
        "unitary": bool(unitary),
        "matrices": [[[float(z.real), float(z.imag)] for z in m.reshape(-1)] for m in mats],
    }
    path.write_text(json.dumps(obj) + "\n")


class Call:
    """One top-level public call: ``fn`` is timed, ``extract`` runs after it."""

    __slots__ = ("kind", "key", "fn", "extract")

    def __init__(self, kind, key, fn, extract=lambda raw: raw):
        self.kind = kind
        self.key = key
        self.fn = fn
        self.extract = extract


class Workload:
    name = ""
    unit = ""
    refs_key = ""

    def __init__(self, seed: int, size: str, workdir: Path, seconds: float | None = None):
        self.seed = int(seed)
        self.p = SIZES[self.name][size]
        self.workdir = Path(workdir)
        self.rounds = self.count_rounds(seconds)
        # (n, N) of the operators the norm solves see, for the apply probe
        self.probe_shape = (self.p["n"], self.p["N"])

    def count_rounds(self, seconds: float | None) -> int:
        """Rounds of a run this long; the whole pool when ``seconds`` is None."""
        if seconds is None:
            return self.p["pool"]
        return min(self.p["pool"], max(1, round(seconds * self.p["per_s"])))

    def rng(self, stream: int, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, k])

    def spec(self, k: int) -> RngSpec:
        return RngSpec(self.seed, 1000 * _SPEC_STREAM + k)

    def reference(self, dense_max: int, ks=None) -> dict:
        ks = range(self.rounds) if ks is None else ks
        return {self.refs_key: [self.reference_one(k, dense_max) for k in ks]}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------

def _gap_out(rep) -> dict:
    return {
        "value": float(rep.value),
        "method": str(rep.method),
        "iterations": int(rep.iterations),
        "residual": float(rep.residual),
        "unconverged": is_unconverged(rep.method, getattr(rep, "unconverged", False)),
    }


class Hastings(Workload):
    """Cold-start spectral gaps of Haar tuples, one large matrix-free operator per call."""

    name = "hastings"
    unit = "gap"
    refs_key = "gaps"
    # The default method's answer is a lower bound; its distance below the
    # reference is reported as max_err. An output fails when it lies above the
    # reference, says it did not converge, or is more than TOL below.
    TOL = 1e-3

    def __init__(self, seed, size, workdir, seconds=None):
        super().__init__(seed, size, workdir, seconds)
        n, N = self.p["n"], self.p["N"]
        self.inputs = [
            qx.MatrixTuple(haar_stack(n, N, self.rng(_HAAR_STREAM, k)), unitary=True)
            for k in range(self.rounds)
        ]

    def reference_one(self, k, dense_max):
        u = self.inputs[k].mats
        value, residual = ref.norm(u, u, True, dense_max, seed=k)
        return {"value": value, "residual": residual}

    def cycle(self, i):
        u = self.inputs[i]
        return [Call("spectral_gap", i, lambda: _gap_out(qx.spectral_gap(u, tol=1e-6)))]

    def check(self, call, out, refs):
        r = refs["gaps"][call.key]["value"]
        err = abs(out["value"] - r)
        ok = (not out["unconverged"]) and out["value"] <= r + 1e-9 and err <= self.TOL
        return err, ok, 1


# ---------------------------------------------------------------------------

def _tail_stats(sums: np.ndarray, n: int) -> list[float]:
    lambdas = [0.5 * k * math.sqrt(n) for k in range(9)]
    return [float(np.mean(sums > lam)) for lam in lambdas]


class MonteCarlo(Workload):
    """Unitary and decoupled-Gaussian norm samples plus a subGaussian tail leg.

    At N=16 the operators have d=256 and take the dense path, whose cost does
    not depend on the draw. One size up, at N=17, the power iteration of a
    unitary sample took 267 to 11158 iterations over 60 samples (coefficient
    of variation 1.27), because the top two singular values of the
    restricted operator are often close; throughput then moved by 17%
    between seeds, too much for the benchmark's bounds. The matrix-free
    solver is measured on ``hastings`` (cold starts) and ``pipeline`` (warm
    starts).
    """

    name = "montecarlo"
    unit = "sample"
    refs_key = "samples"
    TOL = 1e-4  # both Monte Carlo functions solve to tol=1e-8 on the increment
    BN_SAMPLES = 200

    def __init__(self, seed, size, workdir, seconds=None):
        super().__init__(seed, size, workdir, seconds)
        self.coeffs = [1.0] * self.p["n"]
        self.specs = [self.spec(k) for k in range(self.rounds)]

    def _uni(self, spec):
        return qx.unitary_sum_norm(self.coeffs, self.p["N"], self.p["samples"], spec)

    def _gau(self, spec):
        return qx.gaussian_decoupled_norm(self.coeffs, self.p["N"], self.p["samples"], spec)

    def _tail(self, spec):
        tn, tN, ts = self.p["tail"]
        return qx.subgaussian_tail_check(tn, tN, ts, spec, bn_samples=self.BN_SAMPLES)

    def reference_one(self, k, dense_max):
        # Replays the draws of both Monte Carlo functions through the public
        # samplers on the same per-sample substreams, then solves with the
        # reference solvers and recomputes the tail statistics.
        n, N = self.p["n"], self.p["N"]
        a = np.asarray(self.coeffs, dtype=complex).reshape(n, 1, 1)
        tn, tN, ts = self.p["tail"]
        spec = self.specs[k]
        uni, gau, residual = [], [], 0.0
        for s in range(self.p["samples"]):
            gen = spec.substream(2, s)
            u = np.stack([qx.sample_haar_unitary(N, gen) for _ in range(n)])
            value, res = ref.norm(a * u, u, True, dense_max, seed=s)
            uni.append(value)
            residual = max(residual, res)
        for s in range(self.p["samples"]):
            gen_y, gen_yp = spec.substream(0, s), spec.substream(1, s)
            y = np.stack([qx.sample_ginibre(N, gen_y) for _ in range(n)])
            yp = np.stack([qx.sample_ginibre(N, gen_yp) for _ in range(n)])
            value, res = ref.norm(a * y, yp, False, dense_max, seed=s)
            gau.append(value)
            residual = max(residual, res)
        g = spec.substream(0)
        b_n = float(np.mean([
            np.linalg.svd(qx.sample_ginibre(tN, g), compute_uv=False).sum() / tN
            for _ in range(self.BN_SAMPLES)
        ]))
        sums = np.empty(ts)
        for s in range(ts):
            gen = spec.substream(1, s)
            sums[s] = sum(float(np.trace(qx.sample_haar_unitary(tN, gen)).real) for _ in range(tn))
        return {
            "unitary": uni,
            "gaussian": gau,
            "max_residual": residual,
            "b_n": b_n,
            "empirical": _tail_stats(sums, tn),
        }

    def cycle(self, i):
        k, spec = i, self.specs[i]

        def moments(rep):
            return {"values": [float(v) for v in rep.values], "samples": int(rep.samples)}

        def tail(rep):
            return {
                "b_n": float(rep.b_n),
                "empirical": [float(r.empirical) for r in rep.rows],
                "samples": int(rep.samples),
            }

        return [
            Call("unitary_sum_norm", k, lambda: moments(self._uni(spec))),
            Call("gaussian_decoupled_norm", k, lambda: moments(self._gau(spec))),
            Call("subgaussian_tail_check", k, lambda: tail(self._tail(spec))),
        ]

    def check(self, call, out, refs):
        r = refs["samples"][call.key]
        if call.kind == "subgaussian_tail_check":
            err = max([abs(out["b_n"] - r["b_n"])]
                      + [abs(a - b) for a, b in zip(out["empirical"], r["empirical"])])
            ok = len(out["empirical"]) == len(r["empirical"]) and err <= 1e-12
            return err, ok, out["samples"]
        want = r["unitary" if call.kind == "unitary_sum_norm" else "gaussian"]
        diffs = [v - w for v, w in zip(out["values"], want)]
        err = max(abs(d) for d in diffs)
        ok = len(diffs) == len(want) and err <= self.TOL and max(diffs) <= 1e-9
        return err, ok, out["samples"]


# ---------------------------------------------------------------------------

class Pack(Workload):
    """Greedy packing at d = 16: tens of thousands of tiny dense pair norms."""

    name = "pack"
    unit = "pair"
    refs_key = "families"
    TOL = 1e-9

    def __init__(self, seed, size, workdir, seconds=None):
        super().__init__(seed, size, workdir, seconds)
        self.specs = [self.spec(k) for k in range(self.rounds)]

    def reference_one(self, k, dense_max):
        """The greedy admission rule replayed with dense reference norms."""
        p, spec = self.p, self.specs[k]
        n = p["n"]
        members, gaps, rows, rejected, pairs, residual = [], [], [], 0, 0, 0.0
        for idx in range(p["max_samples"]):
            u = qx.haar_tuple(n, p["N"], spec.substream(idx)).mats
            gap, res = ref.dense_norm(u, u, True)
            residual = max(residual, res)
            if min(max(1.0 - gap / n, 0.0), 1.0) < p["eps"]:
                rejected += 1
                continue
            deltas = []
            if members:
                vals, res = ref.dense_norms(np.broadcast_to(u, (len(members),) + u.shape),
                                            np.stack(members), False)
                deltas = np.maximum(1.0 - vals / n, 0.0).tolist()
                residual = max(residual, float(res.max()))
            bad = [j for j, d in enumerate(deltas) if d < p["delta"]]
            pairs += bad[0] + 1 if bad else len(deltas)
            if bad:
                rejected += 1
                continue
            for row, d in zip(rows, deltas):
                row.append(d)
            rows.append(deltas + [0.0])
            members.append(u)
            gaps.append(gap)
        # upper triangle, row by row: rows[a][b] for a < b
        upper = [rows[a][b] for a in range(len(members)) for b in range(a + 1, len(members))]
        return {"count": len(members), "rejected": rejected, "pairs": pairs,
                "gaps": gaps, "pairwise": upper, "max_residual": residual}


    def cycle(self, i):
        k, spec = i, self.specs[i]
        p = self.p

        def family(fam):
            return {"count": int(fam.count), "rejected": int(fam.rejected_count),
                    "gaps": [float(g) for g in fam.gap_values],
                    "pairwise": np.asarray(fam.pairwise, dtype=float)[
                        np.triu_indices(fam.count, 1)].tolist()}

        return [Call("greedy_pack", k, lambda: family(
            qx.greedy_pack(p["n"], p["N"], p["eps"], p["delta"], p["max_samples"], spec)))]

    def check(self, call, out, refs):
        r = refs["families"][call.key]
        same_shape = (out["count"], out["rejected"]) == (r["count"], r["rejected"])
        if not same_shape:
            return None, False, r["pairs"]
        err = max([abs(a - b) for a, b in zip(out["gaps"], r["gaps"])]
                  + [abs(a - b) for a, b in zip(out["pairwise"], r["pairwise"])] + [0.0])
        return err, err <= self.TOL, r["pairs"]


# ---------------------------------------------------------------------------

class Pipeline(Workload):
    """An in-process ``qex`` command chain over tuple files, plus a large-file leg.

    One-sided outputs are checked against values known exactly: ``v_orb`` lies
    on the orbit of ``u`` (orbit distance 0), a unitary tuple is normed at
    value n, and ``v_mix`` is a unitary recombination of ``u`` (strong
    separation estimate 1).
    """

    name = "pipeline"
    unit = "command"
    refs_key = "chains"
    TOL = 1e-4

    def __init__(self, seed, size, workdir, seconds=None):
        super().__init__(seed, size, workdir, seconds)
        p = self.p
        n, N = p["n"], p["N"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.chains = []
        for k in range(self.rounds):
            gen = self.rng(_CHAIN_STREAM, k)
            u, v = haar_stack(n, N, gen), haar_stack(n, N, gen)
            left, right, w = haar_unitary(N, gen), haar_unitary(N, gen), haar_unitary(n, gen)
            files = {}
            for name, mats, unitary in (
                ("u", u, True),
                ("v", v, True),
                ("v_orb", np.einsum("ab,jbc,cd->jad", left, u, right), True),
                ("v_mix", np.einsum("ij,jab->iab", w, u), False),
            ):
                files[name] = self.workdir / f"c{k}_{name}.json"
                write_tuple(files[name], mats, unitary)
            self.chains.append({"u": u, "v": v, "files": files})

    def reference_one(self, k, dense_max):
        c = self.chains[k]
        gap, gap_res = ref.norm(c["u"], c["u"], True, dense_max, seed=k)
        cross, cross_res = ref.norm(c["u"], c["v"], False, dense_max, seed=k)
        return {"gap": gap, "gap_residual": gap_res, "cross": cross, "cross_residual": cross_res,
                "orbit_upper_best": 0.0, "norming_best": float(self.p["n"]), "strong_best": 1.0}

    def _command(self, kind, key, out_dir, argv):
        out = self.workdir / out_dir

        def fn():
            with contextlib.redirect_stdout(io.StringIO()):
                return qx.cli.main(["--seed", str(self.seed), "--out", str(out), kind] + argv)

        def extract(code):
            try:
                record = json.loads((out / "run.json").read_text())
                files = {name: out / name for name in record["artifacts"]}
                missing = [str(f) for f in files.values() if not f.exists()]
                arts = {f.name: json.loads(f.read_text()) for f in files.values()
                        if f.suffix == ".json" and f.stat().st_size < 1_000_000}
            except (OSError, ValueError, KeyError) as exc:
                return {"code": code, "error": repr(exc)}
            return {"code": code, "summary": record["summary"], "missing": missing,
                    "artifacts": arts}

        return Call(kind, key, fn, extract)

    def cycle(self, i):
        p = self.p
        bn, bN = p["big"]
        calls = [
            self._command("sample-haar", None, "big_sample", ["-p", f"n={bn}", "-p", f"N={bN}"]),
            self._command("validate", None, "big_validate",
                          ["-p", f"tuple={self.workdir / 'big_sample' / 'tuple.json'}"]),
        ]
        f = self.chains[i]["files"]
        sample = self.workdir / f"c{i}_sample"
        return calls + [
            self._command("sample-haar", i, f"c{i}_sample", ["-p", f"n={p['n']}", "-p", f"N={p['N']}"]),
            self._command("validate", i, f"c{i}_validate", ["-p", f"tuple={sample / 'tuple.json'}"]),
            self._command("certify", i, f"c{i}_certify", ["-p", f"tuple={f['u']}"]),
            self._command("separate", i, f"c{i}_separate", ["-p", f"u={f['u']}", "-p", f"v={f['v']}"]),
            self._command("orbit-dist", i, f"c{i}_orbit", ["-p", f"u={f['u']}", "-p", f"v={f['v_orb']}",
                                                           "-p", f"restarts={p['orbit_restarts']}"]),
            self._command("norming", i, f"c{i}_norming", ["-p", f"tuple={f['u']}",
                                                          "-p", f"restarts={p['norming_restarts']}"]),
            self._command("strong-sep", i, f"c{i}_strong", ["-p", f"u={f['u']}", "-p", f"v={f['v_mix']}",
                                                            "-p", "restarts=1"]),
        ]

    def check(self, call, out, refs):
        if out.get("code") != 0 or "error" in out or out["missing"]:
            return None, False, 1
        p, s, a = self.p, out["summary"], out["artifacts"]
        kind = call.kind
        if kind in ("sample-haar", "validate"):
            n, N = (p["n"], p["N"]) if call.key is not None else p["big"]
            tol = n * N * 1e-10
            if kind == "sample-haar":
                return 0.0, (s["n"], s["N"]) == (n, N) and s["unitarity_residual"] <= tol, 1
            v = a["validate.json"]
            return 0.0, (v["n"], v["N"], v["unitary"]) == (n, N, True) and v["unitarity_residual"] <= tol, 1
        r = refs["chains"][call.key]
        if kind == "certify":
            gap = a["certificate.json"]["gap"]
            err = abs(gap["value"] - r["gap"])
            ok = not is_unconverged(gap["method"], gap.get("unconverged")) and gap["value"] <= r["gap"] + 1e-9
        elif kind == "separate":
            sep = a["separation.json"]
            err = abs(sep["norm_value"] - r["cross"])
            ok = (not is_unconverged(sep["method"], sep.get("unconverged"))
                  and sep["norm_value"] <= r["cross"] + 1e-9)
        elif kind == "orbit-dist":
            err = a["orbit.json"]["upper"] - r["orbit_upper_best"]
            return err, err <= 1e-5 * math.sqrt(p["n"]), 1
        elif kind == "norming":
            err = r["norming_best"] - a["norming.json"]["attained"]
            return err, err <= 1e-6, 1
        elif kind == "strong-sep":
            err = r["strong_best"] - a["strong.json"]["estimate_norm_over_n"]
            return err, err <= 1e-6, 1
        else:
            raise ValueError(f"unexpected command {kind}")
        return err, ok and err <= self.TOL, 1


WORKLOADS = {w.name: w for w in (Hastings, MonteCarlo, Pack, Pipeline)}
