"""qexpand benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload hastings --seed 0 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``hastings``, ``montecarlo``, ``pack`` and ``pipeline``. Every workload is a
closed loop: one client in this process makes each call after the previous
one returns. A run makes a fixed number of rounds of calls, set by
``--seconds`` and the workload's calibrated rate, so that every commit does
the same work; it takes about ``--seconds`` on the seed commit.

Before timing, references come from ``refs/<workload>_<seed>.json`` when
stored, or are computed (untimed, outside ``setup_s``) for any other seed.
The workload process reads them after the timed rounds, so that
``peak_rss_mb`` does not count them.

Times are reported in reference seconds: each round's latencies are scaled
by the speed of the CPU at that moment, which ``machine_probe`` (a fixed
batch of GEMMs that uses nothing from qexpand) measures before and after
the round. On a shared machine this removes most of the drift of the
machine's speed and none of a change in qexpand. Untraced, each call is
timed once: ``ops_per_ref_s`` is the units of work over the sum of the
latencies, leaving out the slowest tenth of the rounds, and
``round_p50_ref_s`` the latency of a typical round, the median latency at
each place in a round summed over the places. ``setup_s`` is the median of five fresh interpreter processes,
each timed from its start until it has imported qexpand, built the inputs
and read the references, and scaled by the probe it then runs on its own
CPU.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the rounds
once untraced and once with timing shims on the public functions of every
layer, and prints the per-layer metrics; the two passes must give
bit-identical outputs. The last line of stdout is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the client is single-threaded end to end, and on a shared
# 2-vCPU machine a second BLAS thread made call times wander (12 calls of one
# hastings gap: 0.223-0.272 s with two threads, 0.237-0.241 s with one). Set
# before numpy is imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# setup_s is the median of SETUP_RUNS set-up processes, run one at a time
# before, between and after SETUP_RUNS - 1 equal parts of the timed rounds.
# On a shared machine speed changes in phases of a few seconds, and spreading
# the set-up processes over the run keeps one slow phase from setting their
# median.
SETUP_RUNS = 5
# Per-run references (seeds without stored ones) use the dense oracle up to
# this N^2 and Lanczos above it, to keep reference time well under a run: at
# N^2 = 256 (montecarlo) Lanczos took half the time of the dense oracle.
RUN_DENSE_MAX = 100
REF_PROCS = 2
# A run stops after the round that passes this share of --seconds (and never
# goes past MAX_TIMED_S), so that code many times slower still exits in time.
# The rounds are then cut short, and the result line says so.
CAP_FACTOR = 4
MAX_TIMED_S = 100.0
# Time of ``machine_probe`` on an idle CPU of the development machine (2-vCPU
# Intel Xeon, one BLAS thread); under contention it took up to 0.05 s. A
# reference second is a wall second scaled by PROBE_NOMINAL_S / (the probe's
# time at that moment): a wall second on a machine that runs the probe in
# PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 0.016


@functools.cache
def _probe_operands():
    import numpy as np

    gen = np.random.default_rng(2024)
    a, b = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
            for shape in ((128, 32), (32, 32)))
    return a, b


def machine_probe() -> float:
    """Wall time of a fixed batch of small complex GEMMs (about 20 ms).

    It uses nothing from qexpand, so no change to the package moves it; it
    moves only with the speed of the CPU it runs on. On a shared machine
    that speed changes by up to 1.8x over seconds to minutes, and the
    probe's time at a moment measures it. Of the kinds of work tried as a
    probe (a Python loop, JSON, small SVDs and small GEMMs), the GEMMs
    tracked the workloads' own slow-downs best: the log of a round's time
    against the log of the GEMMs' time had a slope of 0.8 to 1.0 on
    hastings, pack and pipeline, against 0.3 to 0.7 for the others.
    """
    a, b = _probe_operands()
    t0 = time.perf_counter()
    for _ in range(600):
        a @ b
    return time.perf_counter() - t0


def import_package():
    """Import qexpand from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "qexpand" / "__init__.py").is_file():
        print(f"error: no qexpand sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import qexpand
    import qexpand.cli  # noqa: F401  (the pipeline workload drives it)

    if Path(qexpand.__file__).resolve().parent != (src / "qexpand").resolve():
        print(f"error: imported qexpand from {qexpand.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return qexpand


def stored_refs_path(workload: str, seed: int) -> Path:
    return HERE / "refs" / f"{workload}_{seed}.json"


NAMES = ("hastings", "montecarlo", "pack", "pipeline")


def make_workload(name: str, seed: int, size: str, workdir: Path, seconds: float | None):
    """Build a workload's inputs; call after ``import_package``."""
    import workloads

    return workloads.WORKLOADS[name](seed, size, workdir, seconds)


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one can be found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "QEX_DENSE_CAP": os.environ.get("QEX_DENSE_CAP"),
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# phases

class Phase:
    def __init__(self):
        self.latencies: list[float] = []
        self.ref_latencies: list[float] = []  # latencies in reference seconds, when probed
        self.positions: list[int] = []  # each call's place in its round
        self.outputs: list[tuple[object, object]] = []  # (call, output or None)
        self.errors: list[str] = []
        self.probes: list[float] = []
        self.wall = 0.0
        self.rounds = 0


def run_phase(workload, stop: int, cap: float = math.inf, start: int = 0,
              probe: bool = False) -> Phase:
    """Make rounds ``start`` to ``stop`` - 1, or stop after the round that ends past ``cap`` seconds.

    ``Phase.rounds`` is the index of the next round, ``stop`` unless cut short.
    With ``probe``, ``machine_probe`` runs before the first round and after
    every round, and each call's latency is also kept in reference seconds,
    scaled by the mean of the two probes around its round.
    """
    ph = Phase()
    ph.rounds = start
    if probe:
        ph.probes.append(machine_probe())
    t_start = time.perf_counter()
    while ph.rounds < stop and (ph.rounds == start or time.perf_counter() - t_start < cap):
        first = len(ph.latencies)
        for pos, call in enumerate(workload.cycle(ph.rounds)):
            ph.positions.append(pos)
            t0 = time.perf_counter()
            try:
                raw = call.fn()
            except Exception as exc:  # a raising call is a failed operation
                ph.latencies.append(time.perf_counter() - t0)
                ph.outputs.append((call, None))
                ph.errors.append(f"{call.kind}: {exc!r}")
                continue
            ph.latencies.append(time.perf_counter() - t0)
            ph.outputs.append((call, call.extract(raw)))
        if probe:
            ph.probes.append(machine_probe())
            scale = PROBE_NOMINAL_S / statistics.fmean(ph.probes[-2:])
            ph.ref_latencies += [t * scale for t in ph.latencies[first:]]
        ph.rounds += 1
    ph.wall = time.perf_counter() - t_start
    return ph


def round_p50(latencies: list[float], positions: list[int]) -> float:
    """Latency of a typical round: the median latency at each place in a round, summed."""
    by_pos: dict[int, list[float]] = {}
    for t, pos in zip(latencies, positions):
        by_pos.setdefault(pos, []).append(t)
    return sum(statistics.median(ts) for ts in by_pos.values())


def trimmed_throughput(units: list[float], latencies: list[float], positions: list[int]) -> float:
    """Units of work per second over every round but the slowest tenth.

    A round starts at each call at place 0. The cost of a ``pipeline`` chain
    is heavy-tailed: a few cold power iterations per run can take 3-5x the
    median, and a mean over all 18 rounds moved by 19-22% between ten seeds,
    against 11% with the slowest tenth left out. Runs of fewer than ten
    rounds keep every round.
    """
    rounds: list[list[float]] = []
    for u, t, pos in zip(units, latencies, positions):
        if pos == 0:
            rounds.append([0.0, 0.0])
        rounds[-1][0] += u
        rounds[-1][1] += t
    kept = sorted(rounds, key=lambda r: r[1])[:len(rounds) - len(rounds) // 10]
    return sum(u for u, _ in kept) / sum(t for _, t in kept)


def check_phase(workload, ph: Phase, refs: dict):
    """(failed, max_err, units per call) over every call of a phase."""
    failed, max_err, units = 0, 0.0, []
    for call, out in ph.outputs:
        if out is None:
            failed += 1
            units.append(0)
            continue
        err, ok, u = workload.check(call, out, refs)
        units.append(u)
        if not ok:
            failed += 1
        if err is not None and math.isfinite(err):
            max_err = max(max_err, err)
    return failed, max_err, units


def _setup_once(name, seed, seconds, size, refs_paths) -> float:
    """One set-up process's time from its start to its first possible call, in reference seconds.

    The process times itself against this process's clock (``perf_counter``
    is system-wide) and runs ``machine_probe`` on its own CPU, which may run
    at another speed than this process's.
    """
    t0 = time.perf_counter()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size, "--setup-only", repr(t0)]
    proc = subprocess.run(cmd + [str(p) for p in refs_paths], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["setup_s"] * PROBE_NOMINAL_S / report["probe_s"]


def make_refs(name, seed, seconds, size) -> list[Path]:
    """Reference files: the stored one for the stored seeds, else computed now (untimed).

    REF_PROCS child processes compute them, each for every REF_PROCS-th
    input, so their memory is not in ``peak_rss_mb``. The stored files cover
    every input a run of any length can visit.
    """
    stored = stored_refs_path(name, seed)
    if size == "full" and stored.is_file():
        return [stored]
    paths = [OUT_DIR / f"refs_{name}_{seed}_{size}_{i}.json" for i in range(REF_PROCS)]
    procs = [subprocess.Popen(
        [sys.executable, str(HERE / "reference.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--size", size, "--dense-max", str(RUN_DENSE_MAX),
         "--part", str(i), str(REF_PROCS), "--out", str(path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for i, path in enumerate(paths)]
    try:
        errors = [p.communicate(timeout=170)[1] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(p.returncode for p in procs):
        raise RuntimeError(f"reference process failed: {' '.join(errors).strip()}")
    return paths


def read_refs(paths: list[Path]) -> dict:
    """The references of every input, from one file or from the interleaved parts."""
    parts = [json.loads(p.read_text()) for p in paths]
    (key,) = parts[0]
    items = [None] * sum(len(part[key]) for part in parts)
    for i, part in enumerate(parts):
        items[i::len(parts)] = part[key]
    return {key: items}


# ---------------------------------------------------------------------------
# per-layer metrics

def apply_probe(qx, n: int, N: int) -> dict:
    """``superop.apply`` against a raw zgemm pair of the same shapes, same process."""
    import numpy as np

    from workloads import haar_stack

    gen = np.random.default_rng(12345)
    u = qx.MatrixTuple(haar_stack(n, N, gen), unitary=True)
    T = qx.SuperOperator.conjugation(u, restrict_h0=True)
    xi = gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))
    a = gen.standard_normal((n * N, N)) + 1j * gen.standard_normal((n * N, N))
    b = gen.standard_normal((N, n * N)) + 1j * gen.standard_normal((N, n * N))

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        reps = max(5, min(2000, int(0.05 / max(time.perf_counter() - t0, 1e-7))))
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - t0) / reps)
        return statistics.median(samples)

    t_apply = timed(lambda: qx.superop.apply(T, xi))
    t_gemm = timed(lambda: b @ (a @ xi))
    flops = 16.0 * n * N ** 3
    # two GEMM operands and results plus the relayout copy, complex128
    nbytes = 16.0 * (6 * n * N * N + 2 * N * N)
    return {
        "superop.apply.gflops": flops / t_apply / 1e9,
        "superop.apply.zgemm_frac": t_gemm / t_apply,
        "superop.apply.flops": flops,
        "superop.apply.bytes": nbytes,
    }


def layer_metrics(tracer, wall: float) -> dict:
    from tracing import LAYERS, TRACED

    spans = tracer.spans
    own = tracer.self_times()
    m: dict[str, float] = {}
    for mod, fn in TRACED:
        m[f"{mod}.{fn}.calls"] = 0
        m[f"{mod}.{fn}.self_s"] = 0.0
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = 0.0
    iters = unconverged = 0
    max_res = 0.0
    io_bytes = {"linalg.load_tuple": 0, "linalg.save_tuple": 0}
    sizes: dict[str, int] = {}
    useful = restarts = 0
    pairs = members = tried = 0
    for idx, s in enumerate(spans):
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += own[idx]
        m[f"layer.{s.name.split('.')[0]}.self_s"] += own[idx]
        if s.name == "superop.operator_norm":
            iters += s.info[0]
            max_res = max(max_res, s.info[1])
            unconverged += int(s.info[2])
            if s.parent >= 0 and spans[s.parent].name == "packing.greedy_pack":
                pairs += 1
        elif s.name in io_bytes:
            if s.info not in sizes:
                try:
                    sizes[s.info] = os.path.getsize(s.info)
                except OSError:
                    sizes[s.info] = 0
            io_bytes[s.name] += sizes[s.info]
        elif s.name == "geometry.orbit_distance" and s.info:
            best = max(s.info)
            useful += sum(f >= best - 1e-9 * max(1.0, abs(best)) for f in s.info)
            restarts += len(s.info)
        elif s.name == "packing.greedy_pack":
            members += s.info[0]
            tried += s.info[0] + s.info[1]
    m["superop.operator_norm.iters"] = iters
    m["superop.operator_norm.unconverged"] = unconverged
    m["superop.operator_norm.max_residual"] = max_res
    m["linalg.load_tuple.bytes"] = io_bytes["linalg.load_tuple"]
    m["linalg.save_tuple.bytes"] = io_bytes["linalg.save_tuple"]
    m["geometry.orbit_distance.useful_restart_frac"] = useful / restarts if restarts else 0.0
    m["packing.pairs"] = pairs
    m["packing.accept_frac"] = members / tried if tried else 0.0
    m["trace.wall_s"] = wall
    m["trace.other_s"] = wall - tracer.root_time()
    return m


# ---------------------------------------------------------------------------

def spec_units() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layer


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 refs: dict | None = None, measure_setup: bool = True) -> dict:
    """Run one workload; returns the result object plus side information."""
    qx = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    if refs is None:
        refs_paths = make_refs(name, seed, seconds, size)
    else:
        refs_paths = [OUT_DIR / f"refs_{name}_{seed}_{size}_given.json"]
        refs_paths[0].write_text(json.dumps(refs))
    workload = make_workload(name, seed, size, OUT_DIR / f"work_{name}_{seed}_{os.getpid()}",
                             seconds)
    try:
        cap = min(CAP_FACTOR * seconds, MAX_TIMED_S)

        def setup_once():
            return _setup_once(name, seed, seconds, size, refs_paths) if measure_setup else 0.0

        if not trace:
            run_phase(workload, 1)  # warm caches and lazy set-up first
            setup = [setup_once()]
            parts: list[Phase] = []
            for j in range(1, SETUP_RUNS):
                stop = math.ceil(workload.rounds * j / (SETUP_RUNS - 1))
                start = parts[-1].rounds if parts else 0
                parts.append(run_phase(workload, stop, cap / (SETUP_RUNS - 1), start, probe=True))
                setup.append(setup_once())
            # peak memory is read before the references are loaded, so it leaves them out
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            refs = read_refs(refs_paths)
            latency = [t for ph in parts for t in ph.latencies]
            ref_latency = [t for ph in parts for t in ph.ref_latencies]
            positions = [pos for ph in parts for pos in ph.positions]
            probes = [t for ph in parts for t in ph.probes]
            failed, max_err, units = 0, 0.0, []
            for ph in parts:
                f, e, u = check_phase(workload, ph, refs)
                failed, max_err, units = failed + f, max(max_err, e), units + u
            attempted = len(latency)
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_ref_s": trimmed_throughput(units, ref_latency, positions),
                "round_p50_ref_s": round_p50(ref_latency, positions),
                "peak_rss_mb": peak_rss_mb,
            }
            # throughput over every round, the same figures in wall seconds, and
            # the probe's own spread
            extra = {"ops_per_ref_s_all": sum(units) / sum(ref_latency),
                     "ops_per_s": sum(units) / sum(latency),
                     "round_p50_s": round_p50(latency, positions),
                     "call_p50_s": statistics.median(latency),
                     "probe_p50_s": statistics.median(probes),
                     "probe_range_s": [min(probes), max(probes)],
                     "max_err": max_err, "fail_frac": failed / attempted, "calls": attempted,
                     "rounds": parts[-1].rounds, "units": sum(units),
                     "unit": workload.unit, "timed_s": sum(ph.wall for ph in parts),
                     "cut_short": parts[-1].rounds < workload.rounds,
                     "errors": [e for ph in parts for e in ph.errors][:5]}
        else:
            from tracing import Tracer, installed_shims

            run_phase(workload, 1)  # warm caches and lazy set-up first
            plain = run_phase(workload, workload.rounds, cap)
            tracer = Tracer()
            with tracer:
                traced = run_phase(workload, plain.rounds)
            left_over = installed_shims()
            refs = read_refs(refs_paths)
            f1, e1, _ = check_phase(workload, plain, refs)
            f2, e2, _ = check_phase(workload, traced, refs)
            identical = [o for _, o in plain.outputs] == [o for _, o in traced.outputs]
            attempted = len(plain.outputs) + len(traced.outputs)
            failed = f1 + f2 + (0 if identical and not left_over else 1)
            metrics = layer_metrics(tracer, traced.wall)
            metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
            metrics["check.max_err"] = max(e1, e2)
            metrics["check.fail_frac"] = failed / attempted
            metrics.update(apply_probe(qx, *workload.probe_shape))
            tracer.dump(OUT_DIR / f"spans_{name}_{seed}.json.gz")
            extra = {"identical": identical, "shims_left": left_over,
                     "errors": (plain.errors + traced.errors)[:5]}
    finally:
        workload.cleanup()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the self-test")
    parser.add_argument("--setup-only", metavar=("T0", "REFS"), nargs="+", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        # what setup_s times: start-up, import, build the inputs, read the references
        t0, *refs_paths = args.setup_only
        import_package()
        workload = make_workload(args.workload, args.seed, args.size,
                                 OUT_DIR / f"setup_{args.workload}_{os.getpid()}", args.seconds)
        read_refs([Path(p) for p in refs_paths])
        setup_s = time.perf_counter() - float(t0)
        workload.cleanup()
        machine_probe()  # the first call pays for numpy's lazy set-up
        print(json.dumps({"setup_s": setup_s, "probe_s": machine_probe()}))
        return 0

    e2e_units, layer_units = spec_units()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    units = layer_units if args.trace else e2e_units
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps({"workload": args.workload, **result["extra"]}))
    for key, val in result["metrics"].items():
        print(f"{args.workload:10s} {key:48s} {val:.6g} {units.get(key, '?')}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items() if k in units}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
