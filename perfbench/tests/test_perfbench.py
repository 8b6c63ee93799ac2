"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong reference is caught as a failed operation, that traced and
untraced passes give bit-identical outputs and leave no shim behind, and
that the reference solvers agree with each other.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

qx = run.import_package()

import reference  # noqa: E402
import tracing  # noqa: E402

E2E_UNITS, LAYER_UNITS = run.spec_units()


def _tiny(name, trace, refs=None):
    return run.run_workload(name, seed=3, seconds=0.3, trace=trace, size="tiny",
                            refs=refs, measure_setup=False)


def _shifted(obj, by=0.5):
    """Every float of a reference moved by ``by``: a deliberately wrong reference."""
    if isinstance(obj, dict):
        return {k: _shifted(v, by) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shifted(v, by) for v in obj]
    if isinstance(obj, float):
        return obj + by
    return obj


@pytest.mark.parametrize("name", run.NAMES)
def test_untraced_run_is_correct_and_emits_every_metric(name):
    res = _tiny(name, trace=False)
    assert res["extra"]["errors"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(E2E_UNITS)
    assert all(math.isfinite(v) for v in res["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_matches_untraced_and_removes_shims(name):
    originals = {(m, f): getattr(sys.modules[f"qexpand.{m}"], f) for m, f in tracing.TRACED}
    res = _tiny(name, trace=True)
    assert res["extra"]["identical"]
    assert tracing.installed_shims() == []
    assert all(getattr(sys.modules[f"qexpand.{m}"], f) is fn for (m, f), fn in originals.items())
    assert res["correct"]
    m = res["metrics"]
    assert set(LAYER_UNITS) <= set(m)
    layers = sum(m[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.other_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", run.NAMES)
def test_wrong_reference_raises_fail_frac(name):
    workload = run.make_workload(name, 3, "tiny", run.OUT_DIR / "selftest_refs", 0.3)
    try:
        refs = workload.reference(dense_max=run.RUN_DENSE_MAX)
    finally:
        workload.cleanup()
    assert _tiny(name, trace=False, refs=refs)["failed"] == 0
    res = _tiny(name, trace=False, refs=_shifted(refs))
    assert res["failed"] > 0 and res["extra"]["fail_frac"] > 0


def test_round_p50_sums_the_median_of_each_place():
    # two rounds of three calls: medians 2, 20 and 200 at places 0, 1 and 2
    latencies = [1.0, 10.0, 100.0, 3.0, 30.0, 300.0]
    assert run.round_p50(latencies, [0, 1, 2, 0, 1, 2]) == pytest.approx(222.0)


def test_throughput_leaves_out_the_slowest_tenth_of_rounds():
    # ten rounds of two calls; round 3 is ten times slower than the others
    latencies = [0.5, 0.5] * 10
    latencies[6:8] = [5.0, 5.0]
    units = [1.0] * 20
    positions = [0, 1] * 10
    assert run.trimmed_throughput(units, latencies, positions) == pytest.approx(2.0)
    assert run.trimmed_throughput(units[:18], latencies[:18], positions[:18]) == pytest.approx(18 / 18.0)


def test_traced_spans_nest_under_their_caller():
    res = _tiny("pack", trace=True)
    m = res["metrics"]
    assert m["superop.materialize.calls"] > 0
    # every solve on pack is dense: one "iteration" per operator_norm call
    assert m["superop.operator_norm.iters"] == m["superop.operator_norm.calls"]
    assert m["packing.pairs"] > 0


@pytest.mark.parametrize("restrict", [True, False])
def test_lanczos_reference_matches_dense(restrict):
    gen = np.random.default_rng(11)
    from workloads import haar_stack

    L, R = haar_stack(3, 9, gen), haar_stack(3, 9, gen)
    dense, dres = reference.dense_norm(L, L if restrict else R, restrict)
    lanczos, lres = reference.lanczos_norm(L, L if restrict else R, restrict)
    assert lanczos == pytest.approx(dense, abs=1e-12)
    assert max(dres, lres) < 1e-10


def test_command_line_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "hastings", "--seed", "3",
         "--seconds", "0.3", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == E2E_UNITS


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
