"""The fixed-seed ledger tool: its import, its line writer and its exit codes."""
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "qex_chain.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("qex_chain", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def sha(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def test_import_sets_nothing():
    # a fresh interpreter: loading the tool leaves the environment and numpy alone
    code = (
        "import importlib.util, os, sys\n"
        "env = dict(os.environ)\n"
        f"spec = importlib.util.spec_from_file_location('qex_chain', {str(TOOL)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(dict(os.environ) == env, 'numpy' in sys.modules, 'qexpand' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "False", "False"]


def test_emit_prints_one_named_line_per_number(capsys):
    tool = load_tool()
    strided = np.arange(6.0).reshape(2, 3).T
    tool.emit("run/file.json", {
        "value": 2.5, "method": "dense", "flags": [True, None, 3], "nested": {"a": {"b": -1e-300}},
        "skipped": None, "vector": np.array([1 + 2j, 3j]), "strided": strided, "raw": b"abc",
    })
    assert capsys.readouterr().out.splitlines() == [
        "run/file.json:value  2.5",
        "run/file.json:method  'dense'",
        "run/file.json:flags[0]  True",
        "run/file.json:flags[2]  3",
        "run/file.json:nested:a:b  -1e-300",
        f"run/file.json:vector  {sha(np.array([1 + 2j, 3j]).tobytes())}",
        f"run/file.json:strided  {sha(strided.tobytes())}",
        f"run/file.json:raw  {sha(b'abc')}",
    ]
    tool.emit("case", [np.zeros(2), {"x": None}])
    assert capsys.readouterr().out.splitlines() == [f"case[0]  {sha(np.zeros(2).tobytes())}"]


def test_usage_and_nonempty_out_exit_2(tmp_path):
    tool = load_tool()
    assert tool.main([]) == 2
    (tmp_path / "stale").write_text("")
    assert tool.main([str(SRC), str(tmp_path)]) == 2


def test_qexpand_from_outside_src_exits_2(tmp_path):
    # SRC holds no package, so qexpand comes from PYTHONPATH instead
    empty = tmp_path / "src"
    empty.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(TOOL), str(empty), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "not from" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "want,code,stderr,bad",
    [
        (0, 0, "", False),
        (0, 0, "x.py:3: RuntimeWarning: overflow encountered in square\n", True),
        (0, 1, "error: bad\n", True),
        (1, 1, "error: delta must be in [0, 1], got 1.5\n", False),
        (1, 1, "", True),
        (1, 1, "Traceback (most recent call last):\nValueError: x\n", True),
        (1, 1, "error: one\nerror: two\n", True),
    ],
    ids=["clean", "stray-stderr", "exit-code", "one-error-line", "failed-silently",
         "traceback", "two-error-lines"],
)
def test_a_run_writes_to_stderr_only_its_one_error_line(capsys, want, code, stderr, bad):
    # a warning or traceback in a run that exits 0 fails the ledger too
    tool = load_tool()
    assert tool.unexpected("run", want, SimpleNamespace(returncode=code, stderr=stderr)) is bad
    err = capsys.readouterr().err
    assert err == (f"run: exit code {code} (expected {want}), stderr:\n{stderr}\n" if bad else "")
