"""Outside-in span tracing of qexpand's public functions.

``Tracer.install`` wraps each traced public function at every module binding
that refers to it: ``from .superop import operator_norm`` makes
``qexpand.geometry.operator_norm`` a second binding of the same function, and
wrapping only the defining module would miss calls made through it.
``Tracer.remove`` puts every original back. Spans are kept in memory; self
time is a span's duration minus the durations of its direct children, which
all nest inside it because the benchmark is single-threaded.
"""
from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (module, public function) pairs timed in the traced run. ``parallel`` is
# left out on purpose: it is slated for deletion and the benchmark never uses it.
TRACED = (
    ("linalg", "sample_haar_unitary"),
    ("linalg", "sample_ginibre"),
    ("linalg", "polar_unitary"),
    ("linalg", "load_tuple"),
    ("linalg", "save_tuple"),
    ("superop", "operator_norm"),
    ("superop", "apply"),
    ("superop", "materialize"),
    ("superop", "spectral_gap"),
    ("expanders", "haar_tuple"),
    ("expanders", "certify"),
    ("geometry", "separation"),
    ("geometry", "orbit_distance"),
    ("geometry", "find_norming_tuple"),
    ("geometry", "strong_separation_estimate"),
    ("packing", "greedy_pack"),
    ("packing", "subgaussian_tail_check"),
    ("randmat", "unitary_sum_norm"),
    ("randmat", "gaussian_decoupled_norm"),
    ("cli", "main"),
)
LAYERS = ("linalg", "superop", "expanders", "geometry", "packing", "randmat", "cli")


PACKAGE = "qexpand"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "info")

    def __init__(self, name, start, parent, root):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.info = None


def is_unconverged(method, flag=False) -> bool:
    """A solve failed to converge if its method label or its flag says so.

    Covers today's ``power-unconverged`` label and a future ``unconverged``
    field (a flag or a count).
    """
    return str(method).endswith("-unconverged") or bool(flag)


def _gap_info(rep):
    return (int(rep.iterations), float(rep.residual),
            is_unconverged(rep.method, getattr(rep, "unconverged", False)))


# Counters read from what a public call returns (or, for tuple IO, the path it
# was given), kept small so that spans hold no arrays.
INFO = {
    "superop.operator_norm": lambda args, out: _gap_info(out),
    "linalg.load_tuple": lambda args, out: str(args[0]),
    "linalg.save_tuple": lambda args, out: str(args[0]),
    "geometry.orbit_distance": lambda args, out: tuple(out.f_values),
    "packing.greedy_pack": lambda args, out: (out.count, out.rejected_count),
}


class Tracer:
    """Records one span per traced call; ``root`` is the top-level call's index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- shims ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)

        def shim(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[stack[0]].root if stack else idx
            span = Span(name, perf_counter(), parent, root)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
            if info is not None:
                span.info = info(args, out)
            return out

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:  # renamed or removed by a refactor: nothing to time
                continue
            shim = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, shim)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, root] (gzip JSON)."""
        rows = [[s.name, s.start, s.end, s.parent, s.root] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump(rows, fh)


def installed_shims() -> list[str]:
    """Bindings in the package that are still shims (empty after ``remove``)."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if callable(val) and getattr(val, "__name__", "") == "shim" and hasattr(val, "__wrapped__"):
                found.append(f"{mod.__name__}.{attr}")
    return found
