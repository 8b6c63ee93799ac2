"""Reproducible command-line front end.

Every command handler is a pure function of its seed and its params, which
are its keyword-only arguments: the command's one param declaration, each
annotated with its type (``int``, ``float`` or ``str``) and given its
default or none if required (``appendix`` has one handler per
``experiment``); ``qex CMD --help`` lists them, and ``-p`` values are
parsed to the declared types. A handler returns its files as
``{file name: content}`` plus a summary, and fixed seeds reproduce all
numeric outputs bit-exactly: no environment variable changes a result.
Handlers load tuple files through ``_tuples``, whose error line names the
file and the param of a tuple without the unitary flag its command needs
or of a shape other than its partner's.
``ExperimentConfig`` checks each config against the declaration when it is
built, before any output directory exists: an unknown command or undeclared
key, a missing required key, or a mistyped or non-finite value is a
``ConfigError``. ``run`` passes the handler the given values over the
defaults, writes its files, in order, then ``run.json`` (configuration as
given, those values as ``resolved_params``, timestamps, artifacts, summary,
claim and status); a run that fails with a ``QexError`` or a ``ValueError``
leaves status "failed" and the error line. JSON files are read by
``linalg._load_json``, and every file is written atomically, as strict JSON,
CSV rows or a tuple, by ``linalg._write_file``, which writes a CSV float
as its ``.17g`` text and fails the run on a NaN or infinity in any file,
``run.json`` included.
"""
from __future__ import annotations

import argparse
import functools
import glob
import inspect
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__
from .errors import ConfigError, DimensionMismatch, QexError
from .expanders import (
    GroupPresentation,
    cayley_regular_tuple,
    certify,
    classical_gap,
    haar_tuple,
    mixing_curve,
)
from .geometry import (
    dcb_lower_bound,
    delta_overlap,
    find_norming_tuple,
    lower_bound_from_separation,
    near_norming_radius,
    orbit_distance,
    separation,
    strong_separation_estimate,
)
from .linalg import MatrixTuple, RngSpec, _load_json, _make_dir, _write_file, load_tuple
from .packing import (
    greedy_cover,
    greedy_pack,
    net_size_bound,
    packing_upper_bound,
    subgaussian_tail_check,
)
from .randmat import (
    bootstrap_mean_ci,
    chi_n_estimate,
    gaussian_decoupled_norm,
    matrix_coefficient_sum,
    twirl_identity_check,
    unitary_sum_norm,
)
from .superop import spectral_gap

_REQUIRED = inspect.Parameter.empty  # the default of a declared param that has none


@functools.cache
def _declared(handler) -> dict:
    """A handler's params: each keyword-only argument's (type, default or _REQUIRED)."""
    params = inspect.signature(handler, eval_str=True).parameters.values()
    return {p.name: (p.annotation, p.default) for p in params if p.kind is p.KEYWORD_ONLY}


def _resolve(command: str, params: Mapping) -> tuple:
    """The handler that runs ``command`` on ``params``, and every param declared
    for it as (type, default or _REQUIRED).

    ``appendix`` has one handler per experiment, picked by its required
    ``experiment`` param.
    """
    handler, declared = COMMANDS[command][0], {}
    if isinstance(handler, dict):
        experiment = params.get("experiment")
        if not isinstance(experiment, str) or experiment not in handler:
            raise ConfigError(
                f"command {command!r} requires param 'experiment'" if experiment is None
                else f"unknown {command} experiment {experiment!r}"
            )
        handler, declared = handler[experiment], {"experiment": (str, _REQUIRED)}
    return handler, {**declared, **_declared(handler)}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: Mapping
    seed: RngSpec
    out_dir: str

    def __post_init__(self):
        # every config (flags, config file or Python) passes here, so no run
        # and no run.json ever sees an undeclared or missing key, a mistyped
        # value or a non-finite float; the config is frozen and params a
        # read-only copy, so none can be put in after the check either
        if not isinstance(self.command, str) or self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not isinstance(self.params, Mapping):
            raise ConfigError("params must be an object")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        _, declared = _resolve(self.command, self.params)
        for key, val in self.params.items():
            if key not in declared:
                raise ConfigError(f"command {self.command!r} does not take param {key!r}")
            want = declared[key][0]
            if not isinstance(val, (int, float) if want is float else want) or isinstance(val, bool):
                raise ConfigError(f"param {key!r} must be {want.__name__}, got {val!r}")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"param {key!r} must be finite, got {val!r}")
        for key, (_, default) in declared.items():
            if default is _REQUIRED and key not in self.params:
                raise ConfigError(f"command {self.command!r} requires param {key!r}")
        if not isinstance(self.seed, RngSpec):
            raise ConfigError(f"seed must be an RngSpec, got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")

    @property
    def resolved_params(self) -> dict:
        """Every param declared for this run: its value as given, else its default."""
        declared = _resolve(self.command, self.params)[1]
        return {key: self.params.get(key, default) for key, (_, default) in declared.items()}

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed.to_json(),
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        keys = ["command", "out_dir", "params", "seed"]
        if not isinstance(obj, dict) or sorted(obj) != keys:
            got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
            raise ConfigError(f"config must be a JSON object with the keys {keys}, got {got}")
        try:
            seed = RngSpec.from_json(obj["seed"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad seed spec: {exc}") from exc
        return cls(obj["command"], obj["params"], seed, obj["out_dir"])


@dataclass
class RunRecord:
    config: ExperimentConfig
    started: str
    finished: str
    artifacts: list[str]
    summary: dict
    claim: str = ""
    error: str | None = None

    def to_json(self) -> dict:
        out = {
            "config": self.config.to_json(),
            "resolved_params": self.config.resolved_params,
            "started": self.started,
            "finished": self.finished,
            "artifacts": list(self.artifacts),
            "summary": self.summary,
            "tool_version": __version__,
            "claim": self.claim,
            "status": "ok" if self.error is None else "failed",
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- command handlers: each takes the seed and its declared params, and
# returns ({file name: content}, summary dict) ---------------------------------

def _tuples(*files) -> list:
    """The tuple in each file, given as (param, path, unitary), checked before
    any number is computed: a file marked unitary must hold a tuple flagged
    unitary, and every tuple must have the shape of the first. The error
    line names the file and its param."""
    out = []
    for key, path, unitary in files:
        t = load_tuple(path)
        if unitary and not t.unitary:
            raise ConfigError(f"{path}: param {key!r} needs a unitary tuple (unitary flag unset)")
        if out and (t.n, t.dim) != (out[0].n, out[0].dim):
            (key0, path0, _), t0 = files[0], out[0]
            raise DimensionMismatch(f"{path0} (param {key0!r}) has shape ({t0.n}, {t0.dim}) "
                                    f"but {path} (param {key!r}) has shape ({t.n}, {t.dim})")
        out.append(t)
    return out


def _cmd_sample_haar(seed, *, n: int, N: int):
    t = haar_tuple(n, N, seed.generator())
    return {"tuple.json": t}, {"n": n, "N": N, "unitarity_residual": t.unitarity_residual()}


def _cmd_cayley(seed, *, group: str):
    g = GroupPresentation.load(group)
    return {"tuple.json": cayley_regular_tuple(g)}, {"n": g.n, "N": g.order, "classical_gap": classical_gap(g)}


def _cmd_certify(seed, *, tuple: str, tol: float = 1e-10, method: str = "auto"):
    [t] = _tuples(("tuple", tuple, True))
    cert = certify(t, tol=tol, method=method, rng=seed.generator())
    return {"certificate.json": cert.to_json()}, {
        "epsilon": cert.epsilon,
        "ramanujan_slack": cert.ramanujan_slack,
        "gap": cert.gap.value,
    }


def _cmd_gap(seed, *, tuple: str, method: str = "auto", tol: float = 1e-10):
    [t] = _tuples(("tuple", tuple, True))
    rep = spectral_gap(t, method=method, tol=tol, rng=seed.generator())
    files = {"gap.json": rep.to_json()}
    if rep.top_vector is not None:
        files["witness.json"] = MatrixTuple(rep.top_vector[None])
    return files, {"value": rep.value, "method": rep.method}


def _cmd_mix(seed, *, tuple: str, steps: int = 50, x0: str = None):
    [t] = _tuples(("tuple", tuple, True))
    if x0 is not None:
        start = load_tuple(x0)
        if start.n != 1:
            raise DimensionMismatch(f"{x0}: x0 must hold one matrix, got n={start.n}")
        if start.dim != t.dim:
            raise DimensionMismatch(f"{x0}: x0 has dim {start.dim}, tuple {tuple} has dim {t.dim}")
        start = start[0]
    else:
        gen = seed.generator()
        start = gen.standard_normal((t.dim, t.dim)) + 1j * gen.standard_normal((t.dim, t.dim))
    curve = mixing_curve(t, start, steps)
    rows = [["k", "residual"]] + [[k, r] for k, r in enumerate(curve)]
    return {"mix.csv": rows}, {"steps": steps, "final_residual": float(curve[-1])}


def _cmd_separate(seed, *, u: str, v: str, method: str = "auto"):
    u, v = _tuples(("u", u, False), ("v", v, False))
    rep = separation(u, v, method=method, rng=seed.generator())
    return {"separation.json": rep.to_json()}, {"delta": rep.delta, "norm_value": rep.norm_value}


def _cmd_orbit_dist(seed, *, u: str, v: str, restarts: int = 20):
    u, v = _tuples(("u", u, True), ("v", v, True))
    rep = orbit_distance(u, v, restarts=restarts, rng=seed.generator())
    return {"orbit.json": rep.to_json()}, {
        "upper": rep.upper,
        "lower": rep.lower,
        "restarts_used": rep.restarts_used,
        "certified": rep.certified,
    }


def _cmd_strong_sep(seed, *, u: str, v: str, restarts: int = 20):
    u, v = _tuples(("u", u, True), ("v", v, False))
    est = strong_separation_estimate(u, v, restarts=restarts, rng=seed.generator())
    payload = {
        "estimate_norm_over_n": est,
        "estimated_strong_delta": max(1.0 - est, 0.0),
        "qualifier": "estimated (lower bound on the supremum; not a certificate)",
    }
    return {"strong.json": payload}, payload


def _cmd_norming(seed, *, tuple: str, restarts: int = 20):
    [x] = _tuples(("tuple", tuple, True))
    v, attained = find_norming_tuple(x, restarts=restarts, rng=seed.generator())
    return {
        "norming_witness.json": v,
        "norming.json": {"attained": attained, "n": x.n, "witness": "norming_witness.json"},
    }, {"attained": attained}


def _cmd_delta_overlap(seed, *, tuple: str):
    t = load_tuple(tuple)
    val = delta_overlap(t)
    return {"overlap.json": {"overlap": val, "n": t.n, "N": t.dim}}, {"overlap": val}


def _cmd_dcb_bound(seed, *, delta_strong: float, overlap: float, n: int):
    bound = dcb_lower_bound(delta_strong, overlap, n)
    payload = {
        "bound": bound,
        "delta_strong": delta_strong,
        "overlap": overlap,
        "qualifier": "conditional on delta_strong being a true strong-separation constant",
    }
    return {"dcb.json": payload}, {"bound": bound}


def _cmd_pack(seed, *, n: int, N: int, eps: float, delta: float, max_samples: int):
    fam = greedy_pack(n, N, eps, delta, max_samples, seed)
    return fam.files(), fam.counts()


def _cmd_cover(seed, *, tuples: str, radius: float, metric: str = "d"):
    files = sorted(map(Path, glob.glob(tuples, recursive=True))) if any(
        ch in tuples for ch in "*?["
    ) else sorted(Path(tuples).glob("*.json"))
    points = _tuples(*[("tuples", p, metric == "d_prime") for p in files
                       if p.name not in ("meta.json", "run.json")])
    if not points:
        raise ConfigError(f"no tuple files matched {tuples!r}")
    est = greedy_cover(points, radius, metric=metric, rng=seed.generator())
    return {"cover.json": est.to_json()}, {"count": est.count, "radius": radius}


def _cmd_bounds(seed, *, n: int, N: int, eps_grid: str = "0.1,0.3,0.5,0.7",
                delta_grid: str = "0.01,0.05,0.1,0.2,0.5"):
    eps_grid = _entries("eps_grid", eps_grid, float)
    delta_grid = _entries("delta_grid", delta_grid, float)
    for key, grid in (("eps_grid", eps_grid), ("delta_grid", delta_grid)):
        for x in grid:
            if not 0.0 < x < 1.0:
                raise ConfigError(f"param {key!r}: entry {x} is not in (0, 1)")
    files = {
        "radius.csv": [["eps", "delta", "value"]] + [
            [e, d, near_norming_radius(e, d)]
            for e in eps_grid
            for d in delta_grid
        ],
        "separation_lower.csv": [["eps", "delta", "value"]] + [
            ["", d, lower_bound_from_separation(d, n)] for d in delta_grid
        ],
        "count_bounds.csv": [["n", "N", "delta", "log_packing_bound", "log_net_bound"]] + [
            [n, N, d, packing_upper_bound(n, N, d), net_size_bound(n, N, d)]
            for d in delta_grid
        ],
    }
    return files, {
        "n": n,
        "N": N,
        "matching_lower_bound": "exp(b*n*N^2) for some b > 0 (existential constant, "
        "not computable from these formulas)",
    }


def _cmd_subgauss(seed, *, n: int, N: int, samples: int):
    rep = subgaussian_tail_check(n, N, samples, seed)
    return {"subgauss.csv": rep.to_csv_rows()}, {
        "b_n": rep.b_n,
        "k_hat": rep.k_hat,
        "any_flagged": rep.any_flagged,
        "empirical_variance": rep.empirical_variance,
    }


def _parse_coeffs(raw, n):
    if raw is None:
        return [1.0] * n
    vals = _entries("coeffs", raw, complex)
    if len(vals) != n:
        raise ConfigError(f"coeffs has {len(vals)} entries, expected n={n}")
    if not np.isfinite(vals).all():  # before a caller computes with them
        raise ValueError("coeffs must be nonempty and finite")
    return vals


def _apx_chi(seed, *, N: int = 16, samples: int = 100):
    rep = chi_n_estimate(N, samples, seed)
    rows = [
        ["N", "samples", "estimate", "ci_lo", "ci_hi"],
        [N, samples, rep.value, rep.ci_lo, rep.ci_hi],
    ]
    return {"chi.csv": rows}, {"estimate": rep.value, "ci_lo": rep.ci_lo, "ci_hi": rep.ci_hi}


def _apx_twirl(seed, *, N: int = 8, samples: int = 20):
    rep = twirl_identity_check(N, samples, seed)
    return {"twirl.json": rep.to_json()}, rep.to_json()


def _apx_hastings(seed, *, n: int = 4, N: int = 16, samples: int = 20, coeffs: str = None):
    uni = unitary_sum_norm(_parse_coeffs(coeffs, n), N, samples, seed.stream(1))
    rows = [["sample", "unitary_norm"]] + [[i, v] for i, v in enumerate(uni.values)]
    return {"hastings.csv": rows}, {
        "unitary_mean": uni.mean_norm,
        "unitary_std": uni.std_norm,
        "unconverged": uni.unconverged,
    }


def _apx_dominance(seed, *, n: int = 4, N: int = 16, samples: int = 20, coeffs: str = None):
    coeffs = _parse_coeffs(coeffs, n)
    uni = unitary_sum_norm(coeffs, N, samples, seed.stream(1))
    gau = gaussian_decoupled_norm(coeffs, N, samples, seed.stream(2))
    lo, hi = bootstrap_mean_ci(uni.values, seed.substream(9))
    rows = [["sample", "unitary_norm", "gaussian_norm"]] + [
        [i, a, b] for i, (a, b) in enumerate(zip(uni.values, gau.values))
    ]
    return {"dominance.csv": rows}, {
        "unitary_mean": uni.mean_norm,
        "unitary_std": uni.std_norm,
        "unconverged": uni.unconverged + gau.unconverged,
        "gaussian_mean": gau.mean_norm,
        "dominance_ratio": uni.mean_norm / gau.mean_norm if gau.mean_norm > 0 else None,
        "unitary_mean_ci_lo": lo,
        "unitary_mean_ci_hi": hi,
        "ci_note": "bootstrap CI, non-rigorous",
    }


def _apx_matrix_coeff(seed, *, n: int = 4, N: int = 16, samples: int = 20, coeffs: str = None,
                      k: int = 2):
    blocks = [np.eye(k) * c for c in _parse_coeffs(coeffs, n)]
    rep = matrix_coefficient_sum(blocks, N, samples, seed)
    return {"matrix_coeff.json": rep.to_json()}, {
        "mean_norm": rep.mean_norm, "rhs": rep.rhs, "unconverged": rep.unconverged
    }


def _cmd_validate(seed, *, tuple: str):
    t = load_tuple(tuple)
    report = {
        "n": t.n,
        "N": t.dim,
        "unitary": t.unitary,
        "unitarity_residual": t.unitarity_residual(),
    }
    return {"validate.json": report}, {"n": t.n, "N": t.dim, "unitary": t.unitary}


# Each command's handler (for appendix, its handler per experiment) and the
# one-line statement of what it measures, recorded in run.json for traceability.
COMMANDS = {
    "sample-haar": (_cmd_sample_haar, "independent Haar unitaries via the Ginibre polar factor"),
    "cayley": (_cmd_cayley, "regular-representation tuple of a finite group presentation"),
    "certify": (_cmd_certify, "contraction certificate eps = 1 - gap/n and Ramanujan slack"),
    "gap": (_cmd_gap, "norm of the twirl superoperator on the trace-zero subspace"),
    "mix": (_cmd_mix, "geometric decay of channel iterates toward the normalized trace"),
    "separate": (_cmd_separate, "pair separation delta from the cross superoperator norm"),
    "orbit-dist": (_cmd_orbit_dist, "upper bound on the two-sided unitary orbit distance"),
    "strong-sep": (_cmd_strong_sep, "estimated separation against all unitary recombinations"),
    "norming": (_cmd_norming, "norming-tuple search; gapped tuples are normed only on their orbit"),
    "delta-overlap": (_cmd_delta_overlap, "largest off-diagonal normalized trace overlap, scaled by n^2"),
    "dcb-bound": (_cmd_dcb_bound, "conditional cb-distance lower bound (1 - delta)^-1"),
    "pack": (_cmd_pack, "greedy delta-separated packing of certified expander tuples"),
    "cover": (_cmd_cover, "farthest-point covering estimate of a tuple cloud"),
    "bounds": (_cmd_bounds, "closed-form packing/net count bounds and separation radii"),
    "subgauss": (_cmd_subgauss, "subGaussian tail check for sums of unitary traces"),
    "appendix": (
        {"chi": _apx_chi, "twirl": _apx_twirl, "dominance": _apx_dominance,
         "hastings": _apx_hastings, "matrix-coeff": _apx_matrix_coeff},
        "unitary-vs-Gaussian norm comparison statistics",
    ),
    "validate": (_cmd_validate, "tuple file schema and unitarity validation"),
}


def run(config: ExperimentConfig) -> RunRecord:
    """Dispatch a validated config; write the handler's files, in order, plus run.json.

    A QexError or ValueError (an out-of-range parameter, or a non-finite
    float on its way into any file, the ok run.json included) is re-raised
    after a run.json with status "failed" and the error line is written.
    """
    handler = _resolve(config.command, config.params)[0]
    resolved = config.resolved_params
    claim = COMMANDS[config.command][1]
    out = _make_dir(config.out_dir)
    started = _now()
    try:
        files, summary = handler(config.seed, **{key: resolved[key] for key in _declared(handler)})
        for name, content in files.items():
            _write_file(out / name, content)
        record = RunRecord(config, started, _now(), list(files), summary, claim=claim)
        _write_file(out / "run.json", record.to_json())
    except (QexError, ValueError) as exc:
        failed = RunRecord(config, started, _now(), [], {}, claim=claim, error=str(exc))
        _write_file(out / "run.json", failed.to_json())
        raise
    return record


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``qex`` parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(prog="qex", description="quantum expander toolkit")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--stream-id", type=int, default=0, help="RNG stream id")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--config", type=str, default=None, help="JSON config overriding flags")
    sub = parser.add_subparsers(dest="command")
    for name, (handler, claim) in COMMANDS.items():
        handlers = handler.items() if isinstance(handler, dict) else [(None, handler)]
        lines = [
            (f"experiment={exp}: " if exp else "") + ", ".join(
                key if default is _REQUIRED else f"{key}={default}"
                for key, (_, default) in _declared(h).items()
            ) for exp, h in handlers
        ]
        p = sub.add_parser(name, help=claim, description=claim,
                           epilog="params (those shown without a default are required):\n  "
                           + "\n  ".join(lines),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--param", "-p", action="append", default=[],
                       metavar="KEY=VALUE", help="command parameter")
    return parser


def _coerce(key: str, raw: str, want):
    try:
        return want(raw)
    except ValueError as exc:
        raise ConfigError(f"param {key!r}: cannot parse {raw!r} as {want.__name__}") from exc


def _entries(key: str, raw: str, want) -> list:
    vals = [_coerce(key, x, want) for x in raw.split(",") if x]
    if not vals:
        raise ConfigError(f"param {key!r} has no entries")
    return vals


def config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        return _load_json(args.config, lambda text: ExperimentConfig.from_json(json.loads(text)), ConfigError)
    if not args.command:
        raise ConfigError("no command given (and no --config)")
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        params[key] = raw
    # each value takes its param's declared type; an undeclared key stays a
    # string, and ExperimentConfig rejects it
    declared = _resolve(args.command, params)[1]
    params = {key: _coerce(key, raw, declared[key][0]) if key in declared else raw
              for key, raw in params.items()}
    try:
        seed = RngSpec(args.seed, args.stream_id)
    except ValueError as exc:
        raise ConfigError(f"bad seed spec: {exc}") from exc
    return ExperimentConfig(command=args.command, params=params, seed=seed, out_dir=args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        record = run(config)
    except (QexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"command": config.command, "summary": record.summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
