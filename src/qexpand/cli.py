"""Reproducible command-line front end.

Every command handler is a pure function of its configuration and the tool
version: it returns its files as ``{file name: content}`` plus a summary, and
fixed seeds reproduce all numeric outputs bit-exactly. ``run`` writes the
files, in order, then ``run.json`` (configuration, timestamps, artifact list,
summary metrics, the claim the command exercises and a status); a run that
fails with a ``QexError`` or a ``ValueError`` leaves a ``run.json`` with
status "failed" and the error line. An unknown command or param key, or a
mistyped or non-finite param, is a ``ConfigError`` when the frozen
``ExperimentConfig`` is built. JSON files are read by ``linalg._load_json``
(a bad file is one error line that names it), and every file, CSV included,
is written by ``linalg._write_file``: strict JSON, CSV rows or a tuple, to a
temp file that is then moved into place, so no reader sees it half-written.
"""
from __future__ import annotations

import argparse
import functools
import glob
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
from .errors import ConfigError, QexError
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
from .linalg import MatrixTuple, RngSpec, _load_json, _write_file, load_tuple
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

_PARAM_TYPES = {
    "n": int, "N": int, "k": int, "steps": int, "samples": int, "restarts": int,
    "max_samples": int,
    "eps": float, "delta": float, "delta_strong": float, "overlap": float,
    "radius": float, "tol": float,
    "tuple": str, "u": str, "v": str, "x0": str, "group": str, "tuples": str,
    "metric": str, "method": str, "experiment": str, "coeffs": str,
    "eps_grid": str, "delta_grid": str,
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: Mapping
    seed: RngSpec
    out_dir: str

    def __post_init__(self):
        # every config (flags, config file or Python) passes here, so no run
        # and no run.json ever sees an unknown key, a mistyped value or a
        # non-finite float; the config is frozen and params a read-only copy,
        # so none can be put in after the check either
        if not isinstance(self.command, str) or self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not isinstance(self.params, Mapping):
            raise ConfigError("params must be an object")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        for key, val in self.params.items():
            want = _PARAM_TYPES.get(key)
            if want is None:
                raise ConfigError(f"unknown param key {key!r}")
            if not isinstance(val, (int, float) if want is float else want) or isinstance(val, bool):
                raise ConfigError(f"param {key!r} must be {want.__name__}, got {val!r}")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"param {key!r} must be finite, got {val!r}")
        if not isinstance(self.seed, RngSpec):
            raise ConfigError(f"seed must be an RngSpec, got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": dict(self.params),
            "seed": self.seed.to_json(),
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {"command", "params", "seed", "out_dir"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("command", "params", "seed", "out_dir"):
            if key not in obj:
                raise ConfigError(f"config missing key '{key}'")
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
    tool_version: str = __version__
    claim: str = ""
    error: str | None = None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "failed"

    def to_json(self) -> dict:
        out = {
            "config": self.config.to_json(),
            "started": self.started,
            "finished": self.finished,
            "artifacts": list(self.artifacts),
            "summary": self.summary,
            "tool_version": self.tool_version,
            "claim": self.claim,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _need(cfg: ExperimentConfig, *keys):
    for key in keys:
        if key not in cfg.params:
            raise ConfigError(f"command '{cfg.command}' requires param '{key}'")
    return [cfg.params[k] for k in keys]


def _get(cfg, key, default):
    return cfg.params.get(key, default)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _load(cfg, key) -> MatrixTuple:
    (path,) = _need(cfg, key)
    return load_tuple(path)


# --- command handlers: each returns ({file name: content}, summary dict) -----

def _cmd_sample_haar(cfg):
    n, N = _need(cfg, "n", "N")
    t = haar_tuple(n, N, cfg.seed.generator())
    return {"tuple.json": t}, {"n": n, "N": N, "unitarity_residual": t.unitarity_residual()}


def _cmd_cayley(cfg):
    (gpath,) = _need(cfg, "group")
    g = GroupPresentation.load(gpath)
    t = cayley_regular_tuple(g)
    return {"tuple.json": t}, {"n": g.n, "N": g.order, "classical_gap": classical_gap(g)}


def _cmd_certify(cfg):
    t = _load(cfg, "tuple")
    cert = certify(
        t,
        tol=_get(cfg, "tol", 1e-10),
        method=_get(cfg, "method", "auto"),
        rng=cfg.seed.generator(),
    )
    return {"certificate.json": cert.to_json()}, {
        "epsilon": cert.epsilon,
        "ramanujan_slack": cert.ramanujan_slack,
        "gap": cert.gap.value,
    }


def _cmd_gap(cfg):
    t = _load(cfg, "tuple")
    rep = spectral_gap(
        t,
        method=_get(cfg, "method", "auto"),
        tol=_get(cfg, "tol", 1e-10),
        rng=cfg.seed.generator(),
    )
    files = {"gap.json": rep.to_json()}
    if rep.top_vector is not None:
        files["witness.json"] = MatrixTuple(rep.top_vector[None])
    return files, {"value": rep.value, "method": rep.method}


def _cmd_mix(cfg):
    t = _load(cfg, "tuple")
    steps = _get(cfg, "steps", 50)
    if "x0" in cfg.params:
        x0 = load_tuple(cfg.params["x0"])[0]
    else:
        gen = cfg.seed.generator()
        x0 = gen.standard_normal((t.dim, t.dim)) + 1j * gen.standard_normal((t.dim, t.dim))
    curve = mixing_curve(t, x0, steps)
    rows = [["k", "residual"]] + [[k, _g17(r)] for k, r in enumerate(curve)]
    return {"mix.csv": rows}, {"steps": steps, "final_residual": float(curve[-1])}


def _cmd_separate(cfg):
    u, v = _load(cfg, "u"), _load(cfg, "v")
    rep = separation(u, v, method=_get(cfg, "method", "auto"), rng=cfg.seed.generator())
    return {"separation.json": rep.to_json()}, {"delta": rep.delta, "norm_value": rep.norm_value}


def _cmd_orbit_dist(cfg):
    u, v = _load(cfg, "u"), _load(cfg, "v")
    rep = orbit_distance(
        u, v, restarts=_get(cfg, "restarts", 20), rng=cfg.seed.generator()
    )
    return {"orbit.json": rep.to_json()}, {
        "upper": rep.upper,
        "lower": rep.lower,
        "restarts_used": rep.restarts_used,
        "certified": rep.certified,
    }


def _cmd_strong_sep(cfg):
    u, v = _load(cfg, "u"), _load(cfg, "v")
    est = strong_separation_estimate(
        u, v, restarts=_get(cfg, "restarts", 20), rng=cfg.seed.generator()
    )
    payload = {
        "estimate_norm_over_n": est,
        "estimated_strong_delta": max(1.0 - est, 0.0),
        "qualifier": "estimated (lower bound on the supremum; not a certificate)",
    }
    return {"strong.json": payload}, payload


def _cmd_norming(cfg):
    x = _load(cfg, "tuple")
    v, attained = find_norming_tuple(
        x, restarts=_get(cfg, "restarts", 20), rng=cfg.seed.generator()
    )
    return {
        "norming_witness.json": v,
        "norming.json": {"attained": attained, "n": x.n, "witness": "norming_witness.json"},
    }, {"attained": attained}


def _cmd_delta_overlap(cfg):
    t = _load(cfg, "tuple")
    val = delta_overlap(t)
    return {"overlap.json": {"overlap": val, "n": t.n, "N": t.dim}}, {"overlap": val}


def _cmd_dcb_bound(cfg):
    delta_strong, overlap, n = _need(cfg, "delta_strong", "overlap", "n")
    bound = dcb_lower_bound(delta_strong, overlap, n)
    payload = {
        "bound": bound,
        "delta_strong": delta_strong,
        "overlap": overlap,
        "qualifier": "conditional on delta_strong being a true strong-separation constant",
    }
    return {"dcb.json": payload}, {"bound": bound}


def _cmd_pack(cfg):
    n, N, eps, delta, max_samples = _need(cfg, "n", "N", "eps", "delta", "max_samples")
    fam = greedy_pack(n, N, eps, delta, max_samples, cfg.seed)
    return fam.files(), {
        "members": fam.count,
        "rejected": fam.rejected_count,
        "rejected_uncertified": fam.rejected_uncertified,
        "rejected_close": fam.rejected_close,
        "since_last_admission": fam.since_last_admission,
        "unconverged": fam.unconverged,
        "log_count": fam.log_count() if fam.count else None,
    }


def _cmd_cover(cfg):
    (pattern,) = _need(cfg, "tuples")
    radius = _need(cfg, "radius")[0]
    files = sorted(map(Path, glob.glob(pattern, recursive=True))) if any(
        ch in pattern for ch in "*?["
    ) else sorted(Path(pattern).glob("*.json"))
    points = [load_tuple(p) for p in files if p.name not in ("meta.json", "run.json")]
    if not points:
        raise ConfigError(f"no tuple files matched {pattern!r}")
    est = greedy_cover(points, radius, metric=_get(cfg, "metric", "d"), rng=cfg.seed.generator())
    return {"cover.json": est.to_json()}, {"count": est.count, "radius": radius}


def _parse_grid(raw, default):
    if raw is None:
        return default
    return [float(x) for x in str(raw).split(",") if x]


def _cmd_bounds(cfg):
    n, N = _need(cfg, "n", "N")
    eps_grid = _parse_grid(_get(cfg, "eps_grid", None), [0.1, 0.3, 0.5, 0.7])
    delta_grid = _parse_grid(_get(cfg, "delta_grid", None), [0.01, 0.05, 0.1, 0.2, 0.5])
    files = {
        "radius.csv": [["eps", "delta", "value"]] + [
            [_g17(e), _g17(d), _g17(near_norming_radius(e, d))]
            for e in eps_grid
            for d in delta_grid
        ],
        "separation_lower.csv": [["eps", "delta", "value"]] + [
            ["", _g17(d), _g17(lower_bound_from_separation(d, n))] for d in delta_grid
        ],
        "count_bounds.csv": [["n", "N", "delta", "log_packing_bound", "log_net_bound"]] + [
            [n, N, _g17(d), _g17(packing_upper_bound(n, N, d)), _g17(net_size_bound(n, N, d))]
            for d in delta_grid
        ],
    }
    return files, {
        "n": n,
        "N": N,
        "matching_lower_bound": "exp(b*n*N^2) for some b > 0 (existential constant, "
        "not computable from these formulas)",
    }


def _cmd_subgauss(cfg):
    n, N, samples = _need(cfg, "n", "N", "samples")
    rep = subgaussian_tail_check(n, N, samples, cfg.seed)
    return {"subgauss.csv": rep.to_csv_rows()}, {
        "b_n": rep.b_n,
        "k_hat": rep.k_hat,
        "any_flagged": rep.any_flagged,
        "empirical_variance": rep.empirical_variance,
    }


def _parse_coeffs(raw, n):
    if raw is None:
        return [1.0] * n
    vals = [complex(x) for x in str(raw).split(",") if x]
    if len(vals) != n:
        raise ConfigError(f"coeffs has {len(vals)} entries, expected n={n}")
    return vals


def _cmd_appendix(cfg):
    (experiment,) = _need(cfg, "experiment")
    N = _get(cfg, "N", 16)
    samples = _get(cfg, "samples", 20)
    if experiment == "chi":
        rep = chi_n_estimate(N, samples, cfg.seed)
        rows = [
            ["N", "samples", "estimate", "ci_lo", "ci_hi"],
            [N, samples, _g17(rep.value), _g17(rep.ci_lo), _g17(rep.ci_hi)],
        ]
        return {"chi.csv": rows}, {"estimate": rep.value, "ci_lo": rep.ci_lo, "ci_hi": rep.ci_hi}
    if experiment == "twirl":
        rep = twirl_identity_check(N, samples, cfg.seed)
        return {"twirl.json": rep.to_json()}, rep.to_json()
    n = _get(cfg, "n", 4)
    coeffs = _parse_coeffs(_get(cfg, "coeffs", None), n)
    if experiment in ("dominance", "hastings"):
        uni = unitary_sum_norm(coeffs, N, samples, cfg.seed.stream(1))
        summary = {
            "unitary_mean": uni.mean_norm,
            "unitary_std": uni.std_norm,
            "unconverged": uni.unconverged,
        }
        rows = [["sample", "unitary_norm"]] + [
            [i, _g17(v)] for i, v in enumerate(uni.values)
        ]
        if experiment == "dominance":
            gau = gaussian_decoupled_norm(coeffs, N, samples, cfg.seed.stream(2))
            lo, hi = bootstrap_mean_ci(uni.values, cfg.seed.substream(9))
            summary["unconverged"] += gau.unconverged
            summary.update(
                {
                    "gaussian_mean": gau.mean_norm,
                    "dominance_ratio": uni.mean_norm / gau.mean_norm,
                    "unitary_mean_ci_lo": lo,
                    "unitary_mean_ci_hi": hi,
                    "ci_note": "bootstrap CI, non-rigorous",
                }
            )
            rows = [["sample", "unitary_norm", "gaussian_norm"]] + [
                [i, _g17(a), _g17(b)]
                for i, (a, b) in enumerate(zip(uni.values, gau.values))
            ]
        return {f"{experiment}.csv": rows}, summary
    if experiment == "matrix-coeff":
        k = _get(cfg, "k", 2)
        blocks = [np.eye(k) * c for c in coeffs]
        rep = matrix_coefficient_sum(blocks, N, samples, cfg.seed)
        return {"matrix_coeff.json": rep.to_json()}, {
            "mean_norm": rep.mean_norm, "rhs": rep.rhs, "unconverged": rep.unconverged
        }
    raise ConfigError(f"unknown appendix experiment {experiment!r}")


def _cmd_validate(cfg):
    t = _load(cfg, "tuple")
    report = {
        "n": t.n,
        "N": t.dim,
        "unitary": t.unitary,
        "unitarity_residual": t.unitarity_residual(),
    }
    return {"validate.json": report}, {"n": t.n, "N": t.dim, "unitary": t.unitary}


# Each command's handler, returning ({file name: content}, summary dict), and
# the one-line statement of what it measures, recorded in run.json for traceability.
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
    "appendix": (_cmd_appendix, "unitary-vs-Gaussian norm comparison statistics"),
    "validate": (_cmd_validate, "tuple file schema and unitarity validation"),
}


def run(config: ExperimentConfig) -> RunRecord:
    """Dispatch a validated config; write the handler's files, in order, plus run.json.

    A QexError or ValueError (an out-of-range parameter, or a non-finite
    float on its way into a JSON file) is re-raised after a run.json with
    status "failed" and the error line is written.
    """
    handler, claim = COMMANDS[config.command]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    try:
        files, summary = handler(config)
        for name, content in files.items():
            _write_file(out / name, content)
    except (QexError, ValueError) as exc:
        failed = RunRecord(config, started, _now(), [], {}, claim=claim, error=str(exc))
        _write_file(out / "run.json", failed.to_json())
        raise
    record = RunRecord(
        config=config,
        started=started,
        finished=_now(),
        artifacts=list(files),
        summary=_json_safe(summary),
        claim=claim,
    )
    _write_file(out / "run.json", record.to_json())
    return record


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return None
    return obj


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``qex`` parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="qex", description="quantum expander toolkit"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--stream-id", type=int, default=0, help="RNG stream id")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--config", type=str, default=None, help="JSON config overriding flags")
    sub = parser.add_subparsers(dest="command")
    for name, (_, claim) in COMMANDS.items():
        p = sub.add_parser(name, help=claim)
        p.add_argument("--param", "-p", action="append", default=[],
                       metavar="KEY=VALUE", help="command parameter")
    return parser


def _coerce(key: str, raw: str):
    # the type check is ExperimentConfig's; an unknown key stays a string for it
    want = _PARAM_TYPES.get(key, str)
    if want is str:
        return raw
    try:
        return want(raw)
    except ValueError as exc:
        raise ConfigError(f"param {key!r}: cannot parse {raw!r} as {want.__name__}") from exc


def config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        return _load_json(args.config, ExperimentConfig.from_json, ConfigError)
    if not args.command:
        raise ConfigError("no command given (and no --config)")
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        params[key] = _coerce(key, raw)
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
