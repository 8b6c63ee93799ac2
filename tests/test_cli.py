import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest

import qexpand as qx
from qexpand.cli import (
    _REQUIRED,
    COMMANDS,
    ExperimentConfig,
    _declared,
    _resolve,
    main,
    run,
)
from qexpand.errors import ConfigError
from qexpand.linalg import RngSpec


def make_config(command, params, out_dir, seed=0, stream=0):
    return ExperimentConfig(command, params, RngSpec(seed, stream), str(out_dir))


# small-size params for every command, and for appendix for every experiment
# ("appendix" alone is dominance); a new command must add its own
SMALL_CASES = ["sample-haar", "cayley", "certify", "gap", "mix", "separate", "orbit-dist",
               "strong-sep", "norming", "delta-overlap", "dcb-bound", "pack", "cover", "bounds",
               "subgauss", "appendix", "appendix:chi", "appendix:twirl", "appendix:hastings",
               "appendix:matrix-coeff", "validate"]


def small_params(tmp_path, case):
    """Params that run ``case`` in well under a second; writes the input files it reads."""
    inputs = tmp_path / "in"
    inputs.mkdir(exist_ok=True)
    tpath, gpath = inputs / "pauli.json", tmp_path / "group.json"
    qx.save_tuple(tpath, qx.pauli_tuple())
    gpath.write_text(json.dumps(qx.cyclic_group(3).to_json()))
    t = str(tpath)
    return {
        "sample-haar": {"n": 2, "N": 3},
        "cayley": {"group": str(gpath)},
        "certify": {"tuple": t},
        "gap": {"tuple": t},
        "mix": {"tuple": t, "steps": 3},
        "separate": {"u": t, "v": t},
        "orbit-dist": {"u": t, "v": t, "restarts": 2},
        "strong-sep": {"u": t, "v": t, "restarts": 1},
        "norming": {"tuple": t, "restarts": 2},
        "delta-overlap": {"tuple": t},
        "dcb-bound": {"delta_strong": 0.5, "overlap": 0.1, "n": 4},
        "pack": {"n": 2, "N": 3, "eps": 0.0, "delta": 0.0, "max_samples": 3},
        "cover": {"tuples": str(inputs), "radius": 1.0},
        "bounds": {"n": 2, "N": 3, "eps_grid": "0.3", "delta_grid": "0.1"},
        "subgauss": {"n": 2, "N": 3, "samples": 100},
        "appendix": {"experiment": "dominance", "n": 2, "N": 3, "samples": 10},
        "appendix:chi": {"experiment": "chi", "N": 4, "samples": 100},
        "appendix:twirl": {"experiment": "twirl", "N": 2, "samples": 50},
        "appendix:hastings": {"experiment": "hastings", "n": 2, "N": 3, "samples": 10},
        "appendix:matrix-coeff": {"experiment": "matrix-coeff", "n": 2, "N": 3, "samples": 10},
        "validate": {"tuple": t},
    }[case]


def flags(params):
    return [arg for key, val in params.items() for arg in ("-p", f"{key}={val}")]


def declared(command, params):
    """Each param declared for ``command`` run on ``params``, with its default (or _REQUIRED)."""
    return {key: default for key, (_, default) in _resolve(command, params)[1].items()}


def handlers():
    """Every command handler, for appendix one per experiment."""
    return [h for h, _ in COMMANDS.values() if not isinstance(h, dict)] + list(
        COMMANDS["appendix"][0].values())


def one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = make_config("certify", {"tuple": "t.json", "tol": 1e-8}, tmp_path)
        back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(
                {"command": "gap", "params": {}, "seed": {"seed": 0}, "out_dir": ".", "x": 1}
            )

    @pytest.mark.parametrize("key", ["bogus", "order", "eps_prime"])
    def test_unknown_param_key(self, key):
        # no command reads "order" or "eps_prime", so they are rejected like any unknown key
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(
                {"command": "gap", "params": {key: 1}, "seed": {"seed": 0}, "out_dir": "."}
            )

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(
                {"command": "frobnicate", "params": {}, "seed": {"seed": 0}, "out_dir": "."}
            )

    def test_bad_param_type(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(
                {"command": "pack", "params": {"n": "six"}, "seed": {"seed": 0}, "out_dir": "."}
            )

    @pytest.mark.parametrize(
        "command, params",
        [
            ("frobnicate", {}),
            ("sample-haar", {"n": 2, "N": 2, "bogus": 1}),
            ("sample-haar", {"n": "six", "N": 2}),
            ("sample-haar", {"n": True, "N": 2}),
            ("sample-haar", {"n": np.int64(2), "N": 2}),
            ("gap", {"tuple": "t.json", "tol": "1e-8"}),
            ("sample-haar", [("n", 2)]),
        ],
        ids=["unknown-command", "unknown-key", "string-int", "bool-int", "np-int64",
             "string-float", "params-not-dict"],
    )
    def test_python_config_is_checked_at_construction(self, tmp_path, command, params):
        out = tmp_path / "o"
        with pytest.raises(ConfigError):
            make_config(command, params, out)
        assert not out.exists()

    def test_python_config_seed_must_be_rng_spec(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig("sample-haar", {"n": 2, "N": 2}, 5, str(out))
        assert not out.exists()

    def test_int_is_accepted_for_float(self, tmp_path):
        cfg = make_config("gap", {"tuple": "t.json", "tol": 1}, tmp_path)
        assert cfg.params["tol"] == 1

    def test_config_cannot_change_after_its_check(self, tmp_path):
        params = {"tuple": "t.json", "tol": 1e-8}
        cfg = make_config("gap", params, tmp_path / "o")
        with pytest.raises(TypeError):
            cfg.params["bogus"] = 1
        with pytest.raises(TypeError):
            cfg.params["tol"] = float("nan")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.command = "nope"
        # the config holds its own copy of the caller's dict
        params["bogus"] = 1
        params["tol"] = float("nan")
        assert cfg.params == {"tuple": "t.json", "tol": 1e-8}
        assert not (tmp_path / "o").exists()


class TestRun:
    def test_certify_pauli(self, tmp_path):
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        record = run(make_config("certify", {"tuple": str(tpath)}, tmp_path / "out"))
        assert record.summary["epsilon"] == pytest.approx(1.0, abs=1e-10)
        run_json = json.loads((tmp_path / "out" / "run.json").read_text())
        assert run_json["claim"] == COMMANDS["certify"][1]
        assert run_json["tool_version"] == qx.__version__
        for art in run_json["artifacts"]:
            assert (tmp_path / "out" / art).exists()

    def test_pack_byte_identical_reruns(self, tmp_path):
        params = {"n": 3, "N": 4, "eps": 0.02, "delta": 0.05, "max_samples": 25}
        run(make_config("pack", params, tmp_path / "a", seed=7))
        run(make_config("pack", params, tmp_path / "b", seed=7))
        fa = (tmp_path / "a" / "family.csv").read_bytes()
        fb = (tmp_path / "b" / "family.csv").read_bytes()
        assert fa == fb
        ma = json.loads((tmp_path / "a" / "meta.json").read_text())
        mb = json.loads((tmp_path / "b" / "meta.json").read_text())
        assert ma == mb

    def test_pack_reports_rejections_by_cause(self, tmp_path):
        params = {"n": 4, "N": 4, "eps": 0.15, "delta": 0.15, "max_samples": 60}
        rec = run(make_config("pack", params, tmp_path / "o", seed=61))
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        fam = qx.greedy_pack(4, 4, 0.15, 0.15, 60, RngSpec(61, 0))
        for key, want in (
            ("members", fam.count),
            ("rejected", fam.rejected_count),
            ("rejected_uncertified", fam.rejected_uncertified),
            ("rejected_close", fam.rejected_close),
            ("since_last_admission", fam.since_last_admission),
            ("unconverged", fam.unconverged),
        ):
            assert rec.summary[key] == meta[key] == want
        assert rec.summary["rejected_uncertified"] > 0 and rec.summary["rejected_close"] > 0

    def test_run_json_status_ok(self, tmp_path):
        params = {"delta_strong": 0.5, "overlap": 0.1, "n": 4}
        run(make_config("dcb-bound", params, tmp_path / "o"))
        record = json.loads((tmp_path / "o" / "run.json").read_text())
        assert record["status"] == "ok" and "error" not in record
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["dcb.json", "run.json"]

    def test_failed_run_leaves_status_and_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(qx.TupleFormatError) as info:
            run(make_config("certify", {"tuple": str(missing)}, tmp_path / "o"))
        record = json.loads((tmp_path / "o" / "run.json").read_text())
        assert record["status"] == "failed"
        assert record["error"] == str(info.value)
        assert "\n" not in record["error"]
        assert record["artifacts"] == [] and record["claim"] == COMMANDS["certify"][1]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["run.json"]

    def test_main_failure_writes_run_json(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--out", str(out), "gap", "-p", f"tuple={tmp_path / 'missing.json'}"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: " + json.loads((out / "run.json").read_text())["error"]

    def test_out_dir_that_is_a_file_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("kept")
        assert main(["--out", str(out), "sample-haar", "-p", "n=2", "-p", "N=3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out}: ")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("taken", ["tuple.json", "tuple.json.tmp"])
    def test_file_name_taken_by_a_directory_is_one_line_error(self, tmp_path, capsys, taken):
        # an artifact's own name, or the temp name it is written through first
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        assert main(["--out", str(out), "sample-haar", "-p", "n=2", "-p", "N=3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out / 'tuple.json'}: ")
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[0][len("error: "):]
        assert sorted(p.name for p in out.iterdir()) == ["run.json", taken]

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_one_line_error(self, tmp_path, capsys, tol):
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        out = tmp_path / "o"
        assert main(["--out", str(out), "gap", "-p", f"tuple={tpath}", "-p", f"tol={tol}"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "tol" in err[0]
        assert not out.exists()  # rejected with the config, before any run

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_in_config_file_is_one_line_error(self, tmp_path, capsys, token):
        # json.loads accepts these tokens; the config check must not
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"command": "gap", "params": {"tuple": %s, "tol": %s}, '
            '"seed": {"seed": 0, "stream_id": 0}, "out_dir": %s}'
            % (json.dumps(str(tpath)), token, json.dumps(str(out)))
        )
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'tol'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), np.float64("-inf")])
    def test_non_finite_float_in_python_config_is_rejected_before_run(self, tmp_path, tol):
        # run() writes a failed run.json from its config, which must be strict JSON
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="'tol' must be finite"):
            run(make_config("gap", {"tuple": str(tpath), "tol": tol}, out))
        assert not out.exists()

    def test_writers_leave_strict_json_and_no_temp_files(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        qx.save_tuple(tmp_path / "t.json", qx.pauli_tuple())
        run(make_config("pack", {"n": 2, "N": 3, "eps": 0.0, "delta": 0.0, "max_samples": 3},
                        tmp_path / "fam", seed=50))
        run(make_config("sample-haar", {"n": 2, "N": 3}, tmp_path / "o"))
        run(make_config("bounds", {"n": 2, "N": 3, "delta_grid": "0.1"}, tmp_path / "b"))
        files = [f for f in tmp_path.rglob("*") if f.is_file()]
        assert not [f for f in files if f.name.endswith(".tmp")]
        written = sorted(str(f.relative_to(tmp_path)) for f in files if f.suffix == ".json")
        assert written == ["b/run.json", "fam/member_0000.json", "fam/member_0001.json",
                           "fam/member_0002.json", "fam/meta.json", "fam/run.json", "o/run.json",
                           "o/tuple.json", "t.json"]
        # csv.writer's CRLF line ends reach the file unchanged
        count = (tmp_path / "b" / "count_bounds.csv").read_bytes()
        assert count.startswith(b"n,N,delta,log_packing_bound,log_net_bound\r\n")
        for f in files:
            if f.suffix == ".json":
                json.loads(f.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_declared_files_are_the_files_written(self, tmp_path, command):
        params = small_params(tmp_path, command)

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        out = tmp_path / "o"
        run(make_config(command, params, out))
        record = json.loads((out / "run.json").read_text())
        assert record["status"] == "ok" and record["artifacts"]
        assert sorted(p.name for p in out.iterdir()) == sorted(["run.json", *record["artifacts"]])
        for f in out.glob("*.json"):
            json.loads(f.read_text(), parse_constant=reject)

    def test_sample_haar_and_validate(self, tmp_path):
        rec = run(make_config("sample-haar", {"n": 2, "N": 3}, tmp_path / "o", seed=3))
        assert rec.summary["unitarity_residual"] < 1e-9
        rec2 = run(
            make_config(
                "validate", {"tuple": str(tmp_path / "o" / "tuple.json")}, tmp_path / "v"
            )
        )
        assert rec2.summary["n"] == 2 and rec2.summary["N"] == 3

    def test_cayley_and_gap(self, tmp_path):
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(qx.cyclic_group(5).to_json()))
        rec = run(make_config("cayley", {"group": str(gpath)}, tmp_path / "o"))
        want = max(abs(2 * np.cos(2 * np.pi * k / 5)) for k in range(1, 5))
        assert rec.summary["classical_gap"] == pytest.approx(want, abs=1e-9)
        rec2 = run(
            make_config("gap", {"tuple": str(tmp_path / "o" / "tuple.json")}, tmp_path / "g")
        )
        assert rec2.summary["value"] == pytest.approx(2.0, abs=1e-8)
        witness = qx.load_tuple(tmp_path / "g" / "witness.json")
        assert witness.n == 1 and witness.dim == 5

    def test_mix_writes_curve(self, tmp_path):
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        rec = run(make_config("mix", {"tuple": str(tpath), "steps": 5}, tmp_path / "o"))
        lines = (tmp_path / "o" / "mix.csv").read_text().strip().splitlines()
        assert lines[0] == "k,residual"
        assert len(lines) == 7
        assert rec.summary["final_residual"] < 1e-12

    def test_separate_and_orbit(self, tmp_path):
        gen = RngSpec(5, 0).generator()
        u = qx.haar_tuple(2, 4, gen)
        a = qx.sample_haar_unitary(4, gen)
        v = u.transform(left=a)
        up, vp = tmp_path / "u.json", tmp_path / "v.json"
        qx.save_tuple(up, u)
        qx.save_tuple(vp, v)
        rec = run(
            make_config("orbit-dist", {"u": str(up), "v": str(vp), "restarts": 5}, tmp_path / "o")
        )
        assert rec.summary["upper"] < 1e-5
        # a same-orbit pair reaches F = n on restart 0, the certified stop
        assert rec.summary["certified"] is True and rec.summary["restarts_used"] == 1
        saved = json.loads((tmp_path / "o" / "orbit.json").read_text())
        assert saved["certified"] is True and saved["restarts_used"] == 1
        rec2 = run(make_config("separate", {"u": str(up), "v": str(vp)}, tmp_path / "s"))
        assert rec2.summary["norm_value"] == pytest.approx(2.0, abs=1e-8)

    def test_reports_say_which_applies_ran_in_complex64(self, tmp_path):
        # at N = 13 (kN^2 = 169) the default method is Lanczos; at tol 1e-6 it
        # runs its Krylov cycles in complex64 and finishes in complex128
        gen = RngSpec(6, 0).generator()
        up, vp = tmp_path / "u.json", tmp_path / "v.json"
        qx.save_tuple(up, qx.haar_tuple(3, 13, gen))
        qx.save_tuple(vp, qx.haar_tuple(3, 13, gen))
        for tol, mixed in ((1e-6, True), (1e-10, False)):
            out = tmp_path / f"{tol:.0e}"
            run(make_config("gap", {"tuple": str(up), "tol": tol}, out / "g"))
            run(make_config("certify", {"tuple": str(up), "tol": tol}, out / "c"))
            gap = json.loads((out / "g" / "gap.json").read_text())
            cert = json.loads((out / "c" / "certificate.json").read_text())
            assert gap["method"] == cert["gap"]["method"] == "lanczos"
            for obj in (gap, cert["gap"]):
                assert (obj["single_applies"] > 0) == mixed
            assert gap["single_applies"] < gap["iterations"]
        # separate solves at its fixed tol 1e-10, so entirely in complex128
        run(make_config("separate", {"u": str(up), "v": str(vp)}, tmp_path / "s"))
        sep = json.loads((tmp_path / "s" / "separation.json").read_text())
        assert sep["method"] == "lanczos"
        assert sep["single_applies"] == 0

    def test_dcb_bound_and_overlap(self, tmp_path):
        rec = run(
            make_config(
                "dcb-bound",
                {"delta_strong": 0.5, "overlap": 0.1, "n": 4},
                tmp_path / "o",
            )
        )
        assert rec.summary["bound"] == pytest.approx(2.0)
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        rec2 = run(make_config("delta-overlap", {"tuple": str(tpath)}, tmp_path / "d"))
        assert rec2.summary["overlap"] == 0.0

    def test_bounds_tables(self, tmp_path):
        rec = run(
            make_config(
                "bounds",
                {"n": 4, "N": 8, "eps_grid": "0.3", "delta_grid": "0.1,0.2"},
                tmp_path / "o",
            )
        )
        radius = (tmp_path / "o" / "radius.csv").read_text().strip().splitlines()
        assert radius[0] == "eps,delta,value"
        assert len(radius) == 3
        count = (tmp_path / "o" / "count_bounds.csv").read_text().strip().splitlines()
        assert len(count) == 3
        assert "existential" in rec.summary["matching_lower_bound"]

    def test_subgauss_csv(self, tmp_path):
        rec = run(
            make_config("subgauss", {"n": 2, "N": 4, "samples": 200}, tmp_path / "o")
        )
        lines = (tmp_path / "o" / "subgauss.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,empirical,bound,sigma,flagged"
        assert rec.summary["any_flagged"] in (False, True)

    def test_appendix_chi(self, tmp_path):
        rec = run(
            make_config(
                "appendix", {"experiment": "chi", "N": 16, "samples": 300}, tmp_path / "o"
            )
        )
        assert rec.summary["estimate"] == pytest.approx(0.72, abs=0.05)
        lines = (tmp_path / "o" / "chi.csv").read_text().strip().splitlines()
        assert lines[0] == "N,samples,estimate,ci_lo,ci_hi"

    def test_appendix_dominance(self, tmp_path):
        rec = run(
            make_config(
                "appendix",
                {"experiment": "dominance", "n": 2, "N": 6, "samples": 10},
                tmp_path / "o",
            )
        )
        assert rec.summary["dominance_ratio"] <= 8.0
        assert rec.summary["unconverged"] == 0
        assert "ci_note" in rec.summary

    def test_appendix_dominance_with_zero_coeffs(self, tmp_path):
        out = tmp_path / "o"
        argv = ["--out", str(out), "appendix", "-p", "experiment=dominance", "-p", "n=2",
                "-p", "N=3", "-p", "samples=10", "-p", "coeffs=0,0"]
        assert main(argv) == 0
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "ok"
        assert rec["summary"]["gaussian_mean"] == 0.0 and rec["summary"]["dominance_ratio"] is None

    @pytest.mark.parametrize("experiment", sorted(COMMANDS["appendix"][0]))
    def test_appendix_runs_with_its_defaults(self, tmp_path, experiment):
        out = tmp_path / "o"
        assert main(["--out", str(out), "appendix", "-p", f"experiment={experiment}"]) == 0
        assert json.loads((out / "run.json").read_text())["status"] == "ok"

    def test_cover_over_pack_directory(self, tmp_path):
        run(
            make_config(
                "pack",
                {"n": 2, "N": 3, "eps": 0.0, "delta": 0.0, "max_samples": 8},
                tmp_path / "fam",
                seed=9,
            )
        )
        rec = run(
            make_config(
                "cover",
                {"tuples": str(tmp_path / "fam"), "radius": 50.0},
                tmp_path / "cov",
            )
        )
        assert rec.summary["count"] == 1
        rec2 = run(
            make_config(
                "cover",
                {"tuples": str(tmp_path / "fam"), "radius": 1e-9},
                tmp_path / "cov2",
            )
        )
        assert rec2.summary["count"] == 8

    def test_cover_over_absolute_glob(self, tmp_path):
        run(
            make_config(
                "pack",
                {"n": 2, "N": 3, "eps": 0.0, "delta": 0.0, "max_samples": 5},
                tmp_path / "fam",
                seed=9,
            )
        )
        pattern = str((tmp_path / "fam").resolve() / "member_*.json")
        rec = run(make_config("cover", {"tuples": pattern, "radius": 1e-9}, tmp_path / "cov"))
        assert rec.summary["count"] == 5
        assert json.loads((tmp_path / "cov" / "run.json").read_text())["status"] == "ok"

    def test_appendix_twirl_hastings_matrix_coeff(self, tmp_path):
        rec = run(
            make_config(
                "appendix", {"experiment": "twirl", "N": 2, "samples": 3000}, tmp_path / "t"
            )
        )
        assert rec.summary["residual"] < 0.1
        rec2 = run(
            make_config(
                "appendix",
                {"experiment": "hastings", "n": 2, "N": 6, "samples": 10},
                tmp_path / "h",
            )
        )
        assert rec2.summary["unitary_mean"] == pytest.approx(2.0, abs=1e-6)
        assert rec2.summary["unconverged"] == 0
        rec3 = run(
            make_config(
                "appendix",
                {"experiment": "matrix-coeff", "n": 2, "N": 3, "k": 2, "samples": 10},
                tmp_path / "m",
            )
        )
        assert rec3.summary["mean_norm"] <= 8 * rec3.summary["rhs"] + 1e-9
        assert rec3.summary["unconverged"] == 0

    def test_norming_and_strong_sep(self, tmp_path, capsys):
        gen = RngSpec(6, 0).generator()
        u = qx.haar_tuple(2, 4, gen)
        v = qx.haar_tuple(2, 4, gen)
        up, vp = tmp_path / "u.json", tmp_path / "v.json"
        qx.save_tuple(up, u)
        qx.save_tuple(vp, v)
        code = main(
            ["--out", str(tmp_path / "s"), "strong-sep",
             "-p", f"u={up}", "-p", f"v={vp}", "-p", "restarts=3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # stdout carries the JSON result line only
        assert "estimated" in json.loads(lines[0])["summary"]["qualifier"]
        rec2 = run(
            make_config("norming", {"tuple": str(up), "restarts": 3}, tmp_path / "n")
        )
        assert rec2.summary["attained"] == pytest.approx(2.0, abs=1e-6)
        witness = qx.load_tuple(tmp_path / "n" / "norming_witness.json")
        assert witness.n == 2


class TestMain:
    def test_cli_round_trip(self, tmp_path, capsys):
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        code = main(
            ["--out", str(tmp_path / "o"), "certify", "-p", f"tuple={tpath}"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["summary"]["epsilon"] == pytest.approx(1.0, abs=1e-10)

    @staticmethod
    def check_homogeneous(tmp_path, capsys, experiment):
        """Every statistic of the experiment at coeffs=s,s,s is s times its value at
        coeffs=1,1,1 (``dominance_ratio`` equal), with no warning on the way."""
        def stats(c):
            params = {"experiment": experiment, "n": 3, "N": 20, "samples": 10, "coeffs": f"{c},{c},{c}"}
            out = tmp_path / c
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["--seed", "1", "--out", str(out), "appendix", *flags(params)]) == 0
            got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
            for path in out.glob("*.json"):
                if path.name != "run.json":
                    got.update(json.loads(path.read_text()))
            return got

        base = stats("1")
        for s in (1e80, 1e-100, 1e200):
            got = stats(repr(s))
            assert got["unconverged"] == base["unconverged"] == 0
            for key, value in base.items():
                if isinstance(value, float):
                    want = value if key == "dominance_ratio" else s * value
                    assert got[key] == pytest.approx(want, rel=1e-12, abs=0), key

    def test_hastings_mean_is_homogeneous_in_the_coefficients(self, tmp_path, capsys):
        # coeffs=1e80 once read 1.729e80 (38.8% low) with unconverged 0; at 1e200
        # the squares inside ||a||_2 and the std once overflowed
        self.check_homogeneous(tmp_path, capsys, "hastings")

    @pytest.mark.parametrize("experiment", ["dominance", "matrix-coeff"])
    def test_statistics_are_homogeneous_in_the_coefficients(self, tmp_path, capsys, experiment):
        # at 1e200 (dominance already at 1e160) ||a||_2, the std and matrix-coeff's
        # rhs once overflowed: an OverflowError traceback after a RuntimeWarning
        self.check_homogeneous(tmp_path, capsys, experiment)

    def test_one_parser_per_process_keeps_params_apart(self, tmp_path, capsys):
        # the parser is reused across calls; argparse's append action must not
        # carry one call's -p list into the next
        from qexpand.cli import _build_parser

        assert _build_parser() is _build_parser()
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        argvs = {
            "a": ["certify", "-p", f"tuple={tpath}", "-p", "tol=1e-8"],
            "b": ["sample-haar", "-p", "n=2", "-p", "N=3"],
            "c": ["certify", "-p", f"tuple={tpath}"],
        }
        for out, argv in argvs.items():
            assert main(["--out", str(tmp_path / out)] + argv) == 0
        params = {
            out: json.loads((tmp_path / out / "run.json").read_text())["config"]["params"]
            for out in argvs
        }
        assert params == {
            "a": {"tuple": str(tpath), "tol": 1e-8},
            "b": {"n": 2, "N": 3},
            "c": {"tuple": str(tpath)},
        }

    def test_mix_x0_of_several_members_is_one_line_error(self, tmp_path, capsys):
        # x0 is one start matrix: member 0 of a 3-member file was once used silently
        tpath, xpath, out = tmp_path / "pauli.json", tmp_path / "x0.json", tmp_path / "o"
        qx.save_tuple(tpath, qx.pauli_tuple())
        qx.save_tuple(xpath, qx.haar_tuple(3, 2, RngSpec(1, 0).generator()))
        assert main(["--out", str(out), "mix", "-p", f"tuple={tpath}", "-p", f"x0={xpath}"]) == 1
        err = one_error_line(capsys)
        assert err.startswith(f"error: {xpath}: ") and "n=3" in err
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[len("error: "):]

    def test_mix_x0_of_another_size_names_the_file(self, tmp_path, capsys):
        # a 3 x 3 x0 against a 2 x 2 tuple once read "x0 has dim 3, tuple has 2"
        tpath, xpath, out = tmp_path / "pauli.json", tmp_path / "x0.json", tmp_path / "o"
        qx.save_tuple(tpath, qx.pauli_tuple())
        qx.save_tuple(xpath, qx.haar_tuple(1, 3, RngSpec(1, 0).generator()))
        assert main(["--out", str(out), "mix", "-p", f"tuple={tpath}", "-p", f"x0={xpath}"]) == 1
        err = one_error_line(capsys)
        assert err == f"error: {xpath}: x0 has dim 3, tuple {tpath} has dim 2"
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[len("error: "):]

    @pytest.mark.parametrize("command, key", [
        ("gap", "tuple"), ("certify", "tuple"), ("mix", "tuple"), ("norming", "tuple"),
        ("orbit-dist", "u"), ("orbit-dist", "v"), ("strong-sep", "u"), ("cover", "tuples"),
    ])
    def test_non_unitary_tuple_file_names_the_file_and_param(self, tmp_path, capsys, command,
                                                             key):
        # these once read "operation requires a unitary tuple (unitary flag unset)"
        inputs, out = tmp_path / "in", tmp_path / "o"
        inputs.mkdir()
        upath, nupath = tmp_path / "u.json", inputs / "nu.json"
        u = qx.haar_tuple(3, 4, RngSpec(1, 0).generator())
        qx.save_tuple(upath, u)
        qx.save_tuple(nupath, qx.MatrixTuple(u.mats))
        params = {
            "tuple": {"tuple": nupath},
            "u": {"u": nupath, "v": upath},
            "v": {"u": upath, "v": nupath},
            "tuples": {"tuples": inputs, "radius": 0.5, "metric": "d_prime"},
        }[key]
        assert main(["--out", str(out), command, *flags(params)]) == 1
        err = one_error_line(capsys)
        assert err == f"error: {nupath}: param {key!r} needs a unitary tuple (unitary flag unset)"
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[len("error: "):]

    @pytest.mark.parametrize("command, shape", [
        ("separate", (3, 5)), ("orbit-dist", (3, 5)), ("strong-sep", (3, 5)), ("cover", (2, 4)),
    ])
    def test_tuple_files_of_two_shapes_name_both_files(self, tmp_path, capsys, command, shape):
        # these once read "tuples have shapes (3, 4) and (3, 5)"
        inputs, out = tmp_path / "in", tmp_path / "o"
        inputs.mkdir()
        a, b = inputs / "a.json", inputs / "b.json"
        gen = RngSpec(1, 0).generator()
        qx.save_tuple(a, qx.haar_tuple(3, 4, gen))
        qx.save_tuple(b, qx.haar_tuple(*shape, gen))
        params = {"tuples": inputs, "radius": 0.5} if command == "cover" else {"u": a, "v": b}
        ka, kb = ("tuples", "tuples") if command == "cover" else ("u", "v")
        assert main(["--out", str(out), command, *flags(params)]) == 1
        err = one_error_line(capsys)
        assert err == (f"error: {a} (param {ka!r}) has shape (3, 4) "
                       f"but {b} (param {kb!r}) has shape {shape}")
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[len("error: "):]

    @pytest.mark.parametrize("key, grid, entry", [
        ("delta_grid", "0", "0.0"), ("eps_grid", "0.3,nan", "nan"), ("eps_grid", "0.5,1", "1.0"),
    ], ids=["delta-zero", "eps-nan", "eps-one"])
    def test_grid_entry_out_of_range_names_the_param(self, tmp_path, capsys, key, grid, entry):
        # these once read "delta must be in (0, 1), got 0.0", from the formulas
        out = tmp_path / "o"
        assert main(["--out", str(out), "bounds", "-p", "n=2", "-p", "N=2",
                     "-p", f"{key}={grid}"]) == 1
        err = one_error_line(capsys)
        assert err == f"error: param {key!r}: entry {entry} is not in (0, 1)"
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["artifacts"] == []

    @pytest.mark.parametrize("argv, want", [
        (["appendix", "-p", "experiment=hastings", "-p", "coeffs=1,x,1,1"],
         "param 'coeffs': cannot parse 'x' as complex"),
        (["bounds", "-p", "n=2", "-p", "N=2", "-p", "delta_grid=0.01,abc"],
         "param 'delta_grid': cannot parse 'abc' as float"),
        (["bounds", "-p", "n=2", "-p", "N=2", "-p", "eps_grid=,"],
         "param 'eps_grid' has no entries"),
    ], ids=["coeffs", "delta_grid", "empty_eps_grid"])
    def test_list_param_errors_name_the_param(self, tmp_path, capsys, argv, want):
        # these once read "complex() arg is a malformed string" and "could not
        # convert string to float: 'abc'", and an empty eps_grid wrote a
        # radius.csv with no rows
        assert main(["--out", str(tmp_path / "o"), *argv]) == 1
        assert one_error_line(capsys) == f"error: {want}"

    def test_missing_param_is_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "certify"])
        assert code == 1
        assert "requires param" in capsys.readouterr().err

    def test_config_file_drives_run(self, tmp_path, capsys):
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        cfg = {
            "command": "gap",
            "params": {"tuple": str(tpath)},
            "seed": {"seed": 1, "stream_id": 0},
            "out_dir": str(tmp_path / "o"),
        }
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code = main(["--config", str(cpath)])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["summary"]["value"] < 1e-8

    def test_cover_config_file_int_radius_writes_a_float(self, tmp_path):
        (tmp_path / "in").mkdir()
        qx.save_tuple(tmp_path / "in" / "pauli.json", qx.pauli_tuple())
        cfg = {
            "command": "cover",
            "params": {"tuples": str(tmp_path / "in"), "radius": 1},
            "seed": {"seed": 0, "stream_id": 0},
            "out_dir": str(tmp_path / "o"),
        }
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["--config", str(cpath)]) == 0
        text = (tmp_path / "o" / "cover.json").read_text()
        assert '"radius": 1.0,' in text and json.loads(text)["radius"] == 1.0

    def test_bad_config_file(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text('{"command": "gap"')
        assert main(["--config", str(cpath)]) == 1

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("group", None),
            ("group", b'{"order": \xff}'),
            ("group", b'{"order": 3'),
            ("group", b"[1, 2]"),
            ("group", b'{"order": 3, "generators": [[1, 2, 0], [2, 0, 1]], "labels": "ab"}'),
            ("config", None),
            ("config", b'{"command": \xff}'),
            ("config", b'{"command": "gap"'),
            ("config", b"[1, 2]"),
        ],
        ids=["group-missing", "group-non-utf8", "group-invalid-json", "group-not-object",
             "group-string-labels", "config-missing", "config-non-utf8",
             "config-invalid-json", "config-not-object"],
    )
    def test_bad_group_or_config_file_is_one_line_error(self, tmp_path, capsys, kind, content):
        path = tmp_path / f"{kind}.json"
        if content is not None:
            path.write_bytes(content)
        if kind == "group":
            argv = ["--out", str(tmp_path / "o"), "cayley", "-p", f"group={path}"]
        else:
            argv = ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(path) in err[0]

    @pytest.mark.parametrize(
        "seed, out_dir",
        [
            ({"seed": 1.7}, "o"),
            ({"seed": True}, "o"),
            ({"seed": "5"}, "o"),
            ({"seed": 1, "stream_id": 2.9}, "o"),
            ({}, "o"),
            ({"seed": 1}, None),
        ],
        ids=["float-seed", "bool-seed", "string-seed", "float-stream", "no-seed",
             "null-out-dir"],
    )
    def test_config_file_rejects_non_integers(self, tmp_path, capsys, monkeypatch, seed, out_dir):
        # nothing is coerced: 1.7 is not seed 1 and null is not a directory "None"
        monkeypatch.chdir(tmp_path)
        cfg = {"command": "sample-haar", "params": {"n": 2, "N": 2}, "seed": seed,
               "out_dir": out_dir}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["--config", str(cpath)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "N": 1, "matrices": [[["1", "0"]]]}',
            '{"n": 1, "N": 1, "matrices": [[[NaN, 0]]]}',
            None,
            '{"n": 0, "N": 1, "matrices": []}',
            '{"n": -1, "N": 1, "matrices": [[[1, 0]]]}',
            '{"n": 1, "N": 1, "unitray": true, "matrices": [[[1, 0]]]}',
            # base64 form; "AAAAAAAA8D8AAAAAAAAAAA==" holds the pair [1.0, 0.0]
            '{"n": 1, "N": 1, "matrices_b64": "AAAAAAAA8D8AAAAAAAAAA*=="}',
            '{"n": 1, "N": 1, "matrices_b64": "AAAAAAAA8D8="}',
            '{"n": 1, "N": 1, "matrices": [[[1, 0]]], "matrices_b64": "AAAAAAAA8D8AAAAAAAAAAA=="}',
            '{"n": 1, "N": 1, "unitary": false}',
            '{"n": 1, "N": 1, "matrices_b64": "AAAAAAAA+H8AAAAAAAAAAA=="}',
            '{"n": 1, "N": 1, "matrices_b64": "AAAAAAAAAAAAAAAAAADw/w=="}',
            '{"n": 1, "N": 1, "matrices_b64": 5}',
            "[" * 100_000,
        ],
        ids=["string-entries", "nan-entries", "missing-file", "n-zero", "n-negative",
             "unknown-key", "b64-bad-char", "b64-byte-count", "both-forms", "no-form",
             "b64-nan", "b64-inf", "b64-not-string", "nested-too-deep"],
    )
    def test_bad_tuple_file_is_one_line_error(self, tmp_path, capsys, text):
        tpath = tmp_path / "t.json"
        if text is not None:
            tpath.write_text(text)
        code = main(["--out", str(tmp_path / "o"), "validate", "-p", f"tuple={tpath}"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tpath) in err[0]

    @pytest.mark.parametrize(
        "argv, failed_run",
        [
            (["--seed", "-1", "sample-haar", "-p", "n=2", "-p", "N=2"], False),
            (["--stream-id", "-3", "sample-haar", "-p", "n=2", "-p", "N=2"], False),
            (["sample-haar", "-p", "n=0", "-p", "N=2"], True),
            (["pack", "-p", "n=2", "-p", "N=2", "-p", "eps=0", "-p", "delta=1.5",
              "-p", "max_samples=2"], True),
            (["subgauss", "-p", "n=0", "-p", "N=4", "-p", "samples=100"], True),
            (["appendix", "-p", "experiment=hastings", "-p", "N=0", "-p", "samples=10"], True),
            (["appendix", "-p", "experiment=matrix-coeff", "-p", "k=0"], True),
            (["appendix", "-p", "experiment=twirl", "-p", "N=4", "-p", "samples=0"], True),
        ],
        ids=["negative-seed", "negative-stream", "n-zero", "delta-above-one",
             "subgauss-n-zero", "hastings-N-zero", "matrix-coeff-k-zero", "twirl-no-samples"],
    )
    def test_out_of_range_value_is_one_line_error(self, tmp_path, capsys, argv, failed_run):
        out = tmp_path / "o"
        assert main(["--out", str(out), *argv]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if failed_run:
            rec = json.loads((out / "run.json").read_text())
            assert rec["status"] == "failed" and rec["error"] == err[0][len("error: "):]
        else:
            assert not out.exists()

    @pytest.mark.parametrize("bad_file", ["run.json", "bad.csv"])
    def test_non_finite_output_fails_the_run(self, tmp_path, monkeypatch, capsys, bad_file):
        # a NaN in the summary (so in run.json) or in a CSV cell is one error line
        # and a failed run.json, like a non-finite number in a JSON artifact
        def handler(seed, *, tuple: str):
            if bad_file == "run.json":
                return {"validate.json": {"n": 1}}, {"value": float("nan")}
            return {"bad.csv": [["x"], [1.0], [np.float64("nan")]]}, {"value": 1.0}

        monkeypatch.setitem(COMMANDS, "validate", (handler, COMMANDS["validate"][1]))
        out = tmp_path / "o"
        assert main(["--out", str(out), "validate", "-p", "tuple=t.json"]) == 1
        err = one_error_line(capsys)
        assert err.startswith(f"error: {out / bad_file}: ")
        rec = json.loads((out / "run.json").read_text())
        assert rec["status"] == "failed" and rec["error"] == err[len("error: "):]
        assert not (out / "bad.csv").exists()

    def test_dense_cap_env(self, tmp_path, monkeypatch, capsys):
        # no environment variable reaches a run: the old cap override is ignored
        monkeypatch.setenv("QEX_DENSE_CAP", "3")
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        code = main(
            ["--out", str(tmp_path / "o"), "gap", "-p", f"tuple={tpath}", "-p", "method=dense"]
        )
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads((tmp_path / "o" / "gap.json").read_text())["method"] == "dense"


class TestDeclaredParams:
    """Each handler's keyword-only arguments are its command's one param declaration."""

    def test_small_cases_cover_every_command_and_experiment(self):
        cases = {tuple(case.split(":")) for case in SMALL_CASES}
        want = {(name,) for name in COMMANDS}
        want |= {("appendix", exp) for exp in COMMANDS["appendix"][0] if exp != "dominance"}
        assert cases == want

    def test_every_param_is_annotated_with_its_type(self):
        for handler in handlers():
            for key, (want, default) in _declared(handler).items():
                assert want in (int, float, str), (handler, key)
                if default is not _REQUIRED and default is not None:
                    assert isinstance(default, want), (handler, key)

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_undeclared_key_is_one_line_error(self, tmp_path, capsys, case):
        command = case.split(":")[0]
        params = small_params(tmp_path, case)
        keys = sorted({key for handler in handlers() for key in _declared(handler)})
        other = next(key for key in keys if key not in declared(command, params))
        for key in (other, "bogus"):
            out = tmp_path / "o"
            assert main(["--out", str(out), command, *flags(params), "-p", f"{key}=1"]) == 1
            line = one_error_line(capsys)
            assert line == f"error: command {command!r} does not take param {key!r}"
            assert not out.exists()

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_missing_required_key_is_one_line_error(self, tmp_path, capsys, case):
        command = case.split(":")[0]
        params = small_params(tmp_path, case)
        required = [k for k, default in declared(command, params).items() if default is _REQUIRED]
        assert required and set(required) <= set(params)
        for key in required:
            out = tmp_path / "o"
            rest = {k: v for k, v in params.items() if k != key}
            assert main(["--out", str(out), command, *flags(rest)]) == 1
            line = one_error_line(capsys)
            assert line == f"error: command {command!r} requires param {key!r}"
            assert not out.exists()

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_resolved_params_are_the_values_the_handler_used(self, tmp_path, monkeypatch, case):
        command = case.split(":")[0]
        params = small_params(tmp_path, case)
        handler, _ = _resolve(command, params)
        defaults = declared(command, params)
        calls = []

        @functools.wraps(handler)
        def recording(seed, **kwargs):
            calls.append(kwargs)
            return handler(seed, **kwargs)

        if command == "appendix":
            monkeypatch.setitem(COMMANDS["appendix"][0], params["experiment"], recording)
        else:
            monkeypatch.setitem(COMMANDS, command, (recording, COMMANDS[command][1]))
        run(make_config(command, params, tmp_path / "a", seed=4))
        record = json.loads((tmp_path / "a" / "run.json").read_text())
        assert record["config"]["params"] == params  # kept exactly as given
        resolved = record["resolved_params"]
        assert list(resolved) == list(defaults)
        assert calls == [{k: v for k, v in resolved.items() if k != "experiment"}]
        assert resolved == {**{k: d for k, d in defaults.items() if d is not _REQUIRED}, **params}
        # replaying the recorded values, defaults spelled out, writes the same files
        explicit = {k: v for k, v in resolved.items() if v is not None}
        run(make_config(command, explicit, tmp_path / "b", seed=4))
        replay = json.loads((tmp_path / "b" / "run.json").read_text())
        assert replay["resolved_params"] == resolved
        for name in record["artifacts"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_recorded_defaults(self, tmp_path):
        # the defaults that shape the numbers reach run.json
        tpath = tmp_path / "pauli.json"
        qx.save_tuple(tpath, qx.pauli_tuple())
        t = str(tpath)
        for command, params, want in [
            ("certify", {"tuple": t}, {"tol": 1e-10, "method": "auto"}),
            ("mix", {"tuple": t}, {"steps": 50, "x0": None}),
            ("norming", {"tuple": t}, {"restarts": 20}),
            ("bounds", {"n": 2, "N": 3},
             {"eps_grid": "0.1,0.3,0.5,0.7", "delta_grid": "0.01,0.05,0.1,0.2,0.5"}),
        ]:
            resolved = make_config(command, params, tmp_path / "o").resolved_params
            assert resolved == {**params, **want}
        cfg = make_config("appendix", {"experiment": "matrix-coeff"}, tmp_path / "o")
        assert cfg.resolved_params == {"experiment": "matrix-coeff", "n": 4, "N": 16,
                                       "samples": 20, "coeffs": None, "k": 2}
        for experiment, want in [("chi", {"N": 16, "samples": 100}),
                                 ("twirl", {"N": 8, "samples": 20})]:
            cfg = make_config("appendix", {"experiment": experiment}, tmp_path / "o")
            assert cfg.resolved_params == {"experiment": experiment, **want}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "1", "sample-haar", "-p", "n=2", "-p", "N=3", "-p", "delta_grid=bogus",
              "-p", "eps=0.3"], "command 'sample-haar' does not take param 'delta_grid'"),
            (["separate", "-p", "u=t.json", "-p", "v=t.json", "-p", "tol=1e-3"],
             "command 'separate' does not take param 'tol'"),
            (["pack", "-p", "n=2"], "command 'pack' requires param 'N'"),
            (["appendix", "-p", "experiment=chi", "-p", "N=8", "-p", "samples=100", "-p", "k=2"],
             "command 'appendix' does not take param 'k'"),
            (["appendix", "-p", "N=8"], "command 'appendix' requires param 'experiment'"),
            (["appendix", "-p", "experiment=edge"], "unknown appendix experiment 'edge'"),
        ],
        ids=["unused-params", "separate-tol", "pack-missing-N", "chi-k", "no-experiment",
             "unknown-experiment"],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(["--out", str(out), *argv]) == 1
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_config_file_and_python_config_get_the_same_check(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = {"command": "gap", "params": {"tuple": "t.json", "restarts": 2},
               "seed": {"seed": 0, "stream_id": 0}, "out_dir": str(out)}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["--config", str(cpath)]) == 1
        # a config file's error line names the file first
        line = one_error_line(capsys)
        assert line == f"error: {cpath}: command 'gap' does not take param 'restarts'"
        with pytest.raises(ConfigError, match="command 'gap' does not take param 'restarts'"):
            make_config("gap", {"tuple": "t.json", "restarts": 2}, out)
        with pytest.raises(ConfigError, match="command 'gap' requires param 'tuple'"):
            make_config("gap", {}, out)
        for experiment in (5, ["chi"], None):
            with pytest.raises(ConfigError, match="appendix"):
                make_config("appendix", {"experiment": experiment}, out)
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_declared_params(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        handler = COMMANDS[command][0]
        for exp, h in handler.items() if isinstance(handler, dict) else [(None, handler)]:
            listed = ", ".join(key if default is _REQUIRED else f"{key}={default}"
                               for key, (_, default) in _declared(h).items())
            assert (f"experiment={exp}: {listed}" if exp else listed) in lines

    @pytest.mark.parametrize("coeffs", ["nan,1,1,1", "1e400,1,1,1"])
    def test_non_finite_coeffs_are_one_line_error(self, tmp_path, capsys, coeffs):
        for experiment in ("hastings", "matrix-coeff"):
            out = tmp_path / experiment
            argv = ["--out", str(out), "appendix", "-p", f"experiment={experiment}", "-p", "n=4",
                    "-p", "N=4", "-p", "samples=10", "-p", f"coeffs={coeffs}"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
                assert main(argv) == 1
            line = one_error_line(capsys)
            assert line == "error: coeffs must be nonempty and finite"
            rec = json.loads((out / "run.json").read_text())
            assert rec["status"] == "failed" and rec["error"] == line[len("error: "):]
