import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import walklab
from walklab.cli import _emit, _Run, cli, main

BERN = '{"family": "bernoulli", "p": 0.7}'
BERN_EXACT = '{"family": "bernoulli", "p": "7/10"}'
DET = '{"family": "deterministic", "d": 1, "v": [1]}'
DET_EXACT = '{"family": "deterministic", "d": 1, "v": [1], "exact": true}'
SRW3 = '{"family": "srw", "d": 3}'


@pytest.fixture
def runner():
    return CliRunner()


class TestEstimateGamma:
    def test_green(self, runner):
        res = runner.invoke(cli, ["--seed", "1", "estimate-gamma",
                                  "--law", BERN, "--method", "green", "--N", "400"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["method"] == "green_series"
        assert abs(out["value"] - 0.4) < 1e-9

    def test_dp(self, runner):
        res = runner.invoke(cli, ["estimate-gamma", "--law", BERN,
                                  "--method", "dp", "--N", "400"])
        out = json.loads(res.output)
        assert out["method"] == "taboo_dp"
        assert abs(out["value"] - 0.4) < 1e-6

    def test_mc(self, runner):
        res = runner.invoke(cli, ["--seed", "9", "estimate-gamma", "--law", BERN,
                                  "--method", "mc", "--n", "500", "--M", "4000"])
        out = json.loads(res.output)
        assert out["method"] == "mc_escape"
        assert abs(out["value"] - 0.4) < 0.05
        assert out["seed"] == 9

    def test_budget_names_constant_and_step(self, runner, monkeypatch):
        monkeypatch.setattr(walklab.gamma, "CELL_BUDGET", 1000)
        res = runner.invoke(cli, ["estimate-gamma", "--law", '{"family": "srw", "d": 5}',
                                  "--method", "dp", "--N", "1000"])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ResourceLimit)
        assert str(res.exception) == ("dense pmf box (5, 5, 5, 5, 5) at step 2 "
                                      "exceeds CELL_BUDGET = 1000 cells; "
                                      "lower the horizon (--N, --n or --gamma-n)")

    @pytest.mark.parametrize("args", [
        ["estimate-gamma", "--method", "green", "--N", "2"],
        ["estimate-gamma", "--method", "dp", "--N", "0"],
        ["verify-slln", "--gamma-n", "0", "--n", "64"],
    ], ids=["green-N-2", "dp-N-0", "verify-slln-gamma-n-0"])
    def test_horizon_below_fit_window_is_error(self, runner, args):
        res = runner.invoke(cli, [*args, "--law", SRW3])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.BadParam)
        assert "TAIL_FIT_START" in str(res.exception)

    @pytest.mark.parametrize("method,flags,unread", [
        ("green", ["--N", "64", "--n", "5", "--M", "3"], "--n, --M"),
        ("mc", ["--n", "50", "--M", "10", "--N", "999"], "--N"),
        ("dp", ["--N", "64", "--M", "3"], "--M"),
    ], ids=["green", "mc", "dp"])
    def test_unread_flag_is_error(self, runner, method, flags, unread):
        res = runner.invoke(cli, ["estimate-gamma", "--law", BERN, "--method", method,
                                  *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception) == (f"estimate-gamma --method {method} "
                                      f"does not read {unread}")

    def test_recurrent_is_error(self, runner):
        res = runner.invoke(cli, ["estimate-gamma",
                                  "--law", '{"family": "srw", "d": 1}',
                                  "--method", "green", "--N", "1024"])
        assert res.exit_code != 0


class TestPredict:
    def test_moment_with_gamma(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "moment",
                                  "--alpha", "2", "--gamma", "0.4"])
        out = json.loads(res.output)
        assert abs(out["value"] - 4.0) < 1e-8

    def test_geom(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "geom",
                                  "--u", "2", "--gamma", "0.4"])
        assert abs(json.loads(res.output)["value"] - 0.24) < 1e-12

    def test_qj_exact_rational(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "qj-exact",
                                  "--law", BERN_EXACT, "--j", "2", "--n", "2"])
        out = json.loads(res.output)
        assert out["value"]["rational"] == "21/50"

    def test_gf(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "gf", "--law", BERN_EXACT,
                                  "--j", "1", "--s", "0.0", "--N", "4"])
        assert json.loads(res.output)["value"] == 1.0

    def test_green_cross(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "green-cross",
                                  "--law", BERN, "--n", "1"])
        assert abs(json.loads(res.output)["value"] - 0.42) < 1e-12

    def test_sup_pmf(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "sup-pmf",
                                  "--law", BERN, "--n", "2"])
        assert abs(json.loads(res.output)["value"] - 0.49) < 1e-12

    def test_missing_flag_is_error(self, runner):
        res = runner.invoke(cli, ["predict", "--what", "moment", "--gamma", "0.4"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("what,flags,error,message", [
        ("qj-exact", ["--n", "4"], walklab.ConfigError, "predict --what qj-exact needs --j"),
        ("gf", ["--N", "4", "--s", "0.5"], walklab.ConfigError, "predict --what gf needs --j"),
        ("qj-exact", ["--n", "4", "--j", "0"], walklab.BadParam, "j must be >= 1, got 0"),
        ("gf", ["--N", "4", "--j", "0", "--s", "0.5"], walklab.BadParam,
         "j must be >= 1, got 0"),
        ("gf", ["--N", "4", "--j", "1", "--s", "1.5"], walklab.BadParam,
         "s must be in [0, 1), got 1.5"),
    ], ids=["qj-exact-flags0", "gf-flags1", "qj-exact-j0", "gf-j0", "gf-s1.5"])
    def test_flags_checked_before_computation(self, runner, monkeypatch, what, flags,
                                              error, message):
        def computed(*args):
            raise AssertionError("taboo_survival ran before the flags were checked")
        monkeypatch.setattr(walklab.cli, "taboo_survival", computed)
        res = runner.invoke(cli, ["predict", "--what", what, "--law", BERN_EXACT, *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, error)
        assert str(res.exception) == message

    @pytest.mark.parametrize("what,flags,unread", [
        ("qj", ["--gamma", "0.4", "--j", "2", "--alpha", "3"], "--alpha"),
        ("moment", ["--gamma", "0.4", "--alpha", "2", "--u", "1", "--N", "8"],
         "--u, --N"),
        ("qj-exact", ["--law", BERN_EXACT, "--n", "4", "--j", "1", "--gamma", "0.4"],
         "--gamma"),
        ("qj", ["--gamma", "0.4", "--j", "2", "--tol", "1e-3"], "--tol"),
    ], ids=["qj-alpha", "moment-u-N", "qj-exact-gamma", "qj-tol"])
    def test_unread_flag_is_error(self, runner, what, flags, unread):
        res = runner.invoke(cli, ["predict", "--what", what, *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception) == f"predict --what {what} does not read {unread}"

    @pytest.mark.parametrize("flags,word", [
        (["--alpha", "nan"], "alpha"),
        (["--alpha", "2", "--tol", "0"], "tol"),
        (["--alpha", "700"], "overflows"),
    ], ids=["alpha-nan", "tol-zero", "alpha-700"])
    def test_moment_bad_input_is_bad_param(self, runner, flags, word):
        res = runner.invoke(cli, ["predict", "--what", "moment", "--gamma", "0.5",
                                  *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.BadParam)
        assert word in str(res.exception)


class TestOracleCommand:
    def test_bernoulli_n2(self, runner):
        res = runner.invoke(cli, ["oracle", "--law", BERN_EXACT,
                                  "--n", "2", "--alphas", "2"])
        out = json.loads(res.output)
        assert out["expected_q"]["1"]["rational"] == "54/25"
        assert out["zn_law"]["2"]["rational"] == "21/100"
        assert out["gamma_seq"][2]["rational"] == "29/50"

    def test_float_law_is_error(self, runner):
        res = runner.invoke(cli, ["oracle", "--law", BERN, "--n", "2"])
        assert res.exit_code != 0

    def test_duplicate_alphas_are_bad_param(self, runner):
        res = runner.invoke(cli, ["oracle", "--law", BERN_EXACT, "--n", "2",
                                  "--alphas", "2,2"])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.BadParam)
        assert str(res.exception) == "alphas must be distinct; repeated: 2"

    def test_horizon_past_recursion_limit_runs(self, capsys):
        # one path only, so PATH_BUDGET passes; no call nests per step
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--law", DET_EXACT, "--n", "1200", "--alphas", "2"])
        assert exc.value.code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["expected_q"] == {"1": {"rational": "1201/1", "decimal": 1201.0}}


class TestSimulateCommand:
    def test_json_records(self, runner):
        res = runner.invoke(cli, ["--seed", "4", "simulate", "--law", DET,
                                  "--n", "8", "--alphas", "1,2",
                                  "--checkpoints", "4,8"])
        out = json.loads(res.output)
        recs = {(r["n"], r["alpha"]): r for r in out["records"]}
        assert recs[(8, 1.0)]["L"] == 9.0
        assert recs[(8, 2.0)]["R"] == 9

    def test_csv_format(self, runner):
        res = runner.invoke(cli, ["--format", "csv", "simulate", "--law", DET,
                                  "--n", "4", "--alphas", "1"])
        assert res.output.splitlines()[0] == "n,alpha,L,L_over_n,R,R_over_n"

    @pytest.mark.parametrize("args", [
        ["simulate", "--law", DET, "--n", "4", "--alphas", "1"],
        ["verify-geometric", "--law", DET, "--n", "64", "--M", "500"],
    ], ids=lambda args: args[0])
    def test_csv_built_only_when_used(self, runner, monkeypatch, tmp_path, args):
        # JSON on stdout and no --out: the CSV is neither printed nor saved
        build = walklab.harness.csv_text

        def refuse(records):
            raise AssertionError("CSV built for a JSON run without --out")

        monkeypatch.setattr(walklab.cli, "csv_text", refuse)
        monkeypatch.setattr(walklab.harness, "csv_text", refuse)
        res = runner.invoke(cli, ["--seed", "2", *args])
        assert res.exit_code == 0, res.output
        json.loads(res.output)
        monkeypatch.setattr(walklab.cli, "csv_text", build)
        monkeypatch.setattr(walklab.harness, "csv_text", build)
        out = tmp_path / "out"
        saved = runner.invoke(cli, ["--seed", "2", "--out", str(out), *args])
        assert saved.exit_code == 0 and saved.output == res.output
        assert (out / f"{args[0]}.csv").read_text().count("\n") >= 2

    @pytest.mark.parametrize("args", [
        ["estimate-gamma", "--law", BERN, "--method", "green", "--N", "64"],
        ["predict", "--what", "geom", "--u", "2", "--gamma", "0.4"],
        ["oracle", "--law", BERN_EXACT, "--n", "2"],
        ["return-tail", "--law", BERN],
    ], ids=lambda args: args[0])
    def test_csv_format_refused_without_csv_form(self, runner, args):
        res = runner.invoke(cli, ["--format", "csv", *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception).startswith(f"--format csv: {args[0]} has no CSV form")


class TestVerdictExitCodes:
    def test_pass_is_zero(self, runner):
        res = runner.invoke(cli, ["--seed", "2", "verify-geometric", "--law", DET,
                                  "--n", "64", "--M", "500"])
        assert res.exit_code == 0

    def test_fail_is_two(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "law": {"family": "bernoulli", "p": 0.7},
            "tolerances": {"rel_tol": 1e-12},
        }))
        res = runner.invoke(cli, ["--config", str(cfg), "--seed", "3",
                                  "verify-slln", "--n", "512", "--alphas", "2",
                                  "--paths", "1"])
        assert res.exit_code == 2

    def test_error_is_nonzero_nontwo(self, runner):
        res = runner.invoke(cli, ["estimate-gamma", "--law", "not json",
                                  "--method", "green"])
        assert res.exit_code not in (0, 2)


class TestMalformedJson:
    def _main_error(self, capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_law_flag(self, capsys):
        err = self._main_error(capsys, ["estimate-gamma", "--law", "not json",
                                        "--method", "green"])
        assert err.startswith("error: --law is not valid JSON")

    @pytest.mark.parametrize("law,key", [
        ('{"family": "srw", "d": 3, "exact": "false"}', "exact"),
        ('{"family": "srw", "d": 2.5}', "d"),
        ('{"family": "custom", "d": 1, "atoms": [5]}', "atoms"),
        ('{"family": "deterministic", "v": [1.5]}', "v"),
    ], ids=["exact-string", "d-fractional", "atom-not-object", "v-fractional"])
    def test_law_descriptor_value(self, capsys, law, key):
        err = self._main_error(capsys, ["estimate-gamma", "--law", law,
                                        "--method", "dp", "--N", "8"])
        assert err.startswith("error: ") and repr(key) in err

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        err = self._main_error(capsys, ["--config", str(cfg), "simulate",
                                        "--law", DET])
        assert err.startswith(f"error: config file {cfg} is not valid JSON")


class TestThreads:
    @pytest.mark.parametrize("args", [
        ["variance-scan", "--law", SRW3, "--n-min", "32", "--n-max", "256",
         "--M", "15"],
        ["verify-slln", "--law", SRW3, "--n", "4096", "--paths", "2"],
        ["verify-geometric", "--law", SRW3, "--n", "4096", "--M", "1000",
         "--paths", "2"],
        ["estimate-gamma", "--law", SRW3, "--method", "mc", "--n", "128",
         "--M", "300"],
    ], ids=["variance-scan", "verify-slln", "verify-geometric", "estimate-gamma-mc"])
    def test_stdout_does_not_depend_on_threads(self, runner, args):
        one = runner.invoke(cli, ["--seed", "4", "--threads", "1", *args])
        two = runner.invoke(cli, ["--seed", "4", "--threads", "2", *args])
        assert one.exit_code in (0, 2), one.output
        assert (two.exit_code, two.stdout_bytes) == (one.exit_code, one.stdout_bytes)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, runner, threads):
        res = runner.invoke(cli, ["--threads", threads, "estimate-gamma", "--law", BERN,
                                  "--method", "mc", "--n", "16", "--M", "10"])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert "--threads" in str(res.exception)


class TestConfig:
    def test_unknown_top_level_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"law": {"family": "srw", "d": 3}, "extra": 1}')
        res = runner.invoke(cli, ["--config", str(cfg), "simulate", "--n", "4"])
        assert res.exit_code != 0

    def test_unknown_tolerance_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"tolerances": {"fudge": 2}}')
        res = runner.invoke(cli, ["--config", str(cfg), "simulate",
                                  "--law", DET, "--n", "4"])
        assert res.exit_code != 0

    def test_law_from_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"law": {"family": "deterministic",
                                           "d": 1, "v": [1]},
                                   "experiment": {"n": 8}}))
        res = runner.invoke(cli, ["--config", str(cfg), "simulate"])
        out = json.loads(res.output)
        assert out["checkpoints"][-1] == 8

    def test_experiment_gamma_n_used(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"gamma_n": 8}}))
        res = runner.invoke(cli, ["--config", str(cfg), "verify-slln", "--law", DET,
                                  "--n", "64", "--alphas", "1", "--paths", "1"])
        assert res.exit_code == 0
        assert json.loads(res.output)["gamma"]["params"]["N"] == 8

    def test_experiment_alphas_used_by_oracle(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"alphas": [4]}}))
        res = runner.invoke(cli, ["--config", str(cfg), "oracle",
                                  "--law", BERN_EXACT, "--n", "2"])
        assert res.exit_code == 0
        assert list(json.loads(res.output)["expected_l"]) == ["4"]

    @pytest.mark.parametrize("key,args", [
        ("method", ["estimate-gamma", "--law", BERN, "--method", "green",
                    "--N", "64"]),
        ("bogus", ["predict", "--what", "geom", "--u", "2", "--gamma", "0.4"]),
        ("bogus", ["return-tail", "--law", BERN]),
    ], ids=["estimate-gamma-method", "predict-bogus", "return-tail-bogus"])
    def test_unread_experiment_key_rejected(self, runner, tmp_path, key, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {key: 1}}))
        res = runner.invoke(cli, ["--config", str(cfg), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert repr(key) in str(res.exception)

    @pytest.mark.parametrize("key,args", [
        ("rel_tol", ["variance-scan", "--law", DET, "--n-min", "16", "--n-max", "64",
                     "--M", "3"]),
        ("tv_bar", ["verify-slln", "--law", DET, "--n", "64", "--alphas", "1"]),
        ("slope_cap", ["verify-geometric", "--law", DET, "--n", "64", "--M", "10"]),
        ("safety", ["simulate", "--law", DET, "--n", "4"]),
        ("p_floor", ["predict", "--what", "geom", "--u", "2", "--gamma", "0.4"]),
    ], ids=["variance-scan-rel_tol", "verify-slln-tv_bar",
            "verify-geometric-slope_cap", "simulate-safety", "predict-p_floor"])
    def test_unread_tolerance_rejected(self, runner, tmp_path, key, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {key: 0.5}}))
        res = runner.invoke(cli, ["--config", str(cfg), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert repr(key) in str(res.exception)

    def test_tolerances_read(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"tv_bar": 0.5, "p_floor": 0}}))
        res = runner.invoke(cli, ["--config", str(cfg), "verify-geometric",
                                  "--law", DET, "--n", "64", "--M", "10"])
        assert json.loads(res.output)["tolerances"] == {"tv_bar": 0.5, "p_floor": 0.0}
        cfg.write_text(json.dumps({"tolerances": {"slope_cap": 1.5, "safety": 3}}))
        args = ["--config", str(cfg), "variance-scan", "--law", DET,
                "--n-min", "16", "--n-max", "64", "--M", "3"]
        res = runner.invoke(cli, args)
        assert json.loads(res.output)["tolerances"] == {"safety": 3.0, "slope_cap": 1.5}
        res = runner.invoke(cli, args + ["--slope-cap", "2"])
        assert json.loads(res.output)["tolerances"]["slope_cap"] == 2.0
        # slope_cap is a tolerance only, so no second section can set it
        cfg.write_text(json.dumps({"experiment": {"slope_cap": 9}}))
        res = runner.invoke(cli, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception) == "unknown experiment keys: ['slope_cap']"

    @pytest.mark.parametrize("config,key,args", [
        ({"experiment": {"n": "abc"}}, "n", ["simulate", "--law", DET]),
        ({"tolerances": {"tv_bar": "x"}}, "tv_bar",
         ["verify-geometric", "--law", DET, "--n", "64", "--M", "10"]),
        ({"experiment": {"alphas": 2}}, "alphas", ["simulate", "--law", DET]),
        ({"seeds": ["s"]}, "seeds", ["verify-slln", "--law", DET, "--n", "64"]),
        ({}, "alphas", ["simulate", "--law", DET, "--alphas", "1,a"]),
        ({"experiment": {"n": 4.7}}, "n", ["simulate", "--law", DET]),
        ({"experiment": {"n": True}}, "n", ["simulate", "--law", DET]),
        ({"experiment": {"checkpoints": [8, 16.5]}}, "checkpoints",
         ["verify-slln", "--law", DET, "--alphas", "1"]),
        ({"seeds": [1, 2.5]}, "seeds", ["verify-slln", "--law", DET, "--n", "64"]),
        ({"tolerances": {"tv_bar": True}}, "tv_bar",
         ["verify-geometric", "--law", DET, "--n", "64", "--M", "10"]),
        ({"tolerances": {"tv_bar": float("inf"), "p_floor": -float("inf")}}, "tv_bar",
         ["--seed", "7", "verify-geometric", "--law", SRW3, "--n", "20000",
          "--M", "2000", "--paths", "2"]),
        ({"tolerances": {"p_floor": float("nan")}}, "p_floor",
         ["verify-geometric", "--law", DET, "--n", "64", "--M", "10"]),
        ({"tolerances": {"rel_tol": False}}, "rel_tol", ["verify-slln", "--law", DET]),
        ({"tolerances": {"safety": float("inf")}}, "safety", ["variance-scan", "--law", DET]),
        ({}, "slope_cap", ["variance-scan", "--law", DET, "--slope-cap", "inf"]),
        ({}, "alphas", ["simulate", "--law", DET, "--alphas", "1,nan"]),
    ], ids=["experiment-n", "tolerance-tv_bar", "alphas-not-a-list", "seeds",
            "alphas-flag", "n-fractional", "n-boolean", "checkpoints-fractional",
            "seeds-fractional", "tv_bar-boolean", "tolerances-infinite",
            "p_floor-nan", "rel_tol-boolean", "safety-infinite", "slope-cap-flag-inf",
            "alphas-nan"])
    def test_wrong_type_is_config_error(self, runner, tmp_path, config, key, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = runner.invoke(cli, ["--config", str(cfg), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert repr(key) in str(res.exception)

    def test_integral_float_is_an_integer(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"n": 4.0}}))
        res = runner.invoke(cli, ["--config", str(cfg), "simulate", "--law", DET])
        assert res.exit_code == 0
        assert json.loads(res.output)["checkpoints"] == [4]

    def test_config_seeds_used(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"law": {"family": "deterministic",
                                           "d": 1, "v": [1]},
                                   "seeds": [11, 22]}))
        res = runner.invoke(cli, ["--config", str(cfg), "verify-slln",
                                  "--n", "64", "--alphas", "1"])
        assert res.exit_code == 0


    @pytest.mark.parametrize("args", [
        ["simulate", "--law", DET, "--n", "4"],
        ["estimate-gamma", "--law", BERN, "--method", "green", "--N", "64"],
        ["estimate-gamma", "--law", BERN, "--method", "mc", "--n", "16", "--M", "10"],
        ["variance-scan", "--law", DET, "--n-min", "16", "--n-max", "64", "--M", "3"],
        ["predict", "--what", "geom", "--u", "2", "--gamma", "0.4"],
        ["oracle", "--law", BERN_EXACT, "--n", "2"],
        ["return-tail", "--law", BERN],
    ], ids=["simulate", "estimate-gamma-green", "estimate-gamma-mc", "variance-scan",
            "predict", "oracle", "return-tail"])
    def test_unread_seeds_rejected(self, runner, tmp_path, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [1, 2, 3]}))
        res = runner.invoke(cli, ["--config", str(cfg), *args])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert "'seeds'" in str(res.exception)


class TestNoVacuousVerdict:
    @pytest.mark.parametrize("command", ["verify-slln", "verify-geometric"])
    @pytest.mark.parametrize("config,flags", [({}, ["--paths", "0"]), ({"seeds": []}, [])],
                             ids=["paths-0", "seeds-empty"])
    def test_no_seed_is_config_error(self, runner, tmp_path, command, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = runner.invoke(cli, ["--config", str(cfg), command, "--law", DET,
                                  "--n", "64", *flags])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        key = "'seeds' = []" if config else "'paths' = 0"
        assert str(res.exception) == f"{key}: the run needs at least one seed"

    @pytest.mark.parametrize("config,flags", [({}, ["--paths", "0"]), ({"seeds": []}, [])],
                             ids=["paths-0", "seeds-empty"])
    def test_no_seed_fails_before_gamma(self, runner, tmp_path, monkeypatch, config, flags):
        # the seeds are checked first: a long Green series can run for minutes
        def no_gamma(*args):
            raise AssertionError("gamma estimated before the seeds were checked")
        monkeypatch.setattr(walklab.cli, "green_at_origin", no_gamma)
        monkeypatch.setattr(walklab.cli, "auto_gamma", no_gamma)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for gamma_flags in ([], ["--gamma-n", "1000000"]):
            res = runner.invoke(cli, ["--config", str(cfg), "verify-slln", "--law", SRW3,
                                      "--n", "64", *flags, *gamma_flags])
            assert res.exit_code == 1
            assert isinstance(res.exception, walklab.ConfigError), res.exception


class TestFailBeforeReplicas:
    @pytest.fixture(autouse=True)
    def no_replica(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("ran before the flags were checked")
        monkeypatch.setattr(walklab.harness, "simulate", no_run)
        monkeypatch.setattr(walklab.harness, "auto_gamma", no_run)

    @pytest.mark.parametrize("n_min,n_max,grid", [
        ("4096", "1024", "[1024]"), ("65536", "65536", "[65536]"),
        ("1024", "2048", "[1024, 2048]"),
    ], ids=["n-min-above-n-max", "one-point", "two-points"])
    def test_variance_grid_below_three_points(self, runner, n_min, n_max, grid):
        res = runner.invoke(cli, ["variance-scan", "--law", '{"family": "srw", "d": 5}',
                                  "--n-min", n_min, "--n-max", n_max, "--M", "200"])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception) == (
            f"'n_min' = {n_min} and 'n_max' = {n_max} give the grid {grid}; "
            "variance-scan needs >= 3 points, so n_max > 2 * n_min")

    def test_geometric_no_resample(self, runner):
        res = runner.invoke(cli, ["verify-geometric", "--law", SRW3, "--n", "1000",
                                  "--M", "0"])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.BadParam)
        assert str(res.exception) == "resample count must be >= 1, got 0"


class TestDoublingGrid:
    @pytest.mark.parametrize("args,key", [
        (["variance-scan", "--n-min", "0"], "n_min"),
        (["variance-scan", "--n-min", "-4"], "n_min"),
        (["simulate", "--n", "0"], "n"),
        (["verify-slln", "--n", "-3"], "n"),
    ], ids=["n-min-zero", "n-min-negative", "simulate-n-zero", "verify-slln-n-negative"])
    def test_start_below_one_is_config_error(self, runner, args, key):
        res = runner.invoke(cli, [*args, "--law", DET])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert f"{key!r} must be >= 1" in str(res.exception)

    @pytest.mark.parametrize("args,experiment", [
        (["simulate", "--n", "100", "--checkpoints", "10,50"], {}),
        (["verify-slln", "--n", "100"], {"checkpoints": [10, 50]}),
        (["verify-slln"], {"n": 100, "checkpoints": [10, 50]}),
    ], ids=["simulate-flags", "verify-slln-flag", "verify-slln-config"])
    def test_given_n_must_be_last_checkpoint(self, runner, tmp_path, args, experiment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment}))
        res = runner.invoke(cli, ["--config", str(cfg), *args, "--law", DET])
        assert res.exit_code == 1
        assert isinstance(res.exception, walklab.ConfigError)
        assert str(res.exception) == "'n' = 100 is not the last checkpoint 50"

    def test_empty_checkpoints_reach_simulate_series(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"checkpoints": []}}))
        res = runner.invoke(cli, ["--config", str(cfg), "simulate", "--law", DET])
        assert isinstance(res.exception, walklab.BadParam)
        assert "checkpoints must be nonempty" in str(res.exception)


class TestOutFiles:
    def test_report_files_reproducible(self, runner, tmp_path):
        args = ["--seed", "5", "verify-geometric", "--law", DET,
                "--n", "512", "--M", "2000"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(cli, ["--out", str(out1)] + args)
        r2 = runner.invoke(cli, ["--out", str(out2)] + args)
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ("verify-geometric.json", "verify-geometric.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_writes_strict_json(capsys):
    _emit(_Run(), "x", {"a": float("nan"), "b": [float("inf"), 1.5]})
    assert capsys.readouterr().out == json.dumps(
        {"a": None, "b": [None, 1.5]}, sort_keys=True, indent=2) + "\n"


def test_return_tail_infinite_decay_is_null(runner):
    res = runner.invoke(cli, ["return-tail", "--law", DET, "--n", "4", "--N", "64"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert (out["eta_hat"], out["infinite_decay"], out["windows"]) == (None, True, [])


@pytest.mark.parametrize("n, big_n", [(1, 64), (0, 4)])
def test_return_tail_empty_first_block_is_null(runner, n, big_n):
    res = runner.invoke(cli, ["return-tail", "--law", SRW3, "--n", str(n),
                              "--N", str(big_n)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["windows"][0] == {"start": 1, "slope": None}
    assert all(w["slope"] is not None for w in out["windows"][1:])


def test_return_tail_too_few_blocks_is_not_infinite_decay(runner):
    res = runner.invoke(cli, ["return-tail", "--law", SRW3, "--n", "16", "--N", "40"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["value"] > 0
    assert (out["eta_hat"], out["infinite_decay"]) == (None, False)


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the package itself never imports it
    src = str(Path(walklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, walklab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
