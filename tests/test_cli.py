import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import walklab
from walklab.cli import cli

BERN = '{"family": "bernoulli", "p": 0.7}'
BERN_EXACT = '{"family": "bernoulli", "p": "7/10"}'
DET = '{"family": "deterministic", "d": 1, "v": [1]}'


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

    def test_config_seeds_used(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"law": {"family": "deterministic",
                                           "d": 1, "v": [1]},
                                   "seeds": [11, 22]}))
        res = runner.invoke(cli, ["--config", str(cfg), "verify-slln",
                                  "--n", "64", "--alphas", "1"])
        assert res.exit_code == 0


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


def test_import_leaves_scipy_unloaded():
    # scipy.special is imported only when a chi-square p-value is needed
    src = str(Path(walklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, walklab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
