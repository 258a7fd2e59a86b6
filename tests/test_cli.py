import argparse
import csv
import json

import pytest

from robbins import cli
from robbins.core import BetaWeight, NormalWeight, PersistenceLevel
from robbins import bernoulli, two_bernoulli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestIntervalCommand:
    def test_bernoulli_exact_printout(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                         "--s", "40", "--weight", "beta:0.5,0.5", "--epsilon", "0.2")
        assert rc == 0
        # true endpoint 0.267225 displays as 0.2672; the 4-decimal reference
        # figure 0.2673 is one ulp up (covered by the last-digit acceptance rule)
        assert out.splitlines()[0] == "0.2672 0.5435"
        assert "# threshold=" in out

    def test_epsilon_boundary_rejected(self, capsys):
        rc, _, err = run(capsys, "interval", "--model", "normal", "--n", "100",
                         "--ybar", "0", "--sigma2", "1", "--weight", "normal:0,1",
                         "--epsilon", "1")
        assert rc == 2
        assert "--epsilon" in err

    def test_two_bernoulli_approx_printout(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "two-bernoulli", "--n1", "30",
                         "--n2", "70", "--s1", "20", "--s2", "30",
                         "--weight", "normal:0,19.7392", "--epsilon", "0.2",
                         "--rule", "approx")
        assert rc == 0
        lo, hi = map(float, out.splitlines()[0].split())
        iv = two_bernoulli.approx_interval_log_odds(
            two_bernoulli.TwoSampleStat(30, 70, 20, 30),
            NormalWeight(0.0, 19.7392), PersistenceLevel(0.2))
        assert lo == round(iv.lower, 4)
        assert hi == round(iv.upper, 4)

    def test_round_trip_matches_library(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                         "--s", "40", "--weight", "beta:1,1", "--epsilon", "0.2")
        lo, hi = map(float, out.splitlines()[0].split())
        iv = bernoulli.robbins_interval_bernoulli(
            bernoulli.BernoulliSuffStat(100, 40), BetaWeight(1, 1), PersistenceLevel(0.2))
        assert (lo, hi) == (round(iv.lower, 4), round(iv.upper, 4))

    def test_lr_rule(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "bernoulli", "--rule", "lr",
                         "--n", "100", "--s", "40", "--conf", "0.995")
        assert rc == 0
        assert out.splitlines()[0] == "0.2702 0.5400"

    def test_nig_rule(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "normal", "--rule", "nig",
                         "--n", "100", "--ybar", "0", "--sigma2hat", "1",
                         "--weight", "nig:1,8,2,1", "--epsilon", "0.2")
        assert rc == 0
        assert out.splitlines()[0] == "-0.4333 0.4333"

    def test_conditional_rule(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "two-bernoulli", "--rule", "exact",
                         "--n1", "30", "--n2", "70", "--s1", "20", "--s2", "30",
                         "--epsilon", "0.2")
        assert rc == 0
        lo, hi = map(float, out.splitlines()[0].split())
        assert lo == pytest.approx(-0.2508, abs=1e-4)
        assert hi == pytest.approx(2.2933, abs=1e-4)

    def test_conditional_rule_runs_one_quadrature(self, capsys, monkeypatch):
        calls = []
        mixture = two_bernoulli.trapezoid_log_mixture

        def counted(*args, **kwargs):
            calls.append(args)
            return mixture(*args, **kwargs)

        monkeypatch.setattr(two_bernoulli, "trapezoid_log_mixture", counted)
        rc, out, _ = run(capsys, "interval", "--model", "two-bernoulli", "--rule", "exact",
                         "--n1", "30", "--n2", "70", "--s1", "20", "--s2", "30",
                         "--epsilon", "0.2", "--format", "json")
        assert rc == 0
        assert len(calls) == 1
        obj = json.loads(out)
        stat, level = two_bernoulli.TwoSampleStat(30, 70, 20, 30), PersistenceLevel(0.2)
        iv = two_bernoulli.robbins_conditional_interval(stat, level)
        assert (obj["lower"], obj["upper"]) == (iv.lower, iv.upper)
        log_qn = two_bernoulli.conditional_log_mixture(stat)
        assert obj["threshold"] == level.log_epsilon + log_qn.value
        assert obj["mixture_rel_error"] == log_qn.rel_error <= 1e-8

    def test_missing_argument_named(self, capsys):
        rc, _, err = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                         "--weight", "beta:1,1")
        assert rc == 2
        assert "--s" in err

    def test_unknown_weight_family(self, capsys):
        rc, _, err = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                         "--s", "40", "--weight", "cauchy:0,1")
        assert rc == 2
        assert "--weight" in err

    @pytest.mark.parametrize("argv", [
        ["--model", "bernoulli", "--n", "100", "--s", "40", "--weight", "beta:inf,1"],
        ["--model", "normal", "--rule", "nig", "--n", "100", "--ybar", "0.3",
         "--sigma2hat", "1", "--weight", "nig:nan,1,2,1"]], ids=["beta-inf", "nig-nan-mu0"])
    def test_non_finite_weight_is_a_usage_error(self, capsys, argv):
        # once exit 1, with invalid level-set or interval endpoints
        rc, out, err = run(capsys, "interval", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --weight: ") and "finite" in err

    def test_json_format_echoes_defaults(self, capsys):
        rc, out, _ = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                         "--s", "40", "--weight", "beta:0.5,0.5", "--format", "json")
        obj = json.loads(out)
        assert rc == 0
        assert obj["seed"] == 42
        assert obj["epsilon"] == 0.2            # default echoed
        assert obj["lower"] == pytest.approx(0.26722523, abs=1e-6)
        assert "threshold" in obj

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBBINS_SEED", "7")
        rc, out, _ = run(capsys, "interval", "--model", "bernoulli", "--n", "10",
                         "--s", "3", "--weight", "beta:1,1")
        assert rc == 0
        assert "# seed=7" in out


    @pytest.mark.parametrize("rule, stat", [
        (["--rule", "exact", "--sigma2", "1", "--weight", "normal:0,1"], ["--ybar", "nan"]),
        (["--rule", "classical", "--sigma2", "1", "--conf", "0.9"], ["--ybar=-inf"]),
        (["--rule", "nig", "--weight", "nig:1,8,2,1"], ["--ybar", "0", "--sigma2hat", "nan"]),
        (["--rule", "approx", "--weight", "normal:0,1"], ["--ybar", "0", "--sigma2hat", "inf"]),
    ], ids=["exact-nan-ybar", "classical-inf-ybar", "nig-nan-sigma2hat", "approx-inf-sigma2hat"])
    def test_non_finite_normal_statistic_is_a_usage_error(self, capsys, rule, stat):
        # once exit 1, "interval endpoints must be finite", the runtime failure code
        rc, out, err = run(capsys, "interval", "--model", "normal", "--n", "10", *rule, *stat)
        assert rc == 2
        assert out == ""
        assert "must be finite" in err and ("ybar" in err or "sigma_hat_sq" in err)

    @pytest.mark.parametrize("rule, stat, message", [
        (["--rule", "nig", "--weight", "nig:1,8,2,1"], ["--n", "10", "--sigma2hat", "0"],
         "strictly positive sigma_hat_sq"),
        (["--rule", "approx", "--weight", "normal:0,1"], ["--n", "10", "--sigma2hat", "0"],
         "strictly positive sigma_hat_sq"),
        (["--rule", "nig", "--weight", "nig:1,8,2,1"], ["--n", "1", "--sigma2hat", "0.5"],
         "--n >= 2"),
    ], ids=["nig-zero-sigma2hat", "approx-zero-sigma2hat", "nig-n-1"])
    def test_degenerate_unknown_variance_statistic_is_a_usage_error(self, capsys, rule, stat,
                                                                      message):
        # once exit 1, the runtime failure code
        rc, out, err = run(capsys, "interval", "--model", "normal", "--ybar", "0", *rule, *stat)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("sigma2", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("rule", [["--rule", "exact", "--weight", "normal:0,1"],
                                      ["--rule", "classical", "--conf", "0.9"]],
                             ids=["exact", "classical"])
    def test_bad_known_variance_is_a_usage_error(self, capsys, rule, sigma2):
        # once exit 1, the runtime failure code, with a misleading message
        rc, out, err = run(capsys, "interval", "--model", "normal", "--n", "10",
                           "--ybar", "0", *rule, f"--sigma2={sigma2}")
        assert rc == 2
        assert out == ""
        assert "sigma0_sq must be finite and positive" in err

    @pytest.mark.parametrize("argv", [
        ["--model", "bernoulli", "--n", "10", "--s", "20", "--weight", "beta:1,1"],
        ["--model", "two-bernoulli", "--n1", "10", "--n2", "10", "--s1", "20", "--s2", "3",
         "--rule", "wald", "--conf", "0.9"]], ids=["bernoulli", "two-bernoulli"])
    def test_count_out_of_range_is_a_usage_error(self, capsys, argv):
        rc, _, err = run(capsys, "interval", *argv)
        assert rc == 2
        assert "must lie in" in err


class TestConfigFile:
    def test_config_and_flags_equivalent(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "bernoulli", "n": 100, "s": 40,
                                   "weight": "beta:0.5,0.5", "epsilon": 0.2}))
        rc1, out1, _ = run(capsys, "interval", "--config", str(cfg))
        rc2, out2, _ = run(capsys, "interval", "--model", "bernoulli", "--n", "100",
                           "--s", "40", "--weight", "beta:0.5,0.5", "--epsilon", "0.2")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "bernoulli", "n": 100, "s": 40,
                                   "weight": "beta:0.5,0.5", "epsilon": 0.5}))
        _, out_cfg, _ = run(capsys, "interval", "--config", str(cfg))
        _, out_flag, _ = run(capsys, "interval", "--config", str(cfg), "--epsilon", "0.2")
        assert out_cfg != out_flag
        assert "epsilon=0.2" in out_flag

    def test_bad_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run(capsys, "interval", "--config", str(cfg))
        assert rc == 2
        assert "--config" in err


    def test_calls_do_not_leak_into_each_other(self, capsys, tmp_path, monkeypatch):
        # main reuses one parser; neither a config file nor ROBBINS_SEED may carry over
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps({"model": "bernoulli", "n": 100, "s": 40,
                                     "weight": "beta:0.5,0.5", "epsilon": 0.5}))
        second.write_text(json.dumps({"model": "normal", "n": 10, "ybar": 0.3,
                                      "sigma2": 1.0, "weight": "normal:0,1"}))
        outs = {}
        for name, cfg, seed in (("second", second, "11"), ("first", first, "7"),
                                ("second again", second, "11")):
            monkeypatch.setenv("ROBBINS_SEED", seed)
            rc, outs[name], _ = run(capsys, "interval", "--config", str(cfg), "--format", "json")
            assert rc == 0
        assert outs["second again"] == outs["second"]
        first_obj, second_obj = json.loads(outs["first"]), json.loads(outs["second"])
        assert (first_obj["model"], first_obj["seed"], first_obj["epsilon"]) == ("bernoulli", 7, 0.5)
        assert (second_obj["model"], second_obj["seed"], second_obj["epsilon"]) == ("normal", 11, 0.2)

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        argv = ("interval", "--model", "bernoulli", "--n", "10", "--s", "3", "--weight", "beta:1,1")
        rc, out, _ = run(capsys, *argv)
        monkeypatch.setattr(argparse, "ArgumentParser", None)     # a rebuild would fail
        assert run(capsys, *argv) == (rc, out, "")


class TestVilleCheckCommand:
    def test_small_k_rejected(self, capsys):
        rc, _, err = run(capsys, "ville-check", "--k", "0.5")
        assert rc == 2
        assert "--k" in err

    def test_infinite_k_rejected(self, capsys):
        # once a PASS whose JSON held "k": Infinity, which is not JSON
        rc, out, err = run(capsys, "ville-check", "--k", "inf", "--reps", "20", "--nmax", "50",
                           "--format", "json")
        assert rc == 2
        assert out == ""
        assert "k must satisfy 1 < k < inf" in err

    @pytest.mark.parametrize("size", [["--reps", "-5"], ["--reps", "0"], ["--nmax", "0"]])
    def test_degenerate_sizes_rejected(self, capsys, size):
        rc, out, err = run(capsys, "ville-check", "--k", "10", *size)
        assert rc == 2
        assert "PASS" not in out
        assert "reps >= 1 and n_max >= 1" in err

    @pytest.mark.parametrize("bad", [["--theta", "nan"], ["--theta", "inf"],
                                     ["--sigma2", "inf"], ["--sigma2", "0"]])
    def test_non_finite_or_zero_input_is_a_usage_error(self, capsys, bad):
        # exit 2 is a usage error, exit 1 the FAIL verdict; NaN paths once read PASS
        rc, out, err = run(capsys, "ville-check", "--model", "normal", "--k", "10",
                           "--reps", "20", "--nmax", "50", *bad)
        assert rc == 2
        assert out == ""
        assert "finite theta and a finite positive sigma0_sq" in err

    def test_normal_pass(self, capsys):
        rc, out, _ = run(capsys, "ville-check", "--k", "5", "--reps", "300",
                         "--nmax", "200")
        assert rc == 0
        assert "PASS" in out
        assert "bound 1/k = 0.2000" in out

    def test_bernoulli_pass_json(self, capsys):
        rc, out, _ = run(capsys, "ville-check", "--model", "bernoulli", "--theta", "0.7",
                         "--k", "20", "--reps", "300", "--nmax", "200",
                         "--format", "json")
        obj = json.loads(out)
        assert rc == 0
        assert obj["verdict"] == "PASS"
        assert obj["estimate"] <= obj["bound"] + 3 * obj["std_error"] + 1e-12


class TestSimulateCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "cell.csv"
        rc, out, _ = run(capsys, "simulate", "--model", "bernoulli", "--theta", "0.5",
                         "--rule", "lr", "--conf", "0.95", "--nmin", "100",
                         "--nmax", "300", "--reps", "50", "--format", "csv",
                         "--out", str(out_file))
        assert rc == 0
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 1
        assert float(rows[0]["contradictions_pct"]) <= float(rows[0]["noncoverages_pct"])

    def test_plain_summary(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--model", "two-bernoulli", "--theta1", "0.2",
                         "--theta2", "0.25", "--rule", "approx", "--weight", "normal:0,5",
                         "--epsilon", "0.2", "--nmin", "50", "--nmax", "150",
                         "--reps", "40")
        assert rc == 0
        assert "contradictions=" in out and "non-coverages=" in out


    @pytest.mark.parametrize("flags", [["--weight", "normal:nan,1"], ["--sigma2", "0"]])
    def test_non_finite_or_zero_scale_rejected(self, capsys, flags):
        rc, _, err = run(capsys, "simulate", "--model", "normal", "--theta", "0",
                         "--rule", "exact", "--weight", "normal:0,1", "--epsilon", "0.2",
                         "--nmin", "10", "--nmax", "50", "--reps", "5", *flags)
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, capsys, threads):
        rc, _, err = run(capsys, "simulate", "--model", "bernoulli", "--theta", "0.5",
                         "--rule", "lr", "--conf", "0.95", "--nmin", "10", "--nmax", "30",
                         "--reps", "5", "--threads", threads)
        assert rc == 2
        assert "--threads" in err


class TestReproduceTableCommand:
    def test_small_run_keeps_invariant(self, capsys, tmp_path):
        out_file = tmp_path / "t1.csv"
        rc, out, _ = run(capsys, "reproduce-table", "--id", "1", "--reps", "100",
                         "--out", str(out_file))
        assert rc == 0
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 4
        for row in rows:
            assert float(row["contradictions_pct"]) <= float(row["noncoverages_pct"])
        assert "max |observed-reference|" in out

    def test_t5_moderate_reps_other_seed_within_tolerance(self, capsys, tmp_path):
        out_file = tmp_path / "t5.csv"
        rc, out, _ = run(capsys, "reproduce-table", "--id", "5", "--reps", "2000",
                         "--seed", "7", "--out", str(out_file))
        assert rc == 0
        assert "all cells within 3 combined SEs of the reference" in out

    def test_invalid_id(self, capsys):
        rc, _, err = run(capsys, "reproduce-table", "--id", "9")
        assert rc == 2
        assert "--id" in err

    def test_zero_threads_rejected(self, capsys):
        rc, _, err = run(capsys, "reproduce-table", "--id", "1", "--reps", "5",
                         "--threads", "0")
        assert rc == 2
        assert "--threads" in err

    def test_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "t1.json"
        rc, _, _ = run(capsys, "reproduce-table", "--id", "1", "--reps", "50",
                       "--format", "json", "--out", str(out_file))
        assert rc == 0
        obj = json.loads(out_file.read_text())
        assert obj["table"] == "T1"


def test_no_command_shows_help(capsys):
    rc = cli.main([])
    out = capsys.readouterr().out
    assert rc == 2
    assert "interval" in out
