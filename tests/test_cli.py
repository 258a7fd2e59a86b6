import argparse
import csv
import json

import pytest

from robbins import cli
from robbins.core import BetaWeight, NormalInverseGamma, NormalWeight, PersistenceLevel
from robbins import bernoulli, normal, two_bernoulli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


EPS = PersistenceLevel(0.2)
NORMAL_STAT = normal.NormalSuffStat(100, 0.1)
BERNOULLI_STAT = bernoulli.BernoulliSuffStat(100, 40)
TWO_SAMPLE = ["--n1", "30", "--n2", "70", "--s1", "20", "--s2", "30"]
TWO_SAMPLE_STAT = two_bernoulli.TwoSampleStat(30, 70, 20, 30)


def _conditional():
    log_qn = two_bernoulli.conditional_log_mixture(TWO_SAMPLE_STAT)
    return (two_bernoulli.robbins_conditional_interval(TWO_SAMPLE_STAT, EPS),
            {"epsilon": 0.2, "threshold": EPS.log_epsilon + log_qn.value,
             "mixture_rel_error": log_qn.rel_error})


def _arcsine(weight):
    return (bernoulli.arcsine_approx_interval(BERNOULLI_STAT, weight, EPS),
            {"epsilon": 0.2, "omega_weight": f"normal:{weight.mu0:g},{weight.tau0_sq:g}"})


# valid `robbins interval` calls, each with the library's (interval, metadata after the seed)
# and, where a figure is known, the printed endpoints
INTERVAL_CASES = {
    "normal-classical": (
        ["--model", "normal", "--rule", "classical", "--n", "100", "--ybar", "0.1",
         "--sigma2", "2", "--conf", "0.95"],
        lambda: (normal.classical_interval(NORMAL_STAT, 2.0, 0.95), {"conf": 0.95}), None),
    "normal-exact": (
        ["--model", "normal", "--rule", "exact", "--n", "100", "--ybar", "0.1", "--sigma2", "2",
         "--weight", "normal:0,1"],
        lambda: (normal.robbins_interval_known_var(NORMAL_STAT, 2.0, NormalWeight(0, 1), EPS),
                 {"epsilon": 0.2, "threshold": EPS.log_epsilon + normal.exact_log_mixture(
                     NORMAL_STAT, 2.0, NormalWeight(0, 1)).value}), None),
    "normal-nig": (
        ["--model", "normal", "--rule", "nig", "--n", "100", "--ybar", "0", "--sigma2hat", "1",
         "--weight", "nig:1,8,2,1", "--epsilon", "0.2"],
        lambda: (normal.nig_profile_interval(normal.NormalSuffStat(100, 0.0, 1.0),
                                             NormalInverseGamma(1, 8, 2, 1), EPS),
                 {"epsilon": 0.2, "threshold": EPS.log_epsilon + normal.nig_log_marginal(
                     normal.NormalSuffStat(100, 0.0, 1.0), NormalInverseGamma(1, 8, 2, 1))}),
        "-0.4333 0.4333"),
    "normal-approx": (
        ["--model", "normal", "--rule", "approx", "--n", "100", "--ybar", "0.1",
         "--sigma2hat", "1.5", "--weight", "normal:0,1"],
        lambda: (normal.approx_interval_unknown_var(normal.NormalSuffStat(100, 0.1, 1.5),
                                                    NormalWeight(0, 1), EPS), {"epsilon": 0.2}),
        None),
    # true endpoint 0.267225 displays as 0.2672; the 4-decimal reference figure 0.2673
    # is one ulp up (covered by the last-digit acceptance rule)
    "bernoulli-exact": (
        ["--model", "bernoulli", "--n", "100", "--s", "40", "--weight", "beta:0.5,0.5",
         "--epsilon", "0.2"],
        lambda: (bernoulli.robbins_interval_bernoulli(BERNOULLI_STAT, BetaWeight(0.5, 0.5), EPS),
                 {"epsilon": 0.2, "threshold": EPS.log_epsilon + bernoulli.beta_binomial_log_pmf(
                     BERNOULLI_STAT, BetaWeight(0.5, 0.5))}),
        "0.2672 0.5435"),
    "bernoulli-exact-uniform": (
        ["--model", "bernoulli", "--rule", "exact", "--n", "100", "--s", "40",
         "--weight", "beta:1,1", "--epsilon", "0.2"],
        lambda: (bernoulli.robbins_interval_bernoulli(BERNOULLI_STAT, BetaWeight(1, 1), EPS),
                 {"epsilon": 0.2, "threshold": EPS.log_epsilon + bernoulli.beta_binomial_log_pmf(
                     BERNOULLI_STAT, BetaWeight(1, 1))}), None),
    "bernoulli-lr": (
        ["--model", "bernoulli", "--rule", "lr", "--n", "100", "--s", "40", "--conf", "0.995"],
        lambda: (bernoulli.lr_interval(BERNOULLI_STAT, 0.995), {"conf": 0.995}), "0.2702 0.5400"),
    "bernoulli-approx": (
        ["--model", "bernoulli", "--rule", "approx", "--n", "100", "--s", "40",
         "--weight", "normal:0.7,0.1"],
        lambda: _arcsine(NormalWeight(0.7, 0.1)), None),
    "bernoulli-approx-beta": (
        ["--model", "bernoulli", "--rule", "approx", "--n", "100", "--s", "40",
         "--weight", "beta:2,3"],
        lambda: _arcsine(bernoulli.omega_weight_from_beta(BetaWeight(2, 3))), None),
    "two-bernoulli-exact": (
        ["--model", "two-bernoulli", "--rule", "exact", *TWO_SAMPLE, "--epsilon", "0.2"],
        _conditional, "-0.2508 2.2933"),
    "two-bernoulli-exact-logodds": (
        ["--model", "two-bernoulli", *TWO_SAMPLE, "--weight", "logodds"], _conditional, None),
    "two-bernoulli-approx": (
        ["--model", "two-bernoulli", *TWO_SAMPLE, "--weight", "normal:0,19.7392",
         "--epsilon", "0.2", "--rule", "approx"],
        lambda: (two_bernoulli.approx_interval_log_odds(TWO_SAMPLE_STAT, NormalWeight(0, 19.7392),
                                                        EPS), {"epsilon": 0.2}), None),
    "two-bernoulli-wald": (
        ["--model", "two-bernoulli", "--rule", "wald", *TWO_SAMPLE, "--conf", "0.9"],
        lambda: (two_bernoulli.wald_interval(TWO_SAMPLE_STAT, 0.9), {"conf": 0.9}), None),
}

# each (model, rule) of `robbins interval`: a valid call (a key of INTERVAL_CASES), the options
# it requires with the context its message names, and a weight of the wrong family with the
# message that rejects it (None for a fixed-level rule)
_GENERIC = "--weight: expected a {} for this model/rule, got {}"
INTERVAL_ROWS = {
    ("normal", "classical"): ("normal-classical", {"--sigma2": "rule classical",
                                                   "--conf": "rule 'classical'"}, None),
    ("normal", "exact"): ("normal-exact", {"--sigma2": "rule exact", "--weight": "rule exact"},
                          ("beta:1,1", _GENERIC.format("NormalWeight", "BetaWeight"))),
    ("normal", "nig"): ("normal-nig", {"--sigma2hat": "rule nig", "--weight": "rule nig"},
                        ("normal:0,1", _GENERIC.format("NormalInverseGamma", "NormalWeight"))),
    ("normal", "approx"): ("normal-approx", {"--sigma2hat": "rule approx", "--weight": "rule approx"},
                           ("nig:1,8,2,1", _GENERIC.format("NormalWeight", "NormalInverseGamma"))),
    ("bernoulli", "exact"): ("bernoulli-exact", {"--weight": "rule exact"},
                             ("normal:0,1", _GENERIC.format("BetaWeight", "NormalWeight"))),
    ("bernoulli", "lr"): ("bernoulli-lr", {"--conf": "rule 'lr'"}, None),
    ("bernoulli", "approx"): ("bernoulli-approx", {"--weight": "rule approx"},
                              ("nig:1,8,2,1", "--weight: rule approx takes a normal weight on the "
                               "arcsine scale, or a beta weight to be moment-matched")),
    ("two-bernoulli", "exact"): ("two-bernoulli-exact", {},
                                 ("normal:0,1", "--weight: the exact conditional rule uses the "
                                  "built-in log-odds weight (logodds)")),
    ("two-bernoulli", "approx"): ("two-bernoulli-approx", {"--weight": "rule approx"},
                                  ("logodds", _GENERIC.format("NormalWeight",
                                                              "LogOddsJeffreysInduced"))),
    ("two-bernoulli", "wald"): ("two-bernoulli-wald", {"--conf": "rule 'wald'"}, None),
}
MODEL_OPTIONS = {"normal": ["--n", "--ybar"], "bernoulli": ["--n", "--s"],
                 "two-bernoulli": ["--n1", "--n2", "--s1", "--s2"]}


def _id(value):
    return "-".join(value) if isinstance(value, tuple) else value.lstrip("-")


def _without(argv, option):
    i = argv.index(option)
    return argv[:i] + argv[i + 2:]


class TestIntervalRows:
    """Every (model, rule) row of `robbins interval`: its interval and metadata, its
    required options and its weight family."""

    @pytest.mark.parametrize("case", list(INTERVAL_CASES))
    def test_matches_library(self, capsys, case):
        argv, library, figure = INTERVAL_CASES[case]
        iv, meta = library()
        rc, out, err = run(capsys, "interval", *argv, "--format", "json")
        assert (rc, err) == (0, "")
        model = argv[argv.index("--model") + 1]
        rule = argv[argv.index("--rule") + 1] if "--rule" in argv else "exact"
        expected = {"lower": iv.lower, "upper": iv.upper, "model": model, "rule": rule,
                    "seed": 42, **meta}
        obj = json.loads(out)
        assert obj == expected
        assert list(obj) == list(expected)
        rc, out, _ = run(capsys, "interval", *argv)
        assert rc == 0
        assert out.splitlines() == [f"{iv.lower:.4f} {iv.upper:.4f}"] + [
            f"# {k}={v}" for k, v in list(expected.items())[2:]]
        if figure is not None:
            assert out.splitlines()[0] == figure

    @pytest.mark.parametrize("row, option", [
        (row, option) for row, (_, rule_options, _) in INTERVAL_ROWS.items()
        for option in MODEL_OPTIONS[row[0]] + list(rule_options)], ids=_id)
    def test_missing_option_named(self, capsys, row, option):
        case, rule_options, _ = INTERVAL_ROWS[row]
        context = rule_options.get(option, f"model {row[0]}")
        rc, out, err = run(capsys, "interval", *_without(INTERVAL_CASES[case][0], option))
        assert (rc, out, err) == (2, "", f"error: {context} requires {option}\n")

    @pytest.mark.parametrize("row", [row for row, spec in INTERVAL_ROWS.items() if spec[2]],
                             ids=_id)
    def test_wrong_weight_family_rejected(self, capsys, row):
        case, _, (weight, message) = INTERVAL_ROWS[row]
        argv = INTERVAL_CASES[case][0]
        argv = (_without(argv, "--weight") if "--weight" in argv else argv) + ["--weight", weight]
        rc, out, err = run(capsys, "interval", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("model", list(MODEL_OPTIONS))
    def test_unknown_rule_lists_the_model_rules(self, capsys, model):
        case = INTERVAL_ROWS[model, "exact"][0]
        rc, out, err = run(capsys, "interval", *INTERVAL_CASES[case][0], "--rule", "bogus")
        rules = " | ".join(rule for m, rule in INTERVAL_ROWS if m == model)
        assert (rc, out, err) == (2, "", f"error: --rule 'bogus' is not valid for model "
                                         f"{model} ({rules})\n")


class TestIntervalCommand:
    def test_epsilon_boundary_rejected(self, capsys):
        rc, _, err = run(capsys, "interval", "--model", "normal", "--n", "100",
                         "--ybar", "0", "--sigma2", "1", "--weight", "normal:0,1",
                         "--epsilon", "1")
        assert rc == 2
        assert "--epsilon" in err

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

    def test_csv_is_a_header_and_a_row_of_the_json_fields(self, capsys):
        # --format csv once printed the plain-text report
        argv = ("ville-check", "--model", "bernoulli", "--k", "5", "--reps", "50", "--nmax", "100")
        rc, out, _ = run(capsys, *argv, "--format", "csv")
        obj = json.loads(run(capsys, *argv, "--format", "json")[1])
        assert rc == 0
        assert list(csv.reader(out.splitlines())) == [list(obj), [str(v) for v in obj.values()]]

    def test_bernoulli_default_tie_counts(self, capsys):
        # under the defaults (theta 0.5, beta:1,1) q_3/p_3 = 2 exactly at s = 0 or 3; the float
        # loop that once ran here counted 0 of these 97 crossings
        rc, out, _ = run(capsys, "ville-check", "--model", "bernoulli", "--k", "2", "--nmax", "3",
                         "--reps", "400", "--seed", "1", "--format", "json")
        assert rc == 0
        assert '"crossings": 97' in out


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

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_is_a_usage_error(self, capsys, reps):
        # once exit 1, the runtime failure code; simulate --reps 0 exits 2
        rc, out, err = run(capsys, "reproduce-table", "--id", "1", "--reps", reps)
        assert (rc, out) == (2, "")
        assert err == f"error: reps must be >= 1, got {reps}\n"

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
