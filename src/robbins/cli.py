"""Command-line front end: point interval computation, single-cell simulation,
table reproduction and the likelihood-ratio crossing check.

Weight functions use one flat syntax, family:p1,p2[,p3,p4]:

    normal:mu0,tau0sq | beta:alpha,beta | nig:mu0,kappa0,alpha0,beta0 | logodds

Defaults: epsilon 0.2, reps 10000, seed 42 (overridable via ROBBINS_SEED),
--threads = available cores, counted in worker processes (forked where the platform
allows; results do not depend on it).  All defaults are echoed in the output metadata.
Exit codes: 0 success, 1 numerical/runtime failure, 2 argument validation.
A JSON --config file may supply any long option (keys are option names with
dashes as underscores); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, bernoulli, engine, normal, simulation, two_bernoulli
from .core import (BetaWeight, LogOddsJeffreysInduced, NormalInverseGamma, NormalWeight,
                   PersistenceLevel, _require_sigma0_sq)
from .simulation import (_WEIGHT_FAMILY, Model, Rule, SequencePlan, compare_to_reference,
                         reproduce_table, run_plan)

DEFAULT_EPSILON = 0.2
DEFAULT_REPS = 10_000
_THREADS_HELP = "worker processes (default: available cores); results do not depend on it"


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _default_seed() -> int:
    raw = os.environ.get("ROBBINS_SEED", "42")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"ROBBINS_SEED must be an integer, got {raw!r}")


# --weight families: the weight type and its parameter names
_FAMILIES = {"normal": (NormalWeight, ("mu0", "tau0sq")), "beta": (BetaWeight, ("alpha", "beta")),
             "nig": (NormalInverseGamma, ("mu0", "kappa0", "alpha0", "beta0")),
             "logodds": (LogOddsJeffreysInduced, ())}


def parse_weight(spec: str):
    """Parse family:p1,p2[,p3,p4] into a weight object."""
    family, _, rest = spec.partition(":")
    family = family.strip().lower()
    try:
        params = [float(x) for x in rest.split(",") if x.strip() != ""]
    except ValueError:
        raise CliError(f"--weight: non-numeric parameter in {spec!r}")
    if family not in _FAMILIES:
        raise CliError(f"--weight: unknown family {family!r} (expected {' | '.join(_FAMILIES)})")
    cls, names = _FAMILIES[family]
    if len(params) != len(names):
        raise CliError(f"--weight {family} takes {','.join(names)}; got {len(params)} values"
                       if names else f"--weight {family} takes no parameters")
    return _stat(cls, *params, context="--weight: ")


def _values(args, names):
    return [getattr(args, name.lstrip("-").replace("-", "_")) for name in names]


def _require(args, names, context):
    for name, value in zip(names, _values(args, names)):
        if value is None:
            raise CliError(f"{context} requires {name}")


def _stat(cls, *values, context=""):
    """cls(*values): a statistic, weight, level or check; invalid values are a usage error."""
    try:
        return cls(*values)
    except ValueError as exc:
        raise CliError(f"{context}{exc}")


def _level(args) -> PersistenceLevel:
    eps = args.epsilon if args.epsilon is not None else DEFAULT_EPSILON
    return _stat(PersistenceLevel, eps, context="--epsilon: ")


def _conf(args) -> float:
    if args.conf is None:
        raise CliError(f"rule {args.rule!r} requires --conf")
    if not (0.0 < args.conf < 1.0):
        raise CliError(f"--conf must lie in (0, 1), got {args.conf}")
    return args.conf


# ---------------------------------------------------------------------------
# interval
# ---------------------------------------------------------------------------

# each model's statistic type and options; normal reads its statistic after the rule's weight and
# level, with a positive --sigma2hat for the unknown-variance rules, the others before the rule
_MODELS = {"normal": (normal.NormalSuffStat, ("--n", "--ybar"), ("--sigma2hat",)),
           "bernoulli": (bernoulli.BernoulliSuffStat, ("--n", "--s"), None),
           "two-bernoulli": (two_bernoulli.TwoSampleStat, ("--n1", "--n2", "--s1", "--s2"), None)}


def _nig(stat, w, level, args):
    if stat.n < 2:
        raise CliError(f"rule nig requires --n >= 2, got {stat.n}")
    return normal.nig_profile_interval(stat, w, level), {
        "threshold": level.log_epsilon + normal.nig_log_marginal(stat, w)}


def _arcsine_weight(w):
    if isinstance(w, BetaWeight):
        return bernoulli.omega_weight_from_beta(w)
    if not isinstance(w, NormalWeight):
        raise CliError("--weight: rule approx takes a normal weight on the arcsine "
                       "scale, or a beta weight to be moment-matched")
    return w


def _logodds_weight(w):
    if w is not None and not isinstance(w, LogOddsJeffreysInduced):
        raise CliError("--weight: the exact conditional rule uses the built-in "
                       "log-odds weight (logodds)")
    return w


def _conditional(stat, w, level, args):
    iv, log_qn = two_bernoulli._conditional_region(stat, level)
    return iv, {"threshold": level.log_epsilon + log_qn.value,
                "mixture_rel_error": log_qn.rel_error}


# each (model, rule) of `robbins interval`: the further options it requires, its weight family
# (None for a fixed-level rule at --conf; a function for a rule that checks --weight itself) and
# a call(stat, weight, level, args) returning the interval and its extra metadata
_RULES = {
    ("normal", "classical"): (("--sigma2",), None, lambda st, w, conf, a: (
        normal.classical_interval(st, a.sigma2, conf), {})),
    ("normal", "exact"): (("--sigma2", "--weight"), NormalWeight, lambda st, w, lv, a: (
        normal.robbins_interval_known_var(st, a.sigma2, w, lv),
        {"threshold": lv.log_epsilon + normal.exact_log_mixture(st, a.sigma2, w).value})),
    ("normal", "nig"): (("--sigma2hat", "--weight"), NormalInverseGamma, _nig),
    ("normal", "approx"): (("--sigma2hat", "--weight"), NormalWeight, lambda st, w, lv, a: (
        normal.approx_interval_unknown_var(st, w, lv), {})),
    ("bernoulli", "exact"): (("--weight",), BetaWeight, lambda st, w, lv, a: (
        bernoulli.robbins_interval_bernoulli(st, w, lv),
        {"threshold": lv.log_epsilon + bernoulli.beta_binomial_log_pmf(st, w)})),
    ("bernoulli", "lr"): ((), None, lambda st, w, conf, a: (bernoulli.lr_interval(st, conf), {})),
    ("bernoulli", "approx"): (("--weight",), _arcsine_weight, lambda st, w, lv, a: (
        bernoulli.arcsine_approx_interval(st, w, lv),
        {"omega_weight": f"normal:{w.mu0:g},{w.tau0_sq:g}"})),
    ("two-bernoulli", "exact"): ((), _logodds_weight, _conditional),
    ("two-bernoulli", "approx"): (("--weight",), NormalWeight, lambda st, w, lv, a: (
        two_bernoulli.approx_interval_log_odds(st, w, lv), {})),
    ("two-bernoulli", "wald"): ((), None, lambda st, w, conf, a: (
        two_bernoulli.wald_interval(st, conf), {})),
}


def _weight(w, family):
    if isinstance(family, type) and not isinstance(w, family):
        raise CliError(f"--weight: expected a {family.__name__} for this model/rule, "
                       f"got {type(w).__name__}")
    return w if isinstance(family, type) else family(w)


def cmd_interval(args) -> int:
    if args.model not in _MODELS:
        raise CliError(f"--model must be one of {sorted(_MODELS)}, got {args.model!r}")
    stat_type, options, late = _MODELS[args.model]
    _require(args, options, f"model {args.model}")
    stat = None if late else _stat(stat_type, *_values(args, options))
    rule = args.rule or "exact"
    if (args.model, rule) not in _RULES:
        rules = " | ".join(r for m, r in _RULES if m == args.model)
        raise CliError(f"--rule {rule!r} is not valid for model {args.model} ({rules})")
    more, family, call = _RULES[args.model, rule]
    _require(args, more, f"rule {rule}")
    if "--sigma2" in more:                  # a known variance is checked before the weight
        _stat(_require_sigma0_sq, args.sigma2)
    if family is not None:
        w, level = _weight(args.weight, family), _level(args)
    if late:
        stat = _stat(stat_type, *_values(args, options + tuple(o for o in more if o in late)))
        if stat.sigma_hat_sq is not None:
            _stat(stat._require_variance)
    if family is None:                      # a fixed level is read after the statistic
        w, level = None, _conf(args)
    iv, extra = call(stat, w, level, args)
    meta = {"model": args.model, "rule": rule, "seed": args.seed,
            **({"conf": level} if family is None else {"epsilon": level.epsilon}), **extra}
    if args.format == "json":
        print(json.dumps({"lower": iv.lower, "upper": iv.upper, **meta}))
    elif args.format == "csv":
        print(",".join(["lower", "upper", *meta]))
        print(",".join([f"{iv.lower:.10g}", f"{iv.upper:.10g}", *map(str, meta.values())]))
    else:
        print(f"{iv.lower:.4f} {iv.upper:.4f}")
        for k, v in meta.items():
            print(f"# {k}={v}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.model not in (m.value for m in Model):
        raise CliError(f"--model must be one of {[m.value for m in Model]}, got {args.model!r}")
    model = Model(args.model)
    rule_name = args.rule or ("exact" if model != Model.TWO_BERNOULLI else "approx")
    if rule_name not in (r.value for r in Rule):
        raise CliError(f"--rule must be one of {sorted(r.value for r in Rule)}, got {rule_name!r}")
    rule = Rule(rule_name)
    names = ["--theta1", "--theta2"] if model == Model.TWO_BERNOULLI else ["--theta"]
    _require(args, names, f"model {model.value}")
    truth = (args.theta1, args.theta2) if model == Model.TWO_BERNOULLI else args.theta
    # a rule that takes a weight on some model runs at --epsilon, the others at --conf
    if any(family for (_, r), family in _WEIGHT_FAMILY.items() if r == rule):
        level, weight = _level(args).epsilon, args.weight
        _require(args, ["--weight"], f"rule {rule_name}")
    else:
        level, weight = _conf(args), None
    try:
        plan = SequencePlan(model=model, truth=truth, rule=rule, level=level,
                            weight=weight, n_min=args.nmin, n_max=args.nmax,
                            reps=args.reps, seed=args.seed, sigma0_sq=args.sigma2)
    except ValueError as exc:
        raise CliError(str(exc))
    row = run_plan(plan, threads=_threads(args))
    report = simulation.TableReport(table="-", rows=(row,))
    _emit_report(report, args)
    return 0


def _threads(args) -> int:
    if args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _emit_report(report, args) -> None:
    if args.format == "json":
        text = report.json_text()
    elif args.format == "plain":
        text = "".join(f"{r.row_label} level={r.level:g}: "
                       f"contradictions={r.contradictions_pct:.2f}% (se {r.se_contra:.3f}), "
                       f"non-coverages={r.noncoverages_pct:.2f}% (se {r.se_noncov:.3f}) "
                       f"[reps={r.reps} n={r.nmin}..{r.nmax} seed={r.seed}]\n"
                       for r in report.rows)
    else:
        text = report.csv_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", code=1)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# reproduce-table
# ---------------------------------------------------------------------------

def cmd_reproduce_table(args) -> int:
    table_id = str(args.id).upper()
    if not table_id.startswith("T"):
        table_id = "T" + table_id
    if table_id not in simulation.TABLE_IDS:
        raise CliError(f"--id must be 1..5, got {args.id!r}")
    try:
        report = reproduce_table(table_id, reps=args.reps, seed=args.seed, threads=_threads(args))
    except ValueError as exc:           # reps out of range: a usage error
        raise CliError(str(exc))
    _emit_report(report, args)
    comps = compare_to_reference(report)
    worst = max(comps, key=lambda c: abs(c.delta))
    outside = [c for c in comps if not c.within]
    print(f"{table_id}: {len(comps)} cells vs bundled reference; "
          f"max |observed-reference| = {abs(worst.delta):.3f} pts "
          f"({worst.metric} at {worst.row_label}, level {worst.level:g})")
    if outside:
        print(f"{len(outside)} cell(s) outside 3 combined SEs:")
        for c in outside:
            print(f"  {c.row_label} level {c.level:g} {c.metric}: "
                  f"observed {c.observed:.2f} vs reference {c.expected:.2f} "
                  f"(tolerance {c.tolerance:.3f})")
    else:
        print("all cells within 3 combined SEs of the reference")
    return 0


# ---------------------------------------------------------------------------
# ville-check
# ---------------------------------------------------------------------------

def _bernoulli_ville_path(theta, sigma2, w):
    if not (0.0 < theta < 1.0):
        raise CliError(f"--theta must lie in (0, 1) for bernoulli, got {theta}")
    return bernoulli.ville_log_ratio_path(theta, w)


# ville-check models: the default weight and truth, and the path builder(theta, sigma2, weight);
# the weight family is the exact rule's
_VILLE = {"normal": (NormalWeight(0.0, 1.0), 0.0, normal.ville_log_ratio_path),
          "bernoulli": (BetaWeight(1.0, 1.0), 0.5, _bernoulli_ville_path)}


def cmd_ville_check(args) -> int:
    if args.k is None:
        raise CliError("--k is required")
    if not args.k > 1.0:
        raise CliError(f"--k must exceed 1 for a meaningful bound, got {args.k}")
    model = args.model or "normal"
    if model not in _VILLE:
        raise CliError(f"--model must be {' or '.join(_VILLE)}, got {model!r}")
    default_weight, theta, path = _VILLE[model]
    w = default_weight if args.weight is None else args.weight
    family = _WEIGHT_FAMILY[Model(model), Rule.ROBBINS_EXACT]
    if not isinstance(w, family):
        name = next(n for n, (cls, _) in _FAMILIES.items() if cls is family)
        raise CliError(f"--weight: {model} model takes a {name} weight")
    theta = theta if args.theta is None else args.theta
    try:
        res = engine.verify_ville_inequality(path(theta, args.sigma2, w), k=args.k,
                                             n_max=args.nmax, reps=args.reps, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    verdict = "PASS" if res.passed else "FAIL"
    fields = {"estimate": res.estimate, "bound": res.bound, "std_error": res.std_error,
              "crossings": res.crossings, "reps": res.reps, "k": res.k, "n_max": args.nmax,
              "model": model, "theta": theta, "seed": args.seed, "verdict": verdict}
    if args.format == "json":
        print(json.dumps(fields))
    elif args.format == "csv":              # one header row and one value row, as interval's
        print(",".join(fields) + "\n" + ",".join(map(str, fields.values())))
    else:
        print(f"crossing estimate {res.estimate:.4f} (se {res.std_error:.4f}) "
              f"vs bound 1/k = {res.bound:.4f}: {verdict}")
        print(f"# model={model} theta={theta} k={args.k} nmax={args.nmax} "
              f"reps={res.reps} seed={args.seed}")
    return 0 if res.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="RNG master seed (default 42, "
                   "or ROBBINS_SEED)")
    p.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of option defaults (explicit flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robbins",
                                     description="Anytime-valid confidence sequences: "
                                                 "intervals, simulations, table reproduction.")
    parser.add_argument("--version", action="version", version=f"robbins {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("interval", help="compute one confidence-sequence interval")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--rule", type=str, default=None, help="; ".join(
        f"{m}: {'|'.join(r for n, r in _RULES if n == m)}" for m in _MODELS) + " (default exact)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ybar", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=None, help="known variance (normal)")
    p.add_argument("--sigma2hat", type=float, default=None, help="MLE variance (normal, unknown-variance rules)")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--s1", type=int, default=None)
    p.add_argument("--s2", type=int, default=None)
    p.add_argument("--weight", type=str, default=None,
                   help="family:params, e.g. normal:0,1 | beta:0.5,0.5 | "
                        "nig:1,8,2,1 | logodds")
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"persistence epsilon (default {DEFAULT_EPSILON})")
    p.add_argument("--conf", type=float, default=None, help="confidence level for "
                   "classical/lr/wald rules")
    _add_common(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("simulate", help="run one simulation cell")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--rule", type=str, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--theta1", type=float, default=None)
    p.add_argument("--theta2", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--weight", type=str, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--conf", type=float, default=None)
    p.add_argument("--nmin", type=int, default=10)
    p.add_argument("--nmax", type=int, default=4000)
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1, help=_THREADS_HELP)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-table", help="re-run a bundled table grid")
    p.add_argument("--id", type=str, default=None, help="table id, 1..5")
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1, help=_THREADS_HELP)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reproduce_table, format="csv")

    p = sub.add_parser("ville-check", help="Monte Carlo check of the crossing bound")
    p.add_argument("--model", type=str, default="normal")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--weight", type=str, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--nmax", type=int, default=2000)
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    _add_common(p)
    p.set_defaults(func=cmd_ville_check)

    return parser


def _load_config(argv):
    """Extract --config from argv and return its JSON dict (or {})."""
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise CliError("--config requires a file path")
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            continue
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"--config: cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"--config: invalid JSON in {path}: {exc}")
        if not isinstance(cfg, dict):
            raise CliError("--config: file must contain a JSON object")
        return {k.replace("-", "_"): v for k, v in cfg.items()}
    return {}


def _inject_config(argv, cfg):
    """Splice config entries in as options right after the subcommand; options
    given explicitly on the command line come later and therefore win."""
    if not cfg:
        return argv
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            inject = []
            for key, value in cfg.items():
                inject += [f"--{key.replace('_', '-')}", str(value)]
            return argv[: i + 1] + inject + argv[i + 1:]
    raise CliError("--config requires a command")


# one parser for every main call: --config is spliced into argv, the seed read per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        argv = _inject_config(argv, _load_config(argv))
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return 2
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        if isinstance(getattr(args, "weight", None), str):
            args.weight = parse_weight(args.weight)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
