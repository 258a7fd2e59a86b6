"""Every module in src/robbins (the package __init__ aside) and every test
module uses each name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "robbins").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never loads; a name
    listed in a module-level __all__ counts as used (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_keeps_used():
    source = ("import math\nimport os.path\nfrom numpy import nan as missing, inf\n"
              "from .x import y\n__all__ = ['y']\nprint(math.pi, inf)\n")
    assert unused_imports(source) == ["missing (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_import_leaves_adaptive_quadrature_unloaded():
    # scipy.integrate (~26 MB resident, ~0.25 s) is imported only by the
    # functions that call quad, none of which a default interval rule uses
    code = ("import sys, robbins, robbins.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_package_import_leaves_multiprocessing_unloaded():
    # the chunk workers' pool imports it on first use; at import time it would add
    # ~12 ms to every start, and to each CLI call
    code = ("import sys, robbins, robbins.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# Every default rule, a level-set and a closed-form kernel cell, and one CLI
# interval per model; the adaptive quadrature (and the Beta-to-arcsine moment
# match built on it) is the one route that may load scipy.
_DEFAULT_RULES = """
import contextlib, io, sys
import robbins as r, robbins.cli as cli
from robbins import Model, Rule, SequencePlan
eps, nw, bw = r.PersistenceLevel(0.05), r.NormalWeight(0.0, 1.0), r.BetaWeight(1.0, 1.0)
ns, ns_var = r.NormalSuffStat(50, 0.1), r.NormalSuffStat(50, 0.1, 1.2)
bs, ts = r.BernoulliSuffStat(100, 40), r.TwoSampleStat(45, 45, 20, 30)
r.robbins_interval_known_var(ns, 1.0, nw, eps); r.classical_interval(ns, 1.0, 0.95)
r.nig_profile_interval(ns_var, r.NormalInverseGamma(0.0, 1.0, 2.0, 1.0), eps)
r.approx_interval_unknown_var(ns_var, nw, eps)
r.robbins_interval_bernoulli(bs, bw, eps); r.lr_interval(bs, 0.95)
r.beta_binomial_log_pmf(bs, bw); r.arcsine_approx_interval(bs, r.NormalWeight(0.7, 0.2), eps)
r.robbins_conditional_interval(ts, eps); r.approx_interval_log_odds(ts, nw, eps)
r.wald_interval(ts, 0.95); r.fnch_log_pmf(20, 45, 45, 50, 0.3)
for model, truth, rule, weight in ((Model.BERNOULLI, 0.3, Rule.ROBBINS_EXACT, bw),
                                   (Model.BERNOULLI, 0.3, Rule.LIKELIHOOD_RATIO, None),
                                   (Model.NORMAL_KNOWN_VAR, 0.0, Rule.CLASSICAL_Z, None)):
    r.run_plan(SequencePlan(model=model, truth=truth, rule=rule, level=0.05, weight=weight,
                            n_min=1, n_max=50, reps=20, seed=1))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["--model", "normal", "--n", "50", "--ybar", "0.1", "--sigma2", "1",
                  "--weight", "normal:0,1"],
                 ["--model", "bernoulli", "--n", "100", "--s", "40", "--weight", "beta:1,1"],
                 ["--model", "two-bernoulli", "--n1", "45", "--n2", "45", "--s1", "20",
                  "--s2", "30"]):
        assert cli.main(["interval"] + argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_default_rules_and_cli_load_no_scipy():
    # robbins._special stands in for scipy.special, whose import alone takes
    # ~0.3 s and ~26 MB resident
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", _DEFAULT_RULES], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
