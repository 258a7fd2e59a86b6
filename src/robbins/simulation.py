"""Monte Carlo harness: replay interval rules along growing samples and tally
how often a sequence contradicts itself or misses the truth.

Per replication, the monitor state reduces to the running maximum of lower
endpoints and running minimum of upper endpoints (see core.SequenceMonitor);
the final flags depend only on the global max/min over the monitored range, so
the kernels compute whole (replication x n) endpoint arrays and reduce along n.
Every sample size in [n_min, n_max] is monitored.

Determinism contract
--------------------
Replication r of a run with master seed s draws from the counter-based stream
Philox(key=(s, r)); see replication_rng.  Work is partitioned into fixed-size
chunks of replications whose integer tallies are summed in chunk order, so
results are bit-identical for any worker count.  Draw order per replication:

* normal model:        y = theta + sigma0 * rng.standard_normal(n_max)
* bernoulli model:     successes are rng.random(n_max) < theta
* two-bernoulli model: u = rng.random((2, n_max)); sample j succeeds at step i
                       iff u[j-1, i] < theta_j  (one paired draw per step, so
                       n1 = n2 = n along the sequence)

The closed-form rules (fixed-level z / Wald, exact normal, arcsine, corrected
log-odds) are evaluated by direct vectorised formulas.  The level-set rules
(exact Bernoulli mixture, likelihood ratio) solve each distinct (n, s) pair once
with a fixed number of Newton steps on the logit scale (closed forms at s = 0
and s = n); the pair table is cut into fixed-size slices that run through the
same chunk map as the replications, so every endpoint is the same for any
worker count.  Both routes are pinned to the scalar library implementations by
the test suite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import betaln, chdtri, expit, ndtri, xlogy

from .bernoulli import one_sided_endpoint
from .core import BetaWeight, NormalWeight, WeightSpec
from . import reference

__all__ = [
    "Model",
    "Rule",
    "SequencePlan",
    "ReportRow",
    "TableReport",
    "CellComparison",
    "EndpointSolveError",
    "replication_rng",
    "run_plan",
    "reproduce_table",
    "compare_to_reference",
    "TABLE_IDS",
]

CHUNK_REPS = 256          # fixed chunk size; never depends on the worker count
SOLVE_PAIRS = 16384       # fixed slice of the (n, s) pair table; likewise
_NEWTON_STEPS = 6         # converged to rounding in <= 4 steps for drops up to 700

CSV_COLUMNS = ["table", "row_label", "level", "contradictions_pct", "noncoverages_pct",
               "se_contra", "se_noncov", "reps", "nmin", "nmax", "seed"]


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream splitting: replication rep of master seed seed uses
    Philox keyed by the pair (seed mod 2^64, rep).  Streams are independent of
    chunking, scheduling and worker count."""
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(rep)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Model(str, Enum):
    NORMAL_KNOWN_VAR = "normal"
    BERNOULLI = "bernoulli"
    TWO_BERNOULLI = "two-bernoulli"


class Rule(str, Enum):
    CLASSICAL_Z = "classical"
    LIKELIHOOD_RATIO = "lr"
    ROBBINS_EXACT = "exact"
    ROBBINS_APPROX = "approx"


_FIXED_LEVEL_RULES = (Rule.CLASSICAL_Z, Rule.LIKELIHOOD_RATIO)


@dataclass(frozen=True)
class SequencePlan:
    """One simulation cell: model + truth, an interval rule with its level (a
    confidence level for fixed-level rules, a persistence epsilon for mixture
    rules), the monitored range and the replication budget."""

    model: Model
    truth: Union[float, tuple]
    rule: Rule
    level: float
    weight: Optional[WeightSpec] = None
    n_min: int = 10
    n_max: int = 4000
    reps: int = 10_000
    seed: int = 42
    sigma0_sq: float = 1.0      # normal model only
    label: str = ""

    def __post_init__(self):
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError(f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.rule in _FIXED_LEVEL_RULES:
            if self.weight is not None:
                raise ValueError(f"rule {self.rule.value} takes no weight function")
        else:
            if self.weight is None:
                raise ValueError(f"rule {self.rule.value} requires a weight function")
        _plan_combo(self)  # validate the model/rule/weight combination eagerly
        _check_truth(self.model, self.truth)


def _check_truth(model, truth) -> None:
    """The truth must lie in the model's parameter space: a finite mean, a
    proportion in (0, 1), or a pair of proportions in (0, 1)."""
    def real(x):
        return isinstance(x, numbers.Real) and not isinstance(x, bool)

    if model == Model.TWO_BERNOULLI:
        if not (isinstance(truth, (tuple, list)) and len(truth) == 2
                and all(real(t) and 0.0 < t < 1.0 for t in truth)):
            raise ValueError("two-bernoulli truth must be a pair (theta1, theta2) "
                             f"with both entries in (0, 1), got {truth!r}")
    elif model == Model.BERNOULLI:
        if not (real(truth) and 0.0 < truth < 1.0):
            raise ValueError(f"bernoulli truth must lie in (0, 1), got {truth!r}")
    elif not (real(truth) and math.isfinite(truth)):
        raise ValueError(f"normal truth must be a finite number, got {truth!r}")


@dataclass(frozen=True)
class ReportRow:
    table: str
    row_label: str
    level: float            # displayed level: 100*conf or 100*(1 - epsilon)
    contradictions_pct: float
    noncoverages_pct: float
    se_contra: float
    se_noncov: float
    reps: int
    nmin: int
    nmax: int
    seed: int


@dataclass(frozen=True)
class TableReport:
    table: str
    rows: tuple

    def csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in self.rows:
            w.writerow([r.table, r.row_label, _fmt(r.level), _fmt(r.contradictions_pct),
                        _fmt(r.noncoverages_pct), _fmt(r.se_contra), _fmt(r.se_noncov),
                        r.reps, r.nmin, r.nmax, r.seed])
        return buf.getvalue()

    def json_obj(self) -> dict:
        return {"table": self.table, "rows": [asdict(r) for r in self.rows]}

    def json_text(self) -> str:
        return json.dumps(self.json_obj(), indent=2) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.json_text())


def _fmt(x: float) -> str:
    return format(x, ".6g")


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _map_chunks(worker, total: int, threads: int, chunk: int = CHUNK_REPS) -> list:
    """Apply worker(i0, i1) to the fixed slices [i0, i1) of range(total), chunk
    items each; results returned in slice order (identical for any thread
    count)."""
    ranges = [(i0, min(i0 + chunk, total)) for i0 in range(0, total, chunk)]
    if threads <= 1 or len(ranges) == 1:
        return [worker(i0, i1) for i0, i1 in ranges]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(worker, i0, i1) for i0, i1 in ranges]
        return [f.result() for f in futures]


def _tally(results: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(results[0])
    for r in results:
        out += r
    return out


# ---------------------------------------------------------------------------
# closed-form kernels (normal, two-bernoulli, arcsine)
# ---------------------------------------------------------------------------

def _flags(lower, upper, truth):
    """Per-replication (contradicted, noncovered) from endpoint arrays of shape
    (reps_chunk, n_count)."""
    maxlo = lower.max(axis=1)
    minup = upper.min(axis=1)
    contra = maxlo > minup
    noncov = (maxlo > truth) | (minup < truth)
    return contra, noncov


def _normal_counts(theta, sigma0_sq, n_min, n_max, reps, seed, combos, threads):
    """combos: ("z", conf) or ("robbins", eps, mu0, tau0_sq).  Returns an array
    of (contradictions, noncoverages) counts per combo."""
    ns = np.arange(n_min, n_max + 1, dtype=float)
    v = sigma0_sq / ns
    sigma0 = math.sqrt(sigma0_sq)

    def worker(r0, r1):
        m = r1 - r0
        ybar = np.empty((m, n_max))
        for i in range(m):
            ybar[i] = replication_rng(seed, r0 + i).standard_normal(n_max)
        ybar = theta + sigma0 * ybar
        np.cumsum(ybar, axis=1, out=ybar)
        ybar = ybar[:, n_min - 1:] / ns
        counts = np.zeros((len(combos), 2), dtype=np.int64)
        diffsq = {}
        for ci, combo in enumerate(combos):
            if combo[0] == "z":
                d = float(ndtri(0.5 * (1.0 + combo[1]))) * np.sqrt(v)
            else:
                _, eps, mu0, tau2 = combo
                if mu0 not in diffsq:
                    diffsq[mu0] = (ybar - mu0) ** 2
                tv = tau2 + v
                d = np.sqrt(v * (np.log(tv / v) + diffsq[mu0] / tv - 2.0 * math.log(eps)))
            contra, noncov = _flags(ybar - d, ybar + d, theta)
            counts[ci] = contra.sum(), noncov.sum()
        return counts

    return _tally(_map_chunks(worker, reps, threads))


def _two_bernoulli_counts(theta1, theta2, n_min, n_max, reps, seed, combos, threads):
    """combos: ("wald", conf) or ("approx", eps, mu0, tau0_sq); paired sampling,
    continuity-corrected estimates, truth is the log-odds ratio."""
    psi_true = math.log(theta1 * (1.0 - theta2) / (theta2 * (1.0 - theta1)))
    ns = np.arange(n_min, n_max + 1, dtype=float)

    def worker(r0, r1):
        m = r1 - r0
        s1 = np.empty((m, n_max - n_min + 1))
        s2 = np.empty_like(s1)
        for i in range(m):
            u = replication_rng(seed, r0 + i).random((2, n_max))
            s1[i] = np.cumsum(u[0] < theta1)[n_min - 1:]
            s2[i] = np.cumsum(u[1] < theta2)[n_min - 1:]
        a = s1 + 0.5
        b = (ns - s1) + 0.5
        c = s2 + 0.5
        d4 = (ns - s2) + 0.5
        psi = np.log((a * d4) / (b * c))
        v = 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d4
        counts = np.zeros((len(combos), 2), dtype=np.int64)
        for ci, combo in enumerate(combos):
            if combo[0] == "wald":
                d = float(ndtri(0.5 * (1.0 + combo[1]))) * np.sqrt(v)
            else:
                _, eps, mu0, tau2 = combo
                tv = tau2 + v
                d = np.sqrt(v * (np.log(tv / v) + (psi - mu0) ** 2 / tv - 2.0 * math.log(eps)))
            contra, noncov = _flags(psi - d, psi + d, psi_true)
            counts[ci] = contra.sum(), noncov.sum()
        return counts

    return _tally(_map_chunks(worker, reps, threads))


# ---------------------------------------------------------------------------
# level-set kernel (exact Bernoulli mixture, likelihood ratio)
# ---------------------------------------------------------------------------

def _newton_offset(s, n, drop):
    """u = eta - eta_hat, eta = logit(theta), at the lower endpoint of
    {theta: s log theta + (n-s) log(1-theta) >= l_max - drop} for 0 < s < n and
    drop > 0.

    With th = s/n the log-likelihood minus its maximum is
    n [th u - log1p(th expm1(u))], concave in u with slope s - n theta; on u < 0
    a Newton step from either side of the root lands at or below it, and the
    steps then climb to it.  The start is
    the normal-approximation endpoint -sqrt(2c), c = drop / (n th (1-th)),
    capped at log1p(c + sqrt(2c)): where few failures make the log-likelihood
    fall exponentially below the mle, that cap bounds the root, while the
    normal start lies far past it and Newton would gain one unit per step.
    """
    th = s / n
    info = n * th * (1.0 - th)
    c = drop / info
    root = np.sqrt(2.0 * c)
    u = -np.minimum(root, np.log1p(c + root))
    for _ in range(_NEWTON_STEPS):
        em = np.expm1(u)
        t = th * em
        u = u + (s * u - n * np.log1p(t) + drop) * (1.0 + t) / (info * em)
    return u


def _bisect_lower_flat(s, n, drop):
    """Vectorised lower endpoints of the level set at drop below the binomial
    log-likelihood maximum, for interior pairs 0 < s < n (Newton solve; the
    name is kept from the bisection it replaced)."""
    return expit(np.log(s / (n - s)) + _newton_offset(s, n, drop))


def _bisect_upper_flat(s, n, drop):
    """Upper endpoints: the lower endpoint of the reflected pair (n - s, n),
    mirrored by theta -> 1 - theta on the logit scale."""
    return expit(np.log(s / (n - s)) - _newton_offset(n - s, n, drop))


class EndpointSolveError(ArithmeticError):
    """A level-set kernel produced a non-finite interval endpoint."""


def _bernoulli_counts(theta, n_min, n_max, reps, seed, combos, threads):
    """combos: ("exact", eps, alpha, beta) | ("lr", conf) | ("arcsine", eps, mu0, tau0_sq).

    Generates the success-count matrix once, solves the level-set endpoints for
    every (n, s) pair between the smallest and largest count observed at each
    n, then scans replications.
    """
    ns = np.arange(n_min, n_max + 1)
    S = np.empty((reps, n_max), dtype=np.min_scalar_type(n_max))

    def gen_worker(r0, r1):
        for i in range(r0, r1):
            S[i] = np.cumsum(replication_rng(seed, i).random(n_max) < theta)
        return np.zeros(1, dtype=np.int64)

    _map_chunks(gen_worker, reps, threads)
    Sm = S[:, n_min - 1:]

    pair_combos = [c for c in combos if c[0] in ("exact", "lr")]
    if pair_combos:
        smin = Sm.min(axis=0).astype(np.int64)
        width = Sm.max(axis=0) - smin + 1
        offset = np.concatenate(([0], np.cumsum(width)[:-1]))
        npairs = int(width.sum())
        lower = np.empty((len(pair_combos), npairs))
        upper = np.empty_like(lower)

        def solve_worker(p0, p1):
            pair = np.arange(p0, p1)
            col = np.searchsorted(offset, pair, side="right") - 1
            n = ns[col].astype(float)
            s = (pair - offset[col] + smin[col]).astype(float)
            that = s / n
            lmax = xlogy(s, that) + xlogy(n - s, 1.0 - that)
            inner = np.flatnonzero((s > 0) & (s < n))
            zero, full = np.flatnonzero(s == 0), np.flatnonzero(s == n)
            log_q = {}
            for k, combo in enumerate(pair_combos):
                if combo[0] == "exact":
                    _, eps, alpha, beta = combo
                    if (alpha, beta) not in log_q:
                        log_q[alpha, beta] = (betaln(s + alpha, n - s + beta)
                                              - float(betaln(alpha, beta)))
                    drop = lmax - (math.log(eps) + log_q[alpha, beta])
                else:
                    drop = np.full(s.shape, 0.5 * float(chdtri(1, 1.0 - combo[1])))
                lo, up = lower[k, p0:p1], upper[k, p0:p1]
                with np.errstate(all="ignore"):
                    lo[inner] = _bisect_lower_flat(s[inner], n[inner], drop[inner])
                    up[inner] = _bisect_upper_flat(s[inner], n[inner], drop[inner])
                    lo[zero] = 0.0
                    up[zero] = one_sided_endpoint(n[zero], drop[zero], s_is_zero=True)
                    lo[full] = one_sided_endpoint(n[full], drop[full], s_is_zero=False)
                    up[full] = 1.0
                bad = ~(np.isfinite(lo) & np.isfinite(up))
                if bad.any():
                    i = int(np.argmax(bad))
                    raise EndpointSolveError(
                        f"non-finite {combo[0]} endpoint [{lo[i]}, {up[i]}] at "
                        f"n={int(n[i])}, s={int(s[i])} (drop {drop[i]})")

        _map_chunks(solve_worker, npairs, threads, SOLVE_PAIRS)

    def scan_worker(r0, r1):
        sc = Sm[r0:r1].astype(np.int64)
        counts = np.zeros((len(combos), 2), dtype=np.int64)
        idx = None
        omega = None
        for ci, combo in enumerate(combos):
            if combo[0] in ("exact", "lr"):
                if idx is None:
                    idx = offset[None, :] + (sc - smin[None, :])
                k = pair_combos.index(combo)
                contra, noncov = _flags(lower[k][idx], upper[k][idx], theta)
            else:
                _, eps, mu0, tau2 = combo
                if omega is None:
                    omega = np.arcsin(np.sqrt(sc / ns))
                v = 0.25 / ns
                tv = tau2 + v
                d = np.sqrt(v * (np.log(tv / v) + (omega - mu0) ** 2 / tv
                                 - 2.0 * math.log(eps)))
                lo = np.sin(np.maximum(omega - d, 0.0)) ** 2
                hi = np.sin(np.minimum(omega + d, 0.5 * math.pi)) ** 2
                contra, noncov = _flags(lo, hi, theta)
            counts[ci] = contra.sum(), noncov.sum()
        return counts

    return _tally(_map_chunks(scan_worker, reps, threads))


# ---------------------------------------------------------------------------
# plans and tables
# ---------------------------------------------------------------------------

def _plan_combo(plan: SequencePlan):
    """Translate a plan into (kernel combo, displayed level); rejects unsupported
    model/rule/weight combinations with a reason."""
    m, r = plan.model, plan.rule
    if m == Model.NORMAL_KNOWN_VAR:
        if r == Rule.CLASSICAL_Z:
            return ("z", plan.level), 100.0 * plan.level
        if r == Rule.ROBBINS_EXACT:
            w = _require_weight(plan, NormalWeight)
            return ("robbins", plan.level, w.mu0, w.tau0_sq), _persist(plan.level)
        raise ValueError(f"rule {r.value} is not defined for the known-variance normal model")
    if m == Model.BERNOULLI:
        if r == Rule.LIKELIHOOD_RATIO:
            return ("lr", plan.level), 100.0 * plan.level
        if r == Rule.ROBBINS_EXACT:
            w = _require_weight(plan, BetaWeight)
            return ("exact", plan.level, w.alpha, w.beta), _persist(plan.level)
        if r == Rule.ROBBINS_APPROX:
            w = _require_weight(plan, NormalWeight)
            return ("arcsine", plan.level, w.mu0, w.tau0_sq), _persist(plan.level)
        raise ValueError(f"rule {r.value} is not defined for the bernoulli model")
    if m == Model.TWO_BERNOULLI:
        if r == Rule.CLASSICAL_Z:
            return ("wald", plan.level), 100.0 * plan.level
        if r == Rule.ROBBINS_APPROX:
            w = _require_weight(plan, NormalWeight)
            return ("approx", plan.level, w.mu0, w.tau0_sq), _persist(plan.level)
        raise ValueError(f"rule {r.value} is not supported for the two-bernoulli model "
                         "(the exact conditional rule is available for point computation only)")
    raise ValueError(f"unknown model {m}")


def _require_weight(plan, cls):
    if not isinstance(plan.weight, cls):
        raise ValueError(f"rule {plan.rule.value} on model {plan.model.value} requires a "
                         f"{cls.__name__} weight, got {type(plan.weight).__name__}")
    return plan.weight


def _persist(eps: float) -> float:
    return round(100.0 * (1.0 - eps), 6)


def _pct_row(table, label, level, counts, reps, n_min, n_max, seed) -> ReportRow:
    c, nc = int(counts[0]), int(counts[1])
    pc, pn = 100.0 * c / reps, 100.0 * nc / reps
    return ReportRow(table=table, row_label=label, level=level,
                     contradictions_pct=pc, noncoverages_pct=pn,
                     se_contra=_binom_se_pct(pc, reps), se_noncov=_binom_se_pct(pn, reps),
                     reps=reps, nmin=n_min, nmax=n_max, seed=seed)


def _binom_se_pct(p_pct: float, reps: int) -> float:
    p = p_pct / 100.0
    return 100.0 * math.sqrt(p * (1.0 - p) / reps)


def _dispatch(model, truth, sigma0_sq, n_min, n_max, reps, seed, combos, threads):
    if model == Model.NORMAL_KNOWN_VAR:
        return _normal_counts(truth, sigma0_sq, n_min, n_max, reps, seed, combos, threads)
    if model == Model.BERNOULLI:
        return _bernoulli_counts(truth, n_min, n_max, reps, seed, combos, threads)
    th1, th2 = truth
    return _two_bernoulli_counts(th1, th2, n_min, n_max, reps, seed, combos, threads)


def run_plan(plan: SequencePlan, threads: int = 1) -> ReportRow:
    """Run one simulation cell.  Equals the corresponding reproduce_table cell
    whenever model, truth, range, reps and seed coincide (the data streams
    depend only on (seed, replication))."""
    combo, display = _plan_combo(plan)
    counts = _dispatch(plan.model, plan.truth, plan.sigma0_sq, plan.n_min, plan.n_max,
                       plan.reps, plan.seed, [combo], threads)[0]
    label = plan.label or f"{plan.model.value}/{plan.rule.value}"
    return _pct_row("-", label, display, counts, plan.reps, plan.n_min, plan.n_max, plan.seed)


# -- table configuration grids (levels shown as 100*(1-eps) or 100*conf) -----

_EPS_LEVELS = ((0.50, 50.0), (0.20, 80.0), (0.10, 90.0), (0.05, 95.0))
_CONF_LEVELS = ((0.90, 90.0), (0.95, 95.0), (0.99, 99.0), (0.995, 99.5))

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5")

_T2_WEIGHTS = ((0.0, 0.1), (0.0, 1.0), (0.0, 10.0), (1.0, 1.0), (2.0, 1.0), (5.0, 1.0))
_T4_WEIGHTS = ((0.5, 0.5), (1.0, 1.0), (5.0, 5.0))
_T4_THETAS = (0.5, 0.7, 0.9)
_T5_WEIGHTS = ((0.0, 2.0 * math.pi ** 2), (0.0, 5.0), (0.0, 1.0),
               (0.0, 0.1), (1.0, 5.0), (-1.0, 5.0))
_T5_TRUTH = (0.2, 0.25)


def _weight_label(mu0: float, tau2: float) -> str:
    tau = "2pi^2" if tau2 == 2.0 * math.pi ** 2 else format(tau2, "g")
    return f"mu0={format(mu0, 'g')},tau0sq={tau}"


def reproduce_table(table_id: str, reps: int = 10_000, seed: int = 42,
                    threads: int = 1) -> TableReport:
    """Re-run the full configuration grid of one of the five bundled tables.

    Groups sharing a data-generating truth reuse the same replication streams,
    so every cell is reproducible in isolation through run_plan.
    """
    table_id = table_id.upper()
    if table_id not in TABLE_IDS:
        raise ValueError(f"table_id must be one of {TABLE_IDS}, got {table_id!r}")
    rows = []
    if table_id == "T1":
        combos = [("z", conf) for conf, _ in _CONF_LEVELS]
        counts = _normal_counts(0.0, 1.0, 10, 4000, reps, seed, combos, threads)
        for (conf, disp), cnt in zip(_CONF_LEVELS, counts):
            rows.append(_pct_row("T1", "z", disp, cnt, reps, 10, 4000, seed))
    elif table_id == "T2":
        combos = [("robbins", eps, mu0, tau2)
                  for mu0, tau2 in _T2_WEIGHTS for eps, _ in _EPS_LEVELS]
        counts = _normal_counts(0.0, 1.0, 10, 4000, reps, seed, combos, threads)
        i = 0
        for mu0, tau2 in _T2_WEIGHTS:
            for _, disp in _EPS_LEVELS:
                rows.append(_pct_row("T2", _weight_label(mu0, tau2), disp,
                                     counts[i], reps, 10, 4000, seed))
                i += 1
    elif table_id == "T3":
        for theta in _T4_THETAS:
            combos = [("lr", conf) for conf, _ in _CONF_LEVELS]
            counts = _bernoulli_counts(theta, 100, 4000, reps, seed, combos, threads)
            for (conf, disp), cnt in zip(_CONF_LEVELS, counts):
                rows.append(_pct_row("T3", f"theta={format(theta, 'g')}", disp,
                                     cnt, reps, 100, 4000, seed))
    elif table_id == "T4":
        for theta in _T4_THETAS:
            combos = [("exact", eps, a, b)
                      for a, b in _T4_WEIGHTS for eps, _ in _EPS_LEVELS]
            counts = _bernoulli_counts(theta, 100, 4000, reps, seed, combos, threads)
            i = 0
            for a, b in _T4_WEIGHTS:
                label = f"theta={format(theta, 'g')},Beta({format(a, 'g')},{format(b, 'g')})"
                for _, disp in _EPS_LEVELS:
                    rows.append(_pct_row("T4", label, disp, counts[i], reps, 100, 4000, seed))
                    i += 1
    else:
        combos = [("approx", eps, mu0, tau2)
                  for mu0, tau2 in _T5_WEIGHTS for eps, _ in _EPS_LEVELS]
        counts = _two_bernoulli_counts(_T5_TRUTH[0], _T5_TRUTH[1], 50, 2000,
                                       reps, seed, combos, threads)
        i = 0
        for mu0, tau2 in _T5_WEIGHTS:
            for _, disp in _EPS_LEVELS:
                rows.append(_pct_row("T5", _weight_label(mu0, tau2), disp,
                                     counts[i], reps, 50, 2000, seed))
                i += 1
    return TableReport(table=table_id, rows=tuple(rows))


# ---------------------------------------------------------------------------
# comparison against the bundled reference cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellComparison:
    row_label: str
    level: float
    metric: str             # "contradictions" or "noncoverages"
    observed: float
    expected: float
    tolerance: float        # 3 * combined MC standard error, percentage points

    @property
    def delta(self) -> float:
        return self.observed - self.expected

    @property
    def within(self) -> bool:
        return abs(self.delta) <= self.tolerance


def _se_with_floor(p_pct: float, reps: int) -> float:
    """Binomial SE in percentage points, flooring p at one count so zero cells
    keep a usable tolerance."""
    p = min(max(p_pct / 100.0, 1.0 / reps), 1.0 - 1.0 / reps)
    return 100.0 * math.sqrt(p * (1.0 - p) / reps)


def compare_to_reference(report: TableReport) -> list:
    """Per-cell comparison of a reproduced table against the bundled reference
    percentages.  Tolerance per cell is three combined standard errors,
    sqrt(se_observed^2 + se_reference^2), the reference values being themselves
    Monte Carlo estimates at 10,000 replications."""
    expected = reference.cells(report.table)
    out = []
    for row in report.rows:
        key = (row.row_label, row.level)
        if key not in expected:
            raise KeyError(f"no reference cell for {key} in table {report.table}")
        ref_c, ref_n = expected[key]
        for metric, obs, ref in (("contradictions", row.contradictions_pct, ref_c),
                                 ("noncoverages", row.noncoverages_pct, ref_n)):
            tol = 3.0 * math.hypot(_se_with_floor(obs, row.reps),
                                   _se_with_floor(ref, reference.REFERENCE_REPS))
            out.append(CellComparison(row.row_label, row.level, metric, obs, ref, tol))
    return out
