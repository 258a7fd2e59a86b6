"""Workloads of the benchmark: the inputs each one generates from its seed, one
timed pass over them, and the checks applied to every output.

Two kinds of workload:

* Monte Carlo (table-levelset, mc-closedform): a fixed list of public
  simulation calls.  One op is one replication stream (reps x truths per call).
* monitor-online: a closed loop with one client.  One op is one request: an
  interval rule called on the statistics of a stream at one look, then
  SequenceMonitor.update, as in the README library example.

Importing this module needs robbins on sys.path; run.py arranges that.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from robbins import (BernoulliSuffStat, BetaWeight, Interval, Model, NormalInverseGamma,
                     NormalSuffStat, NormalWeight, PersistenceLevel, ReportRow, Rule,
                     SequenceMonitor, SequencePlan, TableReport, TwoSampleStat,
                     VilleCheckResult, approx_interval_log_odds, approx_interval_unknown_var,
                     arcsine_approx_interval, lr_interval, nig_profile_interval,
                     replication_rng, reproduce_table, robbins_conditional_interval,
                     robbins_interval_bernoulli, robbins_interval_known_var, run_plan,
                     verify_ville_inequality, wald_interval)
from robbins import bernoulli, cli, normal, reference

DEFAULT_SEED = 42
EPSILONS = (0.5, 0.2, 0.1, 0.05)
CONFS = (0.90, 0.95, 0.99, 0.995)
T3_THETAS = (0.5, 0.7, 0.9)          # the truths of table T3
# Normal weight on the arcsine scale matching Beta(1/2, 1/2): uniform on (0, pi/2).
ARCSINE_WEIGHT = NormalWeight(math.pi / 4.0, math.pi ** 2 / 48.0)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Replay:
    """The draws of one kernel invocation, replayed outside the program in the
    documented draw order: `reps` streams, each one `draw` call of `shape`.
    With level_set, the Bernoulli success counts over [n_min, shape[-1]] are
    rebuilt to count the (n, s) pairs the level-set kernel solves."""

    draw: str                        # "random" or "standard_normal"
    shape: tuple
    reps: int
    theta: float = 0.0
    n_min: int = 1
    level_set: bool = False


@dataclass(frozen=True)
class McCall:
    """One public Monte Carlo call; run(threads) returns its result."""

    id: str
    ops: int
    run: Callable[[int], object]
    replays: tuple


def _table(table_id: str, reps: int, seed: int, truths: int, replays) -> McCall:
    return McCall(f"reproduce_table({table_id},reps={reps})", reps * truths,
                  lambda threads: reproduce_table(table_id, reps=reps, seed=seed,
                                                  threads=threads), tuple(replays))


def _plan(call_id: str, plan: SequencePlan, replays) -> McCall:
    return McCall(call_id, plan.reps, lambda threads: run_plan(plan, threads=threads),
                  tuple(replays))


def _ville(call_id: str, path, n_max: int, reps: int, seed: int, replay: Replay) -> McCall:
    # verify_ville_inequality takes no thread count: it runs serially.
    return McCall(call_id, reps,
                  lambda threads: verify_ville_inequality(path, k=10.0, n_max=n_max,
                                                          reps=reps, seed=seed),
                  (replay,))


def table_levelset_calls(seed: int, smoke: bool) -> list:
    """Table T3: likelihood-ratio intervals over every n in [100, 4000], solved
    as one level set per distinct (n, s) pair."""
    if smoke:
        plan = SequencePlan(Model.BERNOULLI, 0.7, Rule.LIKELIHOOD_RATIO, 0.95,
                            n_min=100, n_max=300, reps=32, seed=seed)
        return [_plan("run_plan(bernoulli/lr,n=100..300,reps=32)", plan,
                      [Replay("random", (300,), 32, 0.7, 100, True)])]
    reps = 1000
    return [_table("T3", reps, seed, len(T3_THETAS),
                   [Replay("random", (4000,), reps, th, 100, True) for th in T3_THETAS])]


def mc_closedform_calls(seed: int, smoke: bool) -> list:
    """Closed-form kernels (normal, log-odds, arcsine) and the crossing-bound
    check for the normal and Bernoulli path builders: no level-set solve."""
    reps = 16 if smoke else 2000
    arc_reps, arc_nmax = (16, 2000) if smoke else (1000, 30000)
    ville_reps, ville_nmax = (16, 500) if smoke else (2000, 4000)
    arcsine = SequencePlan(Model.BERNOULLI, 0.3, Rule.ROBBINS_APPROX, 0.2,
                           weight=ARCSINE_WEIGHT, n_min=10, n_max=arc_nmax,
                           reps=arc_reps, seed=seed)
    return [
        _table("T1", reps, seed, 1, [Replay("standard_normal", (4000,), reps)]),
        _table("T2", reps, seed, 1, [Replay("standard_normal", (4000,), reps)]),
        _table("T5", reps, seed, 1, [Replay("random", (2, 2000), reps)]),
        _plan(f"run_plan(bernoulli/arcsine,n=10..{arc_nmax},reps={arc_reps})", arcsine,
              [Replay("random", (arc_nmax,), arc_reps, 0.3)]),
        _ville(f"verify_ville_inequality(normal,n_max={ville_nmax},reps={ville_reps})",
               normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0)),
               ville_nmax, ville_reps, seed, Replay("standard_normal", (ville_nmax,), ville_reps)),
        _ville(f"verify_ville_inequality(bernoulli,n_max={ville_nmax},reps={ville_reps})",
               bernoulli.ville_log_ratio_path(0.3, BetaWeight(1.0, 1.0)),
               ville_nmax, ville_reps, seed,
               Replay("random", (ville_nmax,), ville_reps, 0.3)),
    ]


def output_text(result) -> str:
    """Canonical text of a Monte Carlo result; its sha256 is what is pinned."""
    if isinstance(result, TableReport):
        return result.csv_text()
    if isinstance(result, ReportRow):
        return TableReport(table="-", rows=(result,)).csv_text()
    if isinstance(result, VilleCheckResult):
        return f"crossings={result.crossings},reps={result.reps},k={result.k!r}\n"
    raise TypeError(f"unexpected result type {type(result).__name__}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _row_problems(row: ReportRow) -> list:
    vals = (row.contradictions_pct, row.noncoverages_pct, row.se_contra, row.se_noncov)
    if not all(math.isfinite(v) for v in vals):
        return [f"{row.row_label}: non-finite value"]
    out = []
    # A contradiction (disjoint intervals) always implies a non-coverage.
    if not 0.0 <= row.contradictions_pct <= row.noncoverages_pct <= 100.0:
        out.append(f"{row.row_label}: need 0 <= contradictions <= non-coverages <= 100%")
    for pct in (row.contradictions_pct, row.noncoverages_pct):
        count = pct * row.reps / 100.0
        if abs(count - round(count)) > 1e-6:
            out.append(f"{row.row_label}: {pct}% of {row.reps} is not a whole count")
    return out


def output_problems(result) -> list:
    """Invariants every Monte Carlo output satisfies for any seed."""
    if isinstance(result, TableReport):
        out = []
        expected = len(reference.cells(result.table))
        if len(result.rows) != expected:
            out.append(f"{result.table}: {len(result.rows)} rows, expected {expected}")
        for row in result.rows:
            out += _row_problems(row)
        return out
    if isinstance(result, ReportRow):
        return _row_problems(result)
    if isinstance(result, VilleCheckResult):
        if not (0 <= result.crossings <= result.reps
                and result.estimate == result.crossings / result.reps
                and math.isfinite(result.std_error)):
            return [f"crossing check: inconsistent result {result}"]
        return []
    return [f"unexpected result type {type(result).__name__}"]


@dataclass
class McPass:
    wall: float
    times: list                 # seconds per call
    results: list               # result object, or None when the call raised
    errors: list                # exception text, or None
    peak_alloc: list            # bytes per call (tracemalloc), when measured


def run_mc_pass(calls: list, threads: int, measure_alloc: bool = False) -> McPass:
    """Every call once, in order; with measure_alloc (tracemalloc running),
    the peak traced allocation of each call too."""
    times, results, errors, peaks = [], [], [], []
    t_pass = perf_counter()
    for call in calls:
        if measure_alloc:
            tracemalloc.reset_peak()
        t0 = perf_counter()
        try:
            res, err = call.run(threads), None
        except Exception as exc:        # a failed op: record it, keep measuring
            res, err = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t0)
        if measure_alloc:
            peaks.append(tracemalloc.get_traced_memory()[1])
        results.append(res)
        errors.append(err)
    return McPass(perf_counter() - t_pass, times, results, errors, peaks)


def mc_failures(calls: list, passes: list, pinned: Optional[dict]) -> list:
    """(pass index, call index, reason) for every failed call.  pinned maps
    call ids to sha256 digests (default seed only); None skips that check."""
    out = []
    first = [None] * len(calls)
    for p, mc_pass in enumerate(passes):
        for c, call in enumerate(calls):
            err, res = mc_pass.errors[c], mc_pass.results[c]
            if err is not None:
                out.append((p, c, err))
                continue
            problems = output_problems(res)
            if problems:
                out.append((p, c, "; ".join(problems[:3])))
                continue
            text = output_text(res)
            if first[c] is None:
                first[c] = text
            elif text != first[c]:
                out.append((p, c, "output differs from the first pass (thread count "
                                  "or run order changed the result)"))
                continue
            if pinned is not None:
                want = pinned[call.id]
                if digest(text) != want:
                    out.append((p, c, f"sha256 {digest(text)[:16]} != pinned {want[:16]}"))
    return out


def replay_streams(calls: list, seed: int) -> dict:
    """Replay every call's replication streams through the public
    replication_rng.  Returns the time spent drawing (generate_s), the
    distinct (n, s) pairs the level-set kernel meets and the size of the pair
    table it solves (both exact counts, summed over kernel invocations)."""
    gen_s, distinct, table = 0.0, 0, 0
    for call in calls:
        for rp in call.replays:
            counts = np.empty((rp.reps, rp.shape[-1]), dtype=np.int32) if rp.level_set else None
            for r in range(rp.reps):
                t0 = perf_counter()
                x = getattr(replication_rng(seed, r), rp.draw)(rp.shape)
                gen_s += perf_counter() - t0
                if counts is not None:
                    np.cumsum(x < rp.theta, out=counts[r])
            if counts is not None:
                s = np.sort(counts[:, rp.n_min - 1:], axis=0)
                distinct += int(s.shape[1] + np.count_nonzero(np.diff(s, axis=0)))
                table += int(np.sum(s[-1] - s[0] + 1))
    return {"generate_s": gen_s, "distinct_pairs": distinct, "pair_table": table}


# ---------------------------------------------------------------------------
# monitor-online
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One request: rule(*args) for monitored sequence `seq`, or the same
    interval through `robbins interval` (cli.main, in-process) when via_cli.
    estimate is a point estimate the interval must contain (None: no check)."""

    kind: str
    seq: int
    rule: Callable
    args: tuple
    argv: tuple
    estimate: Optional[float]
    via_cli: bool = False


@dataclass(frozen=True)
class MonitorInputs:
    requests: tuple
    truths: tuple               # true parameter of each monitored sequence


def _argv(model: str, rule: str, **opts) -> tuple:
    argv = ["interval", "--model", model, "--rule", rule, "--format", "json"]
    for key, value in opts.items():
        argv += [f"--{key}", value if isinstance(value, str) else repr(value)]
    return tuple(argv)


def _cc_log_odds(n1, n2, s1, s2) -> float:
    return math.log((s1 + 0.5) * (n2 - s2 + 0.5) / ((n1 - s1 + 0.5) * (s2 + 0.5)))


def monitor_inputs(seed: int, smoke: bool) -> MonitorInputs:
    """Seeded streams for all four models, each monitored by several rules at
    the looks of a geometric n-schedule.  Requests are ordered look by look,
    sequences shuffled within a look; 2% of each rule's requests go through
    the CLI.  The exact conditional rule runs on the first few two-sample
    streams only (about 6% of requests), skipping looks where s1 sits on its
    support edge and the region is unbounded."""
    rng = np.random.default_rng(seed)
    looks = [round(10 * 1.5 ** k) for k in range(4 if smoke else 15)]
    n_max = looks[-1]
    streams, conditional_streams = (1, 1) if smoke else (8, 4)
    truths, sequences = [], []          # sequences: per look, (kind, rule, args, argv, est) or None

    def add(truth, per_look):
        truths.append(float(truth))
        sequences.append(per_look)

    for j in range(streams):
        eps, conf = EPSILONS[j % 4], CONFS[j % 4]
        level = PersistenceLevel(eps)

        theta = rng.uniform(0.05, 0.95)
        succ = np.cumsum(rng.random(n_max) < theta)
        a, b = ((0.5, 0.5), (1.0, 1.0), (5.0, 5.0))[j % 3]
        stats = [(n, int(succ[n - 1])) for n in looks]
        add(theta, [("bernoulli.exact", robbins_interval_bernoulli,
                     (BernoulliSuffStat(n, s), BetaWeight(a, b), level),
                     _argv("bernoulli", "exact", n=n, s=s, weight=f"beta:{a!r},{b!r}",
                           epsilon=eps), s / n) for n, s in stats])
        add(theta, [("bernoulli.lr", lr_interval, (BernoulliSuffStat(n, s), conf),
                     _argv("bernoulli", "lr", n=n, s=s, conf=conf), s / n)
                    for n, s in stats])
        w = ARCSINE_WEIGHT
        add(theta, [("bernoulli.arcsine", arcsine_approx_interval,
                     (BernoulliSuffStat(n, s), w, level),
                     _argv("bernoulli", "approx", n=n, s=s,
                           weight=f"normal:{w.mu0!r},{w.tau0_sq!r}", epsilon=eps), s / n)
                    for n, s in stats])

        theta = rng.uniform(-1.0, 1.0)
        sigma2 = (0.5, 1.0, 2.0)[j % 3]
        y = theta + math.sqrt(sigma2) * rng.standard_normal(n_max)
        c1, c2 = np.cumsum(y), np.cumsum(y * y)
        moments = [(n, float(c1[n - 1] / n), float(c2[n - 1] / n - (c1[n - 1] / n) ** 2))
                   for n in looks]
        nw = NormalWeight(0.0, (0.1, 1.0, 10.0)[j % 3])
        nig = NormalInverseGamma(0.0, 1.0, 2.0, 1.0 + (j % 3))
        add(theta, [("normal.known_var", robbins_interval_known_var,
                     (NormalSuffStat(n, yb), sigma2, nw, level),
                     _argv("normal", "exact", n=n, ybar=yb, sigma2=sigma2,
                           weight=f"normal:{nw.mu0!r},{nw.tau0_sq!r}", epsilon=eps), yb)
                    for n, yb, _ in moments])
        add(theta, [("normal.nig_profile", nig_profile_interval,
                     (NormalSuffStat(n, yb, s2), nig, level),
                     _argv("normal", "nig", n=n, ybar=yb, sigma2hat=s2,
                           weight=f"nig:{nig.mu0!r},{nig.kappa0!r},{nig.alpha0!r},{nig.beta0!r}",
                           epsilon=eps), yb)
                    for n, yb, s2 in moments])
        add(theta, [("normal.approx", approx_interval_unknown_var,
                     (NormalSuffStat(n, yb, s2), nw, level),
                     _argv("normal", "approx", n=n, ybar=yb, sigma2hat=s2,
                           weight=f"normal:{nw.mu0!r},{nw.tau0_sq!r}", epsilon=eps), yb)
                    for n, yb, s2 in moments])

        th1, th2 = rng.uniform(0.15, 0.85, size=2)
        u = rng.random((2, n_max))
        s1c, s2c = np.cumsum(u[0] < th1), np.cumsum(u[1] < th2)
        psi = math.log(th1 * (1.0 - th2) / (th2 * (1.0 - th1)))
        tables = [(n, int(s1c[n - 1]), int(s2c[n - 1])) for n in looks]
        mu0, tau2 = ((0.0, 2.0 * math.pi ** 2), (0.0, 5.0), (1.0, 5.0))[j % 3]
        add(psi, [("two_bernoulli.approx", approx_interval_log_odds,
                   (TwoSampleStat(n, n, s1, s2), NormalWeight(mu0, tau2), level),
                   _argv("two-bernoulli", "approx", n1=n, n2=n, s1=s1, s2=s2,
                         weight=f"normal:{mu0!r},{tau2!r}", epsilon=eps),
                   _cc_log_odds(n, n, s1, s2)) for n, s1, s2 in tables])
        add(psi, [("two_bernoulli.wald", wald_interval, (TwoSampleStat(n, n, s1, s2), conf),
                   _argv("two-bernoulli", "wald", n1=n, n2=n, s1=s1, s2=s2, conf=conf),
                   _cc_log_odds(n, n, s1, s2)) for n, s1, s2 in tables])
        if j < conditional_streams:
            add(psi, [("two_bernoulli.conditional", robbins_conditional_interval,
                       (TwoSampleStat(n, n, s1, s2), level),
                       _argv("two-bernoulli", "exact", n1=n, n2=n, s1=s1, s2=s2, epsilon=eps),
                       None)
                      if max(0, s1 + s2 - n) < s1 < min(n, s1 + s2) else None
                      for n, s1, s2 in tables])

    requests = []
    for k in range(len(looks)):
        for seq in rng.permutation(len(sequences)):
            item = sequences[seq][k]
            if item is not None:
                kind, rule, args, argv, est = item
                requests.append(Request(kind, int(seq), rule, args, argv, est))
    # 2% of each rule's requests (at least one) go through the CLI.
    by_kind = {}
    for i, req in enumerate(requests):
        by_kind.setdefault(req.kind, []).append(i)
    for idx in by_kind.values():
        for i in rng.choice(idx, size=max(1, round(0.02 * len(idx))), replace=False):
            req = requests[i]
            requests[i] = Request(req.kind, req.seq, req.rule, req.args, req.argv,
                                  req.estimate, via_cli=True)
    return MonitorInputs(tuple(requests), tuple(truths))


def call_cli(argv) -> Interval:
    """`robbins interval ... --format json` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"robbins {' '.join(argv)} exited with {code}")
    out = json.loads(buf.getvalue())
    return Interval(out["lower"], out["upper"])


@dataclass
class MonitorPass:
    wall: float
    rule_time: np.ndarray       # seconds in the rule (or the CLI) per request
    update_time: np.ndarray     # seconds in SequenceMonitor.update per request
    outputs: list               # (lower, upper) per request, None when it raised
    errors: list


def run_monitor_pass(inputs: MonitorInputs) -> MonitorPass:
    monitors = [SequenceMonitor(true_value=t) for t in inputs.truths]
    n = len(inputs.requests)
    rule_time, update_time = np.empty(n), np.empty(n)
    outputs, errors = [None] * n, [None] * n
    t_pass = perf_counter()
    for i, req in enumerate(inputs.requests):
        t0 = perf_counter()
        try:
            iv = call_cli(req.argv) if req.via_cli else req.rule(*req.args)
            t1 = perf_counter()
            monitors[req.seq].update(iv)
            t2 = perf_counter()
            outputs[i] = (iv.lower, iv.upper)
        except Exception as exc:        # a failed op: record it, keep the loop going
            t1 = t2 = perf_counter()
            errors[i] = f"{req.kind}: {type(exc).__name__}: {exc}"
        rule_time[i], update_time[i] = t1 - t0, t2 - t1
    return MonitorPass(perf_counter() - t_pass, rule_time, update_time, outputs, errors)


PINNED_REL_TOL = 1e-7   # well above the solvers' 1e-9 endpoint tolerance


def monitor_failures(inputs: MonitorInputs, passes: list, pinned: Optional[list]) -> list:
    """(pass index, request index, reason) for every failed request.  pinned
    holds the default-seed intervals; None skips that check."""
    reqs = inputs.requests
    out = []
    if pinned is not None and len(pinned) != len(reqs):
        return [(p, i, f"{len(reqs)} requests, {len(pinned)} pinned")
                for p in range(len(passes)) for i in range(len(reqs))]
    # Each CLI request must equal the library call it stands for, exactly.
    cli_mismatch = {}
    for i, req in enumerate(reqs):
        out0 = passes[0].outputs[i]
        if req.via_cli and out0 is not None:
            try:
                lib = req.rule(*req.args)
            except Exception as exc:    # the CLI answered where the library raised
                cli_mismatch[i] = f"CLI gives {out0}, library raises {type(exc).__name__}: {exc}"
                continue
            if (lib.lower, lib.upper) != out0:
                cli_mismatch[i] = f"CLI gives {out0}, library gives {(lib.lower, lib.upper)}"
    for p, mp in enumerate(passes):
        for i, req in enumerate(reqs):
            reason = mp.errors[i]
            lo_hi = mp.outputs[i]
            if reason is None:
                lo, hi = lo_hi
                tol = 1e-12 * (1.0 + abs(lo) + abs(hi))
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    reason = "non-finite endpoint"
                elif lo > hi:
                    reason = "inverted interval"
                elif req.estimate is not None and not lo - tol <= req.estimate <= hi + tol:
                    reason = f"interval {lo_hi} misses the point estimate {req.estimate}"
                elif lo_hi != passes[0].outputs[i]:
                    reason = "output differs from the first pass"
                elif i in cli_mismatch:
                    reason = cli_mismatch[i]
                elif pinned is not None and any(
                        abs(v - w) > PINNED_REL_TOL * (1.0 + abs(w))
                        for v, w in zip(lo_hi, pinned[i])):
                    reason = f"interval {lo_hi} differs from pinned {tuple(pinned[i])}"
            if reason is not None:
                out.append((p, i, f"{req.kind}: {reason}"))
    return out
