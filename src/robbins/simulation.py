"""Monte Carlo harness: replay interval rules along growing samples and tally
how often a sequence contradicts itself or misses the truth.

Per replication, the monitor state reduces to the running maximum of lower
endpoints and running minimum of upper endpoints (see core.SequenceMonitor);
the final flags depend only on the global max/min over the monitored range, so
the kernels reduce endpoints in fixed column tiles, carrying the running
max/min across tiles.  Every sample size in [n_min, n_max] is monitored.

Determinism contract
--------------------
Replication r of a run with master seed s draws from the counter-based stream
Philox(key=(s, r)); see replication_rng.  Work is partitioned into chunks of
replications, fixed by reps and n_max, whose integer tallies are summed in chunk order, so
results are bit-identical for any count of worker processes (threads; see
_map_chunks).  A chunk draws in row blocks of at most STREAM_CELLS cells with one
Philox of its own, re-keyed to (s, r) at a fresh state per row, so each row is the
replication_rng(s, r) stream.  Draw order:

* normal model:        y = theta + sigma0 * rng.standard_normal(n_max)
* bernoulli model:     successes are rng.random(n_max) < theta
* two-bernoulli model: u = rng.random((2, n_max)); sample j succeeds at step i
                       iff u[j-1, i] < theta_j  (one paired draw per step, so
                       n1 = n2 = n along the sequence)

Tables are data: each bundled table is a tuple of SequencePlans, one per cell.
Consecutive plans sharing their data streams, whatever their truth, form one kernel group,
run alike for every model: a serial _setup, then per chunk a module-level _chunk(plans,
set-up, r0, r1) that draws once for every truth (_draw) and flags each plan, so a cell
equals its plan run alone by run_plan.  A chunk has CHUNK_REPS rows while n_max <= 32 768
(every bundled table); beyond, its rows shrink as 1/n_max, so a chunk holds at most 32
STREAM_CELLS cells per statistic and truth (_slices).

The kernels call the scalar rules' own formulas, array-valued in the model modules:
the mixture and fixed-level half-widths (engine), corrected log-odds (two_bernoulli),
arcsine estimate, back-map and level-set drop (bernoulli).  The level-set rules (exact
Bernoulli mixture, likelihood ratio) cover theta at n for one band of counts, found once per
call and plan from the log-ratio at theta (_bands, bracketed from a coarse grid of looks;
binomial_level_set decides a probe within rounding of the threshold); a chunk is flagged by
integer compares against the bands, and endpoints are solved only where a contradiction
depends on them (_level_set_flags).

The plans of one truth, kind (closed form or level set) and weight (or none) form a chain,
narrowest first by the width constant c (_threshold); each later plan flags only the
rows its predecessor passes on, and no bit moves.  A closed-form plan scans the rows its
predecessor left noncovered: rounding is monotone, so each step of d and est +/- d keeps
the order of c, and a replication covered at one level is covered, and not contradicted,
at every wider one (the arcsine rule maps the reduced endpoints to theta, exact as
x -> sin(max(x, 0))^2 never decreases in floating point on [0, pi/2]; a test checks it).
A level-set plan compares only the rows its predecessor left noncovered, and seeks one-sided
contradictions only in those it contradicted: the level sets {theta : l(theta) >= log eps +
log q_n} grow as eps falls (the LR sets as conf rises), so a replication noncovered or
contradicted at a wider level is so at every narrower one.

Every link starts alike: a cheap compare against a band per look, then exact work only on
the rows that leave it.  A level-set link compares the counts with the set-up's band of
covered counts (_bands), then seeks one-sided contradictions per look only in the blocks of
about sqrt(n) looks that a bound cannot clear: the log-ratio at a probe v is convex in the
successes and in the failures, and at most 0 where s = n v, so over a block's box of counts it
is largest at a corner on its side of that line, and a block whose corners lie two margins
below the threshold holds no look to solve (_block_screen).  A mixture closed-form link
compares the estimates (normal, two-sample log-odds) or counts (arcsine) with the closed-form
roots of its coverage quadratic at each look's least variance in the chunk, shrunk by a
margin far beyond rounding (_closed_form_band), and scans only the rows leaving it: the
half-width grows with the variance, so a row inside at every look is covered at every look,
and neither noncovered nor contradicted.  Fixed-level links scan every row, as most of them
leave their band.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from ._special import betaln, gammaln, ndtri, xlogy
from .bernoulli import (EndpointSolveError, _arcsine_back_map, _arcsine_estimate, _level_set_drop,
                        _ratio_reaches, binomial_level_set)
from .core import BetaWeight, NormalWeight, WeightSpec, _require_integers, _require_sigma0_sq
from .engine import _half_width, _z_half_width
from .two_bernoulli import _corrected_log_odds
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
TILE_COLS = 256           # fixed column tile of the flag scan; likewise
STREAM_CELLS = 1 << 18    # cells per block of drawn streams (2 MiB of float64)

CSV_COLUMNS = ["table", "row_label", "level", "contradictions_pct", "noncoverages_pct",
               "se_contra", "se_noncov", "reps", "nmin", "nmax", "seed"]


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream splitting: replication rep of master seed seed uses
    Philox keyed by the pair (seed mod 2^64, rep).  Streams are independent of
    chunking, scheduling and worker count."""
    key = np.array([int(seed) % (1 << 64), rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _streams(seed, r0, r1, draw, shape):
    """Yield (i, x) per block of <= STREAM_CELLS cells (>= 1 row) of replications r0..r1-1:
    x[k] is replication_rng(seed, r0 + i + k).<draw>(shape), by one re-keyed Philox."""
    gen = replication_rng(seed, r0)
    bits, state = gen.bit_generator, gen.bit_generator.state
    key = state["state"]["key"]
    block = np.empty((max(1, STREAM_CELLS // math.prod(shape)),) + shape)
    for i in range(0, r1 - r0, len(block)):
        x = block[:r1 - r0 - i]
        for k, row in enumerate(x):
            key[1] = r0 + i + k
            bits.state = state
            getattr(gen, draw)(out=row)
        yield i, x


class Model(str, Enum):
    NORMAL_KNOWN_VAR = "normal"
    BERNOULLI = "bernoulli"
    TWO_BERNOULLI = "two-bernoulli"


class Rule(str, Enum):
    CLASSICAL_Z = "classical"
    LIKELIHOOD_RATIO = "lr"
    ROBBINS_EXACT = "exact"
    ROBBINS_APPROX = "approx"


# the weight family each supported (model, rule) takes; None for fixed-level rules
_WEIGHT_FAMILY = {
    (Model.NORMAL_KNOWN_VAR, Rule.CLASSICAL_Z): None,
    (Model.NORMAL_KNOWN_VAR, Rule.ROBBINS_EXACT): NormalWeight,
    (Model.BERNOULLI, Rule.LIKELIHOOD_RATIO): None,
    (Model.BERNOULLI, Rule.ROBBINS_EXACT): BetaWeight,
    (Model.BERNOULLI, Rule.ROBBINS_APPROX): NormalWeight,
    (Model.TWO_BERNOULLI, Rule.CLASSICAL_Z): None,
    (Model.TWO_BERNOULLI, Rule.ROBBINS_APPROX): NormalWeight,
}


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
        _require_integers(seed=self.seed, reps=self.reps, n_min=self.n_min, n_max=self.n_max)
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError(f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        _require_sigma0_sq(self.sigma0_sq)
        if (self.model, self.rule) not in _WEIGHT_FAMILY:
            raise ValueError(f"rule {self.rule.value} is not supported for the "
                             f"{self.model.value} model in simulation")
        family = _WEIGHT_FAMILY[self.model, self.rule]
        if not (self.weight is None if family is None else isinstance(self.weight, family)):
            need = "no weight function" if family is None else f"a {family.__name__} weight"
            raise ValueError(f"rule {self.rule.value} on model {self.model.value} takes "
                             f"{need}, got {type(self.weight).__name__}")
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

def _slices(plan) -> list:
    """The fixed replication slices [r0, r1) of the plan's chunks: CHUNK_REPS rows up to n_max
    32 768, fewer beyond, so a chunk holds at most 32 STREAM_CELLS cells per statistic."""
    step = min(CHUNK_REPS, max(1, 32 * STREAM_CELLS // plan.n_max))
    return [(r0, min(r0 + step, plan.reps)) for r0 in range(0, plan.reps, step)]


def _usable_cores() -> int:
    """The cores this process may run on: os.process_cpu_count where it exists (Python 3.13),
    else the size of its affinity set, else os.cpu_count()."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_chunks(groups, threads: int) -> list:
    """Counts of each group of plans: _chunk(plans, _setup(plans), r0, r1) summed over the
    fixed _slices [r0, r1) of plans[0], in slice order, so identical for any worker count.
    threads=1 or a single chunk runs in-process; else a pool of min(threads, chunks,
    _usable_cores()) worker processes (forked where the platform offers fork, else spawned)
    takes each group's chunks as soon as its set-up is built, and is shut down before
    returning, also when a set-up or chunk raises."""
    slices = [_slices(plans[0]) for plans in groups]
    pool, workers = None, min(threads, sum(map(len, slices)), _usable_cores())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
        pool = ProcessPoolExecutor(workers, mp_context=ctx)
    try:
        results = []
        for plans, group_slices in zip(groups, slices):
            setup, run = _setup(plans), functools.partial(pool.submit, _chunk) if pool else _chunk
            results.append([run(plans, setup, r0, r1) for r0, r1 in group_slices])
        return [_tally([r.result() if pool else r for r in rs]) for rs in results]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _tally(results: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(results[0])
    for r in results:
        out += r
    return out


# ---------------------------------------------------------------------------
# closed-form rules (normal, two-bernoulli, arcsine)
# ---------------------------------------------------------------------------

# A closed-form link's band is shrunk by _BAND_MARGIN of its scale (_closed_form_band), a
# million times the rounding of est +/- d and of the band: a row inside it at every look is
# covered at every look, so neither noncovered nor contradicted (lo <= truth <= up).
_BAND_MARGIN = 1e-9


def _closed_form_band(plan, ns, c, t, v):
    """The estimates per look that the mixture half-width at c surely covers at every variance
    >= v, or None for a fixed-level rule (unscreened: most rows leave its band).  Coverage
    (est - t)^2 <= v (log(tv/v) + c + (est - mu0)^2/tv), tv = tau0_sq + v, is quadratic in est,
    with roots A, B = (t - r mu0 -/+ sqrt(r (t - mu0)^2 + (1 - r) v (log(tv/v) + c))) / (1 - r),
    r = v/tv.  On [A + m, B - m], d - |est - t| >= (1 - r) m / 4 (d <= B - A there); m =
    _BAND_MARGIN (B - A + |t| + |mu0|) / (1 - r).  Each term on the right, v log1p(tau0_sq/v),
    v c and v (est - mu0)^2/(tau0_sq + v), is non-decreasing in v, so d only grows with v and a
    cell of larger variance inside the band is covered too.  t and v are _draw's: the truth on
    the estimate scale and each look's least variance.  The arcsine band maps to counts of ns
    (empty: a = b + 1), in the counts' type."""
    w = plan.weight
    if w is None:
        return None
    tv = w.tau0_sq + v
    r, q = v / tv, w.tau0_sq / tv          # r and 1 - r
    root = np.sqrt(r * (t - w.mu0) ** 2 + q * v * (np.log(tv / v) + c))
    m = _BAND_MARGIN * (2.0 * root / q + abs(t) + abs(w.mu0))
    a, b = (t - r * w.mu0 - root + m) / q, (t - r * w.mu0 + root - m) / q
    if plan.model != Model.BERNOULLI:
        return a, b
    lo = np.ceil(ns * np.sin(np.maximum(a, 0.0)) ** 2)
    hi = np.floor(ns * np.sin(np.minimum(b, 0.5 * math.pi)) ** 2)
    off = ~((a < t) & (t < b))      # a margin past the truth: every count leaves
    lo[off], hi[off] = 1, 0
    return lo.astype(np.min_scalar_type(plan.n_max)), hi.astype(np.min_scalar_type(plan.n_max))


def _rows_leaving(x, band, rows):
    """Whether each of the rows of x (replications x looks) leaves band = (a, b) per look at
    some look, on tiles of 16 TILE_COLS columns, so no mask of a whole chunk is built
    (compares gain from tiles wider than the endpoint scan's)."""
    out, width = False, 16 * TILE_COLS
    for j0 in range(0, x.shape[1], width):
        t, cols = x[rows, j0:j0 + width], slice(j0, j0 + width)
        out = out | (t < band[0][cols]).any(axis=1) | (t > band[1][cols]).any(axis=1)
    return out


def _closed_form_flags(plan, c, ns, stats, prior):
    """((contradicted, noncovered) counts, noncovered mask) of est +/- d on a chunk monitored
    at ns, on the rows prior holds that leave the plan's _closed_form_band at c (all of them
    for a fixed-level rule): a row inside it is covered at every look.  The band is built per
    chunk, as a pickled copy per link in every chunk's task costs the caller more memory than
    building it costs time.  stats = (est_v, truth, bounds, (x, t, vmin)) of _draw: the rows
    whose x leaves the band at (t, vmin) at some look are found by _rows_leaving; est_v(j0,
    j1, rows) gives their estimates and variances on the columns [j0, j1) of one tile,
    TILE_COLS columns per CHUNK_REPS // rows (rows: an index array, or slice(None) for all, so
    tiles are views), and d = engine._z_half_width (fixed-level rules) or _half_width at c.
    The running max of lower and min of upper endpoints are carried across the tiles, mapped
    to the parameter scale by bounds(maxlo, minup) when given, and flagged at the end."""
    est_v, truth, bounds, (x, t, vmin) = stats
    rows = slice(None) if prior.all() else np.flatnonzero(prior)
    if (band := _closed_form_band(plan, ns, c, t, vmin)) is not None:
        prior = np.zeros_like(prior)
        prior[rows] = _rows_leaving(x, band, rows)
        rows = np.flatnonzero(prior)
    lo, up = np.full((2, np.count_nonzero(prior)), [[-np.inf], [np.inf]])
    width = TILE_COLS * max(1, CHUNK_REPS // max(lo.size, 1))
    for j0 in range(0, ns.size, width):
        est, v = est_v(j0, j0 + width, rows)
        d = _z_half_width(v, c) if plan.weight is None else _half_width(v, est, plan.weight, c)
        np.maximum(lo, (est - d).max(axis=1), out=lo)
        np.minimum(up, (est + d).min(axis=1), out=up)
    if bounds is not None:
        lo, up = bounds(lo, up)
    noncovered = np.zeros_like(prior)
    noncovered[rows] = (lo > truth) | (up < truth)
    return (np.count_nonzero(lo > up), np.count_nonzero(noncovered)), noncovered


# ---------------------------------------------------------------------------
# level-set kernel (exact Bernoulli mixture, likelihood ratio)
# ---------------------------------------------------------------------------

# The log-ratio test settles a look only where (stat - c)(1 - v) lies outside +/-
# _LOG_RATIO_MARGIN (1 + n log n): stat sums terms of order n log n, rounding within
# ~1e-15 of that, and a float step of v moves it by ~n 1e-16 / (1 - v).  At each
# Newton endpoint, and one float beyond it, it is within a hundredth of the margin
# on its own side (a test checks); inside the margin, the endpoint decides.
_LOG_RATIO_MARGIN = 1e-12
_BAND_GRID = 32     # _bands searches the edges over their full range at every 32nd look


def _weight_tables(weights, ns) -> dict:
    """Per weight, (A, B, C, margin) of _log_ratio_tables: one set of arrays per weight and
    one margin for all, so a pickle holds each once."""
    xlogx = xlogy(k := np.arange(ns[-1] + 1.0), k)
    margin = _LOG_RATIO_MARGIN * (1.0 + xlogx[ns])
    return {w: ((xlogx, xlogx, xlogx[ns]) if w is None else (
        gammaln(k + w.alpha), gammaln(k + w.beta),
        gammaln(ns + (w.alpha + w.beta)) + float(betaln(w.alpha, w.beta)))) + (margin,)
        for w in weights}


def _level_set(plan) -> bool:
    """Whether the plan's rule is flagged on level sets (Bernoulli exact, likelihood ratio)."""
    return plan.model == Model.BERNOULLI and plan.rule != Rule.ROBBINS_APPROX


def _threshold(plan) -> float:
    """The plan's width constant c, rising with the width: -log eps or chi2_{1,conf}/2 of
    _log_ratio_tables (level sets), -2 log eps or z = ndtri((1 + conf)/2) (closed forms)."""
    level_set, level = _level_set(plan), plan.level
    if plan.weight is None:
        return _level_set_drop(None, level) if level_set else float(ndtri(0.5 * (1.0 + level)))
    return -math.log(level) if level_set else -2.0 * math.log(level)


def _log_ratio_tables(plan, ns, shared=None):
    """(A, B, C, margin, c) per run: v is covered at (n, s) = (ns[j], s) iff stat(v; s) =
    A[s] + B[n - s] - C[j] - s log v - (n - s) log(1 - v) <= c, with A, B, C = gammaln(k +
    alpha), gammaln(k + beta), gammaln(n + alpha + beta) + log B(alpha, beta) (exact rule);
    A = B = xlogy(k, k), C = n log n (likelihood ratio); c is _threshold.  shared: the
    _weight_tables holding the plan's weight, whose arrays its plans share, each with its c."""
    return (shared or _weight_tables([plan.weight], ns))[plan.weight] + (_threshold(plan),)


def _excess(tables, ns, v):
    """The scaled excess (r, s, j) -> (stat(v[r]; s) - c)(1 - v[r]) at counts s of
    ns[j], of the crossing statistic over its threshold (see _log_ratio_tables); 0 at
    every count where v[r] is 0 or 1, whose logs are infinite, so the endpoints decide."""
    A, B, C, _, c = tables
    w = np.where(edge := (v <= 0.0) | (v >= 1.0), 0.5, v)
    log1m_v, scale = np.log1p(-w), np.where(edge, 0.0, 1.0 - v)
    logit_v = np.log(w) - log1m_v

    def excess(r, s, j):
        ex = A.take(s)
        ex += B.take(ns[j] - s)
        ex -= s * logit_v[r]
        ex -= C[j] + c + ns[j] * log1m_v[r]
        ex *= scale[r]
        return ex

    return excess


def _endpoints(plan, s, n):
    """binomial_level_set endpoints of the plan at counts s of n; no call for no counts."""
    return (binomial_level_set(s, n, _level_set_drop(plan.weight, plan.level, s, n))
            if s.size else (s * 0.0, s * 0.0))


def _bands(plan, ns, theta, tables):
    """(a, b) per n: theta is covered at exactly the counts a <= s <= b, the crossing
    statistic being convex in s (empty band: a = b + 1).  a and b + 1 are the least s with
    upper >= theta and with lower > theta: outside the margin, theta is covered iff its
    _excess is negative, and else lies below the interval iff s > n theta; inside it, the
    endpoints decide.  That test is monotone in s, so any (lo, hi] where it fails at lo and
    holds at hi holds the edge.  (side - 1, n + side] is searched at every _BAND_GRID-th look
    and the last; elsewhere only where (floor(g) - 1, ceil(g)] around the interpolated edge g
    fails that check (its middle floor(g) then gives the edge)."""
    excess, margin = _excess(tables, ns, np.array([theta])), tables[3]

    def past(side, j, s):      # whether the edge of side at ns[j] is at most s
        n, t = ns[j], np.clip(s, 0, ns[j])
        ex = excess(0, t, j)
        out = np.where(ex < 0, side == 0, t > n * theta)
        near = np.flatnonzero(np.abs(ex) <= margin[j])
        lower, upper = _endpoints(plan, t[near], n[near])
        out[near] = upper >= theta if side == 0 else lower > theta
        return (out & (s >= 0)) | (s > n)

    def search(side, j):      # over the full range (side - 1, n + side], 15 probes a step
        lo, hi = j * 0 + side - 1, ns[j] + side
        while (e := np.flatnonzero(hi - lo > 1)).size:
            s = lo[e, None] + (hi[e] - lo[e])[:, None] * np.arange(1, 16) // 16
            p = past(side, j[e].repeat(15), s.ravel()).reshape(s.shape)
            lo[e], hi[e] = np.where(p, lo[e, None], s).max(1), np.where(p, s, hi[e, None]).min(1)
        return hi

    def edge(side):
        grid, j = np.r_[0:ns.size - 1:_BAND_GRID, ns.size - 1], np.arange(ns.size)
        guess = np.interp(j, grid, search(side, grid))
        lo, hi = np.floor(guess).astype(np.intp), np.ceil(guess).astype(np.intp)
        p = past(side, np.tile(j, 3), np.r_[lo - 1, lo, hi]).reshape(3, -1)
        e, fail = np.where(p[1], lo, hi), np.flatnonzero(p[0] | ~p[2])
        e[fail] = search(side, fail)
        return e

    return edge(0), edge(1) - 1


def _block_ends(ns):
    """The looks ending blocks of about sqrt(n) consecutive looks of ns: block k holds looks
    ends[k] to ends[k + 1] - 1, the last one also ends[-1], the last look."""
    ends = [0]
    while (j := ends[-1] + math.isqrt(int(ns[ends[-1]]))) < ns.size:
        ends.append(j)
    return np.array(ends + [ns.size - 1])


def _block_screen(excess, n0, se, fe, v, low, c, margin):
    """(ex, bound, open) of rows with counts se and fe = n - se at their block ends (rows x
    blocks + 1; block k lies in the box [se[k], se[k+1]] x [fe[k], fe[k+1]], counts never
    falling): ex, the excess(r, s, j) at each end (j = n - n0), bound, the largest excess of a
    look of the box where (s < n v) == low, and open, bound >= -2 margin (per block), as corners
    and looks round within a thousandth of the margin.  stat is convex in s and in f, and <= 0
    where s = n v, so bound is the largest of the corners on that side and, where the box
    crosses the line, c (v - 1)."""
    r, vr, low = np.arange(v.size)[:, None], v[:, None], low[:, None]

    def on_side(s, f):
        ex = excess(r, s, s + f - n0)
        return ex, np.where((s < (s + f) * vr) == low, ex, c * (vr - 1.0))

    ex, at = on_side(se, fe)
    bound = np.maximum(at[:, :-1], at[:, 1:])
    for s, f in ((se[:, :-1], fe[:, 1:]), (se[:, 1:], fe[:, :-1])):
        np.maximum(bound, on_side(s, f)[1], out=bound)
    return ex, bound, bound >= -2.0 * margin


def _block_looks(open_, ends):
    """(r, j) per look j of each open block (row r, block k of _block_ends), in batches of about
    CHUNK_REPS * TILE_COLS looks, so no array of a whole chunk is built."""
    r, k = np.nonzero(open_)
    width = ends[k + 1] - ends[k] + (k == ends.size - 2)
    first = np.cumsum(width) - width            # each block's offset among all the looks
    batch = first // (CHUNK_REPS * TILE_COLS)
    for i in np.split(np.arange(r.size), np.flatnonzero(np.diff(batch)) + 1):
        looks = np.arange(width[i].sum()) + first[i[:1]]
        yield np.repeat(r[i], width[i]), looks + np.repeat(ends[k[i]] - first[i], width[i])


def _level_set_flags(plan, sc, ns, tables, band, ends, prior):
    """((contradicted, noncovered) counts, masks) of a level-set plan on a chunk of counts sc
    (replications x ns) with _log_ratio_tables and band [a, b].  A row leaving the band is
    noncovered, and contradicted if it leaves on both sides, or below only and some lower
    endpoint exceeds U*, the least upper endpoint: iff stat(U*) > c there (above only: mirrored
    with L*).  prior holds the predecessor's masks (all rows for a chain's first link): only the
    rows leaving its narrower band are compared, and only those it contradicted are searched,
    per look only in the blocks (_block_ends) _block_screen keeps.  U* starts at v0, the endpoint
    at the block end of largest deficit (a block end with s > n v0 and stat(v0) > c + margin is
    a hit at once); a look with an upper endpoint below v0 has stat(v0) > c within a hundredth
    of the margin, so U* is the least upper endpoint where stat(v0) >= c - margin and s < n v0.
    Where s > n U*, a look is a hit if stat(U*) > c + margin, or by its endpoints within it."""
    (a, b), margin, (held, leaving) = band, tables[3], prior
    below, above = np.zeros((2, sc.shape[0]), dtype=bool)
    rows = slice(None) if leaving.all() else np.flatnonzero(leaving)
    below[rows], above[rows] = (sc[rows] < a).any(axis=1), (sc[rows] > b).any(axis=1)
    contradicted = below & above
    rows = np.flatnonzero((below != above) & held)
    if rows.size:
        side, se = below[rows], sc[rows[:, None], ends].astype(np.intp)
        fe, c, i = ns[ends] - se, _threshold(plan), np.arange(rows.size)
        k = np.argmax((np.where(side[:, None], a[ends] - se, se - b[ends]) - 0.5) / ns[ends], 1)
        lower, upper = _endpoints(plan, se[i, k], ns[ends[k]])
        v0 = np.where(side, upper, lower)
        excess = _excess(tables, ns, v0)
        ex, _, open_ = _block_screen(excess, ns[0], se, fe, v0, side, c, margin[ends[1:]])
        hit = ((ex > margin[ends]) & ((se < ns[ends] * v0[:, None]) != side[:, None])).any(axis=1)
        w = np.where(side, v0, -v0)       # U* = min upper, -L* = min -lower
        for r, j in _block_looks(open_ & ~hit[:, None], ends):
            s = sc[rows[r], j].astype(np.intp)
            cand = (excess(r, s, j) >= -margin[j]) & ((s < ns[j] * v0[r]) == side[r])
            lower, upper = _endpoints(plan, s[cand], ns[j[cand]])
            np.minimum.at(w, r[cand], np.where(side[r[cand]], upper, -lower))
        v = np.where(side, w, -w)
        excess = _excess(tables, ns, v)
        ex, _, open_ = _block_screen(excess, ns[0], se, fe, v, ~side, c, margin[ends[1:]])
        hit |= (ex > margin[ends]).any(axis=1)
        for r, j in _block_looks(open_ & ~hit[:, None], ends):
            s = sc[rows[r], j].astype(np.intp)
            ex = excess(r, s, j)
            hit[r[ex > margin[j]]] = True
            near = np.flatnonzero(np.abs(ex) <= margin[j])
            lower, upper = _endpoints(plan, s[near], ns[j[near]])
            r = r[near]
            hit[r[np.where(side[r], lower > v[r], upper < v[r])]] = True
        contradicted[rows[hit]] = True
    masks = np.stack((contradicted, below | above))
    return np.count_nonzero(masks, axis=1), masks


# ---------------------------------------------------------------------------
# the kernel: one set-up per group of plans, one draw and one chunk step per chunk
# ---------------------------------------------------------------------------

def _setup(plans):
    """(ns, chains, truths): the monitored sample sizes; per truth (in order of first use), kind
    (closed form or _level_set) and weight, the chain of the group's plans, narrowest first
    (_threshold): (k, c) per closed-form plans[k], (k, _log_ratio_tables, band at its truth,
    _block_ends) per level-set one, a weight's tables shared by all truths; and the truths.  The
    plans share the model, range, reps, seed and sigma0_sq, so one draw serves them all."""
    p, chains = plans[0], {}
    ns = np.arange(p.n_min, p.n_max + 1)
    truths = [q.truth for i, q in enumerate(plans) if q.truth not in [r.truth for r in plans[:i]]]
    c = [_threshold(pl) for pl in plans]
    weights = {pl.weight for pl in plans if _level_set(pl)}
    shared, ends = (_weight_tables(weights, ns), _block_ends(ns)) if weights else ({}, None)
    for k in sorted(range(len(plans)), key=c.__getitem__):
        if level_set := _level_set(pl := plans[k]):
            tables = _log_ratio_tables(pl, ns, shared)
            band = np.array(_bands(pl, ns, pl.truth, tables), dtype=np.min_scalar_type(p.n_max))
            link = k, tables, band, ends
        else:
            link = k, c[k]
        chains.setdefault((truths.index(pl.truth), level_set, pl.weight), []).append(link)
    return ns, list(chains.values()), truths


def _draw(plan, truths, ns, r0, r1):
    """Per truth, (counts, stats) of replications r0..r1-1 at ns from one _streams pass, by the
    ops of a draw for that truth alone.  counts: the success counts (replications x ns) of the
    Bernoulli model (else None); stats = (est_v, truth, bounds, (x, t, vmin)) as
    _closed_form_flags takes them: x is compared with the _closed_form_band at the truth t on
    the estimate scale and each look's least variance vmin.  Normal: the running means as x;
    two-Bernoulli: the paired corrected log-odds (estimate over s1 = x, variance over s2, vmin
    its least in the chunk), the log-odds ratio as truth; Bernoulli: the arcsine estimates,
    mapped back by _arcsine_back_map, with the counts as x."""
    p, m = plan, r1 - r0
    if p.model == Model.NORMAL_KNOWN_VAR:
        v, sigma0 = p.sigma0_sq / ns, math.sqrt(p.sigma0_sq)
        total = np.empty((len(truths), m, p.n_max))
        for i, y in _streams(p.seed, r0, r1, "standard_normal", (p.n_max,)):
            y *= sigma0
            for truth, x in zip(truths, total):
                np.cumsum(np.add(y, truth, out=x[i:i + len(y)]), axis=1, out=x[i:i + len(y)])
        est = total[..., p.n_min - 1:]
        est /= ns
        return [(None, (lambda j0, j1, rows, e=e: (e[rows, j0:j1], v[j0:j1]), t, None, (e, t, v)))
                for t, e in zip(truths, est)]
    if p.model == Model.TWO_BERNOULLI:
        s = np.empty((2, len(truths), m, ns.size))
        for i, u in _streams(p.seed, r0, r1, "random", (2, p.n_max)):
            for (theta1, theta2), x1, x2 in zip(truths, *s):
                x1[i:i + len(u)] = np.cumsum(u[:, 0] < theta1, axis=1)[:, p.n_min - 1:]
                x2[i:i + len(u)] = np.cumsum(u[:, 1] < theta2, axis=1)[:, p.n_min - 1:]
        vmin = np.empty((len(truths), ns.size))
        for j0 in range(0, ns.size, TILE_COLS):
            t1, t2, n = (x[..., j0:j0 + TILE_COLS] for x in (*s, ns))
            t1[...], t2[...] = _corrected_log_odds(n, n, t1, t2)
            vmin[:, j0:j0 + TILE_COLS] = t2.min(axis=1)
        psi = [math.log(a * (1.0 - b) / (b * (1.0 - a))) for a, b in truths]
        return [(None, (lambda j0, j1, rows, x=x, v=v: (x[rows, j0:j1], v[rows, j0:j1]), t, None,
                        (x, t, w))) for x, v, t, w in zip(*s, psi, vmin)]
    count_type, v = np.min_scalar_type(p.n_max), 0.25 / ns
    sc = np.empty((len(truths), m, ns.size), dtype=count_type)
    for i, u in _streams(p.seed, r0, r1, "random", (p.n_max,)):
        for truth, x in zip(truths, sc):
            x[i:i + len(u)] = np.cumsum(u < truth, axis=1, dtype=count_type)[:, p.n_min - 1:]
    return [(x, (lambda j0, j1, rows, x=x: (_arcsine_estimate(x[rows, j0:j1], ns[j0:j1]),
                                            v[j0:j1]), t, _arcsine_back_map,
                 (x, math.asin(math.sqrt(t)), v))) for t, x in zip(truths, sc)]


def _chunk(plans, setup, r0, r1):
    """(contradicted, noncovered) counts per plan on replications r0..r1-1: one _draw for every
    truth, then per chain of _setup's each link flags its truth's rows its predecessor passes
    on (all for the first): the noncovered ones of _closed_form_flags, both of _level_set_flags."""
    ns, chains, truths = setup
    draws = _draw(plans[0], truths, ns, r0, r1)
    counts = np.zeros((len(plans), 2), dtype=np.int64)
    for chain in chains:
        level_set, (sc, stats) = _level_set(p := plans[chain[0][0]]), draws[truths.index(p.truth)]
        prior = np.ones((2, r1 - r0) if level_set else r1 - r0, dtype=bool)
        for k, *link in chain:
            counts[k], prior = (
                _level_set_flags(plans[k], sc, ns, *link, prior) if level_set else
                _closed_form_flags(plans[k], *link, ns, stats, prior))
    return counts


def _crossings(path, k, n_max, reps, seed) -> int:
    """Replications r < reps of the LogRatioPath's model with q_n/p_n >= k at some n <= n_max:
    the noncovered count of the exact-rule cell at level 1/k from n = 1.  A Bernoulli band edge
    whose count a - 1, a, b or b + 1 lies within the margin of log k moves by one count where
    bernoulli._ratio_reaches disagrees, so the band holds exactly the counts with q_n/p_n < k,
    and the count is that of the rows leaving it: no contradiction is sought."""
    plan = SequencePlan(Model(path.model), path.truth, Rule.ROBBINS_EXACT, 1.0 / k, path.weight,
                        1, n_max, reps, seed, path.sigma0_sq)
    ns, chains, _ = setup = _setup([plan])
    if plan.model == Model.BERNOULLI:
        [[(_, tables, band, _)]], j = chains, np.tile(np.arange(n_max), 4)
        s = np.clip((band.astype(np.intp)[[0, 0, 1, 1]] + [[-1], [0], [0], [1]]).ravel(), 0, ns[j])
        near = np.abs(_excess(tables, ns, np.array([path.truth]))(0, s, j)) <= tables[3][j]
        for e in np.flatnonzero(near).tolist():
            x, i, w = int(s[e]), e % n_max, e // n_max  # w: a - 1, a, b, b + 1 (intp: a - 1 < 0)
            if _ratio_reaches(x, i + 1, path.truth, path.weight, k) == (w in (1, 2)):
                band[w // 2, i] = x + (w == 1) - (w == 2)
        return sum(int(_rows_leaving(_draw(plan, [plan.truth], ns, r0, r1)[0][0], band,
                                     slice(None)).sum()) for r0, r1 in _slices(plan))
    return sum(int(_chunk([plan], setup, r0, r1)[0][1]) for r0, r1 in _slices(plan))


# ---------------------------------------------------------------------------
# plans and tables
# ---------------------------------------------------------------------------

def _run_plans(table: str, plans, threads: int) -> list:
    """One report row per plan; each run of consecutive plans sharing data streams (any truth)
    is one kernel group (grouped in order, as a dict of groups would reorder interleaved ones)."""
    _require_integers(threads=threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    groups = [list(g) for _, g in itertools.groupby(plans, key=lambda p: (
        p.model, p.n_min, p.n_max, p.reps, p.seed, p.sigma0_sq))]
    return [_report_row(table, plan, cnt) for group, counts in
            zip(groups, _map_chunks(groups, threads)) for plan, cnt in zip(group, counts)]


def _report_row(table: str, plan: SequencePlan, counts) -> ReportRow:
    """Percentages with binomial SEs; the level shows as 100*conf or 100*(1 - eps)."""
    pct = [100.0 * int(c) / plan.reps for c in counts]
    se = [100.0 * math.sqrt(p / 100.0 * (1.0 - p / 100.0) / plan.reps) for p in pct]
    level = 100.0 * plan.level if plan.weight is None else round(100.0 * (1.0 - plan.level), 6)
    return ReportRow(table, plan.label or f"{plan.model.value}/{plan.rule.value}", level,
                     *pct, *se, plan.reps, plan.n_min, plan.n_max, plan.seed)


def run_plan(plan: SequencePlan, threads: int = 1) -> ReportRow:
    """Run one simulation cell.  Equals the corresponding reproduce_table cell
    whenever model, truth, range, reps and seed coincide (the data streams
    depend only on (seed, replication)).  threads is the number of worker
    processes, as in reproduce_table."""
    return _run_plans("-", (plan,), threads)[0]


# -- the five tables as plans (rows of (label, weight), levels innermost) ----

_EPS_LEVELS = (0.50, 0.20, 0.10, 0.05)
_CONF_LEVELS = (0.90, 0.95, 0.99, 0.995)


def _cells(model, truth, n_min, n_max, rule, rows, levels) -> tuple:
    return tuple(SequencePlan(model, truth, rule, level, weight, n_min, n_max, label=label)
                 for label, weight in rows for level in levels)


def _normal_rows(params) -> list:
    """(label, weight) rows for NormalWeight(mu0, tau0_sq) over (mu0, tau0_sq) pairs."""
    return [(f"mu0={mu0:g},tau0sq=" + ("2pi^2" if tau2 == 2.0 * math.pi ** 2 else f"{tau2:g}"),
             NormalWeight(mu0, tau2)) for mu0, tau2 in params]


_THETAS = (0.5, 0.7, 0.9)

_TABLES = {
    "T1": _cells(Model.NORMAL_KNOWN_VAR, 0.0, 10, 4000, Rule.CLASSICAL_Z,
                 [("z", None)], _CONF_LEVELS),
    "T2": _cells(Model.NORMAL_KNOWN_VAR, 0.0, 10, 4000, Rule.ROBBINS_EXACT,
                 _normal_rows(((0.0, 0.1), (0.0, 1.0), (0.0, 10.0),
                               (1.0, 1.0), (2.0, 1.0), (5.0, 1.0))), _EPS_LEVELS),
    "T3": sum((_cells(Model.BERNOULLI, th, 100, 4000, Rule.LIKELIHOOD_RATIO,
                      [(f"theta={th:g}", None)], _CONF_LEVELS) for th in _THETAS), ()),
    "T4": sum((_cells(Model.BERNOULLI, th, 100, 4000, Rule.ROBBINS_EXACT,
                      [(f"theta={th:g},Beta({a:g},{b:g})", BetaWeight(a, b))
                       for a, b in ((0.5, 0.5), (1.0, 1.0), (5.0, 5.0))], _EPS_LEVELS)
               for th in _THETAS), ()),
    "T5": _cells(Model.TWO_BERNOULLI, (0.2, 0.25), 50, 2000, Rule.ROBBINS_APPROX,
                 _normal_rows(((0.0, 2.0 * math.pi ** 2), (0.0, 5.0), (0.0, 1.0),
                               (0.0, 0.1), (1.0, 5.0), (-1.0, 5.0))), _EPS_LEVELS),
}

TABLE_IDS = tuple(_TABLES)


def reproduce_table(table_id: str, reps: int = 10_000, seed: int = 42,
                    threads: int = 1) -> TableReport:
    """Re-run the full configuration grid of one of the five bundled tables.

    Cells sharing a data-generating truth reuse the same replication streams,
    so every cell is reproducible in isolation through run_plan.

    threads is the number of worker processes (see _map_chunks); the result does
    not depend on it.  The pool forks where the platform offers fork, which is
    unsafe while the caller runs other threads: call it from a single-threaded
    program, or pass threads=1.  Where it spawns, guard the calling script with
    ``if __name__ == "__main__":``.
    """
    if not isinstance(table_id, str) or table_id.upper() not in TABLE_IDS:
        raise ValueError(f"table_id must be one of {TABLE_IDS}, got {table_id!r}")
    table_id = table_id.upper()
    plans = [replace(plan, reps=reps, seed=seed) for plan in _TABLES[table_id]]
    return TableReport(table=table_id, rows=tuple(_run_plans(table_id, plans, threads)))


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
