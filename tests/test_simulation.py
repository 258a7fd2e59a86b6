import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtri, xlogy

from robbins import bernoulli, engine, normal, reference, simulation, two_bernoulli
from robbins.core import BetaWeight, Interval, NormalWeight, PersistenceLevel, SequenceMonitor
from robbins.simulation import (CHUNK_REPS, CSV_COLUMNS, CellComparison, EndpointSolveError,
                                Model, ReportRow, Rule, SequencePlan, TableReport,
                                compare_to_reference, replication_rng, reproduce_table,
                                run_plan)


class TestReplicationRng:
    def test_same_key_same_stream(self):
        a = replication_rng(42, 7).random(5)
        b = replication_rng(42, 7).random(5)
        assert np.array_equal(a, b)

    def test_distinct_reps_distinct_streams(self):
        a = replication_rng(42, 7).random(5)
        b = replication_rng(42, 8).random(5)
        assert not np.array_equal(a, b)

    def test_large_seed_accepted(self):
        replication_rng(2 ** 70 + 3, 0).random(1)

    @pytest.mark.parametrize("draw, shape", [("random", (40_000,)), ("random", (2, 40_000)),
                                             ("standard_normal", (40_000,))])
    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("seed", [42, 2 ** 70 + 3])
    def test_block_streams_equal_replication_rng(self, monkeypatch, draw, shape, rows, seed):
        # one re-keyed Philox per chunk draws blocks of 1, 3 and (by default) 6 or 3
        # rows; 7 replications leave a ragged last block
        if rows is not None:
            monkeypatch.setattr(simulation, "STREAM_CELLS", rows * math.prod(shape))
        r0, r1 = 300, 307
        got = np.full((r1 - r0,) + shape, np.nan)
        for i, x in simulation._streams(seed, r0, r1, draw, shape):
            got[i:i + len(x)] = x
        want = [getattr(replication_rng(seed, r), draw)(shape) for r in range(r0, r1)]
        assert np.array_equal(got, want)


class TestPlanValidation:
    def test_weight_required_for_mixture_rules(self):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.ROBBINS_EXACT,
                         level=0.2)

    def test_no_weight_for_fixed_level_rules(self):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.CLASSICAL_Z,
                         level=0.95, weight=NormalWeight(0, 1))

    def test_weight_family_checked(self):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.BERNOULLI, truth=0.5, rule=Rule.ROBBINS_EXACT,
                         level=0.2, weight=NormalWeight(0, 1))

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.ROBBINS_APPROX,
                         level=0.2, weight=NormalWeight(0, 1))
        with pytest.raises(ValueError):
            SequencePlan(model=Model.TWO_BERNOULLI, truth=(0.2, 0.25),
                         rule=Rule.ROBBINS_EXACT, level=0.2, weight=NormalWeight(0, 1))

    def test_level_range(self):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.BERNOULLI, truth=0.5, rule=Rule.LIKELIHOOD_RATIO,
                         level=1.0)

    @pytest.mark.parametrize("truth", [1.5, 0.0, 1.0, -0.1, float("nan"), (0.2, 0.3)])
    def test_bernoulli_truth_in_unit_interval(self, truth):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.BERNOULLI, truth=truth, rule=Rule.LIKELIHOOD_RATIO,
                         level=0.95)

    @pytest.mark.parametrize("truth", [(1.5, 0.2), (0.2, 0.0), (0.2, float("nan")),
                                       (0.2, 0.25, 0.3), (0.2,), 0.2])
    def test_two_bernoulli_truth_is_pair_in_unit_square(self, truth):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.TWO_BERNOULLI, truth=truth, rule=Rule.CLASSICAL_Z,
                         level=0.95)

    @pytest.mark.parametrize("truth", [float("inf"), float("-inf"), float("nan"), (0.0, 1.0)])
    def test_normal_truth_finite(self, truth):
        with pytest.raises(ValueError):
            SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=truth, rule=Rule.CLASSICAL_Z,
                         level=0.95)

    @pytest.mark.parametrize("sigma0_sq", [0.0, -1.0, float("nan"), float("inf")])
    def test_sigma0_sq_finite_positive(self, sigma0_sq):
        # 0, nan and inf used to give 0% / 0%; -1 a bare math domain error
        with pytest.raises(ValueError, match="sigma0_sq"):
            SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.CLASSICAL_Z,
                         level=0.95, sigma0_sq=sigma0_sq)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("reps", 40.0),
                                              ("reps", np.float64(3)), ("n_min", 2.0),
                                              ("n_max", 50.5), ("n_max", False)])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        # seed 1.5 used to run seed 1 and report 1.5; reps 40.0 and n_max 50.5
        # raised a bare TypeError and IndexError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SequencePlan(model=Model.BERNOULLI, truth=0.5, rule=Rule.LIKELIHOOD_RATIO,
                         level=0.95, **{field: value})

    def test_numpy_integer_sizes_and_seed_accepted(self):
        base = dict(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.CLASSICAL_Z,
                    level=0.9)
        plain = run_plan(SequencePlan(n_min=5, n_max=40, reps=30, seed=3, **base))
        wide = run_plan(SequencePlan(n_min=np.int32(5), n_max=np.int64(40),
                                     reps=np.uint16(30), seed=np.int64(3), **base))
        assert wide == plain

    def test_valid_truths_accepted(self):
        SequencePlan(model=Model.BERNOULLI, truth=np.float64(0.3),
                     rule=Rule.LIKELIHOOD_RATIO, level=0.95)
        SequencePlan(model=Model.TWO_BERNOULLI, truth=[0.2, 0.25], rule=Rule.CLASSICAL_Z,
                     level=0.95)
        SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=-3, rule=Rule.CLASSICAL_Z,
                     level=0.95)


def _slow_flags(model_update, truth, reps, seed):
    """Replay a rule through the scalar library + SequenceMonitor."""
    contra = noncov = 0
    for r in range(reps):
        mon = SequenceMonitor(true_value=truth)
        model_update(replication_rng(seed, r), mon)
        contra += mon.contradicted
        noncov += mon.noncovered
    return contra, noncov


def _assert_rates_at_tile_widths(monkeypatch, plan, slow):
    """run_plan's rates equal the replayed (contradictions, noncoverages) at tile
    widths 1, 7 (a ragged last tile) and the default, so the running max/min is
    carried across tiles."""
    for width in (1, 7, simulation.TILE_COLS):
        monkeypatch.setattr(simulation, "TILE_COLS", width)
        row = run_plan(plan)
        assert (row.contradictions_pct, row.noncoverages_pct) == \
            (100.0 * slow[0] / plan.reps, 100.0 * slow[1] / plan.reps), (plan.rule, width)


class TestKernelsMatchMonitorReplay:
    """The vectorised kernels must agree, replication by replication, with the
    scalar interval functions replayed through the running monitor, whatever
    the column tile width of the flag scan."""

    def test_normal_rules(self, monkeypatch):
        theta, s2, n_min, n_max, reps, seed = 0.3, 2.0, 5, 60, 40, 99
        w = NormalWeight(0.5, 1.5)
        lvl = PersistenceLevel(0.2)

        def replay_robbins(rng, mon):
            y = theta + math.sqrt(s2) * rng.standard_normal(n_max)
            csum = np.cumsum(y)
            for n in range(n_min, n_max + 1):
                stat = normal.NormalSuffStat(n, csum[n - 1] / n)
                mon.update(normal.robbins_interval_known_var(stat, s2, w, lvl))

        def replay_z(rng, mon):
            y = theta + math.sqrt(s2) * rng.standard_normal(n_max)
            csum = np.cumsum(y)
            for n in range(n_min, n_max + 1):
                stat = normal.NormalSuffStat(n, csum[n - 1] / n)
                mon.update(normal.classical_interval(stat, s2, 0.9))

        base = dict(model=Model.NORMAL_KNOWN_VAR, truth=theta, sigma0_sq=s2,
                    n_min=n_min, n_max=n_max, reps=reps, seed=seed)
        _assert_rates_at_tile_widths(
            monkeypatch, SequencePlan(rule=Rule.ROBBINS_EXACT, level=0.2, weight=w, **base),
            _slow_flags(replay_robbins, theta, reps, seed))
        _assert_rates_at_tile_widths(
            monkeypatch, SequencePlan(rule=Rule.CLASSICAL_Z, level=0.9, **base),
            _slow_flags(replay_z, theta, reps, seed))

    def test_bernoulli_rules(self, monkeypatch):
        theta, n_min, n_max, reps, seed = 0.6, 3, 120, 30, 31
        weight = BetaWeight(2.0, 1.0)
        omega_w = bernoulli.omega_weight_from_beta(weight)
        lvl = PersistenceLevel(0.3)

        def make_replay(rule_fn):
            def replay(rng, mon):
                s = np.cumsum(rng.random(n_max) < theta)
                for n in range(n_min, n_max + 1):
                    mon.update(rule_fn(bernoulli.BernoulliSuffStat(n, int(s[n - 1]))))
            return replay

        base = dict(model=Model.BERNOULLI, truth=theta, n_min=n_min, n_max=n_max,
                    reps=reps, seed=seed)
        cases = [
            (SequencePlan(rule=Rule.ROBBINS_EXACT, level=0.3, weight=weight, **base),
             make_replay(lambda st: bernoulli.robbins_interval_bernoulli(st, weight, lvl))),
            (SequencePlan(rule=Rule.LIKELIHOOD_RATIO, level=0.9, **base),
             make_replay(lambda st: bernoulli.lr_interval(st, 0.9))),
            (SequencePlan(rule=Rule.ROBBINS_APPROX, level=0.3, weight=omega_w, **base),
             make_replay(lambda st: bernoulli.arcsine_approx_interval(st, omega_w, lvl))),
        ]
        for plan, replay in cases:
            _assert_rates_at_tile_widths(monkeypatch, plan,
                                         _slow_flags(replay, theta, reps, seed))

    def test_two_bernoulli_rules(self, monkeypatch):
        th1, th2, n_min, n_max, reps, seed = 0.25, 0.4, 2, 80, 30, 17
        w = NormalWeight(0.0, 5.0)
        lvl = PersistenceLevel(0.2)
        psi_true = math.log(th1 * (1 - th2) / (th2 * (1 - th1)))

        def make_replay(rule_fn):
            def replay(rng, mon):
                u = rng.random((2, n_max))
                s1 = np.cumsum(u[0] < th1)
                s2 = np.cumsum(u[1] < th2)
                for n in range(n_min, n_max + 1):
                    stat = two_bernoulli.TwoSampleStat(n, n, int(s1[n - 1]), int(s2[n - 1]))
                    mon.update(rule_fn(stat))
            return replay

        base = dict(model=Model.TWO_BERNOULLI, truth=(th1, th2), n_min=n_min,
                    n_max=n_max, reps=reps, seed=seed)
        cases = [
            (SequencePlan(rule=Rule.ROBBINS_APPROX, level=0.2, weight=w, **base),
             make_replay(lambda st: two_bernoulli.approx_interval_log_odds(st, w, lvl))),
            (SequencePlan(rule=Rule.CLASSICAL_Z, level=0.99, **base),
             make_replay(lambda st: two_bernoulli.wald_interval(st, 0.99))),
        ]
        for plan, replay in cases:
            _assert_rates_at_tile_widths(monkeypatch, plan,
                                         _slow_flags(replay, psi_true, reps, seed))

    # eps 0.5 gives each mixture closed form its narrowest band, and n_min 1 its most
    # jagged looks: many rows leave the band and take the exact scan, many stay inside
    @pytest.mark.parametrize("model", list(Model))
    def test_closed_form_rows_grazing_the_band(self, monkeypatch, model):
        n_max, reps, seed, lvl = 150, 60, 41, PersistenceLevel(0.5)
        ns = range(1, n_max + 1)
        if model == Model.NORMAL_KNOWN_VAR:
            truth, s2, w = 0.3, 2.0, NormalWeight(0.5, 1.5)

            def replay(rng, mon):
                y = np.cumsum(truth + math.sqrt(s2) * rng.standard_normal(n_max))
                for n in ns:
                    mon.update(normal.robbins_interval_known_var(
                        normal.NormalSuffStat(n, y[n - 1] / n), s2, w, lvl))

            plan = SequencePlan(model, truth, Rule.ROBBINS_EXACT, 0.5, w, sigma0_sq=s2)
        elif model == Model.BERNOULLI:
            truth, w = 0.6, NormalWeight(0.9, 0.1)

            def replay(rng, mon):
                s = np.cumsum(rng.random(n_max) < truth)
                for n in ns:
                    mon.update(bernoulli.arcsine_approx_interval(
                        bernoulli.BernoulliSuffStat(n, int(s[n - 1])), w, lvl))

            plan = SequencePlan(model, truth, Rule.ROBBINS_APPROX, 0.5, w)
        else:
            (th1, th2), w = (0.25, 0.4), NormalWeight(0.0, 5.0)
            truth = math.log(th1 * (1 - th2) / (th2 * (1 - th1)))

            def replay(rng, mon):
                u = rng.random((2, n_max))
                s1, s2 = np.cumsum(u[0] < th1), np.cumsum(u[1] < th2)
                for n in ns:
                    mon.update(two_bernoulli.approx_interval_log_odds(
                        two_bernoulli.TwoSampleStat(n, n, int(s1[n - 1]), int(s2[n - 1])), w, lvl))

            plan = SequencePlan(model, (th1, th2), Rule.ROBBINS_APPROX, 0.5, w)
        plan = dataclasses.replace(plan, n_min=1, n_max=n_max, reps=reps, seed=seed)
        slow = _slow_flags(replay, truth, reps, seed)
        assert 0 < slow[0] < slow[1] < reps
        # at a margin of 0.9 every band is empty, so every row takes the exact scan; no bit
        # may move either way
        for margin in (simulation._BAND_MARGIN, 0.9):
            monkeypatch.setattr(simulation, "_BAND_MARGIN", margin)
            looks = np.arange(1, n_max + 1)
            x, t, vmin = simulation._draw(plan, [plan.truth], looks, 0, reps)[0][1][3]
            c = simulation._threshold(plan)
            band = simulation._closed_form_band(plan, looks, c, t, vmin)
            leaving = np.count_nonzero(simulation._rows_leaving(x, band, slice(None)))
            if margin == 0.9:
                assert np.all(band[0] > band[1])       # empty at every look
                assert leaving == reps
            else:
                assert 0.2 * reps < leaving <= 0.8 * reps
            _assert_rates_at_tile_widths(monkeypatch, plan, slow)


def _fine_bisection(s, n, T, iters=200):
    """Lower and upper endpoints of {theta: s log theta + (n-s) log(1-theta) >= T}
    by plain bisection on [0, s/n] and [s/n, 1]."""
    that = s / n

    def inside(m):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.nan_to_num(s * np.log(m) + (n - s) * np.log1p(-m), nan=-np.inf) >= T

    ends = []
    for lo, hi, rising in ((np.zeros_like(s), that, True), (that, np.ones_like(s), False)):
        lo, hi = lo.copy(), hi.copy()
        for _ in range(iters):
            m = 0.5 * (lo + hi)
            move_lo = inside(m) != rising
            lo = np.where(move_lo, m, lo)
            hi = np.where(move_lo, hi, m)
        ends.append(0.5 * (lo + hi))
    return ends


class TestLevelSetKernelEndpoints:
    """The shared Newton solve of the binomial level set, checked against the
    scalar library rules and against a fine bisection."""

    @staticmethod
    def _solve(s, n, drop):
        s, n, drop = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (s, n, drop))
        return bernoulli.binomial_level_set(s, n, drop)

    def test_newton_solver_matches_library_intervals(self):
        from scipy.special import betaln, chdtri, xlogy
        rng = np.random.default_rng(5)
        lvl = PersistenceLevel(0.2)
        for _ in range(25):
            n = int(rng.integers(5, 2000))
            s = int(rng.integers(1, n))
            a, b = float(rng.uniform(0.3, 5)), float(rng.uniform(0.3, 5))
            stat = bernoulli.BernoulliSuffStat(n, s)
            iv = bernoulli.robbins_interval_bernoulli(stat, BetaWeight(a, b), lvl)
            lmax = xlogy(s, s / n) + xlogy(n - s, 1 - s / n)
            T = math.log(0.2) + float(betaln(s + a, n - s + b) - betaln(a, b))
            lo, hi = self._solve(s, n, lmax - T)
            assert lo[0] == pytest.approx(iv.lower, abs=1e-8)
            assert hi[0] == pytest.approx(iv.upper, abs=1e-8)

            conf = float(rng.choice([0.9, 0.95, 0.99, 0.995]))
            iv = bernoulli.lr_interval(stat, conf)
            lo, hi = self._solve(s, n, 0.5 * float(chdtri(1, 1 - conf)))
            assert lo[0] == pytest.approx(iv.lower, abs=1e-8)
            assert hi[0] == pytest.approx(iv.upper, abs=1e-8)

    def test_newton_solver_matches_fine_bisection_on_dense_grid(self):
        from scipy.special import betaln, chdtri, xlogy
        pairs = [(n, s) for n in list(range(2, 150)) + list(range(150, 4001, 71))
                 for s in range(1, n, 1 + n // 500)]
        n, s = (np.array(x, dtype=float) for x in zip(*pairs))
        lmax = xlogy(s, s / n) + xlogy(n - s, 1 - s / n)
        thresholds = [lmax - 0.5 * float(chdtri(1, 1 - conf)) for conf in (0.9, 0.995)]
        thresholds += [math.log(eps) + betaln(s + a, n - s + b) - betaln(a, b)
                       for eps, a, b in ((0.5, 0.5, 0.5), (0.05, 1, 1), (0.05, 5, 5),
                                         (0.01, 0.3, 4.7))]
        for T in thresholds:
            lo, hi = self._solve(s, n, lmax - T)
            ref_lo, ref_hi = _fine_bisection(s, n, T)
            assert np.max(np.abs(lo - ref_lo)) <= 1e-12
            assert np.max(np.abs(hi - ref_hi)) <= 1e-12

    def test_boundary_pairs_closed_form(self):
        n = np.array([1, 2, 3, 10, 100, 4000], dtype=float)
        for drop in (0.05, 1.3, 4.0, 30.0):
            lo0, up0 = self._solve(np.zeros_like(n), n, drop)
            lon, upn = self._solve(n, n, drop)
            assert np.all(lo0 == 0.0) and np.all(upn == 1.0)
            # s = 0: l = n log(1 - theta), region [0, up0]; s = n: l = n log(theta)
            _, ref_up0 = _fine_bisection(np.zeros_like(n), n, -drop)
            ref_lon, _ = _fine_bisection(n.copy(), n, -drop)
            assert np.max(np.abs(up0 - ref_up0)) <= 1e-12
            assert np.max(np.abs(lon - ref_lon)) <= 1e-12
        stat0, statn = bernoulli.BernoulliSuffStat(50, 0), bernoulli.BernoulliSuffStat(50, 50)
        drop = 0.5 * 2.705543454095404          # chi2_{1, 0.9} / 2
        assert bernoulli.lr_interval(stat0, 0.9).upper == \
            pytest.approx(-math.expm1(-drop / 50), abs=1e-15)
        assert bernoulli.lr_interval(statn, 0.9).lower == \
            pytest.approx(math.exp(-drop / 50), abs=1e-15)

    @pytest.mark.parametrize("s,n", [(-1, 5), (6, 5), (0, 0), (math.nan, 5)])
    def test_counts_outside_the_sample_rejected(self, s, n):
        with pytest.raises(ValueError):
            self._solve(s, n, 1.0)

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 8, 10 ** 10])
    def test_scalar_rules_at_large_n(self, n):
        # lower endpoints at s = 1 lie far below any absolute tolerance; the
        # Newton solve keeps 1e-6 relative accuracy up to n = 1e10 (5e-6 at 1e11)
        from scipy.special import betaln, chdtri, xlogy
        weight, lvl, conf = BetaWeight(0.5, 0.5), PersistenceLevel(0.2), 0.95
        for s in (1, 3, n - 3, n - 1):
            stat = bernoulli.BernoulliSuffStat(n, s)
            lmax = float(xlogy(s, s / n) + xlogy(n - s, 1 - s / n))
            for iv, T in (
                    (bernoulli.robbins_interval_bernoulli(stat, weight, lvl),
                     lvl.log_epsilon + float(betaln(s + 0.5, n - s + 0.5) - betaln(0.5, 0.5))),
                    (bernoulli.lr_interval(stat, conf),
                     lmax - 0.5 * float(chdtri(1, 1 - conf)))):
                assert iv.lower <= s / n <= iv.upper
                assert iv.lower > 0.0
                ref_lo, ref_hi = _fine_bisection(np.array([float(s)]), np.array([float(n)]), T)
                assert iv.lower == pytest.approx(ref_lo[0], rel=1e-6, abs=0.0), (n, s)
                assert iv.upper == pytest.approx(ref_hi[0], rel=1e-6, abs=0.0), (n, s)

    def test_kernel_boundary_pairs_match_monitor_replay_without_warnings(self, recwarn):
        # small theta and n from 1: s = 0 and s = n both occur in the pair table
        n_max, reps, seed = 60, 30, 12
        weight = BetaWeight(1.0, 1.0)
        lvl = PersistenceLevel(0.1)
        for theta in (0.03, 0.97):
            def replay(rule_fn):
                def run(rng, mon):
                    s = np.cumsum(rng.random(n_max) < theta)
                    for n in range(1, n_max + 1):
                        mon.update(rule_fn(bernoulli.BernoulliSuffStat(n, int(s[n - 1]))))
                return run

            base = dict(model=Model.BERNOULLI, truth=theta, n_min=1, n_max=n_max,
                        reps=reps, seed=seed)
            for plan, fn in (
                    (SequencePlan(rule=Rule.ROBBINS_EXACT, level=0.1, weight=weight, **base),
                     lambda st: bernoulli.robbins_interval_bernoulli(st, weight, lvl)),
                    (SequencePlan(rule=Rule.LIKELIHOOD_RATIO, level=0.95, **base),
                     lambda st: bernoulli.lr_interval(st, 0.95))):
                row = run_plan(plan)
                slow = _slow_flags(replay(fn), theta, reps, seed)
                assert (row.contradictions_pct, row.noncoverages_pct) == \
                    (100.0 * slow[0] / reps, 100.0 * slow[1] / reps), (theta, plan.rule)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_endpoint_raises_named_error(self, recwarn):
        # conf = 1e-300 rounds the likelihood-ratio drop to exactly 0, a level
        # set with no interior: the shared solver must fail loudly, not warn,
        # in the kernel and in the scalar rule alike
        plan = SequencePlan(model=Model.BERNOULLI, truth=0.5, rule=Rule.LIKELIHOOD_RATIO,
                            level=1e-300, n_min=10, n_max=50, reps=4, seed=1)
        with pytest.raises(EndpointSolveError):
            run_plan(plan)
        with pytest.raises(EndpointSolveError):
            bernoulli.lr_interval(bernoulli.BernoulliSuffStat(20, 7), 1e-300)
        for s in (0, 10):       # a negative drop reverses the closed-form endpoints
            with pytest.raises(EndpointSolveError):
                bernoulli.binomial_level_set(s, 10, -1.0)
        assert issubclass(EndpointSolveError, ArithmeticError)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _log_ratio_excess(plan, v, s, n):
    """(stat(v; s) - c)(1 - v), the scaled excess of the crossing statistic over
    its threshold that the level-set kernel reads from lookup tables, written out
    in the kernel's operation order."""
    from scipy.special import betaln, gammaln, xlogy
    w = plan.weight
    if w is None:
        A = B = lambda k: xlogy(k, k)
        C = xlogy(n, n) + 0.5 * float(chdtri(1, 1 - plan.level))
    else:
        A, B = (lambda k: gammaln(k + w.alpha)), (lambda k: gammaln(k + w.beta))
        C = (gammaln(n + (w.alpha + w.beta)) + float(betaln(w.alpha, w.beta))
             - math.log(plan.level))
    with np.errstate(divide="ignore", invalid="ignore"):
        log1m_v = np.log1p(-v)
        return (A(s) + B(n - s) - s * (np.log(v) - log1m_v) - (C + n * log1m_v)) * (1 - v)


class TestLevelSetBands:
    """The level-set kernel flags noncoverage by integer compares against one
    band of counts per n, and decides contradictions by the log-ratio outside a
    margin; both must agree with the Newton endpoints exactly."""

    @staticmethod
    def _groups(table):
        """(truth, plans) per truth of a bundled table, as one kernel call gets them."""
        plans = simulation._TABLES[table]
        return [(th, [p for p in plans if p.truth == th])
                for th in sorted({p.truth for p in plans})]

    @staticmethod
    def _drop(plan, s, n):
        from scipy.special import betaln, xlogy
        if plan.weight is None:
            return 0.5 * float(chdtri(1, 1 - plan.level))
        a, b = plan.weight.alpha, plan.weight.beta
        lmax = xlogy(s, s / n) + xlogy(n - s, 1 - s / n)
        return lmax - (math.log(plan.level) + (betaln(s + a, n - s + b) - float(betaln(a, b))))

    @pytest.mark.parametrize("table", ["T3", "T4"])
    def test_band_compare_equals_endpoint_coverage_at_every_count(self, table):
        ns = np.concatenate([np.arange(1, 121), np.arange(3981, 4001)])
        for theta, plans in self._groups(table):
            for plan in plans:
                a, b = self._assert_band_equals_endpoint_coverage(plan, ns, theta)
                assert np.all(a <= b)

    def _assert_band_equals_endpoint_coverage(self, plan, ns, theta):
        """The band of plan at theta, checked against binomial_level_set coverage
        at every count s = 0..n of every n in ns."""
        n, s = (np.concatenate(x).astype(float)
                for x in zip(*[(np.full(m + 1, m), np.arange(m + 1)) for m in ns]))
        j = np.repeat(np.arange(ns.size), ns + 1)
        a, b = simulation._bands(plan, ns, theta, simulation._log_ratio_tables(plan, ns))
        lower, upper = bernoulli.binomial_level_set(s, n, self._drop(plan, s, n))
        outside = (s < a[j]) | (s > b[j])
        assert np.array_equal(outside, ~((lower <= theta) & (theta <= upper))), \
            (theta, plan.label, plan.level)
        return a, b

    @pytest.mark.parametrize("theta", [0.02, 0.98])
    def test_exact_rule_band_edges_at_zero_and_n(self, theta):
        # near the ends of (0, 1) the band of a small n reaches s = 0 or s = n
        ns = np.arange(1, 61)
        for a0, b0 in ((0.5, 0.5), (1.0, 1.0), (5.0, 5.0)):
            for eps in (0.5, 0.05):
                plan = SequencePlan(model=Model.BERNOULLI, truth=theta, rule=Rule.ROBBINS_EXACT,
                                    level=eps, weight=BetaWeight(a0, b0), n_min=1, n_max=60)
                a, b = self._assert_band_equals_endpoint_coverage(plan, ns, theta)
                assert np.any(a == 0) if theta < 0.5 else np.any(b == ns), (a0, eps)

    @pytest.mark.parametrize("table", ["T3", "T4"])
    def test_probes_inside_margin_decided_by_endpoints(self, monkeypatch, table):
        # a margin no excess clears sends every probe to binomial_level_set
        monkeypatch.setattr(simulation, "_LOG_RATIO_MARGIN", 1e300)
        ns = np.arange(1, 121)
        for theta, plans in self._groups(table):
            for plan in plans[::3]:
                self._assert_band_equals_endpoint_coverage(plan, ns, theta)

    def test_empty_band_flags_every_replication_noncovered(self):
        # conf 0.01: a drop of 8e-5, so no count of n <= 3 draws covers 0.55
        theta, n_max, reps, seed = 0.55, 3, 40, 2
        plan = SequencePlan(model=Model.BERNOULLI, truth=theta, rule=Rule.LIKELIHOOD_RATIO,
                            level=0.01, n_min=1, n_max=n_max, reps=reps, seed=seed)
        ns = np.arange(1, n_max + 1)
        a, b = simulation._bands(plan, ns, theta, simulation._log_ratio_tables(plan, ns))
        assert np.all(a == b + 1)

        def replay(rng, mon):
            s = np.cumsum(rng.random(n_max) < theta)
            for n in range(1, n_max + 1):
                mon.update(bernoulli.lr_interval(bernoulli.BernoulliSuffStat(n, int(s[n - 1])),
                                                 0.01))

        slow = _slow_flags(replay, theta, reps, seed)
        row = run_plan(plan)
        assert slow[1] == reps and 0 < slow[0] < reps
        assert (row.contradictions_pct, row.noncoverages_pct) == \
            (100.0 * slow[0] / reps, 100.0 * slow[1] / reps)

    def test_log_ratio_at_newton_endpoints_well_inside_margin(self):
        # each endpoint, and the next float beyond it, must sit on its own side of
        # the threshold up to a hundredth of the margin, or the log-ratio test could
        # disagree with a comparison against the endpoint
        pairs = [(n, s) for n in list(range(1, 150)) + list(range(150, 4001, 37))
                 + [20_000, 10 ** 5, 10 ** 6] for s in range(0, n + 1, 1 + n // 400)]
        n, s = (np.array(x, dtype=float) for x in zip(*pairs))
        margin = simulation._LOG_RATIO_MARGIN * (1 + n * np.log(n))
        plans = [p for table in ("T3", "T4") for p in simulation._TABLES[table]
                 if p.truth == 0.5]        # the endpoints do not depend on the truth
        for plan in plans:
            lower, upper = bernoulli.binomial_level_set(s, n, self._drop(plan, s, n))
            for end, beyond, valid in ((lower, np.nextafter(lower, 0), s > 0),
                                       (upper, np.nextafter(upper, 1), (s < n) & (upper < 1))):
                inside = _log_ratio_excess(plan, end, s, n)[valid]
                outside = _log_ratio_excess(plan, beyond, s, n)[valid]
                assert np.all(inside <= 1e-2 * margin[valid]), (plan.label, plan.level)
                assert np.all(outside >= -1e-2 * margin[valid]), (plan.label, plan.level)

    @pytest.mark.parametrize("rule", [Rule.LIKELIHOOD_RATIO, Rule.ROBBINS_EXACT])
    def test_large_n_max_cell_matches_monitor_replay(self, rule):
        theta, n_min, n_max, reps, seed = 0.3, 10, 20_000, 16, 3
        plan = SequencePlan(model=Model.BERNOULLI, truth=theta, rule=rule,
                            level=0.95 if rule == Rule.LIKELIHOOD_RATIO else 0.9,
                            weight=None if rule == Rule.LIKELIHOOD_RATIO else BetaWeight(1, 1),
                            n_min=n_min, n_max=n_max, reps=reps, seed=seed)
        n = np.arange(n_min, n_max + 1.0)

        def replay(rng, mon):
            s = np.cumsum(rng.random(n_max) < theta)[n_min - 1:].astype(float)
            for lo, up in zip(*bernoulli.binomial_level_set(s, n, self._drop(plan, s, n))):
                mon.update(Interval(float(lo), float(up)))

        slow = _slow_flags(replay, theta, reps, seed)
        assert 0 < slow[0] < slow[1] < reps     # both flags tell rows apart
        row = run_plan(plan)
        assert (row.contradictions_pct, row.noncoverages_pct) == \
            (100.0 * slow[0] / reps, 100.0 * slow[1] / reps)


def _full_range_bands(plan, ns, theta, tables):
    """The band edges bisected over the full range (side - 1, n + side] at every look, as
    _bands did before it bracketed them, kept as an oracle."""
    excess, margin = simulation._excess(tables, ns, np.array([theta])), tables[3]
    side, j = (x.ravel() for x in np.indices((2, ns.size)))
    lo, hi = side - 1, ns[j] + side
    while (e := np.flatnonzero(hi - lo > 1)).size:
        s, n = (lo[e] + hi[e]) // 2, ns[j[e]]
        ex = excess(0, s, j[e])
        covered, high = ex < 0, s > n * theta
        past = np.where(side[e] == 0, covered | high, ~covered & high)
        near = np.flatnonzero(np.abs(ex) <= margin[j[e]])
        lower, upper = simulation._endpoints(plan, s[near], n[near])
        past[near] = np.where(side[e[near]] == 0, upper >= theta, lower > theta)
        hi[e[past]], lo[e[~past]] = s[past], s[~past]
    a, b = hi.reshape(2, ns.size)
    return a, b - 1


class TestBracketedBands:
    """_bands searches the edges over their full range only on a grid of looks and checks a
    bracket around the interpolated edge elsewhere; any valid bracket holds the same least
    count, so its bands must equal the full-range bisection's at every look."""

    @staticmethod
    def _assert_equal_to_full_range(plans):
        for plan in plans:
            ns = np.arange(plan.n_min, plan.n_max + 1)
            tables = simulation._log_ratio_tables(plan, ns)
            a, b = simulation._bands(plan, ns, plan.truth, tables)
            expect = _full_range_bands(plan, ns, plan.truth, tables)
            assert np.array_equal(a, expect[0]) and np.array_equal(b, expect[1]), plan

    @staticmethod
    def _random_plans(count, seed):
        # theta near 0 and 1, monitoring from n = 1 (where the edges are not monotone in n),
        # Beta weights from 0.5 to 5 and levels from 1e-3 to 0.999
        rng, plans = np.random.default_rng(seed), []
        for _ in range(count // 2):
            base = dict(model=Model.BERNOULLI, truth=float(rng.uniform(0.001, 0.999)), n_min=1,
                        n_max=int(rng.integers(1, 1500)))
            weight = BetaWeight(*map(float, rng.uniform(0.5, 5.0, 2).round(2)))
            plans.append(SequencePlan(rule=Rule.LIKELIHOOD_RATIO,
                                      level=float(rng.uniform(1e-3, 0.999)), **base))
            plans.append(SequencePlan(rule=Rule.ROBBINS_EXACT, weight=weight,
                                      level=float(10.0 ** rng.uniform(-3, math.log10(0.999))),
                                      **base))
        return plans

    def test_table_plans_equal_full_range(self):
        self._assert_equal_to_full_range(simulation._TABLES["T3"] + simulation._TABLES["T4"])

    def test_random_plans_equal_full_range(self):
        self._assert_equal_to_full_range(self._random_plans(64, 29))

    @pytest.mark.parametrize("k", [2.0, 4 / 3, 10.0])
    def test_crossing_plans_equal_full_range(self, k):
        # the exact-rule plans of the crossing check, at a tie (k 2), a rounding miss (4/3)
        self._assert_equal_to_full_range([
            SequencePlan(Model.BERNOULLI, theta, Rule.ROBBINS_EXACT, 1.0 / k, weight, 1, 4000)
            for theta, weight in ((0.5, BetaWeight(1.0, 1.0)), (0.3, BetaWeight(1.0, 1.0)),
                                  (0.25, BetaWeight(0.5, 0.5)), (0.3, BetaWeight(5.0, 2.0)))])

    def test_fallback_alone_gives_the_same_bands(self, monkeypatch):
        # an interpolated edge far below every count fails every bracket check, so every look
        # takes the full-range search
        guesses = []
        monkeypatch.setattr(np, "interp", lambda x, *args: guesses.append(1) or
                            np.full(len(x), -1e6))
        self._assert_equal_to_full_range(list(simulation._TABLES["T3"][::3])
                                         + self._random_plans(8, 31))
        assert guesses


def _per_look_flags(plan, sc, ns, tables, band, prior):
    """(counts, contradicted) of a level-set link by the per-look search the block screen
    replaced, kept as an oracle: U* starts at the endpoint of the violating look of largest
    relative deficit, is lowered by every violating look past it, and every look of each
    one-sided row is then scanned in column tiles."""
    (a, b), margin = band, tables[3]
    low, high = sc < a, sc > b
    below, above = low.any(axis=1), high.any(axis=1)
    contradicted = below & above
    rows = np.flatnonzero((below != above) & prior)
    side = below[rows]
    r, j = np.divmod(np.flatnonzero(low[rows] | high[rows]), ns.size)
    s, n = sc[rows[r], j].astype(np.intp), ns[j]
    dev = np.where(side[r], a[j] - s, s - b[j]) / n
    first = np.searchsorted(r, range(rows.size))
    top = np.flatnonzero(dev == np.maximum.reduceat(dev, first)[r])
    pick = top[np.searchsorted(r[top], range(rows.size))]
    lower, upper = simulation._endpoints(plan, s[pick], n[pick])
    v = np.where(side, upper, lower)
    excess = simulation._excess(tables, ns, v)
    cand = np.flatnonzero((excess(r, s, j) >= -margin[j]) & ((s < n * v[r]) == side[r]))
    lower, upper = simulation._endpoints(plan, s[cand], n[cand])
    up = side[r[cand]]
    np.minimum.at(v, r[cand][up], upper[up])
    np.maximum.at(v, r[cand][~up], lower[~up])
    excess = simulation._excess(tables, ns, v)
    hit, near = np.zeros(rows.size, dtype=bool), []
    for j0 in range(0, ns.size, simulation.TILE_COLS):
        live, cols = np.flatnonzero(~hit), slice(j0, j0 + simulation.TILE_COLS)
        s = sc[rows[live], cols].astype(np.intp)
        ex = excess(live[:, None], s, cols)
        rr, jj = np.divmod(np.flatnonzero(ex >= -margin[cols]), ex.shape[1])
        over = ex[rr, jj] > margin[cols][jj]
        hit[live[rr[over]]] = True
        near.append((live[rr[~over]], s[rr, jj][~over], j0 + jj[~over]))
    i, s, j = (np.concatenate(x) for x in zip(*near))
    lower, upper = simulation._endpoints(plan, s, ns[j])
    hit[i[np.where(side[i], lower > v[i], upper < v[i])]] = True
    contradicted[rows[hit]] = True
    return (np.count_nonzero(contradicted), np.count_nonzero(below | above)), contradicted


class TestLevelSetBlockScreen:
    """The level-set link does per-look work only in the blocks of looks that a bound at the
    corners of each block's box of counts cannot clear; it must flag exactly the rows the
    per-look search flags, link by link along every chain."""

    @staticmethod
    def _assert_equals_per_look_search(plans, reps, seed):
        """Every level-set link of one chunk of the group, screened and per look, each chain
        fed its own masks: equal counts and masks, and nested bands along the chain."""
        ns, chains, truths = simulation._setup(plans)
        draws = simulation._draw(plans[0], truths, ns, 0, reps)
        searched = 0
        for chain in chains:
            sc, _ = draws[truths.index(plans[chain[0][0]].truth)]
            prior, held = np.ones((2, reps), dtype=bool), np.ones(reps, dtype=bool)
            last = None
            for k, tables, band, ends in chain:
                counts, prior = simulation._level_set_flags(plans[k], sc, ns, tables, band, ends,
                                                            prior)
                expect, held = _per_look_flags(plans[k], sc, ns, tables, band, held)
                assert tuple(counts) == expect, (plans[k], seed)
                assert np.array_equal(prior[0], held), (plans[k], seed)
                assert np.array_equal(prior[1], (sc < band[0]).any(1) | (sc > band[1]).any(1))
                if last is not None:   # a row covered at a narrower level is covered at this one
                    assert np.all((band[0] <= last[0]) & (last[1] <= band[1])), plans[k]
                last = band
                searched += np.count_nonzero(held)
        return searched

    @pytest.mark.parametrize("seed", [1, 42, 2029])
    @pytest.mark.parametrize("table", ["T3", "T4"])
    def test_table_groups_equal_per_look_search(self, table, seed):
        plans = [dataclasses.replace(p, reps=CHUNK_REPS, seed=seed)
                 for p in simulation._TABLES[table]]
        for theta in sorted({p.truth for p in plans}):
            assert self._assert_equals_per_look_search(
                [p for p in plans if p.truth == theta], CHUNK_REPS, seed) > 0

    def test_random_groups_equal_per_look_search(self):
        # theta near 0 and 1, monitoring from n = 1, Beta weights from 0.5 to 5 and levels from
        # 1e-3 to 0.999: s = 0 and s = n looks, empty bands and endpoints next to 0 and 1
        rng = np.random.default_rng(27)
        searched = 0
        for g in range(48):
            theta = float(rng.choice([rng.uniform(0.001, 0.05), rng.uniform(0.05, 0.95),
                                      rng.uniform(0.95, 0.999)]))
            n_min = 1 if g % 2 else int(rng.integers(1, 100))
            n_max = n_min + int(rng.integers(0, 800))
            weight = BetaWeight(*map(float, rng.uniform(0.5, 5.0, 2).round(2)))
            base = dict(model=Model.BERNOULLI, truth=theta, n_min=n_min, n_max=n_max,
                        reps=128, seed=g)
            plans = [SequencePlan(rule=Rule.LIKELIHOOD_RATIO, level=float(conf), **base)
                     for conf in rng.uniform(1e-3, 0.999, 2)]
            plans += [SequencePlan(rule=Rule.ROBBINS_EXACT, level=float(eps), weight=weight,
                                   **base) for eps in 10.0 ** rng.uniform(-3, math.log10(0.999), 2)]
            searched += self._assert_equals_per_look_search(plans, 128, g)
        assert searched > 1000          # the groups hold one-sided rows to search

    @pytest.mark.parametrize("weight", [None, BetaWeight(0.5, 0.5), BetaWeight(1.0, 1.0),
                                        BetaWeight(5.0, 5.0), BetaWeight(0.5, 5.0),
                                        BetaWeight(5.0, 0.5)], ids=str)
    def test_corner_bound_covers_every_count_of_the_box(self, weight):
        # on a dense grid of boxes [s0, s1] x [f0, f1] and values v, the bound from the corners
        # on one side of s = n v is at least the excess of every count pair of the box on that
        # side, and a box wholly on the other side is cleared: its bound is the floor
        n0, top = 1, 60
        ns = np.arange(n0, 2 * top + 1)
        plan = SequencePlan(model=Model.BERNOULLI, truth=0.5,
                            rule=Rule.LIKELIHOOD_RATIO if weight is None else Rule.ROBBINS_EXACT,
                            level=0.9 if weight is None else 0.1, weight=weight, n_min=n0,
                            n_max=2 * top)
        tables = simulation._log_ratio_tables(plan, ns)
        c = simulation._threshold(plan)
        s0, f0 = (x.ravel() for x in np.mgrid[0:top - 8:3, 0:top - 8:3])
        keep = s0 + f0 >= n0
        s0, f0 = s0[keep], f0[keep]
        cleared = 0
        for v in (0.005, 0.05, 0.2, 0.5, 0.75, 0.95, 0.995):
            for ds, df in ((1, 1), (3, 1), (1, 5), (6, 6), (8, 2)):
                for low in (True, False):
                    rows = s0.size
                    vr, lr = np.full(rows, v), np.full(rows, low)
                    excess = simulation._excess(tables, ns, vr)
                    se, fe = np.stack((s0, s0 + ds), 1), np.stack((f0, f0 + df), 1)
                    floor = c * (vr - 1.0)      # the excess of stat 0
                    _, bound, _ = simulation._block_screen(excess, n0, se, fe, vr, lr, c,
                                                           np.zeros(1))
                    i, k = (x.ravel() for x in np.mgrid[0:ds + 1, 0:df + 1])
                    s, f = s0[:, None] + i, f0[:, None] + k
                    inner = excess(np.arange(rows)[:, None], s, s + f - n0)
                    on = (s < (s + f) * v) == low
                    most = np.where(on, inner, -np.inf).max(axis=1)
                    margin = simulation._LOG_RATIO_MARGIN * (1.0 + xlogy(s + f, s + f).max(axis=1))
                    assert np.all(bound[:, 0] >= most - margin), (v, ds, df, low)
                    off = ~on.any(axis=1)
                    assert np.all(bound[off, 0] == floor[off]), (v, ds, df, low)
                    cleared += np.count_nonzero(off)
        assert cleared > 1000

    def test_block_cleared_only_two_margins_below_threshold(self):
        # a corner and a look each round within a thousandth of the margin, so the screen
        # keeps a block open unless its bound lies two margins below the threshold
        se, fe, v = np.array([[3, 5]]), np.array([[4, 6]]), np.array([0.5])
        for value, open_ in ((-1.5, True), (-2.5, False)):
            _, _, kept = simulation._block_screen(
                lambda r, s, j: np.full(s.shape, value * 1e-9), 1, se, fe, v, np.array([True]),
                2.0, np.array([1e-9]))
            assert kept[0, 0] == open_, value

    @pytest.mark.parametrize("conf", [1e-9, 1e-12])
    def test_endpoints_at_zero_or_one_decided_by_endpoints(self, conf, recwarn):
        # at conf 1e-9 the drop is ~8e-19: exp(-drop/n) rounds to 1, the lower endpoint at
        # s = n, where the log-ratio is infinite; such a row is decided by its endpoints
        theta, n_max, reps, seed = 0.5, 50, 64, 3
        plan = SequencePlan(model=Model.BERNOULLI, truth=theta, rule=Rule.LIKELIHOOD_RATIO,
                            level=conf, n_min=1, n_max=n_max, reps=reps, seed=seed)

        def replay(rng, mon):
            s = np.cumsum(rng.random(n_max) < theta)
            for n in range(1, n_max + 1):
                mon.update(bernoulli.lr_interval(bernoulli.BernoulliSuffStat(n, int(s[n - 1])),
                                                 conf))

        slow = _slow_flags(replay, theta, reps, seed)
        row = run_plan(plan)
        assert (row.contradictions_pct, row.noncoverages_pct) == \
            (100.0 * slow[0] / reps, 100.0 * slow[1] / reps)
        assert slow[0] == reps
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestClosedFormBands:
    """A mixture closed-form link scans exactly only the rows leaving its band, shrunk by
    _BAND_MARGIN; every estimate inside must be covered by the kernel's own endpoints."""

    WEIGHTS = [NormalWeight(0.0, 0.1), NormalWeight(0.0, 10.0), NormalWeight(5.0, 1.0),
               NormalWeight(-2.0, 0.02), NormalWeight(0.8, 0.4), NormalWeight(1.4, 0.02)]

    @staticmethod
    def _band(model, truth, weight, eps, n_max, n_min=1, **kw):
        plan = SequencePlan(model, truth, Rule.ROBBINS_APPROX if model != Model.NORMAL_KNOWN_VAR
                            else Rule.ROBBINS_EXACT, eps, weight, n_min, n_max, **kw)
        ns = np.arange(n_min, n_max + 1)
        c = simulation._threshold(plan)
        _, t, vmin = simulation._draw(plan, [truth], ns, 0, 1)[0][1][3]
        return ns, c, simulation._closed_form_band(plan, ns, c, t, vmin)

    @pytest.mark.parametrize("theta", [0.02, 0.3, 0.98])
    def test_arcsine_counts_inside_the_band_cover_theta(self, theta):
        n_max = 300
        for w in self.WEIGHTS:
            for eps in (0.5, 0.05):
                ns, c, (a, b) = self._band(Model.BERNOULLI, theta, w, eps, n_max)
                assert a.dtype == b.dtype == np.min_scalar_type(n_max)
                a, b = a.astype(np.intp), b.astype(np.intp)
                for n, lo, hi in zip(ns, a, b):
                    s = np.arange(n + 1)
                    omega = bernoulli._arcsine_estimate(s, n)
                    d = engine._half_width(np.full(s.size, 0.25 / n), omega, w, c)
                    lower, upper = bernoulli._arcsine_back_map(omega - d, omega + d)
                    covered = (lower <= theta) & (theta <= upper)
                    assert np.all(covered[lo:hi + 1]), (w, eps, n)
                    # the band is no narrower than the covered counts, up to its margin
                    assert not covered[max(lo - 1, 0):lo].any() or lo == 0, (w, eps, n)
                    assert not covered[hi + 1:hi + 2].any(), (w, eps, n)

    @pytest.mark.parametrize("truth, sigma0_sq", [(0.0, 1.0), (0.3, 2.0), (-2.0, 0.5)])
    def test_normal_estimates_just_inside_the_band_are_covered(self, truth, sigma0_sq):
        for w in self.WEIGHTS:
            for eps in (0.5, 0.05):
                ns, c, (a, b) = self._band(Model.NORMAL_KNOWN_VAR, truth, w, eps, 4000,
                                           sigma0_sq=sigma0_sq)
                v = sigma0_sq / ns
                for est in (a, np.nextafter(a, np.inf), b, np.nextafter(b, -np.inf)):
                    d = engine._half_width(v, est, w, c)
                    # covered, with slack to spare: the margin is far beyond rounding
                    slack = np.minimum(truth - (est - d), est + d - truth)
                    assert np.all(slack >= 1e-11 * (b - a + abs(truth))), (w, eps)
                # and the band is tight: a millionth of its width outside, nothing is covered
                for est in (a - 1e-6 * (b - a), b + 1e-6 * (b - a)):
                    d = engine._half_width(v, est, w, c)
                    assert not np.any((est - d <= truth) & (truth <= est + d)), (w, eps)

    @pytest.mark.parametrize("truth", [(0.2, 0.25), (0.6, 0.1), (0.03, 0.9)])
    def test_two_bernoulli_estimates_inside_the_band_are_covered(self, truth):
        # the band is taken at each look's least variance in the chunk; estimates stepping
        # across both edges must be covered at that variance and at any larger one, with
        # slack of a fraction of the margin, and no longer so just below it
        n_min, n_max, reps, seed = 20, 400, 40, 7
        ns = np.arange(n_min, n_max + 1)
        vmin = np.full(ns.size, np.inf)
        for r in range(reps):      # the chunk's cell variances, drawn as the kernel draws them
            u = replication_rng(seed, r).random((2, n_max))
            s1, s2 = (np.cumsum(u[j] < truth[j])[n_min - 1:].astype(float) for j in (0, 1))
            vmin = np.minimum(vmin, two_bernoulli._corrected_log_odds(ns, ns, s1, s2)[1])
        psi = math.log(truth[0] * (1 - truth[1]) / (truth[1] * (1 - truth[0])))
        ks = np.concatenate([[0.0], np.linspace(-2e-8, 2e-8, 81)])
        for w in self.WEIGHTS:
            for eps in (0.5, 0.05):
                plan = SequencePlan(Model.TWO_BERNOULLI, truth, Rule.ROBBINS_APPROX, eps, w,
                                    n_min, n_max, reps, seed)
                c = simulation._threshold(plan)
                _, t, v = simulation._draw(plan, [truth], ns, 0, reps)[0][1][3]
                a, b = simulation._closed_form_band(plan, ns, c, t, v)
                assert t == psi and np.all(a < b), (w, eps)
                margin = simulation._BAND_MARGIN * (b - a + abs(psi) + abs(w.mu0))
                est = np.concatenate([a + np.multiply.outer(ks, b - a),
                                      b - np.multiply.outer(ks, b - a)])
                est[0], est[ks.size] = np.nextafter(a, b), np.nextafter(b, a)
                inside = (a <= est) & (est <= b)
                assert 0 < np.count_nonzero(inside) < inside.size
                for scale in (1.0, 1.5, 10.0):
                    d = engine._half_width(scale * vmin, est, w, c)
                    slack = np.minimum(psi - (est - d), est + d - psi)
                    assert np.all((slack >= 0.2 * margin)[inside]), (w, eps, scale)
                # just below the least variance, the band is too wide
                d = engine._half_width((1.0 - 1e-6) * vmin, est, w, c)
                assert not np.all(((est - d <= psi) & (psi <= est + d))[inside]), (w, eps)


class TestBoundedMemory:
    """The flag scan keeps a running max/min per replication, and the level-set
    kernel flags each chunk from its counts, so a kernel's traced peak is set by
    one chunk of data, not by reps or by (chunk x n) endpoint arrays."""

    @pytest.mark.parametrize("rule, levels, n_max, kw", [
        (Rule.ROBBINS_APPROX, (0.1,), 20_000, dict(model=Model.BERNOULLI, truth=0.3)),
        (Rule.ROBBINS_EXACT, (0.1,), 20_000, dict(model=Model.NORMAL_KNOWN_VAR, truth=0.0)),
        (Rule.ROBBINS_APPROX, (0.1,), 10_000,
         dict(model=Model.TWO_BERNOULLI, truth=(0.2, 0.25))),
        (Rule.ROBBINS_EXACT, (0.5, 0.2, 0.1, 0.05), 20_000,
         dict(model=Model.NORMAL_KNOWN_VAR, truth=0.0)),
        (Rule.LIKELIHOOD_RATIO, (0.95,), 20_000,
         dict(model=Model.BERNOULLI, truth=0.3, weight=None)),
        (Rule.ROBBINS_EXACT, (0.1,), 20_000,
         dict(model=Model.BERNOULLI, truth=0.3, weight=BetaWeight(1.0, 1.0))),
    ], ids=["bernoulli-arcsine", "normal-exact", "two-bernoulli-approx", "normal-exact-chain",
            "bernoulli-lr", "bernoulli-exact"])
    def test_peak_flat_in_reps_and_bounded(self, rule, levels, n_max, kw):
        kw = {"weight": NormalWeight(0.5, 1.0), **kw}
        self.check_peaks(lambda reps: simulation._run_plans("-", [
            SequencePlan(rule=rule, level=level, n_min=10, n_max=n_max, reps=reps, seed=3, **kw)
            for level in levels], threads=1))

    @pytest.mark.parametrize("path", [
        normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0)),
        bernoulli.ville_log_ratio_path(0.3, BetaWeight(1.0, 1.0))], ids=["normal", "bernoulli"])
    def test_crossing_check_peak_flat_in_reps_and_bounded(self, path):
        self.check_peaks(lambda reps: engine.verify_ville_inequality(
            path, k=10.0, n_max=20_000, reps=reps, seed=3))

    @pytest.mark.parametrize("path", [
        normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0)),
        bernoulli.ville_log_ratio_path(0.3, BetaWeight(1.0, 1.0))], ids=["normal", "bernoulli"])
    def test_long_crossing_check_runs_the_loop(self, path):
        # past the kernel's cap of n_max 20 000 (which bounds the exact Bernoulli tie test, not
        # memory: the kernel traces 71 MiB for the normal path at n_max 100 000), the loop
        # holds one path
        tracemalloc.start()
        try:
            engine.verify_ville_inequality(path, k=10.0, n_max=100_000, reps=CHUNK_REPS, seed=3)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 16.0

    def test_chunk_rows_shrink_past_n_max_32768(self):
        # 256 rows of 100 000 float64 running sums were 195 MiB per chunk (200 MiB
        # traced); the rows now shrink as 1/n_max, to 83 here
        plan = SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0, rule=Rule.ROBBINS_EXACT,
                            level=0.1, weight=NormalWeight(0.5, 1.0), n_min=10,
                            n_max=100_000, reps=256, seed=3)
        peaks = []
        for reps in (256, 512):
            tracemalloc.start()
            try:
                run_plan(dataclasses.replace(plan, reps=reps))
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0] and max(peaks) < 80, peaks
        assert [r1 - r0 for r0, r1 in simulation._slices(plan)] == [83, 83, 83, 7]

    @staticmethod
    def check_peaks(run):
        peaks = []
        for reps in (256, 1024):
            tracemalloc.start()
            try:
                run(reps)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
        # one chunk of 256 x 20000 float64 running sums is 39 MiB, as are the
        # two-bernoulli estimate and variance of 256 x 10000 each
        assert max(peaks) < 64, peaks


class TestChainPruning:
    """Plans of one kernel call that share a weight form a chain, ordered from the
    narrowest interval to the widest; a later closed-form plan scans only the
    replications its predecessor left noncovered, a later level-set plan seeks
    one-sided contradictions only among those its predecessor contradicted.  That
    must move no bit."""

    CASES = {
        "normal-exact": (dict(model=Model.NORMAL_KNOWN_VAR, truth=0.3, n_min=5, n_max=400),
                         Rule.ROBBINS_EXACT, (NormalWeight(0.0, 1.0), NormalWeight(2.0, 0.1))),
        "normal-z": (dict(model=Model.NORMAL_KNOWN_VAR, truth=0.3, n_min=5, n_max=400),
                     Rule.CLASSICAL_Z, (None,)),
        "two-bernoulli-approx": (dict(model=Model.TWO_BERNOULLI, truth=(0.2, 0.4), n_min=20,
                                      n_max=400), Rule.ROBBINS_APPROX,
                                 (NormalWeight(0.0, 5.0), NormalWeight(-2.0, 0.1))),
        "bernoulli-arcsine": (dict(model=Model.BERNOULLI, truth=0.3, n_min=5, n_max=400),
                              Rule.ROBBINS_APPROX,
                              (NormalWeight(0.8, 0.4), NormalWeight(1.4, 0.02))),
        "bernoulli-lr": (dict(model=Model.BERNOULLI, truth=0.3, n_min=5, n_max=400),
                         Rule.LIKELIHOOD_RATIO, (None,)),
        "bernoulli-exact": (dict(model=Model.BERNOULLI, truth=0.3, n_min=5, n_max=400),
                            Rule.ROBBINS_EXACT, (BetaWeight(1.0, 1.0), BetaWeight(0.5, 0.5))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("width", [1, simulation.TILE_COLS])
    def test_shuffled_chains_match_plans_run_alone(self, monkeypatch, case, width):
        monkeypatch.setattr(simulation, "TILE_COLS", width)
        kw, rule, weights = self.CASES[case]
        levels = ((0.95, 0.9, 0.995, 0.95, 0.99) if weights == (None,)
                  else (0.1, 0.5, 0.05, 0.2, 0.1))
        # the two weights interleave; the levels come out of order and one repeats
        plans = [SequencePlan(rule=rule, level=level, weight=w, reps=150, seed=21, **kw)
                 for level in levels for w in weights]
        rows = simulation._run_plans("-", plans, threads=1)
        alone = [run_plan(plan) for plan in plans]
        assert rows == alone
        # the cells must tell pruned from unpruned scans apart: noncovered and
        # covered replications at every level, contradictions below noncoverages
        assert all(0 < r.noncoverages_pct < 100 for r in rows), rows
        assert any(r.contradictions_pct < r.noncoverages_pct for r in rows)
        assert len({(r.contradictions_pct, r.noncoverages_pct) for r in rows}) > 2
        if kw["model"] == Model.BERNOULLI and rule != Rule.ROBBINS_APPROX:
            # contradicted at a wider level implies contradicted at a narrower one; a
            # replication contradicted at one level but not at the next wider tells a
            # chain pruned on a wrong mask or in a wrong order from the plans run alone
            for w in weights:
                chain = sorted({(p.level if w is None else -p.level, r.contradictions_pct)
                                for p, r in zip(plans, rows) if p.weight == w})
                contra = [c for _, c in chain]
                assert contra == sorted(contra, reverse=True), (w, chain)
                assert contra[0] > contra[1], (w, chain)

    @pytest.mark.parametrize("width", [1, simulation.TILE_COLS])
    def test_mixed_rules_on_one_draw_match_plans_run_alone(self, monkeypatch, width):
        # one chunk step flags the closed-form (arcsine) and the level-set (exact,
        # likelihood-ratio) plans of a group on the same success counts
        monkeypatch.setattr(simulation, "TILE_COLS", width)
        base = dict(model=Model.BERNOULLI, truth=0.3, n_min=5, n_max=400, reps=150, seed=23)
        arc, beta = NormalWeight(0.8, 0.4), BetaWeight(1.0, 1.0)
        plans = [SequencePlan(rule=rule, level=level, weight=w, **base) for rule, level, w in (
            (Rule.ROBBINS_APPROX, 0.2, arc), (Rule.LIKELIHOOD_RATIO, 0.95, None),
            (Rule.ROBBINS_EXACT, 0.1, beta), (Rule.ROBBINS_APPROX, 0.05, arc),
            (Rule.ROBBINS_EXACT, 0.5, beta), (Rule.LIKELIHOOD_RATIO, 0.9, None))]
        rows = simulation._run_plans("-", plans, threads=1)
        assert rows == [run_plan(plan) for plan in plans]
        assert all(0 < r.noncoverages_pct < 100 for r in rows), rows
        assert len({(r.contradictions_pct, r.noncoverages_pct) for r in rows}) == len(rows)

    @pytest.mark.parametrize("theta, weight", [
        (0.02, NormalWeight(1.5, 0.05)), (0.98, NormalWeight(0.0, 0.05)),
        (0.02, NormalWeight(0.1, 1.0)), (0.98, NormalWeight(1.5, 1.0))])
    def test_arcsine_counts_match_per_element_oracle(self, theta, weight):
        n_min, n_max, reps, seed, levels = 2, 300, 120, 17, (0.5, 0.2, 0.05)
        plans = [SequencePlan(model=Model.BERNOULLI, truth=theta, rule=Rule.ROBBINS_APPROX,
                              level=eps, weight=weight, n_min=n_min, n_max=n_max, reps=reps,
                              seed=seed) for eps in levels]
        rows = simulation._run_plans("-", plans, threads=1)
        ns = np.arange(n_min, n_max + 1)
        v = 0.25 / ns
        tv = weight.tau0_sq + v
        clipped = [0, 0]
        for eps, row in zip(levels, rows):
            contra = noncov = 0
            for r in range(reps):
                s = np.cumsum(replication_rng(seed, r).random(n_max) < theta)[n_min - 1:]
                omega = np.arcsin(np.sqrt(s / ns))
                d = np.sqrt(v * (np.log(tv / v) + (omega - weight.mu0) ** 2 / tv
                                 - 2.0 * math.log(eps)))
                clipped[0] += np.count_nonzero(omega - d < 0.0)
                clipped[1] += np.count_nonzero(omega + d > 0.5 * math.pi)
                lower = np.sin(np.maximum(omega - d, 0.0)) ** 2
                upper = np.sin(np.minimum(omega + d, 0.5 * math.pi)) ** 2
                lo, up = lower.max(), upper.min()
                contra += lo > up
                noncov += lo > theta or up < theta
            assert (row.contradictions_pct, row.noncoverages_pct) == \
                (100.0 * contra / reps, 100.0 * noncov / reps), (theta, weight, eps)
        assert clipped[0 if theta < 0.5 else 1] > 0, clipped

    def test_sin_squared_never_decreases_on_quarter_turn(self):
        # the arcsine kernel maps the reduced endpoints, not each one, which is
        # exact only if x -> sin(max(x, 0))^2 never decreases on [0, pi/2]
        rng = np.random.default_rng(0)
        top = 0.5 * math.pi
        below_top = (np.array(top).view(np.int64) - np.arange(1, 200_001)).view(np.float64)
        x = np.concatenate([rng.uniform(0.0, top, 1_000_000), below_top,
                            top - rng.uniform(0.0, 1e-6, 1_000_000), [0.0, -0.0]])
        x = x[x < top]
        nxt = np.nextafter(x, np.inf)
        assert np.all(np.sin(np.maximum(nxt, 0.0)) ** 2 >= np.sin(np.maximum(x, 0.0)) ** 2)


class TestMixedTruthGroups:
    """Plans sharing seed, replications and range share their data streams whatever their
    truth, so they form one kernel group that draws each chunk once for every truth; each row
    must equal its plan run alone."""

    CASES = {
        "bernoulli": (dict(model=Model.BERNOULLI, n_min=5, n_max=400), (0.3, 0.7), (
            (Rule.LIKELIHOOD_RATIO, 0.95, None), (Rule.ROBBINS_EXACT, 0.1, BetaWeight(1.0, 1.0)),
            (Rule.ROBBINS_APPROX, 0.2, NormalWeight(0.8, 0.4)),
            (Rule.LIKELIHOOD_RATIO, 0.9, None))),
        "normal": (dict(model=Model.NORMAL_KNOWN_VAR, n_min=5, n_max=400, sigma0_sq=2.0),
                   (0.0, 0.4), ((Rule.CLASSICAL_Z, 0.95, None),
                                (Rule.ROBBINS_EXACT, 0.1, NormalWeight(0.0, 1.0)),
                                (Rule.ROBBINS_EXACT, 0.5, NormalWeight(0.0, 1.0)))),
        "two-bernoulli": (dict(model=Model.TWO_BERNOULLI, n_min=20, n_max=400),
                          ((0.2, 0.4), (0.5, 0.3)),
                          ((Rule.ROBBINS_APPROX, 0.1, NormalWeight(0.0, 5.0)),
                           (Rule.CLASSICAL_Z, 0.95, None),
                           (Rule.ROBBINS_APPROX, 0.5, NormalWeight(0.0, 5.0)))),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_interleaved_truths_match_plans_run_alone(self, case, threads):
        kw, truths, cells = self.CASES[case]
        # the truths alternate cell by cell, so no two neighbours share one
        plans = [SequencePlan(truth=truth, rule=rule, level=level, weight=w,
                              reps=CHUNK_REPS + 40, seed=25, **kw)
                 for rule, level, w in cells for truth in truths]
        setups, setup = [], simulation._setup
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_setup", lambda plans: setups.append(plans) or setup(plans))
            rows = simulation._run_plans("-", plans, threads=threads)
        assert [len(group) for group in setups] == [len(plans)]
        assert rows == [run_plan(plan) for plan in plans]
        assert all(0 < r.noncoverages_pct < 100 for r in rows), rows
        # a row drawn at the other truth would show: the truths tell cells apart (not the
        # classical normal ones, which are invariant to a shift of the data and the truth)
        assert len({(r.contradictions_pct, r.noncoverages_pct) for r in rows}) > len(cells)

    def test_table_draws_each_chunk_once_for_every_truth(self, monkeypatch):
        # T3's three truths share seed and replications: 1000 reps are four chunks, not twelve
        chunks, chunk = [], simulation._chunk
        monkeypatch.setattr(simulation, "_chunk",
                            lambda *args: chunks.append(args[2:]) or chunk(*args))
        reproduce_table("T3", reps=1000, seed=9, threads=1)
        assert chunks == [(0, 256), (256, 512), (512, 768), (768, 1000)]


class TestCountStorage:
    def test_counts_past_int16_range_match_int64_replay(self):
        # at theta = 0.9 the success count passes 32767 near n = 36400; counts
        # wrapped there turn every later endpoint into NaN, which silently
        # clears the replication's flags
        theta, n_min, n_max, reps, seed = 0.9, 10, 40_000, 4, 24
        weight = bernoulli.omega_weight_from_beta(BetaWeight(1.0, 1.0))
        lvl = PersistenceLevel(0.5)

        def replay(rng, mon):
            s = np.cumsum(rng.random(n_max) < theta, dtype=np.int64)
            assert s[-1] > np.iinfo(np.int16).max
            for n in range(n_min, n_max + 1):
                stat = bernoulli.BernoulliSuffStat(n, int(s[n - 1]))
                mon.update(bernoulli.arcsine_approx_interval(stat, weight, lvl))

        row = run_plan(SequencePlan(model=Model.BERNOULLI, truth=theta,
                                    rule=Rule.ROBBINS_APPROX, level=0.5, weight=weight,
                                    n_min=n_min, n_max=n_max, reps=reps, seed=seed))
        slow = _slow_flags(replay, theta, reps, seed)
        assert slow[1] > 0      # a replay with no flags could not tell the two apart
        assert (row.contradictions_pct, row.noncoverages_pct) == \
            (100.0 * slow[0] / reps, 100.0 * slow[1] / reps)


class TestDeterminism:
    def test_same_plan_same_report(self):
        plan = SequencePlan(model=Model.TWO_BERNOULLI, truth=(0.2, 0.25),
                            rule=Rule.ROBBINS_APPROX, level=0.2,
                            weight=NormalWeight(0.0, 5.0), n_min=50, n_max=300,
                            reps=200, seed=4)
        assert run_plan(plan) == run_plan(plan)

    def test_thread_count_invariance(self):
        plan = SequencePlan(model=Model.NORMAL_KNOWN_VAR, truth=0.0,
                            rule=Rule.ROBBINS_EXACT, level=0.2,
                            weight=NormalWeight(0.0, 1.0), n_min=10, n_max=500,
                            reps=600, seed=9)
        rows = [run_plan(plan, threads=t) for t in (1, 2, 8)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("threads", [0, -1, 1.5, 2.5, True])
    def test_threads_below_one_rejected(self, threads):
        # a thread count below one once ran serially without a word, and a non-integer one
        # ran on small plans or failed with a TypeError inside the worker pool
        plan = SequencePlan(model=Model.BERNOULLI, truth=0.4, rule=Rule.LIKELIHOOD_RATIO,
                            level=0.9, n_min=5, n_max=20, reps=3)
        with pytest.raises(ValueError, match="threads"):
            run_plan(plan, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            reproduce_table("T1", reps=3, threads=threads)

    @pytest.mark.parametrize("table_id", ["T6", 3, None])
    def test_unknown_table_rejected(self, table_id):
        # a table id that is no string once failed on its .upper()
        with pytest.raises(ValueError, match="table_id must be one of"):
            reproduce_table(table_id, reps=3)

    # sha256 of reproduce_table(table, reps=300, seed=42).csv_text(); every kernel
    # formula feeds one of them, the exact-rule Bernoulli drop through T4
    SEED42_DIGESTS = {
        "T1": "562acad7cdb023bda8a990e3fe02e7b6dd288cc322bac4f085ff9bcfa0318379",
        "T2": "78074120f6e6aac52594840a3d69da1b615117c2bcc589b8445b0aed4d7d1d4d",
        "T3": "a0587396c52770c06554520aecbb366cb707bf00e9123e71674ed92d28b08c50",
        "T4": "03ee715a7639acf885ccda6570b26285b0fe1b2a41ded4ee633452381d658255",
        "T5": "7f1af681d0d1daaabeea8c311ef82c04f74a6a96e8174d0dbce0ee808a8b43d9",
    }

    @pytest.mark.parametrize("table", sorted(SEED42_DIGESTS))
    def test_seed42_table_digest_pinned(self, table):
        text = reproduce_table(table, reps=300, seed=42).csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.SEED42_DIGESTS[table]

    def test_reproduce_table_csv_identical_across_threads(self):
        texts = [reproduce_table("T5", reps=200, seed=6, threads=t).csv_text()
                 for t in (1, 2, 8)]
        assert texts[0] == texts[1] == texts[2]

    def test_level_set_kernel_thread_invariance(self):
        base = dict(model=Model.BERNOULLI, truth=0.4, n_min=10, n_max=2000, reps=800, seed=13)
        assert base["reps"] > 3 * CHUNK_REPS       # more chunks than workers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the chunk workers finely
        try:
            for plan in (SequencePlan(rule=Rule.LIKELIHOOD_RATIO, level=0.95, **base),
                         SequencePlan(rule=Rule.ROBBINS_EXACT, level=0.1,
                                      weight=BetaWeight(2.0, 3.0), **base)):
                rows = [run_plan(plan, threads=t) for t in (1, 2, 8)]
                assert rows[0] == rows[1] == rows[2], plan.rule
        finally:
            sys.setswitchinterval(interval)

    def test_level_set_table_csv_identical_across_threads(self):
        reps = 3 * CHUNK_REPS + 40
        texts = [reproduce_table("T3", reps=reps, seed=6, threads=t).csv_text()
                 for t in (1, 2, 8)]
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("table", ["T1", "T5"])
    def test_closed_form_table_csv_identical_across_threads(self, table):
        # each chunk draws its own streams; finely interleaved workers must not
        # share a generator or a block buffer
        reps = 3 * CHUNK_REPS + 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            texts = [reproduce_table(table, reps=reps, seed=6, threads=t).csv_text()
                     for t in (1, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("table", ["T3", "T5"])
    def test_table_csv_identical_across_tile_widths(self, monkeypatch, table):
        texts = []
        for width in (7, simulation.TILE_COLS):
            monkeypatch.setattr(simulation, "TILE_COLS", width)
            texts += [reproduce_table(table, reps=150, seed=8, threads=t).csv_text()
                      for t in (1, 2)]
        assert len(set(texts)) == 1

    @staticmethod
    def _one_cell_per_row_label():
        """(table, row label, displayed level, plan written out independently of
        the table grids) for one cell of every row label of T1-T5."""
        normal = dict(model=Model.NORMAL_KNOWN_VAR, truth=0.0, n_min=10, n_max=4000)
        yield "T1", "z", 99.5, SequencePlan(rule=Rule.CLASSICAL_Z, level=0.995, **normal)
        for i, (mu0, tau2) in enumerate(((0, 0.1), (0, 1), (0, 10), (1, 1), (2, 1), (5, 1))):
            eps = (0.5, 0.2, 0.1, 0.05)[i % 4]
            yield ("T2", f"mu0={mu0},tau0sq={tau2}", round(100 * (1 - eps), 6),
                   SequencePlan(rule=Rule.ROBBINS_EXACT, level=eps,
                                weight=NormalWeight(mu0, tau2), **normal))
        for i, theta in enumerate((0.5, 0.7, 0.9)):
            bern = dict(model=Model.BERNOULLI, truth=theta, n_min=100, n_max=4000)
            conf = (0.9, 0.99, 0.995)[i]
            yield ("T3", f"theta={theta}", 100 * conf,
                   SequencePlan(rule=Rule.LIKELIHOOD_RATIO, level=conf, **bern))
            for j, (a, b) in enumerate(((0.5, 0.5), (1, 1), (5, 5))):
                eps = (0.5, 0.2, 0.1, 0.05)[(i + j) % 4]
                yield ("T4", f"theta={theta},Beta({a},{b})", round(100 * (1 - eps), 6),
                       SequencePlan(rule=Rule.ROBBINS_EXACT, level=eps,
                                    weight=BetaWeight(a, b), **bern))
        two = dict(model=Model.TWO_BERNOULLI, truth=(0.2, 0.25), n_min=50, n_max=2000)
        for i, (mu0, tau2, shown) in enumerate(((0, 2 * math.pi ** 2, "2pi^2"), (0, 5, 5),
                                               (0, 1, 1), (0, 0.1, 0.1), (1, 5, 5),
                                               (-1, 5, 5))):
            eps = (0.05, 0.1, 0.2, 0.5)[i % 4]
            yield ("T5", f"mu0={mu0},tau0sq={shown}", round(100 * (1 - eps), 6),
                   SequencePlan(rule=Rule.ROBBINS_APPROX, level=eps,
                                weight=NormalWeight(mu0, tau2), **two))

    def test_run_plan_matches_table_cell(self):
        # a table runs the cells that share a stream in one kernel call; each
        # cell run alone must give the same row
        reps, seed = 60, 5
        cells = list(self._one_cell_per_row_label())
        for table in ("T1", "T2", "T3", "T4", "T5"):
            report = reproduce_table(table, reps=reps, seed=seed)
            mine = [c for c in cells if c[0] == table]
            assert {label for _, label, _, _ in mine} == {r.row_label for r in report.rows}
            for _, label, level, plan in mine:
                cell = next(r for r in report.rows
                            if (r.row_label, r.level) == (label, level))
                row = run_plan(dataclasses.replace(plan, reps=reps, seed=seed))
                assert dataclasses.replace(row, table=table, row_label=label) == cell, \
                    (table, label, level)
        assert sum(c[0] == "T4" for c in cells) == 9


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools started, by a spy on ProcessPoolExecutor."""
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


@pytest.mark.skipif(simulation._usable_cores() < 2, reason="one core runs every chunk in-process")
class TestWorkerPool:
    """threads > 1 runs the chunks of a call in one pool of worker processes, which
    never outlives the call."""

    def test_one_pool_per_call_and_no_worker_left(self, pools):
        reps = CHUNK_REPS + 40          # two chunks, each drawn once for T3's three truths
        rows = reproduce_table("T3", reps=reps, seed=6, threads=2).rows
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert rows == reproduce_table("T3", reps=reps, seed=6, threads=1).rows
        assert pools == [2]             # threads=1 runs in-process

    def test_no_worker_left_when_a_chunk_raises(self, pools, monkeypatch):
        def fail(*args):
            raise EndpointSolveError("chunk failed")

        monkeypatch.setattr(simulation, "_level_set_flags", fail)
        with pytest.raises(EndpointSolveError, match="chunk failed"):
            reproduce_table("T3", reps=CHUNK_REPS + 40, seed=6, threads=2)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_no_worker_left_when_a_later_set_up_raises(self, pools, monkeypatch):
        # T3 at two seeds draws two sets of streams, so two groups of twelve plans; the second
        # group's set-up runs after the first group's two chunks went to the workers
        bands, submit = simulation._bands, concurrent.futures.ProcessPoolExecutor.submit
        seeds, submitted = [], []

        def fail(plan, *args):
            seeds.append(plan.seed)
            if len(set(seeds)) > 1:
                raise EndpointSolveError("set-up failed")
            return bands(plan, *args)

        def spy(self, *args, **kwargs):
            submitted.append(args[3:5])
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(simulation, "_bands", fail)
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
        plans = [dataclasses.replace(plan, reps=CHUNK_REPS + 40, seed=seed)
                 for seed in (6, 7) for plan in simulation._TABLES["T3"]]
        with pytest.raises(EndpointSolveError, match="set-up failed"):
            simulation._run_plans("T3", plans, threads=2)
        assert submitted == [(0, CHUNK_REPS), (CHUNK_REPS, CHUNK_REPS + 40)]
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_workers_capped_by_chunks_and_cores(self, pools):
        plan = SequencePlan(model=Model.BERNOULLI, truth=0.4, rule=Rule.LIKELIHOOD_RATIO,
                            level=0.95, n_min=10, n_max=300, reps=3 * CHUNK_REPS + 40, seed=13)
        assert run_plan(plan, threads=10 ** 6) == run_plan(plan, threads=1)
        assert pools == [min(4, simulation._usable_cores())]
        assert multiprocessing.active_children() == []


class TestUsableCores:
    """Workers are capped at the cores the process may run on, not the machine's count."""

    def test_affinity_set_counts_before_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert simulation._usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert simulation._usable_cores() == 8

    def test_process_cpu_count_first(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulation._usable_cores() == 3


class TestReporting:
    def test_single_replication_percentages_degenerate(self):
        plan = SequencePlan(model=Model.BERNOULLI, truth=0.5, rule=Rule.LIKELIHOOD_RATIO,
                            level=0.9, n_min=100, n_max=200, reps=1, seed=2)
        row = run_plan(plan)
        assert row.contradictions_pct in (0.0, 100.0)
        assert row.noncoverages_pct in (0.0, 100.0)

    def test_contradictions_never_exceed_noncoverages(self):
        for table, reps in (("T1", 200), ("T5", 200)):
            for row in reproduce_table(table, reps=reps, seed=8).rows:
                assert row.contradictions_pct <= row.noncoverages_pct

    def test_csv_schema_and_parse(self, tmp_path):
        report = reproduce_table("T1", reps=50, seed=1)
        path = tmp_path / "t1.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 1 + len(report.rows)

    def test_json_roundtrip(self, tmp_path):
        report = reproduce_table("T1", reps=50, seed=1)
        path = tmp_path / "t1.json"
        report.to_json(path)
        obj = json.loads(path.read_text())
        assert obj["table"] == "T1"
        assert obj["rows"][0]["row_label"] == "z"
        assert {c for c in CSV_COLUMNS} <= set(obj["rows"][0])

    def test_se_columns(self):
        row = run_plan(SequencePlan(model=Model.BERNOULLI, truth=0.5,
                                    rule=Rule.LIKELIHOOD_RATIO, level=0.9,
                                    n_min=100, n_max=300, reps=400, seed=3))
        p = row.noncoverages_pct / 100.0
        assert row.se_noncov == pytest.approx(100.0 * math.sqrt(p * (1 - p) / 400), abs=1e-12)


class TestWeightMeanConservativeness:
    def test_distant_weight_mean_kills_both_rates(self):
        report = reproduce_table("T2", reps=800, seed=10)

        def cell(label, level):
            return next(r for r in report.rows
                        if r.row_label == label and r.level == level)

        near = cell("mu0=0,tau0sq=1", 80.0)
        far = cell("mu0=5,tau0sq=1", 80.0)
        mid = cell("mu0=2,tau0sq=1", 80.0)
        assert far.noncoverages_pct <= mid.noncoverages_pct <= near.noncoverages_pct + 1.0
        assert far.noncoverages_pct <= 0.5
        assert far.contradictions_pct == 0.0


class TestCompareToReference:
    def test_exact_match_is_within(self):
        rows = tuple(ReportRow("T1", "z", lvl, c, n, 0.0, 0.0, 10_000, 10, 4000, 42)
                     for (label, lvl), (c, n) in reference.cells("T1").items())
        comps = compare_to_reference(TableReport("T1", rows))
        assert all(c.within for c in comps)
        assert len(comps) == 8          # 4 levels x 2 metrics

    def test_large_delta_flagged(self):
        cells = reference.cells("T1")
        rows = tuple(ReportRow("T1", "z", lvl, c + 5.0, n, 0.0, 0.0, 10_000, 10, 4000, 42)
                     for (label, lvl), (c, n) in cells.items())
        comps = compare_to_reference(TableReport("T1", rows))
        assert any(not c.within for c in comps)

    def test_zero_cells_have_floor_tolerance(self):
        comp = CellComparison("x", 80.0, "contradictions", 0.0, 0.0, 0.1)
        assert comp.within
        cells = reference.cells("T2")
        assert cells[("mu0=5,tau0sq=1", 80.0)] == (0.0, 0.0)
