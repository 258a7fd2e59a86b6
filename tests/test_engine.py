import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln

from robbins import bernoulli, engine, normal
from robbins.core import BetaWeight, NormalWeight, PersistenceLevel
from robbins.engine import (BISECT_XTOL, ConcaveLogLikelihood, NoBracketError, NonFiniteIntegrandError,
                            ThresholdAboveMaxError, closed_form_half_width, concave_level_set,
                            laplace_log_mixture, quadrature_log_mixture, robbins_region,
                            trapezoid_log_mixture, verify_ville_inequality)
from robbins.simulation import CHUNK_REPS, replication_rng

EPS02 = PersistenceLevel(0.2)


def matches_printed(value, printed, decimals):
    """True when value agrees with a printed figure to +/- 1 in its last digit."""
    return abs(round(value, decimals) - printed) <= 10.0 ** (-decimals) + 1e-12


# ---------------------------------------------------------------------------
# level-set solver
# ---------------------------------------------------------------------------

class TestRobbinsRegion:
    def test_quadratic_with_exact_normal_mixture(self):
        stat = normal.NormalSuffStat(100, 0.0)
        ll = normal.known_var_loglik(stat, 1.0)
        log_qn = normal.exact_log_mixture(stat, 1.0, NormalWeight(0.0, 1.0))
        iv = robbins_region(ll, log_qn, EPS02)
        d = closed_form_half_width(1.0, 100, 0.0, NormalWeight(0.0, 1.0), EPS02)
        assert iv.lower == pytest.approx(-d, abs=1e-7)
        assert iv.upper == pytest.approx(d, abs=1e-7)
        assert matches_printed(iv.upper, 0.280, 3)

    def test_threshold_at_maximum_gives_point(self):
        ll = normal.known_var_loglik(normal.NormalSuffStat(50, 1.3), 2.0)
        iv = concave_level_set(ll, ll.mle_loglik)
        assert iv.lower == iv.upper == ll.mle

    def test_threshold_above_maximum_raises(self):
        ll = normal.known_var_loglik(normal.NormalSuffStat(50, 1.3), 2.0)
        with pytest.raises(ThresholdAboveMaxError):
            concave_level_set(ll, ll.mle_loglik + 1e-3)

    def test_no_bracket_on_flat_loglik(self):
        flat = ConcaveLogLikelihood(fn=lambda t: 0.0, mle=0.0, mle_loglik=0.0)
        with pytest.raises(NoBracketError):
            concave_level_set(flat, -1.0)

    def test_bernoulli_endpoints_match_dense_grid_scan(self):
        # oracle: scan theta in (0,1) at step 1e-6 for the region inequality
        stat = bernoulli.BernoulliSuffStat(20, 7)
        weight = BetaWeight(1.0, 1.0)
        level = PersistenceLevel(0.5)
        thr = level.log_epsilon + bernoulli.beta_binomial_log_pmf(stat, weight)
        ll = bernoulli.binomial_loglik(stat)
        grid = np.arange(1e-6, 1.0, 1e-6)
        inside = grid[ll.fn(grid) >= thr]
        iv = robbins_region(ll, bernoulli.beta_binomial_log_pmf(stat, weight), level)
        assert iv.lower == pytest.approx(inside[0], abs=1e-6)
        assert iv.upper == pytest.approx(inside[-1], abs=1e-6)

    def test_truncation_at_support_boundary(self):
        # s = 0: the likelihood is maximised at theta = 0, the support edge,
        # so the region is clipped there and the endpoint equals the boundary
        stat = bernoulli.BernoulliSuffStat(10, 0)
        weight = BetaWeight(1.0, 1.0)
        level = PersistenceLevel(0.5)
        log_qn = bernoulli.beta_binomial_log_pmf(stat, weight)
        iv = robbins_region(bernoulli.binomial_loglik(stat), log_qn, level)
        assert iv.lower == 0.0
        T = level.log_epsilon + log_qn
        assert iv.upper == pytest.approx(1.0 - math.exp(T / stat.n), abs=1e-9)

    @pytest.mark.parametrize("s", [1, 10 ** 12 - 1])
    def test_mle_within_xtol_of_support_boundary(self, s):
        # the mle lies 1e-12 from a support edge, closer than xtol: the probe
        # at the edge must stay between the mle and the edge
        stat = bernoulli.BernoulliSuffStat(10 ** 12, s)
        ll = bernoulli.binomial_loglik(stat)
        iv = concave_level_set(ll, ll.mle_loglik - 2.0)
        assert iv.lower <= stat.mle <= iv.upper
        lower, upper = bernoulli.binomial_level_set(s, stat.n, 2.0)
        assert iv.lower == pytest.approx(float(lower), abs=BISECT_XTOL)
        assert iv.upper == pytest.approx(float(upper), abs=BISECT_XTOL)

    @pytest.mark.parametrize("n", [10 ** k for k in range(6, 13)])
    def test_endpoints_near_support_bound_to_relative_precision(self, n):
        # both endpoints lie within the absolute xtol of the bound 0 from n = 1e9 on; the
        # lower one was returned as 0 from n = 1e8 and the upper as 2.99e-10 at n = 1e12
        stat = bernoulli.BernoulliSuffStat(n, 1)
        ll = bernoulli.binomial_loglik(stat)
        threshold = ll.mle_loglik - 2.0
        iv = concave_level_set(ll, threshold)
        lower, upper = bernoulli.binomial_level_set(1, n, 2.0)
        assert iv.lower == pytest.approx(float(lower), rel=1e-6)
        # binomial_level_set's far endpoint drifts past n = 1e10: 6.2e-6 relative at
        # 1e11 and 6.8e-5 at 1e12, against a 50-digit solve
        assert iv.upper == pytest.approx(float(upper), rel=1e-6 if n <= 10 ** 10 else 1e-4)
        for theta in (iv.lower, iv.upper):
            # a relative step of 1e-6 from theta moves l by 1e-6 theta |l'(theta)|
            slope = abs(1.0 / theta - (n - 1) / (1.0 - theta))
            assert abs(ll(theta) - threshold) <= 1e-6 * theta * slope

    def test_level_set_hits_threshold(self):
        stat = bernoulli.BernoulliSuffStat(137, 52)
        weight = BetaWeight(2.0, 3.0)
        thr = PersistenceLevel(0.1).log_epsilon + bernoulli.beta_binomial_log_pmf(stat, weight)
        ll = bernoulli.binomial_loglik(stat)
        iv = robbins_region(ll, bernoulli.beta_binomial_log_pmf(stat, weight), PersistenceLevel(0.1))
        for endpoint in (iv.lower, iv.upper):
            assert abs(ll(endpoint) - thr) < 1e-7


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 3000), frac=st.floats(0.02, 0.98),
       a=st.floats(0.2, 8.0), b=st.floats(0.2, 8.0),
       eps1=st.floats(0.02, 0.9), eps2=st.floats(0.02, 0.9))
def test_regions_nested_in_epsilon_and_contain_mle(n, frac, a, b, eps1, eps2):
    s = max(1, min(n - 1, round(frac * n)))
    stat = bernoulli.BernoulliSuffStat(n, s)
    weight = BetaWeight(a, b)
    log_qn = bernoulli.beta_binomial_log_pmf(stat, weight)
    ll = bernoulli.binomial_loglik(stat)
    lo_eps, hi_eps = sorted((eps1, eps2))
    wide = robbins_region(ll, log_qn, PersistenceLevel(lo_eps))
    narrow = robbins_region(ll, log_qn, PersistenceLevel(hi_eps))
    slack = 2e-9
    assert wide.lower <= narrow.lower + slack
    assert wide.upper >= narrow.upper - slack
    assert wide.contains(ll.mle) and narrow.contains(ll.mle)


# ---------------------------------------------------------------------------
# closed-form half-width
# ---------------------------------------------------------------------------

class TestClosedFormHalfWidth:
    @pytest.mark.parametrize("weight,printed", [
        (NormalWeight(0.0, 1.0), 0.280),
        (NormalWeight(0.0, 4.0), 0.304),
        (NormalWeight(1.0, 1.0), 0.297),
        (NormalWeight(0.0, 0.125), 0.241),
    ])
    def test_printed_values(self, weight, printed):
        assert matches_printed(closed_form_half_width(1.0, 100, 0.0, weight, EPS02), printed, 3)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            closed_form_half_width(0.0, 100, 0.0, NormalWeight(0.0, 1.0), EPS02)
        with pytest.raises(ValueError):
            closed_form_half_width(1.0, 0, 0.0, NormalWeight(0.0, 1.0), EPS02)

    def test_growth_law_band(self):
        # n d_n^2 / sigma0^2 - log n stays in a fixed band as n grows
        w = NormalWeight(0.0, 1.0)
        ns = np.unique(np.round(np.logspace(1, 6, 120)).astype(int))
        vals = [n * closed_form_half_width(1.0, int(n), 0.0, w, EPS02) ** 2 - math.log(n)
                for n in ns]
        assert max(vals) - min(vals) < 1.0


# ---------------------------------------------------------------------------
# Laplace approximation
# ---------------------------------------------------------------------------

class TestLaplace:
    @staticmethod
    def _normal_laplace(n, ybar, sigma0_sq, weight):
        stat = normal.NormalSuffStat(n, ybar)
        ll = normal.known_var_loglik(stat, sigma0_sq)
        weight_at_mle = math.exp(-0.5 * math.log(2 * math.pi * weight.tau0_sq)
                                 - (ybar - weight.mu0) ** 2 / (2 * weight.tau0_sq))
        lap = laplace_log_mixture(ll, weight_at_mle, n / sigma0_sq)
        exact = normal.exact_log_mixture(stat, sigma0_sq, weight)
        return lap, exact

    def test_gaussian_error_matches_analytic_form(self):
        # Expanding at the likelihood MLE with likelihood information only, the
        # Gaussian-weight error is known in closed form: the mixture spreads the
        # weight by sigma0^2/n, so
        #   lap - exact = 0.5 log((tau^2+v)/tau^2) - (ybar-mu0)^2/2 (1/tau^2 - 1/(tau^2+v))
        # with v = sigma0^2/n; it vanishes at the O(1/n) rate.
        sigma0_sq, weight = 2.0, NormalWeight(0.5, 1.7)
        lap, exact = self._normal_laplace(50, 0.3, sigma0_sq, weight)
        v = sigma0_sq / 50
        t2 = weight.tau0_sq
        predicted = 0.5 * math.log((t2 + v) / t2) \
            - 0.5 * (0.3 - weight.mu0) ** 2 * (1 / t2 - 1 / (t2 + v))
        assert lap.value - exact.value == pytest.approx(predicted, abs=1e-12)
        assert lap.method == "laplace"

    def test_gaussian_error_vanishes_with_n(self):
        sigma0_sq, weight = 2.0, NormalWeight(0.5, 1.7)
        errs = [abs(l.value - e.value)
                for l, e in (self._normal_laplace(n, 0.3, sigma0_sq, weight)
                             for n in (50, 500, 5000))]
        assert errs[0] < 0.02
        assert 8.0 < errs[0] / errs[1] < 12.0
        assert 8.0 < errs[1] / errs[2] < 12.0

    @staticmethod
    def _bernoulli_laplace_error(n, s):
        stat = bernoulli.BernoulliSuffStat(n, s)
        ll = bernoulli.binomial_loglik(stat)
        that = s / n
        lap = laplace_log_mixture(ll, 1.0, n / (that * (1 - that)))  # uniform weight
        exact = bernoulli.beta_binomial_log_pmf(stat, BetaWeight(1.0, 1.0))
        return abs(lap.value - exact)

    def test_bernoulli_error_small_and_shrinking(self):
        e200 = self._bernoulli_laplace_error(200, 80)
        e2000 = self._bernoulli_laplace_error(2000, 800)
        assert e200 < 0.02
        assert 5.0 < e200 / e2000 < 20.0      # O(1/n): one decade of n gains ~10x

    def test_rejects_nonpositive_information(self):
        ll = normal.known_var_loglik(normal.NormalSuffStat(10, 0.0), 1.0)
        with pytest.raises(ValueError):
            laplace_log_mixture(ll, 1.0, 0.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class TestQuadrature:
    def test_matches_exact_normal(self):
        stat = normal.NormalSuffStat(40, 0.7)
        weight = NormalWeight(-0.2, 2.5)
        ll = normal.known_var_loglik(stat, 1.5)

        def log_pi(t):
            return -0.5 * math.log(2 * math.pi * weight.tau0_sq) \
                - (t - weight.mu0) ** 2 / (2 * weight.tau0_sq)

        q = quadrature_log_mixture(ll, log_pi)
        exact = normal.exact_log_mixture(stat, 1.5, weight).value
        assert q.value == pytest.approx(exact, rel=1e-8)
        assert q.method == "quadrature"
        assert 0.0 <= q.rel_error <= 1e-8

    def test_matches_exact_beta_binomial(self):
        from robbins.core import Interval
        stat = bernoulli.BernoulliSuffStat(60, 21)
        a, b = 0.5, 2.0
        ll = bernoulli.binomial_loglik(stat)

        def log_pi(t):
            return float((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - betaln(a, b))

        q = quadrature_log_mixture(ll, log_pi, domain=Interval(0.0, 1.0))
        assert q.value == pytest.approx(bernoulli.beta_binomial_log_pmf(stat, BetaWeight(a, b)),
                                        rel=1e-8)

    def test_matches_trapezoid_for_conditional_log_odds(self):
        from robbins import two_bernoulli
        stat = two_bernoulli.TwoSampleStat(30, 70, 20, 30)
        q = two_bernoulli.conditional_log_mixture(stat)
        ll = two_bernoulli.conditional_loglik(stat)
        psis = np.linspace(-40.0, 40.0, 20_000)
        vals = np.array([ll(p) for p in psis]) + two_bernoulli.log_odds_weight_log_density(psis)
        m = vals.max()
        oracle = m + math.log(np.trapezoid(np.exp(vals - m), psis))
        assert abs(q.value - oracle) < 1e-5

    def test_non_finite_integrand_raises(self):
        ll = normal.known_var_loglik(normal.NormalSuffStat(10, 0.0), 1.0)
        with pytest.raises(NonFiniteIntegrandError):
            quadrature_log_mixture(ll, lambda t: math.nan)
        with pytest.raises(NonFiniteIntegrandError):
            trapezoid_log_mixture(lambda t: np.full(t.shape, math.nan), (-1.0, 1.0), 8)


class TestTrapezoid:
    @pytest.mark.parametrize("sd", [0.03, 1.0, 7.0])
    def test_gaussian_integral(self, sd):
        # log of integral exp(5 - x^2 / (2 sd^2)) dx = 5 + log(sd sqrt(2 pi))
        calls = []

        def g(x):
            calls.append(x.size)
            return 5.0 - 0.5 * (x / sd) ** 2

        q = trapezoid_log_mixture(g, (-40.0 * sd, 40.0 * sd), 160)
        assert q.value == pytest.approx(5.0 + math.log(sd * math.sqrt(2.0 * math.pi)),
                                        abs=1e-13)
        assert q.method == "trapezoid" and 0.0 <= q.rel_error <= 1e-8
        # step sd/2, then only the 160 midpoints: one halving
        assert calls == [161, 160]

    def test_refines_then_warns(self):
        # from a first step of 1/4, a bump of sd 0.05 meets the tolerance at the
        # fourth halving (step 1/64); one of sd 0.005 never does
        def bump(sd):
            return lambda x: -0.5 * (x / sd) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = trapezoid_log_mixture(bump(0.05), (-2.0, 2.0), 16)
        assert q.value == pytest.approx(math.log(0.05 * math.sqrt(2.0 * math.pi)), abs=1e-12)
        assert q.rel_error <= 1e-8
        with pytest.warns(RuntimeWarning, match="tolerance not met"):
            q = trapezoid_log_mixture(bump(0.005), (-2.0, 2.0), 16)
        assert q.rel_error > 1e-8 and math.isfinite(q.value)


# ---------------------------------------------------------------------------
# crossing-probability bound
# ---------------------------------------------------------------------------

class LoopRan(Exception):
    """Raised by a crossing path whose per-replication loop must not run."""


def exact_ratios(theta, a, b, n_max):
    """q_n/p_n at every (n, s), n = 1..n_max, as Fractions: rows[n - 1][s]."""
    t, a, b = Fraction(theta), Fraction(a), Fraction(b)
    rows, row = [], [Fraction(1)]
    for n in range(1, n_max + 1):
        row = [(row[s] * (b + n - 1 - s) / (1 - t) if s < n else row[s - 1] * (a + s - 1) / t)
               / (a + b + n - 1) for s in range(n + 1)]
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=8)
def exact_first_crossings(theta, a, b, k, n_max, reps, seed):
    """Per replication, the first n with q_n/p_n >= k (0 for none by n_max), replayed in
    rationals on the replication_rng streams; each (n, s) ratio is computed once, from the
    cell before it on the first path through it."""
    t, a, b, k = map(Fraction, (theta, a, b, k))
    ratio, first = {(0, 0): Fraction(1)}, []
    for r in range(reps):
        s = np.cumsum(replication_rng(seed, r).random(n_max) < theta).tolist()
        prev, hit = 0, 0
        for n, cur in enumerate(s, 1):
            if (n, cur) not in ratio:
                step = (a + prev) / t if cur > prev else (b + n - 1 - prev) / (1 - t)
                ratio[n, cur] = ratio[n - 1, prev] * step / (a + b + n - 1)
            if ratio[n, cur] >= k:
                hit = n
                break
            prev = cur
        first.append(hit)
    return first


class TestVille:
    def test_normal_k5(self):
        path = normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0))
        res = verify_ville_inequality(path, k=5.0, n_max=1000, reps=3000, seed=11)
        assert res.bound == pytest.approx(0.2)
        assert res.passed

    def test_normal_k20(self):
        path = normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0))
        res = verify_ville_inequality(path, k=20.0, n_max=1000, reps=3000, seed=12)
        assert res.estimate <= 0.05 + 3.0 * res.std_error

    def test_bernoulli_k10(self):
        path = bernoulli.ville_log_ratio_path(0.7, BetaWeight(1.0, 1.0))
        res = verify_ville_inequality(path, k=10.0, n_max=1000, reps=3000, seed=13)
        assert res.estimate <= 0.1 + 3.0 * res.std_error

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, math.inf, math.nan])
    def test_rejects_bad_k(self, k):
        # k = inf once gave crossings 0 and bound 0.0, and a PASS
        path = normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0))
        for p in (path, lambda rng, n: path(rng, n)):
            with pytest.raises(ValueError, match="k must satisfy 1 < k < inf"):
                verify_ville_inequality(p, k=k, n_max=10, reps=10, seed=1)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("n_max", [1, 300])
    @pytest.mark.parametrize("k", [1.5, 10.0, 100.0])
    @pytest.mark.parametrize("model", ["normal", "bernoulli"])
    def test_kernel_route_equals_loop(self, model, k, n_max, seed):
        # a LogRatioPath runs through the table kernel; a plain callable takes the
        # per-replication loop, the reference.  300 reps are two chunks.
        path = (normal.ville_log_ratio_path(0.5, 2.0, NormalWeight(1.0, 2.0))
                if model == "normal" else
                bernoulli.ville_log_ratio_path(0.7, BetaWeight(0.5, 0.5)))
        kernel = verify_ville_inequality(path, k=k, n_max=n_max, reps=300, seed=seed)
        loop = verify_ville_inequality(lambda rng, n: path(rng, n), k=k, n_max=n_max,
                                       reps=300, seed=seed)
        assert kernel == loop

    # crossings of k at 400 reps, seed 1, by n_max 3, 7 and 300.  Under theta 1/2 and
    # Beta(1, 1), q_n/p_n is exactly 2 at n = 3 and 16 at n = 7 (s = 0 or n), and 4/3 at n = 2
    # exceeds the float 4/3 while its float log-ratio rounds below log k.  The float loop
    # counts 97/131/210 at 4/3 and 0/72/142 at 2; a strict count at theta 1/4, k = 2 would be
    # 27/52/110, so the kernel must count q_n/p_n >= k.
    TIES = {(0.5, 1.0, 1.0, 4 / 3): (203, 226, 279), (0.5, 1.0, 1.0, 2.0): (97, 113, 174),
            (0.5, 1.0, 1.0, 16.0): (0, 6, 11), (0.25, 1.0, 1.0, 2.0): (108, 123, 169),
            (0.5, 0.5, 0.5, 1.5): (203, 209, 247)}

    @pytest.mark.parametrize("n_max", [3, 7, 300])
    @pytest.mark.parametrize("setting", list(TIES),
                             ids=lambda s: "theta={}-Beta({},{})-k={}".format(*s))
    def test_kernel_count_equals_exact_replay(self, setting, n_max):
        path = bernoulli.ville_log_ratio_path(setting[0], BetaWeight(*setting[1:3]))
        res = verify_ville_inequality(path, k=setting[3], n_max=n_max, reps=400, seed=1)
        first = exact_first_crossings(*setting, n_max=300, reps=400, seed=1)
        assert res.crossings == sum(0 < n <= n_max for n in first)
        assert res.crossings == self.TIES[setting][(3, 7, 300).index(n_max)]

    @pytest.mark.parametrize("setting, n_max, reps, seed",
                             [((0.3, 1.0, 1.0, 10.0), 4000, 2000, 42)]
                             + [(setting, 300, 400, 1) for setting in TIES],
                             ids=lambda x: "theta={}-Beta({},{})-k={}".format(*x)
                             if isinstance(x, tuple) else str(x))
    def test_bernoulli_count_equals_chunk_count(self, monkeypatch, setting, n_max, reps, seed):
        # a Bernoulli path is counted from the rows leaving the band alone; the whole chunk
        # step, which also seeks contradictions, must count the same noncovered rows
        from robbins import simulation
        setups, setup = [], simulation._setup
        monkeypatch.setattr(simulation, "_setup",
                            lambda plans: setups.append((plans, setup(plans))) or setups[-1][1])
        path = bernoulli.ville_log_ratio_path(setting[0], BetaWeight(*setting[1:3]))
        count = simulation._crossings(path, setting[3], n_max, reps, seed)
        [(plans, built)] = setups
        assert count == sum(int(simulation._chunk(plans, built, r0, r1)[0][1])
                            for r0, r1 in simulation._slices(plans[0]))
        assert count == (148 if seed == 42 else self.TIES[setting][2])

    @pytest.mark.parametrize("theta, a, b", [(0.5, 1.0, 1.0), (0.25, 0.5, 0.5), (0.3, 5.0, 2.0)])
    def test_bernoulli_crossing_band_is_exact(self, monkeypatch, theta, a, b):
        # the kernel's band at each n holds exactly the counts with q_n/p_n < k, at ties, at
        # k a rounding away from some q_n/p_n, and at k near 1, where the edges lie close to
        # the log-ratio's least value and its step between counts is smallest
        from robbins import simulation
        setups, setup = [], simulation._setup     # its band is edited in place after it returns
        monkeypatch.setattr(simulation, "_setup",
                            lambda *args: setups.append(setup(*args)) or setups[-1])
        ratios = exact_ratios(theta, a, b, 60)
        near = sorted({float(r) for row in ratios[20:] for r in row if 1 < r < 100})
        path = bernoulli.ville_log_ratio_path(theta, BetaWeight(a, b))
        for k in [2.0, 16.0, 4 / 3, 1.5, 1 + 1e-6, 1 + 1e-9] + near[::max(1, len(near) // 8)]:
            verify_ville_inequality(path, k=k, n_max=60, reps=1, seed=1)
            band = setups[-1][1][0][0][2]      # set-up (ns, chains): the one link's band
            for n, row in enumerate(ratios, 1):
                inside = [s for s, r in enumerate(row) if r < Fraction(k)]
                assert inside == list(range(*band[:, n - 1] + [0, 1])), (k, n)

    @staticmethod
    def loop_raises(rng, n_max):
        raise LoopRan

    @pytest.mark.parametrize("model, theta, weight, k, n_max", [
        ("bernoulli", 0.3, BetaWeight(1.0, 1.0), 10.0, 4000),
        ("bernoulli", 0.5, BetaWeight(1.0, 1.0), 4 / 3, 7),
        ("bernoulli", 0.5, BetaWeight(1.0, 1.0), 2.0, 3),
        ("bernoulli", 0.5, BetaWeight(1.0, 1.0), 16.0, 300),
        ("bernoulli", 0.5, BetaWeight(0.5, 0.5), 1.5, 20_000),
        ("normal", 0.0, NormalWeight(0.0, 1.0), 10.0, 20_000)])
    def test_model_paths_never_reach_the_loop(self, model, theta, weight, k, n_max):
        # whatever the setting, ties included, a LogRatioPath up to n_max 20 000 runs the
        # kernel; a loop would call the path's fn, which raises
        path = engine.LogRatioPath(self.loop_raises, model, theta, weight)
        assert verify_ville_inequality(path, k=k, n_max=n_max, reps=8, seed=1).reps == 8

    def test_long_paths_and_callables_reach_the_loop(self):
        path = engine.LogRatioPath(self.loop_raises, "bernoulli", 0.3, BetaWeight(1.0, 1.0))
        for p, n_max in ((path, 20_001), (lambda rng, n: path(rng, n), 4000)):
            with pytest.raises(LoopRan):
                verify_ville_inequality(p, k=10.0, n_max=n_max, reps=8, seed=1)

    @pytest.mark.parametrize("theta, weight, n_max", [(0.3, BetaWeight(1.0, 1.0), 4000),
                                                      (0.5, BetaWeight(1.0, 1.0), 7)],
                             ids=["kernel", "tie"])
    def test_bernoulli_band_computed_once(self, monkeypatch, theta, weight, n_max):
        # the exact edge pass at a tie reads the band of the kernel's own set-up
        from robbins import simulation
        calls, bands = [], simulation._bands
        monkeypatch.setattr(simulation, "_bands", lambda *args: calls.append(1) or bands(*args))
        path = bernoulli.ville_log_ratio_path(theta, weight)
        verify_ville_inequality(path, k=16.0, n_max=n_max, reps=300, seed=42)
        assert len(calls) == 1

    def test_kernel_route_equals_loop_over_many_chunks(self):
        for path in (normal.ville_log_ratio_path(0.5, 2.0, NormalWeight(1.0, 2.0)),
                     bernoulli.ville_log_ratio_path(0.7, BetaWeight(0.5, 0.5))):
            kernel, loop = (verify_ville_inequality(p, k=5.0, n_max=400,
                                                    reps=3 * CHUNK_REPS + 40, seed=13)
                            for p in (path, lambda rng, n: path(rng, n)))
            assert kernel == loop, path.model

    @pytest.mark.parametrize("reps, n_max", [(-2, 10), (0, 10), (10, 0)])
    def test_rejects_degenerate_sizes(self, reps, n_max):
        path = normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0))
        with pytest.raises(ValueError, match="reps >= 1 and n_max >= 1"):
            verify_ville_inequality(path, k=10.0, n_max=n_max, reps=reps, seed=1)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("reps", 20.5),
                                              ("n_max", 10.0)])
    def test_rejects_non_integer_sizes_and_seed(self, field, value):
        # seed 1.5 used to be truncated; reps 20.5 raised a bare TypeError
        path = normal.ville_log_ratio_path(0.0, 1.0, NormalWeight(0.0, 1.0))
        sizes = {"n_max": 10, "reps": 10, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            verify_ville_inequality(path, k=10.0, **sizes)

    @pytest.mark.parametrize("theta, sigma0_sq", [(math.nan, 1.0), (math.inf, 1.0),
                                                  (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)])
    def test_normal_path_rejects_non_finite_input(self, theta, sigma0_sq):
        # a NaN path used to count as "never crossed", so the check passed
        with pytest.raises(ValueError, match="finite theta and a finite positive sigma0_sq"):
            normal.ville_log_ratio_path(theta, sigma0_sq, NormalWeight(0.0, 1.0))

    def test_nan_path_raises_naming_the_replication(self):
        calls = []

        def path(rng, n_max):
            calls.append(rng)
            out = rng.standard_normal(n_max)
            if len(calls) == 3:
                out[-1] = math.nan
            return out

        with pytest.raises(ValueError, match="replication 2: the log-ratio path has NaN"):
            verify_ville_inequality(path, k=10.0, n_max=20, reps=5, seed=1)
