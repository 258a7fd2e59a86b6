import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, stats
from scipy.special import logsumexp

from robbins import two_bernoulli
from robbins.core import NormalWeight, PersistenceLevel
from robbins.engine import (EndpointSolveError, MixtureLogDensity, ThresholdAboveMaxError,
                            closed_form_half_width)
from robbins.two_bernoulli import (SupportError, TwoSampleStat, UnboundedRegionError,
                                   _newton_root,
                                   approx_interval_log_odds, conditional_log_mixture,
                                   conditional_loglik, continuity_corrected_estimates,
                                   fnch_log_pmf, fnch_support, log_odds_weight_density,
                                   log_odds_weight_log_density, robbins_conditional_interval,
                                   wald_interval)

EPS02 = PersistenceLevel(0.2)
ILLUSTRATION = TwoSampleStat(n1=30, n2=70, s1=20, s2=30)


def matches_printed(value, printed, decimals):
    return abs(round(value, decimals) - printed) <= 10.0 ** (-decimals) + 1e-12


class TestStat:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoSampleStat(0, 10, 0, 5)
        with pytest.raises(ValueError):
            TwoSampleStat(10, 10, 11, 5)
        assert ILLUSTRATION.t == 50
        assert ILLUSTRATION.swapped() == TwoSampleStat(70, 30, 30, 20)


class TestFnchLogPmf:
    def test_central_case_is_hypergeometric(self):
        # n1=n2=2, t=2, psi=0: P(s1=1) = C(2,1)C(2,1)/C(4,2) = 2/3
        assert math.exp(fnch_log_pmf(1, 2, 2, 2, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(1, 40), n2=st.integers(1, 40),
           t_frac=st.floats(0, 1), psi=st.floats(-4, 4))
    def test_normalisation(self, n1, n2, t_frac, psi):
        t = round(t_frac * (n1 + n2))
        lo, hi = fnch_support(n1, n2, t)
        total = sum(math.exp(fnch_log_pmf(u, n1, n2, t, psi)) for u in range(lo, hi + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_exact_enumeration_oracle(self):
        # psi = log 2 makes the tilt exactly 2^u; rational arithmetic oracle
        n1, n2, t = 3, 4, 3
        weights = {u: Fraction(math.comb(n1, u) * math.comb(n2, t - u)) * Fraction(2) ** u
                   for u in range(0, 4)}
        total = sum(weights.values())
        for u, w in weights.items():
            assert math.exp(fnch_log_pmf(u, n1, n2, t, math.log(2.0))) == \
                pytest.approx(float(w / total), rel=1e-12)

    def test_support_error(self):
        with pytest.raises(SupportError):
            fnch_log_pmf(31, 30, 70, 50, 0.0)
        with pytest.raises(SupportError):
            fnch_log_pmf(0, 30, 30, 40, 0.0)   # support starts at t - n2 = 10

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(2, 25), n2=st.integers(2, 25), t_frac=st.floats(0.2, 0.8),
           psi=st.floats(-3, 3))
    def test_loglik_concave_and_mean_monotone(self, n1, n2, t_frac, psi):
        t = max(1, min(n1 + n2 - 1, round(t_frac * (n1 + n2))))
        lo, hi = fnch_support(n1, n2, t)
        if hi - lo < 2:
            return
        s1 = (lo + hi) // 2
        grid = psi + np.linspace(-2.0, 2.0, 41)
        vals = np.array([fnch_log_pmf(s1, n1, n2, t, p) for p in grid])
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)
        # strictly increasing conditional mean in psi
        def mean(p):
            return sum(u * math.exp(fnch_log_pmf(u, n1, n2, t, p)) for u in range(lo, hi + 1))
        assert mean(psi + 0.5) > mean(psi - 0.5)


class TestWeightDensity:
    def test_value_at_zero_by_continuity(self):
        assert log_odds_weight_density(0.0) == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)

    @pytest.mark.parametrize("psi", [0.5, 1.0, 5.0])
    def test_symmetry(self, psi):
        assert log_odds_weight_density(psi) == pytest.approx(
            log_odds_weight_density(-psi), rel=1e-12)

    def test_series_switch_is_seamless(self):
        below = log_odds_weight_log_density(0.999e-6)
        above = log_odds_weight_log_density(1.001e-6)
        assert abs(below - above) < 1e-12

    def test_matches_direct_formula(self):
        for psi in (0.3, 1.7, -2.4, 8.0):
            direct = psi * math.exp(psi / 2) / (math.pi ** 2 * (math.exp(psi) - 1.0))
            assert log_odds_weight_density(psi) == pytest.approx(direct, rel=1e-12)

    def test_integrates_to_one_with_variance_two_pi_sq(self):
        mass, _ = integrate.quad(log_odds_weight_density, -80, 80, limit=400)
        var, _ = integrate.quad(lambda p: p * p * log_odds_weight_density(p),
                                -90, 90, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert var == pytest.approx(2.0 * math.pi ** 2, abs=1e-6)


class TestConditionalInterval:
    def test_level_set_property_on_illustration(self):
        iv = robbins_conditional_interval(ILLUSTRATION, EPS02)
        ll = conditional_loglik(ILLUSTRATION)
        thr = EPS02.log_epsilon + conditional_log_mixture(ILLUSTRATION).value
        assert abs(ll(iv.lower) - thr) < 1e-7
        assert abs(ll(iv.upper) - thr) < 1e-7
        assert iv.contains(ll.mle)

    def test_grid_scan_oracle(self):
        # dense psi grid, step 1e-4 on [-10, 10]
        stat = TwoSampleStat(10, 10, 7, 3)
        level = PersistenceLevel(0.5)
        thr = level.log_epsilon + conditional_log_mixture(stat).value
        ll = conditional_loglik(stat)
        grid = np.arange(-10.0, 10.0, 1e-4)
        vals = np.array([ll(p) for p in grid])
        inside = grid[vals >= thr]
        iv = robbins_conditional_interval(stat, level)
        assert iv.lower == pytest.approx(inside[0], abs=2e-4)
        assert iv.upper == pytest.approx(inside[-1], abs=2e-4)

    def test_symmetric_data_gives_symmetric_interval(self):
        iv = robbins_conditional_interval(TwoSampleStat(10, 10, 4, 4), EPS02)
        assert iv.lower == pytest.approx(-iv.upper, abs=1e-7)

    def test_label_swap_reflects_interval(self):
        iv = robbins_conditional_interval(ILLUSTRATION, EPS02)
        swapped = robbins_conditional_interval(ILLUSTRATION.swapped(), EPS02)
        assert swapped.lower == pytest.approx(-iv.upper, abs=1e-7)
        assert swapped.upper == pytest.approx(-iv.lower, abs=1e-7)

    def test_degenerate_total_unbounded(self):
        with pytest.raises(UnboundedRegionError):
            robbins_conditional_interval(TwoSampleStat(10, 10, 0, 0), EPS02)

    def test_support_edge_unbounded(self):
        with pytest.raises(UnboundedRegionError):
            robbins_conditional_interval(TwoSampleStat(10, 10, 5, 0), EPS02)


class TestContinuityCorrected:
    def test_illustration_values(self):
        psi_hat, v_n = continuity_corrected_estimates(ILLUSTRATION)
        assert psi_hat == pytest.approx(0.9526249, abs=1e-6)
        assert v_n == pytest.approx(0.2014968, abs=1e-6)

    def test_wald_cross_check(self):
        # psi_hat +/- 2.807 sqrt(v_n) must reproduce the 99.5% comparator
        iv = wald_interval(ILLUSTRATION, 0.995)
        assert matches_printed(iv.lower, -0.307, 3)
        assert matches_printed(iv.upper, 2.213, 3)

    def test_wald_99(self):
        iv = wald_interval(ILLUSTRATION, 0.99)
        assert matches_printed(iv.lower, -0.204, 3)
        assert matches_printed(iv.upper, 2.109, 3)

    def test_balanced_counts_give_zero(self):
        psi_hat, _ = continuity_corrected_estimates(TwoSampleStat(20, 20, 10, 10))
        assert psi_hat == 0.0

    def test_finite_at_boundaries(self):
        psi_hat, v_n = continuity_corrected_estimates(TwoSampleStat(10, 10, 0, 10))
        assert math.isfinite(psi_hat) and math.isfinite(v_n) and v_n > 0


class TestApproxInterval:
    def test_printed_heavy_tail_weight(self):
        iv = approx_interval_log_odds(ILLUSTRATION, NormalWeight(0.0, 2.0 * math.pi ** 2),
                                      EPS02)
        assert matches_printed(iv.lower, -0.306, 3)
        assert matches_printed(iv.upper, 2.211, 3)

    def test_printed_unit_weight(self):
        iv = approx_interval_log_odds(ILLUSTRATION, NormalWeight(0.0, 1.0), EPS02)
        assert matches_printed(iv.lower, -0.125, 3)
        assert matches_printed(iv.upper, 2.030, 3)

    def test_generic_half_width_equals_direct_evaluation(self):
        psi_hat, v_n = continuity_corrected_estimates(ILLUSTRATION)
        w = NormalWeight(0.4, 3.3)
        n = ILLUSTRATION.n1 + ILLUSTRATION.n2
        generic = closed_form_half_width(n * v_n, n, psi_hat, w, EPS02)
        direct = math.sqrt(v_n) * math.sqrt(
            math.log((w.tau0_sq + v_n) / v_n)
            + (psi_hat - w.mu0) ** 2 / (w.tau0_sq + v_n) - 2.0 * math.log(0.2))
        assert generic == pytest.approx(direct, abs=1e-12)
        iv = approx_interval_log_odds(ILLUSTRATION, w, EPS02)
        assert iv.upper - psi_hat == pytest.approx(generic, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(1, 60), n2=st.integers(1, 60), f1=st.floats(0, 1),
           f2=st.floats(0, 1), mu0=st.floats(-2, 2), tau2=st.floats(0.1, 25),
           eps=st.floats(0.05, 0.9))
    def test_label_swap_antisymmetry(self, n1, n2, f1, f2, mu0, tau2, eps):
        stat = TwoSampleStat(n1, n2, min(n1, round(f1 * n1)), min(n2, round(f2 * n2)))
        level = PersistenceLevel(eps)
        psi_hat, _ = continuity_corrected_estimates(stat)
        psi_swap, _ = continuity_corrected_estimates(stat.swapped())
        assert psi_swap == pytest.approx(-psi_hat, abs=1e-12)
        iv = approx_interval_log_odds(stat, NormalWeight(mu0, tau2), level)
        swapped = approx_interval_log_odds(stat.swapped(), NormalWeight(-mu0, tau2), level)
        assert swapped.lower == pytest.approx(-iv.upper, abs=1e-10, rel=1e-10)
        assert swapped.upper == pytest.approx(-iv.lower, abs=1e-10, rel=1e-10)


def _scipy_oracle(n1, n2, s1, s2, eps):
    """(log q, lower, upper, MLE, moments) from scipy alone: the central
    hypergeometric log pmf tilted by psi u and normalised by logsumexp, the
    weight written out, quad on psi_hat +/- 40 sd at epsrel 1e-12, then brentq."""
    t = s1 + s2
    u = np.arange(max(0, t - n2), min(n1, t) + 1)
    base = stats.hypergeom.logpmf(u, n1 + n2, n1, t)

    def loglik(psi):
        return base[s1 - u[0]] + psi * s1 - logsumexp(base + psi * u)

    def moments(psi):
        p = np.exp(base + psi * u - logsumexp(base + psi * u))
        mean = p @ u
        return mean, p @ (u - mean) ** 2

    def log_weight(psi):
        return math.log(psi / (2 * math.pi ** 2 * math.sinh(psi / 2))) if psi \
            else -2 * math.log(math.pi)

    mle = optimize.brentq(lambda p: moments(p)[0] - s1, -50.0, 50.0, xtol=1e-14)
    sd = 1.0 / math.sqrt(moments(mle)[1])
    shift = loglik(mle) + log_weight(mle)
    mass = sum(integrate.quad(lambda p: math.exp(loglik(p) + log_weight(p) - shift), a, b,
                              epsabs=0.0, epsrel=1e-12, limit=400)[0]
               for a, b in ((mle - 40 * sd, mle), (mle, mle + 40 * sd)))
    log_q = shift + math.log(mass)
    thr = math.log(eps) + log_q
    lower = optimize.brentq(lambda p: loglik(p) - thr, mle - 40 * sd, mle, xtol=1e-14, rtol=1e-15)
    upper = optimize.brentq(lambda p: loglik(p) - thr, mle, mle + 40 * sd, xtol=1e-14, rtol=1e-15)
    return log_q, lower, upper, mle, moments


ORACLE_TABLES = [
    (30, 70, 20, 30, 0.2),          # the illustration
    (2919, 2919, 1696, 1819, 0.05),  # largest table of the seed-42 monitor benchmark
    (12, 40, 5, 9, 0.1),            # n1 != n2
    (40, 12, 9, 5, 0.1),            # ... and its label swap
    (20, 15, 1, 4, 0.2),            # s1 one above the lower support edge
    (1000, 1000, 1, 3, 0.2),        # ... at large n
    (10, 30, 9, 3, 0.2),            # s1 one below the upper support edge (n1)
    (100, 50, 99, 20, 0.1),         # ... with an extreme log-odds ratio
    (50, 50, 1, 1, 0.5),            # small t
    (3, 3, 1, 2, 0.5),              # tiny samples: the widest grid
]


class TestConditionalOracle:
    @pytest.mark.parametrize("table", ORACLE_TABLES, ids=lambda t: "-".join(map(str, t[:4])))
    def test_matches_scipy_oracle(self, table):
        n1, n2, s1, s2, eps = table
        log_q, lower, upper, mle, moments = _scipy_oracle(*table)
        stat = TwoSampleStat(n1, n2, s1, s2)
        q = conditional_log_mixture(stat)
        iv = robbins_conditional_interval(stat, PersistenceLevel(eps))
        assert abs(q.value - log_q) <= 1e-9
        assert q.method == "trapezoid" and 0.0 <= q.rel_error <= 1e-8
        assert abs(iv.lower - lower) <= 1e-9 * abs(lower)
        assert abs(iv.upper - upper) <= 1e-9 * abs(upper)
        ll = conditional_loglik(stat)
        mean, var = moments(ll.mle)
        assert abs(s1 - mean) <= 1e-10 * (1.0 + var)      # the MLE zeroes the score
        assert ll.mle == pytest.approx(mle, abs=1e-9)

    @pytest.mark.parametrize("table, mib", [((2919, 2919, 1696, 1819), 2),
                                            ((100_000, 100_000, 50_000, 50_600), 8)])
    def test_blocked_grid_memory(self, table, mib):
        # the (points x support) log-sum-exp runs in blocks of at most 2^17
        # cells, one block alive at a time: 1.1 MiB peak on the largest monitor
        # table (3 MiB for its 161-point first grid at once), 3.8 MiB at a
        # support of 1e5 (50 MiB in blocks of 64 points)
        stat = TwoSampleStat(*table)
        robbins_conditional_interval(stat, EPS02)
        tracemalloc.start()
        try:
            robbins_conditional_interval(stat, EPS02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2 ** 20

    def test_non_finite_newton_step_raises_named_error(self):
        # a zero derivative with no finite bracket leaves no step to take
        with pytest.raises(EndpointSolveError):
            _newton_root(lambda x: (1.0, 0.0), 0.0, -math.inf, math.inf, 1.0)
        assert issubclass(EndpointSolveError, ArithmeticError)

    def test_threshold_above_maximum_raises(self, monkeypatch):
        # log q above the maximised likelihood cannot come from a true mixture
        stat = ILLUSTRATION
        real = two_bernoulli.trapezoid_log_mixture

        def inflated(*args):
            q = real(*args)
            return MixtureLogDensity(q.value + 10.0, q.method, q.rel_error)

        monkeypatch.setattr(two_bernoulli, "trapezoid_log_mixture", inflated)
        with pytest.raises(ThresholdAboveMaxError):
            robbins_conditional_interval(stat, EPS02)
