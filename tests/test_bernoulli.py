import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln, xlogy

from robbins.bernoulli import (BernoulliSuffStat, arcsine_approx_interval,
                               beta_binomial_log_pmf, lr_interval, omega_weight_from_beta,
                               robbins_interval_bernoulli)
from robbins.core import BetaWeight, NormalWeight, PersistenceLevel
from robbins.engine import ConcaveLogLikelihood, quadrature_log_mixture, robbins_region

EPS02 = PersistenceLevel(0.2)


def matches_printed(value, printed, decimals):
    return abs(round(value, decimals) - printed) <= 10.0 ** (-decimals) + 1e-12


class TestSuffStat:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliSuffStat(0, 0)
        with pytest.raises(ValueError):
            BernoulliSuffStat(10, 11)
        with pytest.raises(ValueError):
            BernoulliSuffStat(10, -1)


class TestBetaBinomialLogPmf:
    def test_uniform_mixture_n1(self):
        # Beta(1,1) makes the sample sum uniform on {0,...,n}
        assert beta_binomial_log_pmf(BernoulliSuffStat(1, 0), BetaWeight(1, 1)) == \
            pytest.approx(math.log(0.5), abs=1e-12)

    def test_uniform_mixture_n10(self):
        assert beta_binomial_log_pmf(BernoulliSuffStat(10, 3), BetaWeight(1, 1)) == \
            pytest.approx(math.log(1.0 / 11.0), abs=1e-12)

    def test_trapezoid_oracle_jeffreys(self):
        # brute force: integrate C(10,3) th^3 (1-th)^7 against the Beta(.5,.5)
        # density on a 10^6-point grid
        th = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001)
        integrand = (math.comb(10, 3) * th ** 3 * (1 - th) ** 7
                     * th ** (-0.5) * (1 - th) ** (-0.5) / math.pi)
        oracle = math.log(np.trapezoid(integrand, th))
        val = beta_binomial_log_pmf(BernoulliSuffStat(10, 3), BetaWeight(0.5, 0.5))
        assert val == pytest.approx(oracle, abs=1e-7)


class TestExactInterval:
    @pytest.mark.parametrize("weight,lo,hi", [
        (BetaWeight(0.5, 0.5), 0.2673, 0.5435),
        (BetaWeight(1.0, 1.0), 0.2738, 0.5359),
        (BetaWeight(5.0, 5.0), 0.2858, 0.5221),
    ])
    def test_printed_illustrations(self, weight, lo, hi):
        iv = robbins_interval_bernoulli(BernoulliSuffStat(100, 40), weight, EPS02)
        assert matches_printed(iv.lower, lo, 4)
        assert matches_printed(iv.upper, hi, 4)

    def test_boundary_s0_one_sided(self):
        stat = BernoulliSuffStat(25, 0)
        weight = BetaWeight(1.0, 1.0)
        iv = robbins_interval_bernoulli(stat, weight, EPS02)
        assert iv.lower == 0.0
        T = EPS02.log_epsilon + beta_binomial_log_pmf(stat, weight)
        assert iv.upper == pytest.approx(1.0 - math.exp(T / stat.n), abs=1e-9)

    def test_boundary_sn_one_sided(self):
        stat = BernoulliSuffStat(25, 25)
        weight = BetaWeight(2.0, 1.0)
        iv = robbins_interval_bernoulli(stat, weight, EPS02)
        assert iv.upper == 1.0
        T = EPS02.log_epsilon + beta_binomial_log_pmf(stat, weight)
        assert iv.lower == pytest.approx(math.exp(T / stat.n), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 500), frac=st.floats(0, 1),
           a=st.floats(0.3, 6), b=st.floats(0.3, 6), eps=st.floats(0.05, 0.9))
    def test_reflection_symmetry(self, n, frac, a, b, eps):
        s = min(n, round(frac * n))
        level = PersistenceLevel(eps)
        iv = robbins_interval_bernoulli(BernoulliSuffStat(n, s), BetaWeight(a, b), level)
        mirrored = robbins_interval_bernoulli(BernoulliSuffStat(n, n - s),
                                              BetaWeight(b, a), level)
        assert mirrored.lower == pytest.approx(1.0 - iv.upper, abs=2e-9)
        assert mirrored.upper == pytest.approx(1.0 - iv.lower, abs=2e-9)

    def test_negative_binomial_gives_identical_region(self):
        # stopping at the s-th success multiplies likelihood and mixture by the
        # same constant, so the region is the same: strong likelihood principle
        n, s, weight = 100, 40, BetaWeight(0.5, 0.5)
        binom = robbins_interval_bernoulli(BernoulliSuffStat(n, s), weight, EPS02)
        lc = math.lgamma(n) - math.lgamma(s) - math.lgamma(n - s + 1)

        def negbin_fn(th):
            return lc + xlogy(s, th) + xlogy(n - s, 1.0 - th)

        negbin = ConcaveLogLikelihood(fn=negbin_fn, mle=s / n,
                                      mle_loglik=float(negbin_fn(s / n)),
                                      support=(0.0, 1.0))
        log_qn = lc + float(betaln(s + 0.5, n - s + 0.5) - betaln(0.5, 0.5))
        iv = robbins_region(negbin, log_qn, EPS02)
        assert iv.lower == pytest.approx(binom.lower, abs=1e-9)
        assert iv.upper == pytest.approx(binom.upper, abs=1e-9)

    def test_exact_region_equivariant_under_arcsine_reparam(self):
        # solve the region in omega = arcsin(sqrt(theta)) with the transformed
        # weight density; must equal the mapped theta-region
        n, s = 100, 40
        a = b = 0.5
        stat = BernoulliSuffStat(n, s)
        theta_iv = robbins_interval_bernoulli(stat, BetaWeight(a, b), EPS02)
        lc = float(math.lgamma(n + 1) - math.lgamma(s + 1) - math.lgamma(n - s + 1))

        def omega_loglik_fn(w):
            th = math.sin(w) ** 2
            return lc + xlogy(s, th) + xlogy(n - s, 1.0 - th)

        omega_hat = math.asin(math.sqrt(s / n))
        ll = ConcaveLogLikelihood(fn=omega_loglik_fn, mle=omega_hat,
                                  mle_loglik=float(omega_loglik_fn(omega_hat)),
                                  support=(0.0, math.pi / 2))

        def omega_weight_log_density(w):
            th = math.sin(w) ** 2
            jac = math.sin(2.0 * w)
            return ((a - 1) * math.log(th) + (b - 1) * math.log1p(-th)
                    - float(betaln(a, b)) + math.log(jac))

        log_qn = quadrature_log_mixture(ll, omega_weight_log_density,
                                        domain=(0.0, math.pi / 2))
        omega_iv = robbins_region(ll, log_qn, EPS02)
        assert omega_iv.lower == pytest.approx(math.asin(math.sqrt(theta_iv.lower)), abs=1e-6)
        assert omega_iv.upper == pytest.approx(math.asin(math.sqrt(theta_iv.upper)), abs=1e-6)


class TestLrInterval:
    def test_printed_illustration(self):
        iv = lr_interval(BernoulliSuffStat(100, 40), 0.995)
        assert matches_printed(iv.lower, 0.2702, 4)
        assert matches_printed(iv.upper, 0.5400, 4)

    def test_boundary_closed_form(self):
        from scipy.special import chdtri
        n, conf = 30, 0.9
        iv = lr_interval(BernoulliSuffStat(n, 0), conf)
        assert iv.lower == 0.0
        assert iv.upper == pytest.approx(1.0 - math.exp(-chdtri(1, 1 - conf) / (2 * n)),
                                         abs=1e-9)

    def test_grid_scan_oracle(self):
        n, s, conf = 50, 25, 0.9
        from scipy.special import chdtri
        drop = 0.5 * chdtri(1, 1 - conf)
        that = s / n
        lmax = xlogy(s, that) + xlogy(n - s, 1 - that)
        grid = np.arange(1e-6, 1.0, 1e-6)
        inside = grid[xlogy(s, grid) + xlogy(n - s, 1 - grid) >= lmax - drop]
        iv = lr_interval(BernoulliSuffStat(n, s), conf)
        assert iv.lower == pytest.approx(inside[0], abs=1e-6)
        assert iv.upper == pytest.approx(inside[-1], abs=1e-6)

    def test_rejects_bad_conf(self):
        with pytest.raises(ValueError):
            lr_interval(BernoulliSuffStat(10, 5), 0.0)


class TestArcsineApprox:
    def test_jeffreys_omega_moments_closed_form(self):
        # Beta(.5,.5) maps to the uniform on (0, pi/2)
        w = omega_weight_from_beta(BetaWeight(0.5, 0.5))
        assert w.mu0 == pytest.approx(math.pi / 4, abs=1e-9)
        assert w.tau0_sq == pytest.approx(math.pi ** 2 / 48, abs=1e-9)

    @pytest.mark.parametrize("beta,lo,hi", [
        (BetaWeight(0.5, 0.5), 0.2697, 0.5379),
        (BetaWeight(1.0, 1.0), 0.2740, 0.5332),
        (BetaWeight(5.0, 5.0), 0.2843, 0.5216),
    ])
    def test_printed_illustrations(self, beta, lo, hi):
        w = omega_weight_from_beta(beta)
        iv = arcsine_approx_interval(BernoulliSuffStat(100, 40), w, EPS02)
        assert matches_printed(iv.lower, lo, 4)
        assert matches_printed(iv.upper, hi, 4)

    @pytest.mark.parametrize("beta", [BetaWeight(0.5, 0.5), BetaWeight(1, 1), BetaWeight(5, 5)])
    def test_close_to_exact_but_not_equivariant(self, beta):
        # the Wald-type form is not reparameterisation-equivariant; at n=100 it
        # still tracks the exact region to within 0.01
        stat = BernoulliSuffStat(100, 40)
        approx = arcsine_approx_interval(stat, omega_weight_from_beta(beta), EPS02)
        exact = robbins_interval_bernoulli(stat, beta, EPS02)
        assert abs(approx.lower - exact.lower) < 0.01
        assert abs(approx.upper - exact.upper) < 0.01

    def test_boundary_clipping(self):
        iv = arcsine_approx_interval(BernoulliSuffStat(50, 0),
                                     NormalWeight(math.pi / 4, 0.2), EPS02)
        assert iv.lower == 0.0
        assert 0.0 < iv.upper < 1.0
        iv = arcsine_approx_interval(BernoulliSuffStat(50, 50),
                                     NormalWeight(math.pi / 4, 0.2), EPS02)
        assert iv.upper == 1.0
