import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from robbins import engine, normal
from robbins.core import NormalInverseGamma, NormalWeight, PersistenceLevel
from robbins.normal import (NormalSuffStat, approx_interval_unknown_var, classical_interval,
                            nig_log_marginal, nig_profile_interval, profile_loglik,
                            robbins_interval_known_var)
from robbins.simulation import replication_rng

EPS02 = PersistenceLevel(0.2)


def matches_printed(value, printed, decimals):
    return abs(round(value, decimals) - printed) <= 10.0 ** (-decimals) + 1e-12


@pytest.mark.parametrize("ybar, sigma_hat_sq", [
    (math.inf, math.nan), (math.nan, None), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)])
def test_non_finite_statistics_rejected(ybar, sigma_hat_sq):
    # a NaN mean once gave a NaN mixture density, an infinite one an infinite half-width
    with pytest.raises(ValueError, match="ybar|sigma_hat_sq"):
        NormalSuffStat(10, ybar, sigma_hat_sq)


@pytest.mark.parametrize("sigma0_sq", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("rule", [
    lambda st, v: normal.known_var_loglik(st, v),
    lambda st, v: normal.exact_log_mixture(st, v, NormalWeight(0.0, 1.0)),
    lambda st, v: classical_interval(st, v, 0.95),
    lambda st, v: robbins_interval_known_var(st, v, NormalWeight(0.0, 1.0), EPS02),
], ids=["loglik", "log-mixture", "classical", "robbins"])
def test_known_variance_must_be_finite_and_positive(rule, sigma0_sq):
    # an infinite variance once failed as "interval endpoints must be finite", and
    # NaN as "must be positive, got nan"
    with pytest.raises(ValueError, match="sigma0_sq must be finite and positive"):
        rule(NormalSuffStat(10, 0.0), sigma0_sq)


class TestKnownVariance:
    @pytest.mark.parametrize("weight,half", [
        (NormalWeight(0.0, 1.0), 0.280),
        (NormalWeight(1.0, 4.0), 0.308),
    ])
    def test_printed_illustrations(self, weight, half):
        iv = robbins_interval_known_var(NormalSuffStat(100, 0.0), 1.0, weight, EPS02)
        assert iv.upper == -iv.lower
        assert matches_printed(iv.upper, half, 3)

    def test_agrees_with_level_set_solver(self):
        stat = NormalSuffStat(100, 0.0)
        weight = NormalWeight(0.0, 1.0)
        closed = robbins_interval_known_var(stat, 1.0, weight, EPS02)
        solved = engine.robbins_region(normal.known_var_loglik(stat, 1.0),
                                       normal.exact_log_mixture(stat, 1.0, weight), EPS02)
        assert solved.lower == pytest.approx(closed.lower, abs=1e-7)
        assert solved.upper == pytest.approx(closed.upper, abs=1e-7)

    def test_bayesian_recast_identity(self):
        # {theta: posterior(theta|y) >= eps * weight(theta)} with the exact
        # conjugate posterior is the same region; solve its quadratic exactly.
        n, ybar, s2 = 73, 0.42, 1.6
        weight = NormalWeight(-0.3, 0.9)
        eps = 0.15
        v_post = 1.0 / (1.0 / weight.tau0_sq + n / s2)
        m_post = v_post * (weight.mu0 / weight.tau0_sq + n * ybar / s2)
        # log posterior - log weight quadratic: a th^2 + b th + c >= log eps
        a = -0.5 / v_post + 0.5 / weight.tau0_sq
        b = m_post / v_post - weight.mu0 / weight.tau0_sq
        c = (-0.5 * m_post ** 2 / v_post + 0.5 * weight.mu0 ** 2 / weight.tau0_sq
             - 0.5 * math.log(v_post) + 0.5 * math.log(weight.tau0_sq) - math.log(eps))
        disc = math.sqrt(b * b - 4 * a * c)
        roots = sorted(((-b - disc) / (2 * a), (-b + disc) / (2 * a)))
        iv = robbins_interval_known_var(NormalSuffStat(n, ybar), s2, weight,
                                        PersistenceLevel(eps))
        assert iv.lower == pytest.approx(roots[0], abs=1e-9)
        assert iv.upper == pytest.approx(roots[1], abs=1e-9)

    def test_wider_than_any_fixed_level_eventually(self):
        # d_n sqrt(n) grows without bound, unlike the fixed z quantile
        w = NormalWeight(0.0, 1.0)
        ns = np.unique(np.round(np.logspace(1, 6, 40)).astype(int))
        vals = [engine.closed_form_half_width(1.0, int(n), 0.0, w, EPS02) * math.sqrt(n)
                for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.5 * vals[0]

    def test_coverage_grows_towards_one(self):
        w = NormalWeight(0.0, 1.0)
        reps = 4000

        def coverage(n):
            hit = 0
            for r in range(reps):
                ybar = float(replication_rng(77, r).standard_normal(1)[0]) / math.sqrt(n)
                iv = robbins_interval_known_var(NormalSuffStat(n, ybar), 1.0, w, EPS02)
                hit += iv.contains(0.0)
            return hit / reps

        c10, c1000 = coverage(10), coverage(1000)
        assert c1000 > c10
        assert c1000 >= 0.995


class TestClassicalInterval:
    def test_printed_value(self):
        iv = classical_interval(NormalSuffStat(100, 0.0), 1.0, 0.995)
        assert matches_printed(iv.upper, 0.281, 3)

    def test_quantile_oracle(self):
        # z_{0.975} = 1.959964 to 1e-6
        iv = classical_interval(NormalSuffStat(400, 1.0), 4.0, 0.95)
        assert iv.lower == pytest.approx(1.0 - 2.0 * 1.959964 / 20.0, abs=1e-6)
        assert iv.upper == pytest.approx(1.0 + 2.0 * 1.959964 / 20.0, abs=1e-6)

    def test_degenerates_as_conf_vanishes(self):
        iv = classical_interval(NormalSuffStat(100, 0.7), 1.0, 1e-12)
        assert iv.width < 1e-9

    def test_rejects_bad_conf(self):
        with pytest.raises(ValueError):
            classical_interval(NormalSuffStat(10, 0.0), 1.0, 1.0)


def _nig_log_marginal_quad(stat, w):
    """2-D quadrature oracle for the closed-form marginal (integrates the full
    likelihood against the weight over (mu, log sigma2))."""
    n, ybar, s2 = stat.n, stat.ybar, stat.sigma_hat_sq

    def log_joint(mu, sig2):
        loglik = -0.5 * n * math.log(2 * math.pi * sig2) \
            - (n * s2 + n * (ybar - mu) ** 2) / (2 * sig2)
        lp_mu = -0.5 * math.log(2 * math.pi * sig2 / w.kappa0) \
            - w.kappa0 * (mu - w.mu0) ** 2 / (2 * sig2)
        lp_s2 = w.alpha0 * math.log(w.beta0) - math.lgamma(w.alpha0) \
            - (w.alpha0 + 1) * math.log(sig2) - w.beta0 / sig2
        return loglik + lp_mu + lp_s2

    shift = log_joint(ybar, s2)

    def inner(mu):
        val, _ = integrate.quad(lambda ls: math.exp(log_joint(mu, math.exp(ls)) + ls - shift),
                                math.log(s2) - 12, math.log(s2) + 12, limit=200)
        return val

    total, _ = integrate.quad(inner, ybar - 6, ybar + 6, limit=200)
    return shift + math.log(total)


class TestNigProfile:
    STAT = NormalSuffStat(100, 0.0, 1.0)
    WEIGHT = NormalInverseGamma(mu0=1.0, kappa0=8.0, alpha0=2.0, beta0=1.0)

    def test_marginal_matches_2d_quadrature(self):
        assert nig_log_marginal(self.STAT, self.WEIGHT) == pytest.approx(
            _nig_log_marginal_quad(self.STAT, self.WEIGHT), abs=1e-6)

    def test_interval_matches_quadrature_level_set_oracle(self):
        # independent route: profile log-likelihood level set at
        # log eps + (2-D quadrature log marginal)
        log_qn = _nig_log_marginal_quad(self.STAT, self.WEIGHT)
        oracle = engine.concave_level_set(profile_loglik(self.STAT),
                                          EPS02.log_epsilon + log_qn)
        iv = nig_profile_interval(self.STAT, self.WEIGHT, EPS02)
        assert iv.lower == pytest.approx(oracle.lower, abs=5e-4)
        assert iv.upper == pytest.approx(oracle.upper, abs=5e-4)

    def test_half_width_factor_value(self):
        # with this weight the half-width factor h = width/(2 sigma_hat) is 0.4333
        iv = nig_profile_interval(self.STAT, self.WEIGHT, EPS02)
        assert iv.width / 2.0 == pytest.approx(0.4332625, abs=1e-6)

    def test_interval_widens_as_discordant_weight_concentrates(self):
        # weight mean 1 with data at 0: larger kappa0 concentrates the weight
        # away from the data, lowering q and widening the region
        w_tight = NormalInverseGamma(1.0, 32.0, 2.0, 1.0)
        assert nig_profile_interval(self.STAT, w_tight, EPS02).width > \
            nig_profile_interval(self.STAT, self.WEIGHT, EPS02).width

    def test_requires_variance(self):
        with pytest.raises(ValueError):
            nig_profile_interval(NormalSuffStat(100, 0.0), self.WEIGHT, EPS02)
        with pytest.raises(ValueError):
            nig_profile_interval(NormalSuffStat(1, 0.0, 1.0), self.WEIGHT, EPS02)


class TestApproxUnknownVariance:
    def test_printed_value(self):
        iv = approx_interval_unknown_var(NormalSuffStat(100, 0.0, 1.0),
                                         NormalWeight(0.0, 0.125), EPS02)
        assert matches_printed(iv.upper, 0.241, 3)

    def test_coincides_with_known_var_at_plugin(self):
        stat = NormalSuffStat(60, 0.4, 1.7)
        w = NormalWeight(0.2, 2.0)
        a = approx_interval_unknown_var(stat, w, EPS02)
        b = robbins_interval_known_var(stat, 1.7, w, EPS02)
        assert a == b

    def test_independent_arithmetic_oracle(self):
        # spell the half-width out step by step as a second computation path
        n, ybar, s2, eps = 30, 0.5, 2.0, 0.05
        v = s2 / n                                  # 0.0666...
        tv = 1.0 + v
        term = math.log(tv / v) + (ybar - 0.0) ** 2 / tv - 2.0 * math.log(eps)
        expected = math.sqrt(v) * math.sqrt(term)
        iv = approx_interval_unknown_var(NormalSuffStat(n, ybar, s2),
                                         NormalWeight(0.0, 1.0), PersistenceLevel(eps))
        assert iv.upper - ybar == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(shift=st.floats(-30, 30), n=st.integers(2, 5000),
       ybar=st.floats(-5, 5), mu0=st.floats(-5, 5),
       tau2=st.floats(0.05, 20), s2=st.floats(0.05, 20), eps=st.floats(0.02, 0.9))
def test_location_equivariance(shift, n, ybar, mu0, tau2, s2, eps):
    level = PersistenceLevel(eps)
    base = robbins_interval_known_var(NormalSuffStat(n, ybar), s2,
                                      NormalWeight(mu0, tau2), level)
    moved = robbins_interval_known_var(NormalSuffStat(n, ybar + shift), s2,
                                       NormalWeight(mu0 + shift, tau2), level)
    assert moved.lower == pytest.approx(base.lower + shift, abs=1e-9, rel=1e-12)
    assert moved.upper == pytest.approx(base.upper + shift, abs=1e-9, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(c=st.floats(0.05, 40), n=st.integers(2, 5000),
       ybar=st.floats(-5, 5), mu0=st.floats(-5, 5),
       tau2=st.floats(0.05, 20), s2=st.floats(0.05, 20), eps=st.floats(0.02, 0.9))
def test_scale_equivariance(c, n, ybar, mu0, tau2, s2, eps):
    level = PersistenceLevel(eps)
    base = robbins_interval_known_var(NormalSuffStat(n, ybar), s2,
                                      NormalWeight(mu0, tau2), level)
    scaled = robbins_interval_known_var(NormalSuffStat(n, c * ybar), c * c * s2,
                                        NormalWeight(c * mu0, c * c * tau2), level)
    assert scaled.lower == pytest.approx(c * base.lower, rel=1e-9, abs=1e-12)
    assert scaled.upper == pytest.approx(c * base.upper, rel=1e-9, abs=1e-12)
