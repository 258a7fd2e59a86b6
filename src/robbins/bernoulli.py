"""Confidence sequences for a Bernoulli proportion.

The conjugate Beta(alpha, beta) weight makes the mixture distribution of the
sample sum beta-binomial, so log q_n is exact and the sequence is the binomial
likelihood level set, solved numerically.  Comparators: the asymptotic
likelihood-ratio interval at a fixed level, and a closed-form approximate
sequence built on the variance-stabilising scale omega = arcsin(sqrt(theta)),
where the estimator variance is 1/(4n) for every theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asin, log, pi, sqrt

import numpy as np
from scipy import integrate
from scipy.special import betaln, chdtri, gammaln, xlogy

from .core import BetaWeight, Interval, NormalWeight, PersistenceLevel
from .engine import ConcaveLogLikelihood, MixtureLogDensity, concave_level_set, robbins_region

__all__ = [
    "BernoulliSuffStat",
    "binomial_loglik",
    "beta_binomial_log_pmf",
    "robbins_interval_bernoulli",
    "lr_interval",
    "arcsine_approx_interval",
    "omega_weight_from_beta",
    "ville_log_ratio_path",
]


@dataclass(frozen=True)
class BernoulliSuffStat:
    """Sample size n and sample sum s (number of successes)."""

    n: int
    s: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0 <= self.s <= self.n):
            raise ValueError(f"s must lie in [0, n], got s={self.s}, n={self.n}")

    @property
    def mle(self) -> float:
        return self.s / self.n


def _log_binom_coeff(n: int, s: int) -> float:
    return gammaln(n + 1) - gammaln(s + 1) - gammaln(n - s + 1)


def binomial_loglik(stat: BernoulliSuffStat) -> ConcaveLogLikelihood:
    """Binomial log-likelihood on (0, 1); concave, maximised at s/n."""
    n, s = stat.n, stat.s
    lc = float(_log_binom_coeff(n, s))
    that = stat.mle

    def fn(theta):
        return lc + xlogy(s, theta) + xlogy(n - s, 1.0 - theta)

    return ConcaveLogLikelihood(fn=fn, mle=that, mle_loglik=float(fn(that)),
                                support=(0.0, 1.0))


def beta_binomial_log_pmf(stat: BernoulliSuffStat, weight: BetaWeight) -> float:
    """Exact log q_n(s): log C(n,s) + log B(s+alpha, n-s+beta) - log B(alpha, beta)."""
    n, s = stat.n, stat.s
    a, b = weight.alpha, weight.beta
    return float(_log_binom_coeff(n, s) + betaln(s + a, n - s + b) - betaln(a, b))


def one_sided_endpoint(n, drop, s_is_zero: bool):
    """Interior endpoint of the level set drop below the maximised
    log-likelihood when that is monotone (s = 0 or s = n).

    For s = 0 the log-likelihood is n log(1 - theta) up to a constant, so the
    region is [0, -expm1(-drop/n)]; for s = n it is n log(theta) and the region
    is [exp(-drop/n), 1].  Array-valued in n and drop.
    """
    return -np.expm1(-drop / n) if s_is_zero else np.exp(-drop / n)


def _one_sided_interval(stat: BernoulliSuffStat, drop: float) -> Interval:
    endpoint = float(one_sided_endpoint(stat.n, drop, stat.s == 0))
    return Interval(0.0, endpoint) if stat.s == 0 else Interval(endpoint, 1.0)


def robbins_interval_bernoulli(stat: BernoulliSuffStat, weight: BetaWeight,
                               level: PersistenceLevel) -> Interval:
    """Exact mixture sequence: level set of the binomial log-likelihood at
    log eps + log q_n.  Boundary data (s = 0 or s = n) gives a one-sided region
    clipped at 0 or 1."""
    log_qn = beta_binomial_log_pmf(stat, weight)
    if stat.s == 0 or stat.s == stat.n:
        drop = binomial_loglik(stat).mle_loglik - level.log_epsilon - log_qn
        return _one_sided_interval(stat, drop)
    return robbins_region(binomial_loglik(stat), MixtureLogDensity(log_qn, "exact"),
                          level, scale=0.25 / sqrt(stat.n))


def lr_interval(stat: BernoulliSuffStat, conf: float) -> Interval:
    """Likelihood-ratio interval at asymptotic confidence conf: the level set at
    a drop of chi2_{1, conf} / 2 below the maximised log-likelihood."""
    if not (0.0 < conf < 1.0):
        raise ValueError(f"conf must lie in (0, 1), got {conf}")
    drop = 0.5 * float(chdtri(1, 1.0 - conf))
    if stat.s == 0 or stat.s == stat.n:
        return _one_sided_interval(stat, drop)
    ll = binomial_loglik(stat)
    return concave_level_set(ll, ll.mle_loglik - drop, scale=0.25 / sqrt(stat.n))


def omega_weight_from_beta(weight: BetaWeight) -> NormalWeight:
    """Normal weight on omega = arcsin(sqrt(theta)) matching the first two
    moments of the transformed Beta(alpha, beta) weight, by quadrature.

    Beta(1/2, 1/2) maps to the uniform on (0, pi/2): mean pi/4, variance
    pi^2/48 (closed form used as a test oracle, not here).
    """
    a, b = weight.alpha, weight.beta
    lognorm = -betaln(a, b)

    def dens(theta):
        return math.exp(lognorm + (a - 1.0) * math.log(theta) + (b - 1.0) * math.log1p(-theta))

    m1, _ = integrate.quad(lambda t: asin(sqrt(t)) * dens(t), 0.0, 1.0, limit=200)
    m2, _ = integrate.quad(lambda t: asin(sqrt(t)) ** 2 * dens(t), 0.0, 1.0, limit=200)
    return NormalWeight(mu0=m1, tau0_sq=m2 - m1 * m1)


def arcsine_approx_interval(stat: BernoulliSuffStat, weight_on_omega: NormalWeight,
                            level: PersistenceLevel) -> Interval:
    """Closed-form sequence on the arcsine scale, mapped back to theta.

    omega_hat = arcsin(sqrt(s/n)) is approximately N(omega(theta), 1/(4n)); the
    closed-form half-width applies with variance proxy 1/4, and the omega
    interval is clipped to [0, pi/2] before the back-transform sin^2."""
    from .engine import closed_form_half_width

    omega_hat = asin(sqrt(stat.mle))
    d = closed_form_half_width(0.25, stat.n, omega_hat, weight_on_omega, level)
    lo = max(omega_hat - d, 0.0)
    hi = min(omega_hat + d, 0.5 * pi)
    return Interval(math.sin(lo) ** 2, math.sin(hi) ** 2)


def ville_log_ratio_path(theta: float, weight: BetaWeight):
    """Path builder for engine.verify_ville_inequality under i.i.d. sampling at
    the true proportion theta; the binomial coefficient cancels in q_n / p_n."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    a, b = weight.alpha, weight.beta
    lb0 = betaln(a, b)
    log_t, log_1mt = log(theta), math.log1p(-theta)

    def path(rng: np.random.Generator, n_max: int) -> np.ndarray:
        s = np.cumsum(rng.random(n_max) < theta)
        ns = np.arange(1, n_max + 1)
        log_q = betaln(s + a, ns - s + b) - lb0
        log_p = s * log_t + (ns - s) * log_1mt
        return log_q - log_p

    return path
