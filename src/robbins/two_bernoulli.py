"""Log-odds-ratio inference for two independent Bernoulli samples.

Conditioning on the total number of successes t removes the nuisance parameter:
given t, the first sample's success count follows the Fisher noncentral
hypergeometric law tilted by exp(psi * s1), with psi the log-odds ratio.  The
exact sequence mixes that conditional likelihood against a heavy-tailed
symmetric weight on psi (the law of the log-odds ratio under independent
Jeffreys weights on the two proportions).  The workhorse approximation uses
continuity-corrected point estimates in the closed-form normal sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log, sqrt

import numpy as np
from scipy.special import gammaln, logsumexp, ndtri

from .core import Interval, NormalWeight, PersistenceLevel
from .engine import (ConcaveLogLikelihood, closed_form_half_width,
                     quadrature_log_mixture, robbins_region)

__all__ = [
    "TwoSampleStat",
    "SupportError",
    "UnboundedRegionError",
    "fnch_support",
    "fnch_log_pmf",
    "conditional_loglik",
    "log_odds_weight_density",
    "log_odds_weight_log_density",
    "conditional_log_mixture",
    "robbins_conditional_interval",
    "continuity_corrected_estimates",
    "approx_interval_log_odds",
    "wald_interval",
]

_LOG_PI_SQ = 2.0 * math.log(math.pi)


class SupportError(ValueError):
    """s1 lies outside the conditional support [max(0, t-n2), min(n1, t)]."""


class UnboundedRegionError(ArithmeticError):
    """The conditional likelihood has no interior maximum (degenerate t, or s1
    on the support edge), so the region is unbounded on at least one side."""


@dataclass(frozen=True)
class TwoSampleStat:
    """Success counts s1, s2 out of n1, n2 trials; t = s1 + s2 is the
    conditioning statistic."""

    n1: int
    n2: int
    s1: int
    s2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"sample sizes must be >= 1, got n1={self.n1}, n2={self.n2}")
        if not (0 <= self.s1 <= self.n1):
            raise ValueError(f"s1 must lie in [0, n1], got s1={self.s1}, n1={self.n1}")
        if not (0 <= self.s2 <= self.n2):
            raise ValueError(f"s2 must lie in [0, n2], got s2={self.s2}, n2={self.n2}")

    @property
    def t(self) -> int:
        return self.s1 + self.s2

    def swapped(self) -> "TwoSampleStat":
        return TwoSampleStat(n1=self.n2, n2=self.n1, s1=self.s2, s2=self.s1)


def fnch_support(n1: int, n2: int, t: int) -> tuple:
    """Support of s1 given the total t."""
    return max(0, t - n2), min(n1, t)


def _base_log_weights(n1: int, n2: int, t: int):
    """log C(n1, u) + log C(n2, t-u) over the support; the psi-free part of the
    tilted pmf."""
    lo, hi = fnch_support(n1, n2, t)
    u = np.arange(lo, hi + 1)
    base = (gammaln(n1 + 1) - gammaln(u + 1) - gammaln(n1 - u + 1)
            + gammaln(n2 + 1) - gammaln(t - u + 1) - gammaln(n2 - t + u + 1))
    return u, base


def fnch_log_pmf(s1: int, n1: int, n2: int, t: int, psi: float) -> float:
    """Fisher noncentral hypergeometric log pmf of s1 given t at log-odds psi,
    normalised by log-sum-exp over the support."""
    lo, hi = fnch_support(n1, n2, t)
    if not (lo <= s1 <= hi):
        raise SupportError(f"s1={s1} outside support [{lo}, {hi}] for n1={n1}, n2={n2}, t={t}")
    u, base = _base_log_weights(n1, n2, t)
    w = base + psi * u
    return float(base[s1 - lo] + psi * s1 - logsumexp(w))


def _cond_mean_var(u, base, psi):
    w = base + psi * u
    p = np.exp(w - logsumexp(w))
    m = float(np.sum(p * u))
    return m, float(np.sum(p * (u - m) ** 2))


def _cond_mle(u, base, s1: int) -> float:
    """Conditional MLE by bisection on the score: E_psi[S1] is strictly
    increasing in psi, and equals s1 at the maximum."""
    lo, hi = -1.0, 1.0
    while _cond_mean_var(u, base, lo)[0] > s1:
        lo *= 2.0
    while _cond_mean_var(u, base, hi)[0] < s1:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _cond_mean_var(u, base, mid)[0] < s1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conditional_loglik(stat: TwoSampleStat) -> ConcaveLogLikelihood:
    """Conditional log-likelihood in psi, concave as a one-parameter
    exponential-family tilt.

    Raises UnboundedRegionError when t is degenerate (the likelihood is flat)
    or s1 sits on the support edge (the likelihood is monotone and the MLE
    escapes to +/- infinity).
    """
    t = stat.t
    lo, hi = fnch_support(stat.n1, stat.n2, t)
    if lo == hi:
        raise UnboundedRegionError(f"degenerate total t={t}: the conditional likelihood is flat")
    if stat.s1 == lo or stat.s1 == hi:
        raise UnboundedRegionError(
            f"s1={stat.s1} on the support edge [{lo}, {hi}]: monotone likelihood, "
            "one-sided unbounded region")
    u, base = _base_log_weights(stat.n1, stat.n2, t)
    idx = stat.s1 - lo
    s1 = stat.s1

    def fn(psi):
        w = base + psi * u
        return base[idx] + psi * s1 - logsumexp(w)

    psi_hat = _cond_mle(u, base, s1)
    return ConcaveLogLikelihood(fn=fn, mle=psi_hat, mle_loglik=float(fn(psi_hat)))


def log_odds_weight_log_density(psi):
    """log of the weight density pi(psi) = psi e^(psi/2) / (pi^2 (e^psi - 1)),
    i.e. psi / (2 pi^2 sinh(psi/2)); pi(0) = 1/pi^2 by continuity.

    Symmetric with exponential tails.  Stable in log space for any psi; a
    quadratic series replaces the 0/0 form below |psi| < 1e-6.
    """
    psi = np.asarray(psi, dtype=float)
    a = np.abs(psi)
    small = a < 1e-6
    a_safe = np.where(small, 1.0, a)
    out = np.where(small,
                   -_LOG_PI_SQ - psi * psi / 24.0,
                   np.log(a_safe) - 0.5 * a_safe - np.log(-np.expm1(-a_safe)) - _LOG_PI_SQ)
    return out if out.ndim else float(out)


def log_odds_weight_density(psi):
    """Weight density pi(psi); strictly positive and symmetric, integrates to 1
    with variance 2 pi^2."""
    return np.exp(log_odds_weight_log_density(psi))


def _conditional_mixture(stat: TwoSampleStat) -> tuple:
    """(conditional log-likelihood, sd at the MLE, log q): the tilted pmf of s1
    mixed over pi(psi) by quadrature on psi_hat +/- 40 sd, sd from the
    conditional information."""
    ll = conditional_loglik(stat)
    u, base = _base_log_weights(stat.n1, stat.n2, stat.t)
    _, var = _cond_mean_var(u, base, ll.mle)
    sd = 1.0 / sqrt(var)
    domain = (ll.mle - 40.0 * sd, ll.mle + 40.0 * sd)
    return ll, sd, quadrature_log_mixture(ll, log_odds_weight_log_density, domain)


def conditional_log_mixture(stat: TwoSampleStat):
    """log q for the conditional model: the tilted pmf of s1 mixed over pi(psi),
    by quadrature on psi_hat +/- 40 sd (sd from the conditional information).
    Truncation error is negligible: the weight tails are exponential and the
    likelihood is log-concave."""
    return _conditional_mixture(stat)[2]


def _conditional_region(stat: TwoSampleStat, level: PersistenceLevel) -> tuple:
    """(interval, log q) of the exact conditional sequence, from one quadrature."""
    ll, sd, log_qn = _conditional_mixture(stat)
    return robbins_region(ll, log_qn, level, scale=sd), log_qn


def robbins_conditional_interval(stat: TwoSampleStat, level: PersistenceLevel) -> Interval:
    """Exact conditional sequence for the log-odds ratio: the level set of the
    tilted conditional log-likelihood at log eps + log q."""
    return _conditional_region(stat, level)[0]


def continuity_corrected_estimates(stat: TwoSampleStat) -> tuple:
    """Continuity-corrected log-odds estimate and its variance estimate:

        psi_hat = log[(s1+.5)(n2-s2+.5) / ((n1-s1+.5)(s2+.5))]
        v_n     = 1/(s1+.5) + 1/(n1-s1+.5) + 1/(s2+.5) + 1/(n2-s2+.5)

    Finite for every valid table, boundaries included.
    """
    a = stat.s1 + 0.5
    b = stat.n1 - stat.s1 + 0.5
    c = stat.s2 + 0.5
    d = stat.n2 - stat.s2 + 0.5
    psi_hat = log(a * d / (b * c))
    v_n = 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d
    return psi_hat, v_n


def approx_interval_log_odds(stat: TwoSampleStat, weight: NormalWeight,
                             level: PersistenceLevel) -> Interval:
    """Closed-form sequence psi_hat +/- d(v_n) from the continuity-corrected
    estimates; the generic half-width applies with variance proxy
    (n1+n2) * v_n at sample size n1+n2 (the per-n factors cancel to v_n)."""
    psi_hat, v_n = continuity_corrected_estimates(stat)
    n = stat.n1 + stat.n2
    d = closed_form_half_width(n * v_n, n, psi_hat, weight, level)
    return Interval(psi_hat - d, psi_hat + d)


def wald_interval(stat: TwoSampleStat, conf: float) -> Interval:
    """Fixed-level comparator psi_hat +/- z_{(1+conf)/2} sqrt(v_n)."""
    if not (0.0 < conf < 1.0):
        raise ValueError(f"conf must lie in (0, 1), got {conf}")
    psi_hat, v_n = continuity_corrected_estimates(stat)
    d = float(ndtri(0.5 * (1.0 + conf))) * sqrt(v_n)
    return Interval(psi_hat - d, psi_hat + d)
