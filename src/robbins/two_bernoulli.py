"""Log-odds-ratio inference for two independent Bernoulli samples.

Conditioning on the total number of successes t removes the nuisance parameter:
given t, the first sample's success count follows the Fisher noncentral
hypergeometric law tilted by exp(psi * s1), with psi the log-odds ratio.  The
exact sequence mixes that conditional likelihood against a heavy-tailed
symmetric weight on psi (the law of the log-odds ratio under independent
Jeffreys weights on the two proportions).  As an exponential tilt the
log-likelihood comes with its score and information from one pass over the
support, so Newton steps find the MLE and the level-set endpoints; log q is a
trapezoid sum on a uniform psi grid.  The workhorse approximation uses
continuity-corrected point estimates in the closed-form normal sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from ._special import gammaln, ndtri
from .core import Interval, NormalWeight, PersistenceLevel, _require_integers
from .engine import (ConcaveLogLikelihood, EndpointSolveError, _half_width, _z_half_width,
                     concave_level_set, trapezoid_log_mixture)

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
_MIXTURE_SDS = 40.0       # mixture domain psi_hat +/- 40 sd
_MIXTURE_PANELS = 160     # first trapezoid step sd/2
_NEWTON_RTOL = 1e-12      # Newton stops once a step is below 1e-12 (|psi| + sd)
_NEWTON_CAP = 100
_BLOCK_CELLS = 2 ** 17    # cells per grid log-sum-exp block: 1 MiB of float64


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
        _require_integers(n1=self.n1, n2=self.n2, s1=self.s1, s2=self.s2)
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


def fnch_log_pmf(s1: int, n1: int, n2: int, t: int, psi: float) -> float:
    """Fisher noncentral hypergeometric log pmf of s1 given t at log-odds psi,
    normalised by log-sum-exp over the support."""
    lo, hi = fnch_support(n1, n2, t)
    if not (lo <= s1 <= hi):
        raise SupportError(f"s1={s1} outside support [{lo}, {hi}] for n1={n1}, n2={n2}, t={t}")
    return -_tilt(*_centred_tilt(n1, n2, s1, t), psi)[0]


def _centred_tilt(n1: int, n2: int, s1: int, t: int) -> tuple:
    """(b, v) on the support u: v = u - s1 and b = log C(n1, u) C(n2, t-u) less
    its value at s1, so the log pmf of s1 is -log sum exp(b + psi v)."""
    lo, hi = fnch_support(n1, n2, t)
    u = np.arange(lo, hi + 1)
    b = -gammaln(u + 1) - gammaln(n1 - u + 1) - gammaln(t - u + 1) - gammaln(n2 - t + u + 1)
    return b - b[s1 - lo], (u - s1).astype(float)


def _tilt(b, v, psi: float) -> tuple:
    """(log Z, mean, variance) of v under exp(b + psi v) / Z, in one max-shifted
    pass: the negated log-likelihood, negated score and information at psi."""
    w = b + psi * v
    m = float(w.max())
    e = np.exp(w - m)
    z = float(e.sum())
    mean = float(e @ v) / z
    return m + log(z), mean, float(e @ (v - mean) ** 2) / z


def _log_partition(b, v, psi):
    """log Z at each psi of a 1-d array, by (points x support) log-sum-exps over
    blocks of at most _BLOCK_CELLS cells (one point at least)."""
    out = np.empty(psi.size)
    rows = max(1, _BLOCK_CELLS // v.size)
    for i in range(0, psi.size, rows):
        w = np.multiply.outer(psi[i:i + rows], v)
        w += b
        m = w.max(axis=1)
        w -= m[:, None]
        out[i:i + rows] = m + np.log(np.exp(w, out=w).sum(axis=1))
        del w       # freed before the next block is allocated
    return out


def _newton_root(f_df, x: float, lo: float, hi: float, scale: float) -> float:
    """Root of a monotone f in (lo, hi) by Newton steps from x, f_df(x) giving
    (f, f'); a step that leaves the bracket narrowed by the iterates bisects it."""
    for _ in range(_NEWTON_CAP):
        f, df = f_df(x)
        lo, hi = (lo, x) if (f > 0) == (df > 0) else (x, hi)
        x_new = x - f / df if df else math.nan
        if abs(x_new - x) <= _NEWTON_RTOL * (abs(x) + scale):
            return x_new
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
        if not math.isfinite(x):
            break
    raise EndpointSolveError(f"no finite Newton root in [{lo}, {hi}] (last step to {x})")


def _conditional_tilt(stat: TwoSampleStat) -> tuple:
    """(log-likelihood, sd at the MLE, (b, v)); the MLE zeroes the score by
    Newton steps from the continuity-corrected estimate, finite for every table."""
    t = stat.t
    lo, hi = fnch_support(stat.n1, stat.n2, t)
    if lo == hi:
        raise UnboundedRegionError(f"degenerate total t={t}: the conditional likelihood is flat")
    if stat.s1 == lo or stat.s1 == hi:
        raise UnboundedRegionError(
            f"s1={stat.s1} on the support edge [{lo}, {hi}]: monotone likelihood, "
            "one-sided unbounded region")
    b, v = _centred_tilt(stat.n1, stat.n2, stat.s1, t)
    psi_cc, v_cc = continuity_corrected_estimates(stat)
    mle = _newton_root(lambda p: _tilt(b, v, p)[1:], psi_cc, -math.inf, math.inf, sqrt(v_cc))
    log_z, _, var = _tilt(b, v, mle)

    def fn(psi):
        return -_tilt(b, v, psi)[0]

    return ConcaveLogLikelihood(fn=fn, mle=mle, mle_loglik=-log_z), 1.0 / sqrt(var), (b, v)


def conditional_loglik(stat: TwoSampleStat) -> ConcaveLogLikelihood:
    """Conditional log-likelihood in psi, concave as a one-parameter
    exponential-family tilt, with score s1 - E_psi[S1] and information
    Var_psi(S1).

    Raises UnboundedRegionError when t is degenerate (the likelihood is flat)
    or s1 sits on the support edge (the likelihood is monotone and the MLE
    escapes to +/- infinity).
    """
    return _conditional_tilt(stat)[0]


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
    """(log-likelihood, sd at the MLE, log q, (b, v)): the tilted pmf of s1 mixed
    over pi(psi) by engine.trapezoid_log_mixture on psi_hat +/- 40 sd, first step
    sd/2.  The weight's poles lie at 2 pi i k and the tilt's partition function
    has no zero near the real axis, so the integrand is analytic in a strip."""
    ll, sd, (b, v) = _conditional_tilt(stat)
    log_qn = trapezoid_log_mixture(
        lambda psi: log_odds_weight_log_density(psi) - _log_partition(b, v, psi),
        (ll.mle - _MIXTURE_SDS * sd, ll.mle + _MIXTURE_SDS * sd), _MIXTURE_PANELS)
    return ll, sd, log_qn, (b, v)


def conditional_log_mixture(stat: TwoSampleStat):
    """log q for the conditional model, by the trapezoid rule on psi_hat +/- 40 sd
    (sd from the conditional information); rel_error is the gap between the
    last two grid levels.  Truncation error is negligible: the weight tails are
    exponential and the likelihood is log-concave."""
    return _conditional_mixture(stat)[2]


def _conditional_region(stat: TwoSampleStat, level: PersistenceLevel) -> tuple:
    """(interval, log q) of the exact conditional sequence, from one mixture.
    Each endpoint is a Newton root of l - threshold from psi_hat +/- sd
    sqrt(2 drop); l is concave, so outside the set the steps move monotonically
    to the root."""
    ll, sd, log_qn, (b, v) = _conditional_mixture(stat)
    threshold = level.log_epsilon + log_qn.value
    drop = ll.mle_loglik - threshold
    if drop <= 0.0:     # raises ThresholdAboveMaxError beyond rounding slack
        return concave_level_set(ll, threshold), log_qn

    def gap(psi):
        log_z, mean, _ = _tilt(b, v, psi)
        return log_z + threshold, mean

    reach = sd * sqrt(2.0 * drop)
    return Interval(_newton_root(gap, ll.mle - reach, -math.inf, ll.mle, sd),
                    _newton_root(gap, ll.mle + reach, ll.mle, math.inf, sd)), log_qn


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
    return _corrected_log_odds(stat.n1, stat.n2, stat.s1, stat.s2)


def _corrected_log_odds(n1, n2, s1, s2) -> tuple:
    """(psi_hat, v_n) of continuity_corrected_estimates; math for Python counts."""
    a, b, c, d = s1 + 0.5, n1 - s1 + 0.5, s2 + 0.5, n2 - s2 + 0.5
    ln = log if isinstance(a, float) else np.log
    return ln(a * d / (b * c)), 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d


def approx_interval_log_odds(stat: TwoSampleStat, weight: NormalWeight,
                             level: PersistenceLevel) -> Interval:
    """Closed-form sequence psi_hat +/- d(v_n) from the continuity-corrected
    estimates: the normal-mixture half-width at variance v_n."""
    psi_hat, v_n = continuity_corrected_estimates(stat)
    d = _half_width(v_n, psi_hat, weight, -2.0 * level.log_epsilon)
    return Interval(psi_hat - d, psi_hat + d)


def wald_interval(stat: TwoSampleStat, conf: float) -> Interval:
    """Fixed-level comparator psi_hat +/- z_{(1+conf)/2} sqrt(v_n)."""
    if not (0.0 < conf < 1.0):
        raise ValueError(f"conf must lie in (0, 1), got {conf}")
    psi_hat, v_n = continuity_corrected_estimates(stat)
    d = _z_half_width(v_n, float(ndtri(0.5 * (1.0 + conf))))
    return Interval(psi_hat - d, psi_hat + d)
