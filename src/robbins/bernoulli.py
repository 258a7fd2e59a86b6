"""Confidence sequences for a Bernoulli proportion.

The conjugate Beta(alpha, beta) weight makes the mixture distribution of the
sample sum beta-binomial, so log q_n is exact and the sequence is the binomial
likelihood level set at a drop below its maximum, solved by binomial_level_set
for these scalar rules and the simulation kernel alike.  Comparators: the
asymptotic likelihood-ratio interval at a fixed level (the same level set at a
drop of chi2/2), and a closed-form approximate sequence built on the
variance-stabilising scale omega = arcsin(sqrt(theta)), where the estimator
variance is 1/(4n) for every theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asin, log, pi, sqrt

import numpy as np

from ._special import betaln, chdtri, expit, gammaln, xlogy
from .core import BetaWeight, Interval, NormalWeight, PersistenceLevel, _require_integers
from .engine import ConcaveLogLikelihood, EndpointSolveError, LogRatioPath, closed_form_half_width

__all__ = [
    "BernoulliSuffStat",
    "EndpointSolveError",
    "binomial_loglik",
    "binomial_level_set",
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
        _require_integers(n=self.n, s=self.s)
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
    """Binomial log-likelihood on (0, 1); concave, maximised at s/n.  log(1 - theta) is
    log1p(-theta), which keeps its relative precision where theta is near 0."""
    n, s = stat.n, stat.s
    lc = float(_log_binom_coeff(n, s))
    that = stat.mle

    def fn(theta):
        with np.errstate(divide="ignore", invalid="ignore"):     # -inf at 1, as xlogy gives
            tail = (n - s) * np.log1p(-theta) if n > s else 0.0
        return lc + xlogy(s, theta) + tail

    return ConcaveLogLikelihood(fn=fn, mle=that, mle_loglik=float(fn(that)),
                                support=(0.0, 1.0))


def beta_binomial_log_pmf(stat: BernoulliSuffStat, weight: BetaWeight) -> float:
    """Exact log q_n(s): log C(n,s) + log B(s+alpha, n-s+beta) - log B(alpha, beta)."""
    return float(_log_binom_coeff(stat.n, stat.s) + _log_mixture_ratio(stat.s, stat.n, weight))


def _log_mixture_ratio(s, n, weight: BetaWeight):
    """log q_n(s) - log C(n, s) = log B(s+alpha, n-s+beta) - log B(alpha, beta), array-valued."""
    return betaln(s + weight.alpha, n - s + weight.beta) - betaln(weight.alpha, weight.beta)


def _level_set_drop(weight, level, s=None, n=None):
    """binomial_level_set drop at counts s of n, array-valued: l_max - log eps - log q_n(s)
    + log C(n, s) (a BetaWeight, level eps), or chi2_{1, conf}/2 (weight None, level conf)."""
    if weight is None:
        return 0.5 * chdtri(1, 1.0 - level)
    lmax = xlogy(s, s / n) + xlogy(n - s, 1.0 - s / n)
    return lmax - (math.log(level) + _log_mixture_ratio(s, n, weight))


_NEWTON_STEPS = 6         # converged to rounding in <= 4 steps for drops up to 700


def _newton_offset(s, n, drop):
    """u = eta - eta_hat, eta = logit(theta), at the lower endpoint of the level
    set for 0 < s < n and drop > 0.

    With th = s/n the log-likelihood minus its maximum is
    n [th u - log1p(th expm1(u))], concave in u with slope s - n theta; on u < 0
    a Newton step from either side of the root lands at or below it, and the
    steps then climb to it.  The start is the normal-approximation endpoint
    -sqrt(2c), c = drop / (n th (1-th)), capped at log1p(c + sqrt(2c)): where
    few failures make the log-likelihood fall exponentially below the mle, that
    cap bounds the root, while the normal start lies far past it and Newton
    would gain one unit per step.
    """
    th = s / n
    info = n * th * (1.0 - th)
    c = drop / info
    root = np.sqrt(2.0 * c)
    u = -np.minimum(root, np.log1p(c + root))
    for _ in range(_NEWTON_STEPS):
        em = np.expm1(u)
        t = th * em
        u = u + (s * u - n * np.log1p(t) + drop) * (1.0 + t) / (info * em)
    return u


def binomial_level_set(s, n, drop):
    """Endpoints (lower, upper) of {theta : s log theta + (n-s) log(1-theta)
    >= l_max - drop}, array-valued in s, n and drop (broadcast together).

    For 0 < s < n: fixed Newton steps on the logit scale (_newton_offset); the
    upper endpoint is the lower endpoint of the reflected pair (n - s, n),
    mirrored by theta -> 1 - theta.  At s = 0 the log-likelihood is
    n log(1 - theta) and the set is [0, -expm1(-drop/n)]; at s = n it is
    [exp(-drop/n), 1].  Raises ValueError unless 0 <= s <= n and n >= 1, and
    EndpointSolveError on a non-finite or reversed pair of endpoints, as a
    drop <= 0 gives for 0 < s < n and a drop < 0 for any s.
    """
    s, n, drop = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, n, drop)))
    shape = s.shape
    s, n, drop = s.ravel(), n.ravel(), drop.ravel()
    if not np.all((0 <= s) & (s <= n) & (n >= 1)):
        raise ValueError("binomial_level_set needs counts 0 <= s <= n with n >= 1")
    lower, upper = np.zeros(s.shape), np.ones(s.shape)
    inner = np.flatnonzero((s > 0) & (s < n))
    zero, full = np.flatnonzero(s == 0), np.flatnonzero(s == n)
    with np.errstate(all="ignore"):
        si, ni, di = s[inner], n[inner], drop[inner]
        eta_hat = np.log(si / (ni - si))
        lower[inner] = expit(eta_hat + _newton_offset(si, ni, di))
        upper[inner] = expit(eta_hat - _newton_offset(ni - si, ni, di))
        upper[zero] = -np.expm1(-drop[zero] / n[zero])
        lower[full] = np.exp(-drop[full] / n[full])
    bad = ~(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper))
    if bad.any():
        i = int(np.argmax(bad))
        raise EndpointSolveError(f"invalid level-set endpoints [{lower[i]}, {upper[i]}] "
                                 f"at n={int(n[i])}, s={int(s[i])} (drop {drop[i]})")
    return lower.reshape(shape), upper.reshape(shape)


def robbins_interval_bernoulli(stat: BernoulliSuffStat, weight: BetaWeight,
                               level: PersistenceLevel) -> Interval:
    """Exact mixture sequence: level set of the binomial log-likelihood at
    log eps + log q_n.  Boundary data (s = 0 or s = n) gives a one-sided region
    clipped at 0 or 1."""
    drop = _level_set_drop(weight, level.epsilon, stat.s, stat.n)
    return Interval(*map(float, binomial_level_set(stat.s, stat.n, drop)))


def lr_interval(stat: BernoulliSuffStat, conf: float) -> Interval:
    """Likelihood-ratio interval at asymptotic confidence conf: the level set at
    a drop of chi2_{1, conf} / 2 below the maximised log-likelihood."""
    if not (0.0 < conf < 1.0):
        raise ValueError(f"conf must lie in (0, 1), got {conf}")
    return Interval(*map(float, binomial_level_set(stat.s, stat.n, _level_set_drop(None, conf))))


def omega_weight_from_beta(weight: BetaWeight) -> NormalWeight:
    """Normal weight on omega = arcsin(sqrt(theta)) matching the first two
    moments of the transformed Beta(alpha, beta) weight, by quadrature.

    Beta(1/2, 1/2) maps to the uniform on (0, pi/2): mean pi/4, variance
    pi^2/48 (closed form used as a test oracle, not here).
    """
    from scipy import integrate     # imported on use, as in engine.quadrature_log_mixture
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
    omega_hat = _arcsine_estimate(stat.s, stat.n)
    d = closed_form_half_width(0.25, stat.n, omega_hat, weight_on_omega, level)
    return Interval(*_arcsine_back_map(omega_hat - d, omega_hat + d))


def _arcsine_estimate(s, n):
    """omega_hat = arcsin(sqrt(s/n)); numpy for arrays, else math."""
    p = s / n
    return np.arcsin(np.sqrt(p)) if isinstance(p, np.ndarray) else asin(sqrt(p))


def _arcsine_back_map(lower, upper):
    """theta = sin^2(omega) at omega endpoints clipped to [0, pi/2]; math for floats."""
    if isinstance(lower, float):
        return math.sin(max(lower, 0.0)) ** 2, math.sin(min(upper, 0.5 * pi)) ** 2
    return np.sin(np.maximum(lower, 0.0)) ** 2, np.sin(np.minimum(upper, 0.5 * pi)) ** 2


def _ratio_reaches(s: int, n: int, theta: float, weight: BetaWeight, k: float) -> bool:
    """Whether q_n/p_n = (alpha)_s (beta)_{n-s} / ((alpha+beta)_n theta^s (1-theta)^{n-s}) >= k
    at s successes of n, exactly: in integers from each float's as_integer_ratio()."""
    def rising(x, step, m):     # x (x + step) ... (x + (m - 1) step), big factors in pairs
        return math.prod(x + i * step for i in range(m)) if m <= 16 else (
            rising(x, step, m // 2) * rising(x + m // 2 * step, step, m - m // 2))
    (a, da), (b, db), (t, dt), (kn, dk) = (
        float(x).as_integer_ratio() for x in (weight.alpha, weight.beta, theta, k))
    ab, d = a * db + b * da, da * db          # alpha + beta = ab / d
    return (rising(a, da, s) * rising(b, db, n - s) * dk * (d * dt) ** n
            >= kn * rising(ab, d, n) * da ** s * db ** (n - s) * t ** s * (dt - t) ** (n - s))


def ville_log_ratio_path(theta: float, weight: BetaWeight) -> LogRatioPath:
    """Path builder for engine.verify_ville_inequality under i.i.d. sampling at
    the true proportion theta; the binomial coefficient cancels in q_n / p_n."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    log_t, log_1mt = log(theta), math.log1p(-theta)

    def path(rng: np.random.Generator, n_max: int) -> np.ndarray:
        s = np.cumsum(rng.random(n_max) < theta)
        ns = np.arange(1, n_max + 1)
        return _log_mixture_ratio(s, ns, weight) - (s * log_t + (ns - s) * log_1mt)

    return LogRatioPath(path, "bernoulli", theta, weight)
