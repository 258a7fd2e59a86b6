"""Confidence sequences for a normal mean.

Known variance: the mixture density under a N(mu0, tau0^2) weight is itself
normal, so the sequence has the exact closed form ybar_n +/- d_n(sigma0^2).
Unknown variance: a normal-inverse-gamma weight gives a closed-form data
marginal and the profile-likelihood sequence ybar_n +/- sigma_hat_n * h_n; a
plug-in closed form using d_n(sigma_hat_n^2) serves as the Wald-type
approximation.  A fixed-level z interval is included as the classical
comparator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma, log, pi, sqrt
from typing import Optional

import numpy as np

from ._special import ndtri
from .core import (Interval, NormalInverseGamma, NormalWeight, PersistenceLevel,
                   _require_integers, _require_sigma0_sq)
from .engine import (ConcaveLogLikelihood, LogRatioPath, MixtureLogDensity, _z_half_width,
                     closed_form_half_width)

__all__ = [
    "NormalSuffStat",
    "known_var_loglik",
    "exact_log_mixture",
    "robbins_interval_known_var",
    "classical_interval",
    "nig_log_marginal",
    "profile_loglik",
    "nig_profile_interval",
    "approx_interval_unknown_var",
    "ville_log_ratio_path",
]


@dataclass(frozen=True)
class NormalSuffStat:
    """Sufficient statistics (n, ybar) plus the MLE variance for the
    unknown-variance operations: sigma_hat_sq = (1/n) sum (y_i - ybar)^2."""

    n: int
    ybar: float
    sigma_hat_sq: Optional[float] = None

    def __post_init__(self):
        _require_integers(n=self.n)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not math.isfinite(self.ybar):
            raise ValueError(f"ybar must be finite, got {self.ybar}")
        if self.sigma_hat_sq is not None and not 0 <= self.sigma_hat_sq < math.inf:
            raise ValueError(f"sigma_hat_sq must be finite and >= 0, got {self.sigma_hat_sq}")

    @classmethod
    def from_data(cls, y) -> "NormalSuffStat":
        y = np.asarray(y, dtype=float)
        return cls(n=y.size, ybar=float(y.mean()), sigma_hat_sq=float(y.var()))

    def _require_variance(self) -> float:
        if self.sigma_hat_sq is None or self.sigma_hat_sq <= 0:
            raise ValueError("operation requires a strictly positive sigma_hat_sq")
        return self.sigma_hat_sq


def known_var_loglik(stat: NormalSuffStat, sigma0_sq: float) -> ConcaveLogLikelihood:
    """Log-likelihood of the sample mean, ybar_n ~ N(theta, sigma0^2 / n)."""
    _require_sigma0_sq(sigma0_sq)
    ybar, v = stat.ybar, sigma0_sq / stat.n

    def fn(theta):
        return _log_density(ybar, theta, v)

    return ConcaveLogLikelihood(fn=fn, mle=ybar, mle_loglik=fn(ybar))


def exact_log_mixture(stat: NormalSuffStat, sigma0_sq: float,
                      weight: NormalWeight) -> MixtureLogDensity:
    """Exact log q_n: the sample mean marginally follows N(mu0, tau0^2 + sigma0^2/n)."""
    _require_sigma0_sq(sigma0_sq)
    return MixtureLogDensity(_log_density(stat.ybar, weight.mu0, weight.tau0_sq + sigma0_sq / stat.n))


def _log_density(x, mean, var):
    """N(mean, var) log density -log(2 pi var)/2 - (x - mean)^2 / (2 var); math for a float var."""
    ln = log if isinstance(var, float) else np.log
    return -0.5 * ln(2.0 * pi * var) - (x - mean) ** 2 / (2.0 * var)


def robbins_interval_known_var(stat: NormalSuffStat, sigma0_sq: float,
                               weight: NormalWeight, level: PersistenceLevel) -> Interval:
    """Exact sequence ybar_n +/- d_n(sigma0^2); identical to the level-set route
    through known_var_loglik and exact_log_mixture."""
    _require_sigma0_sq(sigma0_sq)
    d = closed_form_half_width(sigma0_sq, stat.n, stat.ybar, weight, level)
    return Interval(stat.ybar - d, stat.ybar + d)


def classical_interval(stat: NormalSuffStat, sigma0_sq: float, conf: float) -> Interval:
    """Fixed-level comparator ybar_n +/- sigma0 z_{(1+conf)/2} / sqrt(n)."""
    if not (0.0 < conf < 1.0):
        raise ValueError(f"conf must lie in (0, 1), got {conf}")
    _require_sigma0_sq(sigma0_sq)
    d = _z_half_width(sigma0_sq / stat.n, float(ndtri(0.5 * (1.0 + conf))))
    return Interval(stat.ybar - d, stat.ybar + d)


def nig_log_marginal(stat: NormalSuffStat, weight: NormalInverseGamma) -> float:
    """Closed-form log marginal density of the full sample under the
    normal-inverse-gamma weight on (mean, variance).

    Integrating the N(mu, sigma^2) likelihood against mu | sigma^2 ~
    N(mu0, sigma^2/kappa0) and sigma^2 ~ InvGamma(alpha0, beta0) gives

        q_n = (2 pi)^(-n/2) sqrt(kappa0 / (kappa0 + n)) beta0^alpha0 / Gamma(alpha0)
              * Gamma(alpha0 + n/2) / (beta0 + A/2)^(alpha0 + n/2),

    with A = n sigma_hat^2 + (n kappa0 / (n + kappa0)) (ybar - mu0)^2.
    """
    s2 = stat._require_variance()
    n, ybar = stat.n, stat.ybar
    mu0, k0, a0, b0 = weight.mu0, weight.kappa0, weight.alpha0, weight.beta0
    A = n * s2 + n * k0 / (n + k0) * (ybar - mu0) ** 2
    return (-0.5 * n * log(2.0 * pi) + 0.5 * log(k0 / (k0 + n))
            + a0 * log(b0) - lgamma(a0) + lgamma(a0 + 0.5 * n)
            - (a0 + 0.5 * n) * log(b0 + 0.5 * A))


def profile_loglik(stat: NormalSuffStat) -> ConcaveLogLikelihood:
    """Full-sample profile log-likelihood in the mean with the variance
    maximised out: l_p(mu) = -(n/2) log(2 pi s2_mu) - n/2, where
    s2_mu = sigma_hat^2 + (ybar - mu)^2.

    Not concave in mu over the whole line, but unimodal with level sets that
    are intervals (s2_mu is a quadratic in mu), which is all the level-set
    solver relies on.
    """
    s2 = stat._require_variance()
    n, ybar = stat.n, stat.ybar

    def fn(mu):
        return -0.5 * n * (log(2.0 * pi) + np.log(s2 + (ybar - mu) ** 2)) - 0.5 * n

    return ConcaveLogLikelihood(fn=fn, mle=ybar,
                                mle_loglik=-0.5 * n * (log(2.0 * pi) + log(s2)) - 0.5 * n)


def nig_profile_interval(stat: NormalSuffStat, weight: NormalInverseGamma,
                         level: PersistenceLevel) -> Interval:
    """Profile-likelihood sequence ybar_n +/- sigma_hat_n h_n under the
    normal-inverse-gamma weight.

    The region {mu : l_p(mu) >= log eps + log q_n} reduces analytically:
    l_p(mu) depends on mu only through s2_mu = sigma_hat^2 + (ybar - mu)^2, so
    the inequality is s2_mu <= C with

        C = exp(-(2/n) (log eps + log q_n) - log(2 pi) - 1)

    and h_n = sqrt(C / sigma_hat^2 - 1).  C >= sigma_hat^2 always (the MLE
    belongs to the region), so the root is real.  The algebra is guarded by a
    quadrature-plus-level-set oracle in the test suite.
    """
    if stat.n < 2:
        raise ValueError(f"profile interval requires n >= 2, got n={stat.n}")
    s2 = stat._require_variance()
    log_qn = nig_log_marginal(stat, weight)
    C = math.exp(-(2.0 / stat.n) * (level.log_epsilon + log_qn) - log(2.0 * pi) - 1.0)
    h = sqrt(max(C / s2 - 1.0, 0.0))
    d = sqrt(s2) * h
    return Interval(stat.ybar - d, stat.ybar + d)


def approx_interval_unknown_var(stat: NormalSuffStat, weight: NormalWeight,
                                level: PersistenceLevel) -> Interval:
    """Wald-type closed form with the plug-in variance: ybar_n +/- d_n(sigma_hat^2)."""
    s2 = stat._require_variance()
    d = closed_form_half_width(s2, stat.n, stat.ybar, weight, level)
    return Interval(stat.ybar - d, stat.ybar + d)


def ville_log_ratio_path(theta: float, sigma0_sq: float, weight: NormalWeight) -> LogRatioPath:
    """Path builder for engine.verify_ville_inequality: one replication's
    log(q_n / p_n(theta)) for n = 1..n_max under i.i.d. N(theta, sigma0^2)."""
    if not (math.isfinite(theta) and 0 < sigma0_sq < math.inf):
        raise ValueError(f"need a finite theta and a finite positive sigma0_sq, "
                         f"got theta={theta}, sigma0_sq={sigma0_sq}")

    def path(rng: np.random.Generator, n_max: int) -> np.ndarray:
        y = theta + sqrt(sigma0_sq) * rng.standard_normal(n_max)
        ns = np.arange(1, n_max + 1, dtype=float)
        ybar = np.cumsum(y) / ns
        return (_log_density(ybar, weight.mu0, weight.tau0_sq + sigma0_sq / ns)
                - _log_density(ybar, theta, sigma0_sq / ns))

    return LogRatioPath(path, "normal", theta, weight, sigma0_sq)
