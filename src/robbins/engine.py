"""Model-agnostic machinery for mixture confidence sequences.

The region at level 1 - epsilon is the likelihood level set

    { theta : l(theta) >= log(epsilon) + log q_n },

where q_n is the mixture density of the data under the weight function.  For a
strictly concave log-likelihood the set is an interval whose endpoints are
found by geometric bracket expansion from the MLE followed by bisection to an
absolute tolerance, relative to the distance from a finite support bound near it
(the Bernoulli rules use bernoulli.binomial_level_set).

log q_n itself is produced four ways: exact closed forms supplied by the model
modules, a Laplace (Gaussian-integral) approximation at the MLE, adaptive
quadrature of exp(l + log pi) in shifted log space, or the trapezoid rule on a
uniform grid, halved until two grid levels agree, for a vectorised integrand
analytic in a strip around the real axis (the conditional log-odds model).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import Interval, NormalWeight, PersistenceLevel, _require_integers

__all__ = [
    "ConcaveLogLikelihood",
    "MixtureLogDensity",
    "ThresholdAboveMaxError",
    "NoBracketError",
    "NonFiniteIntegrandError",
    "EndpointSolveError",
    "concave_level_set",
    "robbins_region",
    "closed_form_half_width",
    "laplace_log_mixture",
    "quadrature_log_mixture",
    "trapezoid_log_mixture",
    "VilleCheckResult",
    "verify_ville_inequality",
]

QUAD_REL_TOL = 1e-8      # relative tolerance contract for quadrature mixtures
BISECT_XTOL = 1e-9       # absolute tolerance for level-set endpoints
_MAX_EXPANSIONS = 200
GRID_HALVINGS = 4        # trapezoid step halvings before the tolerance warning


class ThresholdAboveMaxError(ArithmeticError):
    """Level-set threshold exceeds the log-likelihood maximum.

    Cannot happen with an exact mixture density (the maximised likelihood always
    dominates the mixture); signals a numerically broken log q_n.
    """


class NoBracketError(RuntimeError):
    """Bracket expansion exhausted without crossing the threshold."""


class NonFiniteIntegrandError(ArithmeticError):
    """Quadrature integrand evaluated to NaN/inf after max-shifting."""


class EndpointSolveError(ArithmeticError):
    """A level-set or MLE solve gave a non-finite, reversed or unconverged result."""


@dataclass(frozen=True)
class ConcaveLogLikelihood:
    """A strictly concave log-likelihood with known maximiser.

    fn evaluates l(theta); mle and mle_loglik locate the maximum; support is the
    open parameter domain ((0, 1) for a proportion, the real line by default).
    """

    fn: Callable[[float], float]
    mle: float
    mle_loglik: float
    support: tuple = (-math.inf, math.inf)

    def __call__(self, theta):
        return self.fn(theta)


@dataclass(frozen=True)
class MixtureLogDensity:
    """log q_n, how it was obtained (exact / laplace / quadrature / trapezoid)
    and, for the numerical methods, the estimated relative error of q_n."""

    value: float
    method: str = "exact"
    rel_error: Optional[float] = None


def _as_log_qn(log_qn) -> float:
    return log_qn.value if isinstance(log_qn, MixtureLogDensity) else float(log_qn)


def _bisect_endpoint(f, inner, outer, threshold, xtol, bounds=()):
    """Root of f(theta) = threshold between inner (f >= threshold) and outer
    (f < threshold), to absolute tolerance xtol, and near the finite support bounds
    given to xtol times the bracket's distance from the nearest (or to rounding)."""
    a, b = inner, outer
    while abs(b - a) > xtol * min([1.0] + [min(abs(a - x), abs(b - x)) for x in bounds]):
        m = 0.5 * (a + b)
        if m == a or m == b:        # no float strictly between
            break
        if f(m) >= threshold:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _endpoint(loglik: ConcaveLogLikelihood, threshold: float, direction: int,
              xtol: float) -> float:
    """Locate one level-set endpoint on the given side of the MLE.

    Expands geometrically (step doubling) from the MLE until the threshold is
    crossed, then bisects.  Past a finite support bound it probes inside the bound
    at distances falling 16-fold from half the gap, down to rounding; the region is
    truncated there, and the bound itself returned, only if every probe lies inside.
    """
    bound = loglik.support[1] if direction > 0 else loglik.support[0]
    bounds = [x for x in loglik.support if math.isfinite(x)]
    step = 1e-2 * (1.0 + abs(loglik.mle))
    x_in = loglik.mle
    for _ in range(_MAX_EXPANSIONS):
        x_out = x_in + direction * step
        if (direction > 0 and x_out >= bound) or (direction < 0 and x_out <= bound):
            if not math.isfinite(bound):
                raise NoBracketError(
                    f"no level crossing within {_MAX_EXPANSIONS} expansions towards "
                    f"{'+' if direction > 0 else '-'}inf")
            gap = 0.5 * abs(bound - x_in)
            while (x_probe := bound - direction * gap) != bound:
                if loglik(x_probe) < threshold:
                    return _bisect_endpoint(loglik, x_in, x_probe, threshold, xtol, bounds)
                x_in, gap = x_probe, gap / 16.0
            return bound          # truncated at the domain boundary
        if loglik(x_out) < threshold:
            return _bisect_endpoint(loglik, x_in, x_out, threshold, xtol, bounds)
        x_in = x_out
        step *= 2.0
    raise NoBracketError(f"no level crossing within {_MAX_EXPANSIONS} expansions")


def concave_level_set(loglik: ConcaveLogLikelihood, threshold: float, *,
                      xtol: float = BISECT_XTOL) -> Interval:
    """Interval {theta : l(theta) >= threshold} for a concave log-likelihood.

    Raises ThresholdAboveMaxError when the threshold exceeds l(mle) beyond
    rounding slack; a threshold exactly at the maximum gives the degenerate
    point interval at the MLE.
    """
    slack = 1e-10 * (1.0 + abs(loglik.mle_loglik))
    if threshold > loglik.mle_loglik + slack:
        raise ThresholdAboveMaxError(
            f"threshold {threshold} exceeds the log-likelihood maximum {loglik.mle_loglik}")
    if threshold >= loglik.mle_loglik:
        return Interval(loglik.mle, loglik.mle)
    return Interval(_endpoint(loglik, threshold, -1, xtol),
                    _endpoint(loglik, threshold, +1, xtol))


def robbins_region(loglik: ConcaveLogLikelihood,
                   log_qn: Union[MixtureLogDensity, float],
                   level: PersistenceLevel, *, xtol: float = BISECT_XTOL) -> Interval:
    """Mixture confidence region {theta : l(theta) >= log eps + log q_n}.

    The MLE always belongs to the region; endpoints are clipped at finite
    support boundaries (detectable as endpoint == boundary).
    """
    return concave_level_set(loglik, level.log_epsilon + _as_log_qn(log_qn), xtol=xtol)


def closed_form_half_width(variance_proxy: float, n: int, estimate: float,
                           weight: NormalWeight, level: PersistenceLevel) -> float:
    """Half-width of the closed-form sequence for a normal-model estimate.

    variance_proxy plays the role of sigma0^2 (exact known-variance case) or of
    n * v_n for an asymptotically normal estimator with variance estimate v_n.
    """
    if not variance_proxy > 0:
        raise ValueError(f"variance_proxy must be positive, got {variance_proxy}")
    if type(n) is not int:      # ints skip the call: every closed-form interval passes here
        _require_integers(n=n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _half_width(variance_proxy / n, estimate, weight, -2.0 * level.log_epsilon)


def _half_width(v, estimate, weight: NormalWeight, c):
    """sqrt(v (log(tv/v) + (estimate - mu0)^2/tv + c)), tv = tau0_sq + v, c = -2 log eps; math
    for a float v, else numpy in place, in the order that fixes the simulation kernels' bits."""
    scalar = isinstance(v, float)
    tv = weight.tau0_sq + v
    d = estimate - weight.mu0
    d *= d
    d /= tv
    d += math.log(tv / v) if scalar else np.log(tv / v)
    d += c
    d *= v
    return math.sqrt(d) if scalar else np.sqrt(d, out=d)


def _z_half_width(v, z):
    """z sqrt(v), the fixed-level rules' half-width; numpy for an array v, else math."""
    return z * (np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v))


def laplace_log_mixture(loglik: ConcaveLogLikelihood, weight_density_at_mle: float,
                        observed_info_at_mle: float, dim: int = 1) -> MixtureLogDensity:
    """Gaussian-integral approximation of log q_n at the MLE:

        l(mle) + log pi(mle) + (dim/2) log(2 pi) - (1/2) log |j_n(mle)|.

    observed_info_at_mle is the determinant of the observed information (the
    scalar itself when dim == 1).  Relative error is O(1/n) under repeated
    sampling.
    """
    if not observed_info_at_mle > 0:
        raise ValueError(f"observed information must be positive, got {observed_info_at_mle}")
    if not weight_density_at_mle > 0:
        raise ValueError(f"weight density at the MLE must be positive, got {weight_density_at_mle}")
    value = (loglik.mle_loglik + math.log(weight_density_at_mle)
             + 0.5 * dim * math.log(2.0 * math.pi) - 0.5 * math.log(observed_info_at_mle))
    return MixtureLogDensity(value, method="laplace")


def quadrature_log_mixture(loglik: ConcaveLogLikelihood,
                           weight_log_density: Callable[[float], float],
                           domain: Optional[tuple] = None,
                           rel_tol: float = QUAD_REL_TOL) -> MixtureLogDensity:
    """log of integral exp(l(theta) + log pi(theta)) d theta by adaptive quadrature.

    The integrand is shifted by its value at the MLE before exponentiating so
    only O(1) magnitudes are integrated.  domain is (a, b) with infinite ends
    allowed (scipy transforms unbounded pieces internally); default is the
    likelihood support.  If the requested relative tolerance is not certified
    by the error estimate, the achieved estimate is still returned with a
    warning.
    """
    from scipy import integrate     # ~26 MB and ~0.25 s of import no default rule needs
    if domain is None:
        domain = loglik.support
    a, b = (domain.lower, domain.upper) if isinstance(domain, Interval) else (domain[0], domain[1])

    shift = loglik.mle_loglik + weight_log_density(loglik.mle)
    if not math.isfinite(shift):
        raise NonFiniteIntegrandError(f"integrand is not finite at the MLE (log value {shift})")

    def integrand(theta):
        return math.exp(loglik(theta) + weight_log_density(theta) - shift)

    pieces = []
    if a < loglik.mle < b:
        pieces = [(a, loglik.mle), (loglik.mle, b)]
    else:
        pieces = [(a, b)]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in pieces:
            val, e = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=rel_tol * 1e-2,
                                    limit=200)
            total += val
            err += e
    if not math.isfinite(total) or total <= 0.0:
        raise NonFiniteIntegrandError(f"quadrature returned non-positive mass {total}")
    if err > rel_tol * total:
        warnings.warn(f"quadrature tolerance not met: estimated relative error "
                      f"{err / total:.2e} > {rel_tol:.0e}", RuntimeWarning, stacklevel=2)
    return MixtureLogDensity(shift + math.log(total), method="quadrature",
                             rel_error=err / total)


def trapezoid_log_mixture(log_integrand: Callable[[np.ndarray], np.ndarray],
                          domain: tuple, panels: int) -> MixtureLogDensity:
    """log of integral exp(g(theta)) d theta over domain = (a, b) by the
    trapezoid rule, exponentially convergent in 1/h for g analytic in a strip
    around the real axis.  log_integrand maps an array of theta to g(theta).

    From `panels` panels, h is halved (only the midpoints are new) until the
    relative gap between the sums at h and h/2, carried as rel_error on the
    finer sum returned, meets QUAD_REL_TOL; after GRID_HALVINGS halvings it
    warns as quadrature_log_mixture does."""
    a, b = domain
    h = (b - a) / panels
    first = log_integrand(a + h * np.arange(panels + 1))
    shift = float(np.max(first))
    if not math.isfinite(shift):
        raise NonFiniteIntegrandError(f"integrand is not finite on the grid (log max {shift})")
    f = np.exp(first - shift)
    total = h * float(f.sum() - 0.5 * (f[0] + f[-1]))
    for _ in range(GRID_HALVINGS):
        mid = np.exp(log_integrand(a + h * (np.arange(panels) + 0.5)) - shift)
        finer = 0.5 * (total + h * float(mid.sum()))
        rel_error = abs(finer - total) / finer
        total, h, panels = finer, 0.5 * h, 2 * panels
        if rel_error <= QUAD_REL_TOL:
            break
    if not math.isfinite(total):
        raise NonFiniteIntegrandError(f"trapezoid rule returned mass {total}")
    if rel_error > QUAD_REL_TOL:
        warnings.warn(f"quadrature tolerance not met: estimated relative error "
                      f"{rel_error:.2e} > {QUAD_REL_TOL:.0e}", RuntimeWarning, stacklevel=2)
    return MixtureLogDensity(shift + math.log(total), method="trapezoid",
                             rel_error=rel_error)


@dataclass(frozen=True)
class LogRatioPath:
    """A model's crossing path (its ville_log_ratio_path): path(rng, n_max) is fn(rng,
    n_max).  verify_ville_inequality may run the kernel of model, truth, weight and
    sigma0_sq in place of fn, so fn must be that path."""

    fn: Callable[[np.random.Generator, int], np.ndarray]
    model: str
    truth: float
    weight: object
    sigma0_sq: float = 1.0

    def __call__(self, rng: np.random.Generator, n_max: int) -> np.ndarray:
        return self.fn(rng, n_max)


@dataclass(frozen=True)
class VilleCheckResult:
    """Monte Carlo estimate of P(sup_n q_n / p_n >= k) against the 1/k bound, exact at Bernoulli
    ties q_n / p_n = k up to n_max 20 000 (verify_ville_inequality)."""

    estimate: float
    bound: float
    std_error: float
    crossings: int
    reps: int
    k: float

    @property
    def passed(self) -> bool:
        return self.estimate <= self.bound + 3.0 * self.std_error


def verify_ville_inequality(log_ratio_path: Callable[[np.random.Generator, int], np.ndarray],
                            k: float, n_max: int, reps: int, seed: int) -> VilleCheckResult:
    """Estimate P(q_n / p_n >= k at some n <= n_max), k > 1, which Ville's bound caps at 1/k.

    log_ratio_path(rng, n_max) must return the replication's path of log(q_n / p_n(theta_true))
    for n = 1..n_max; replication r draws from the (seed, r) counter stream, whatever the
    caller's scheduling.  A LogRatioPath up to n_max 20 000 runs in-process as a table-kernel
    cell (simulation._crossings), exact at Bernoulli ties q_n/p_n = k, in chunks of at most 32
    STREAM_CELLS cells (a traced peak of 44 MiB for the normal path at n_max 20 000).  The cap
    bounds the exact test, ~n^1.6 (~2 s per count at n 100 000).  Past it, and for a plain
    callable, a loop holds one path at a time; float rounding decides a tie there."""
    if not 1.0 < k < math.inf:
        raise ValueError(f"k must satisfy 1 < k < inf, got {k}")
    _require_integers(n_max=n_max, reps=reps, seed=seed)
    if not (reps >= 1 and n_max >= 1):
        raise ValueError(f"need reps >= 1 and n_max >= 1, got reps={reps}, n_max={n_max}")
    from .simulation import _crossings, replication_rng
    if isinstance(log_ratio_path, LogRatioPath) and n_max <= 20_000:
        crossings = _crossings(log_ratio_path, k, n_max, reps, seed)
    else:
        log_k, crossings = math.log(k), 0
        for r in range(reps):
            top = float(np.max(log_ratio_path(replication_rng(seed, r), n_max)))
            if math.isnan(top):
                raise ValueError(f"replication {r}: the log-ratio path has NaN values")
            crossings += top >= log_k
    p = crossings / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return VilleCheckResult(estimate=p, bound=1.0 / k, std_error=se,
                            crossings=crossings, reps=reps, k=k)
