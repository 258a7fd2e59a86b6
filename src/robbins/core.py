"""Shared domain types: intervals, persistence levels, weight functions and the
running contradiction/coverage monitor used by the simulation harness.

A confidence sequence reports an interval at every sample size n.  Two intervals
of the same sequence contradict each other when they are disjoint, which happens
exactly when the running maximum of lower endpoints exceeds the running minimum
of upper endpoints.  The monitor tracks both extrema online.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Interval",
    "PersistenceLevel",
    "NormalWeight",
    "BetaWeight",
    "NormalInverseGamma",
    "LogOddsJeffreysInduced",
    "WeightSpec",
    "SequenceMonitor",
]


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lower, upper]; degenerate points are allowed."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("interval endpoints must be finite")
        if self.lower > self.upper:
            raise ValueError(f"invalid interval: lower={self.lower} > upper={self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def intersects(self, other: "Interval") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper


@dataclass(frozen=True)
class PersistenceLevel:
    """Level 1 - epsilon at which the whole sequence is simultaneously valid.

    epsilon bounds the probability that the true parameter ever leaves the
    sequence, and hence the probability of any contradiction.  Boundary values
    are rejected: epsilon = 0 gives the whole parameter space, epsilon = 1 the
    MLE point.
    """

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie strictly in (0, 1), got {self.epsilon}")

    @property
    def log_epsilon(self) -> float:
        return math.log(self.epsilon)


@dataclass(frozen=True)
class NormalWeight:
    """N(mu0, tau0_sq) weight density."""

    mu0: float
    tau0_sq: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        if not 0 < self.tau0_sq < math.inf:
            raise ValueError(f"tau0_sq must be positive and finite, got {self.tau0_sq}")


@dataclass(frozen=True)
class BetaWeight:
    """Beta(alpha, beta) weight density on (0, 1)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("beta weight parameters must be positive and finite, "
                             f"got ({self.alpha}, {self.beta})")


@dataclass(frozen=True)
class NormalInverseGamma:
    """Conjugate weight for (mean, variance): 1/sigma^2 ~ Gamma(alpha0, rate beta0)
    and mean | sigma^2 ~ N(mu0, sigma^2 / kappa0)."""

    mu0: float
    kappa0: float
    alpha0: float
    beta0: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError(f"mu0 must be finite, got {self.mu0}")
        for name in ("kappa0", "alpha0", "beta0"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class LogOddsJeffreysInduced:
    """Weight on a log-odds ratio induced by independent Jeffreys Beta(1/2, 1/2)
    densities on the two underlying proportions.  Parameter free."""


WeightSpec = Union[NormalWeight, BetaWeight, NormalInverseGamma, LogOddsJeffreysInduced]


def _require_integers(**values) -> None:
    """Counts, sizes and seeds are integers, not bools (a float seed would be truncated)."""
    for name, x in values.items():     # an int skips the slow abstract-class check
        if type(x) is not int and (not isinstance(x, numbers.Integral) or isinstance(x, bool)):
            raise ValueError(f"{name} must be an integer, got {x!r}")


def _require_sigma0_sq(sigma0_sq) -> None:
    """A known variance is finite and positive: inf, nan, 0 and negatives give no interval."""
    if not 0.0 < sigma0_sq < math.inf:
        raise ValueError(f"sigma0_sq must be finite and positive, got {sigma0_sq}")


@dataclass
class SequenceMonitor:
    """Running state of one monitored interval sequence.

    contradicted flips once the running max of lower endpoints exceeds the
    running min of upper endpoints (strictly: touching intervals still share a
    point).  noncovered flips once true_value falls outside some interval.
    Both flags are monotone and the final state depends only on the multiset of
    intervals seen, not their order.
    """

    true_value: float
    max_lower: float = -math.inf
    min_upper: float = math.inf
    contradicted: bool = False
    noncovered: bool = False

    def update(self, interval: Interval) -> "SequenceMonitor":
        if interval.lower > self.max_lower:
            self.max_lower = interval.lower
        if interval.upper < self.min_upper:
            self.min_upper = interval.upper
        if self.max_lower > self.min_upper:
            self.contradicted = True
        if self.max_lower > self.true_value or self.min_upper < self.true_value:
            self.noncovered = True
        return self
