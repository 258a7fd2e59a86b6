"""The scipy.special functions robbins uses, on numpy and math alone: no scipy at import.

gammaln  cephes lgam: log((x-1)!) at integers below 13, inf at the poles, else math.lgamma; float
         arrays from 13: its Stirling series (x - 1/2) log x - x + log(2 pi)/2 + P(1/x^2)/x, which a
         table holds at integers below 8192.  betaln, cephes lbeta: lgamma(min) - min log max + ...
         where max > 1e6 max(min, 1), gammaln sums where a + b > 171.62, else log Gamma ratio by
         math.gamma (a table at integers: exact ties keep their bits); up to 32 pairs one by one.
         xlogy 0 at x == 0 unless y is nan; expit 1/(1 + e^-x); ndtri NormalDist().inv_cdf (AS241).
"""

import math
from statistics import NormalDist

import numpy as np

_LGAM_POLY = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
              -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_GAMMA = np.array([math.inf] + [math.gamma(k) for k in range(1, 172)])   # Gamma(0..171)
_MAXGAM = 171.624376956302725   # Gamma overflows above
# up to _SMALL, one by one is ~2x cheaper per call than the array route, with the scalar bits
_SMALL, _STACK = 32, 1 << 15    # betaln: one by one up to _SMALL, one gammaln call up to _STACK


def _lgamma(x: float) -> float:     # x % 1: non-integers, nan and inf
    return math.lgamma(x) if x % 1 or x >= 13 else math.log(math.factorial(int(x) - 1)) if x > 0 else math.inf


def gammaln(x):
    if isinstance(x, (int, float, np.number)):
        return _lgamma(x)
    x = np.asarray(x, dtype=float)
    if x.size and x.min() >= 0 and x.max() < _LGAM_INT.size and (x == np.floor(x)).all():
        return _LGAM_INT[x.astype(np.intp)]
    low = (x < 13.0) | (x == math.inf)
    z = np.where(low, 13.0, x)
    w = 1.0 / (z * z)
    p = (((_LGAM_POLY[0] * w + _LGAM_POLY[1]) * w + _LGAM_POLY[2]) * w + _LGAM_POLY[3]) * w
    out = (z - 0.5) * np.log(z) - z + 0.9189385332046728 + (p + _LGAM_POLY[4]) / z
    if low.any():
        out[low] = list(map(_lgamma, x[low].tolist()))
    return out


_LGAM_INT = gammaln(np.arange(-1.0, 8192.0))[1:]    # at 0..8191 (-1: not from the table)


def betaln(a, b):
    if isinstance(a, (int, float, np.number)) and isinstance(b, (int, float, np.number)):
        a, b = max(a, b), min(a, b)
        if a > 1e6 and a > 1e6 * b:     # cephes lbeta_asymp
            return (_lgamma(b) - b * math.log(a) + b * (1 - b) / (2 * a)
                    + b * (1 - b) * (1 - 2 * b) / (12 * a * a) - b * b * (1 - b) * (1 - b) / (12 * a ** 3))
        if a + b > _MAXGAM:
            return math.lgamma(a) + (math.lgamma(b) - math.lgamma(a + b))
        y, ga, gb = math.gamma(a + b), math.gamma(a), math.gamma(b)
        return math.log(gb / y * ga if abs(ga - y) > abs(gb - y) else ga / y * gb)
    a, b = np.maximum(a, b, dtype=float), np.minimum(a, b, dtype=float)
    if a.size <= _SMALL:
        return np.reshape(list(map(betaln, a.ravel().tolist(), b.ravel().tolist())), a.shape)
    abc = np.stack((a, b, a + b))
    ga, gb, gab = gammaln(abc) if abc.size <= _STACK else map(gammaln, abc)
    out = ga + (gb - gab)
    asym = a > 1e6 * np.maximum(b, 1.0)
    out[asym] = list(map(betaln, a[asym].tolist(), b[asym].tolist()))
    small = abc[2] <= _MAXGAM   # disjoint from asym; the scalar branch's Gamma ratio
    k = (v := abc[:, small]).astype(np.intp)
    ga, gb, y = _GAMMA[k] if (k == v).all() else np.reshape(list(map(math.gamma, v.ravel().tolist())), v.shape)
    ratio = np.where(np.abs(ga - y) > np.abs(gb - y), gb / y * ga, ga / y * gb)
    out[small] = list(map(math.log, ratio.tolist()))
    return out


def xlogy(x, y):
    if isinstance(x, (int, float, np.number)) and isinstance(y, (int, float, np.number)) and y > 0:
        return 0.0 if x == 0 else x * math.log(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((np.asarray(x) == 0) & ~np.isnan(y), 0.0, x * np.log(y))


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def ndtri(p: float) -> float:
    return NormalDist().inv_cdf(p) if 0 < p < 1 else {0: -math.inf, 1: math.inf}.get(p, math.nan)


def chdtri(df: int, q: float) -> float:
    return ndtri(0.5 * q) ** 2 if df == 1 else math.nan     # df = 1 only
