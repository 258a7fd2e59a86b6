"""robbins._special against scipy.special, its oracle.

Bounds are in units of the float64 spacing at max(1, |value|).  From x = 13
gammaln's array path is cephes' own series, so it differs from scipy only by
numpy's log (2 ulps seen); for scalars and for non-integers below 13
math.lgamma stands against cephes' rational fit, two approximations (9 ulps
seen near x = 4).  betaln takes arrays of up to 32 pairs one by one, so its
array tests also run on tiled copies."""

import math

import numpy as np
import pytest
from scipy import special as sp

from robbins import _special, normal, two_bernoulli

ULPS = 8


def assert_close(got, want, ulps=ULPS):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    tol = ulps * np.spacing(np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)


def both_paths(fn, *args):
    """fn on the arrays tiled past the element-by-element route (first copy),
    on the arrays, and element by element on Python floats."""
    tiled = fn(*(np.tile(a, 70) for a in args))[:args[0].size]
    return tiled, fn(*args), [fn(*xs) for xs in zip(*(a.tolist() for a in args))]


@pytest.mark.parametrize("x", [np.linspace(1e-6, 16.0, 20_001),
                               np.arange(1.0, 1e6 + 1), np.arange(0.5, 1e6),
                               np.array([1e10, 1e10 + 0.5, 1e12, 3.3e11])],
                         ids=["dense-0-16", "integers", "half-integers", "1e10-1e12"])
def test_gammaln_matches_scipy(x):
    want, ulps = sp.gammaln(x), np.where(x < 13.0, 16, 4)
    assert_close(_special.gammaln(x), want, ulps)
    some = slice(None, None, max(1, x.size // 5000))
    assert_close([_special.gammaln(v) for v in x[some].tolist()], want[some], 16)


def test_gammaln_integer_table_equals_the_series():
    # integers below 8192 read a table: it must not change a bit against the
    # series (the same integers as floats, with one non-integer to force it)
    k = np.arange(0.0, 9000.0)
    series = _special.gammaln(np.append(k, 0.5))[:-1]
    assert np.array_equal(_special.gammaln(k), series)
    assert np.array_equal(_special.gammaln(k.astype(int)), series)
    assert np.array_equal(_special.gammaln(k[:4000].reshape(40, 100)), series[:4000].reshape(40, 100))
    assert np.array_equal([_special.gammaln(v) for v in range(13)], series[:13])   # exact below 13


def test_gammaln_is_infinite_at_poles_and_infinity():
    for x in ([0.0, -1.0, -7.0, np.inf], [0.0, 3.0], [np.inf, 0.5]):   # series, table, series
        x = np.array(x)
        assert np.array_equal(_special.gammaln(x) == np.inf, sp.gammaln(x) == np.inf)
    assert all(_special.gammaln(v) == math.inf for v in (0.0, -1.0, -7, math.inf))


def _betaln_scale(a, b):
    # betaln's middle regime subtracts gammalns: scipy and this module round
    # the same terms, so the error is relative to their size
    return np.abs(sp.gammaln(a)) + np.abs(sp.gammaln(b)) + np.abs(sp.gammaln(a + b))


@pytest.mark.parametrize("regime, a, b", [
    ("gamma-ratio", [0.5, 1.0, 2.5, 5.0, 0.01, 84.0, 3.0],
     [0.5, 2.0, 7.0, 160.0, 0.3, 85.0, 100.0]),
    ("gammaln-sum", [50.0, 200.0, 1e4, 0.5, 3.5, 171.0, 0.02],
     [150.0, 5000.0, 1e9, 5e5, 1e6, 1.0, 9e5]),
    ("asymptotic", [3.5, 1.5, 401.0, 1e4, 0.5, 1e-3],
     [1e10, 1e12, 1e10 - 399.0, 1e11, 2e6, 1e13]),
])
def test_betaln_matches_scipy_in_each_regime(regime, a, b):
    a, b = np.array(a), np.array(b)
    want = sp.betaln(a, b)
    tol = ULPS * np.finfo(float).eps * np.maximum(1.0, _betaln_scale(a, b))
    for got in (*both_paths(_special.betaln, a, b), _special.betaln(b, a)):
        assert np.all(np.abs(np.asarray(got) - want) <= tol), regime


def test_betaln_random_pairs_match_scipy():
    rng = np.random.default_rng(7)
    a, b = np.exp(rng.uniform(math.log(1e-3), math.log(1e13), (2, 20_000)))
    tol = ULPS * np.finfo(float).eps * np.maximum(1.0, _betaln_scale(a, b))
    scalars = [_special.betaln(x, y) for x, y in zip(a[:2000].tolist(), b[:2000].tolist())]
    assert np.all(np.abs(_special.betaln(a, b) - sp.betaln(a, b)) <= tol)
    assert np.all(np.abs(np.asarray(scalars) - sp.betaln(a[:2000], b[:2000])) <= tol[:2000])


def test_betaln_keeps_the_bits_of_exact_ties():
    # q_n/p_n lands exactly on k at these values (theta 1/2, Beta(1, 1) and
    # Beta(5, 5)); the crossing checks and level-set bands compare such ties
    for a, b in ((1.0, 2.0), (1.0, 4.0), (5.0, 6.0), (5.0, 5.0)):
        assert _special.betaln(a, b) == sp.betaln(a, b)
        for size in (1, 100):   # element by element, and the Gamma table
            assert np.all(_special.betaln(np.full(size, a), np.full(size, b)) == sp.betaln(a, b))
    assert (_special.betaln(5.0, 6.0) - _special.betaln(5.0, 5.0)
            == sp.betaln(5.0, 6.0) - sp.betaln(5.0, 5.0))


def test_xlogy_is_zero_at_x_zero_unless_y_is_nan():
    for y in (0.0, 1.0, math.nan):
        for got in (_special.xlogy(0, y), _special.xlogy(np.zeros(2), np.full(2, y))):
            np.testing.assert_array_equal(got, sp.xlogy(0, y))
    k = np.arange(0.0, 10_001.0)
    assert_close(_special.xlogy(k, k), sp.xlogy(k, k))
    for x, y in ((3, 0.0), (-3, 0.0), (3, -1.0), (3, math.nan), (2.5, math.inf)):
        np.testing.assert_array_equal(_special.xlogy(x, y), sp.xlogy(x, y))


def test_expit_saturates_like_scipy():
    x = np.array([-745.0, -40.0, 0.0, 40.0, 745.0])
    with np.errstate(over="ignore"):
        got = _special.expit(x)
    assert_close(got, sp.expit(x))
    assert got[0] == 0.0 and got[-1] == 1.0


@pytest.mark.parametrize("q", [1 - 1e-300, 0.1, 0.05, 0.01, 0.005, 1e-300])
def test_chdtri_one_degree_of_freedom_matches_scipy(q):
    # AS241 against cephes: a few ulps; q = 1 - 1e-300 is 1.0, a quantile of 0
    assert _special.chdtri(1, q) == pytest.approx(sp.chdtri(1, q), rel=4e-15, abs=0.0)
    assert math.isnan(_special.chdtri(2, q))


def test_ndtri_matches_scipy():
    p = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 4001), [1e-300, 0.5]])
    assert_close([_special.ndtri(v) for v in p.tolist()], sp.ndtri(p))
    for v in (0.0, 1.0, -0.5, 1.5, math.nan):
        np.testing.assert_array_equal(_special.ndtri(v), sp.ndtri(v))


def test_comparators_at_the_last_confidence_below_one():
    # 0.5 (1 + conf) rounds to 1: the quantile is inf, as with scipy, and the
    # interval refuses its infinite endpoints
    conf = 1 - 2 ** -53
    assert 0.5 * (1.0 + conf) == 1.0
    with pytest.raises(ValueError, match="finite"):
        normal.classical_interval(normal.NormalSuffStat(100, 0.0), 1.0, conf)
    with pytest.raises(ValueError, match="finite"):
        two_bernoulli.wald_interval(two_bernoulli.TwoSampleStat(50, 50, 20, 30), conf)
