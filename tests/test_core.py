import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robbins import engine
from robbins.bernoulli import BernoulliSuffStat
from robbins.core import (BetaWeight, Interval, NormalInverseGamma, NormalWeight,
                          PersistenceLevel, SequenceMonitor)
from robbins.normal import NormalSuffStat
from robbins.two_bernoulli import TwoSampleStat


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_degenerate_point_allowed(self):
        iv = Interval(0.5, 0.5)
        assert iv.width == 0.0
        assert iv.contains(0.5)

    @pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("inf"))])
    def test_rejects_non_finite(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_geometry(self):
        iv = Interval(-1.0, 3.0)
        assert iv.width == 4.0
        assert iv.midpoint == 1.0
        assert iv.contains(-1.0) and iv.contains(3.0) and not iv.contains(3.0001)
        assert iv.intersects(Interval(3.0, 5.0))          # shared point
        assert not iv.intersects(Interval(3.1, 5.0))


class TestPersistenceLevel:
    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_boundary(self, eps):
        with pytest.raises(ValueError):
            PersistenceLevel(eps)

    def test_log_epsilon(self):
        assert PersistenceLevel(0.2).log_epsilon == pytest.approx(math.log(0.2), abs=0)


class TestWeights:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            NormalWeight(0.0, 0.0)
        with pytest.raises(ValueError):
            BetaWeight(0.0, 1.0)
        with pytest.raises(ValueError):
            NormalInverseGamma(0.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("mu0,tau0_sq", [(math.nan, 1.0), (math.inf, 1.0),
                                             (-math.inf, 1.0), (0.0, math.inf),
                                             (0.0, math.nan), (0.0, -1.0)])
    def test_normal_weight_finite(self, mu0, tau0_sq):
        # a non-finite weight used to give 0% / 0% in every closed-form kernel
        with pytest.raises(ValueError):
            NormalWeight(mu0, tau0_sq)

    @pytest.mark.parametrize("make", [
        lambda: BetaWeight(math.inf, 1.0), lambda: BetaWeight(1.0, math.inf),
        lambda: BetaWeight(math.nan, 1.0),
        lambda: NormalInverseGamma(math.nan, 1.0, 2.0, 1.0),
        lambda: NormalInverseGamma(-math.inf, 1.0, 2.0, 1.0),
        lambda: NormalInverseGamma(0.0, math.inf, 2.0, 1.0),
        lambda: NormalInverseGamma(0.0, 1.0, math.inf, 1.0),
        lambda: NormalInverseGamma(0.0, 1.0, 2.0, math.inf)],
        ids=["beta-inf-alpha", "beta-inf-beta", "beta-nan-alpha", "nig-nan-mu0",
             "nig-inf-mu0", "nig-inf-kappa0", "nig-inf-alpha0", "nig-inf-beta0"])
    def test_beta_and_nig_weights_finite(self, make):
        # Beta(inf, 1) gave NaN level-set endpoints, a NaN nig mu0 NaN interval endpoints
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_valid(self):
        NormalWeight(-3.0, 2.5)
        BetaWeight(0.5, 0.5)
        NormalInverseGamma(1.0, 8.0, 2.0, 1.0)


class TestSequenceMonitor:
    def test_single_covering_interval_sets_no_flags(self):
        mon = SequenceMonitor(true_value=0.0)
        mon.update(Interval(-1.0, 1.0))
        assert not mon.contradicted and not mon.noncovered

    def test_disjoint_intervals_contradict(self):
        mon = SequenceMonitor(true_value=0.3)
        mon.update(Interval(0.2, 0.5))
        mon.update(Interval(0.6, 0.9))
        assert mon.contradicted

    def test_truth_below_lower_is_noncoverage_only(self):
        mon = SequenceMonitor(true_value=0.0)
        mon.update(Interval(0.1, 0.5))
        assert mon.noncovered and not mon.contradicted

    def test_touching_intervals_do_not_contradict(self):
        mon = SequenceMonitor(true_value=1.0)
        mon.update(Interval(0.0, 1.0))
        mon.update(Interval(1.0, 2.0))
        assert not mon.contradicted          # intersection is the point {1}
        assert not mon.noncovered

    def test_idempotent_on_repeated_interval(self):
        mon = SequenceMonitor(true_value=0.0)
        mon.update(Interval(-0.5, 0.5))
        state = (mon.max_lower, mon.min_upper, mon.contradicted, mon.noncovered)
        mon.update(Interval(-0.5, 0.5))
        assert state == (mon.max_lower, mon.min_upper, mon.contradicted, mon.noncovered)

    def test_flags_are_monotone(self):
        mon = SequenceMonitor(true_value=0.0)
        mon.update(Interval(0.2, 0.5))
        assert mon.noncovered
        mon.update(Interval(-10.0, 10.0))    # a later wide interval cannot clear it
        assert mon.noncovered


intervals = st.tuples(
    st.floats(-50, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)
).map(lambda p: Interval(p[0], p[0] + p[1]))


def _final_state(seq, truth):
    mon = SequenceMonitor(true_value=truth)
    for iv in seq:
        mon.update(iv)
    return mon


@given(st.lists(intervals, min_size=1, max_size=12),
       st.floats(-60, 60, allow_nan=False), st.randoms())
def test_flags_depend_only_on_multiset(seq, truth, rnd):
    shuffled = list(seq)
    rnd.shuffle(shuffled)
    a, b = _final_state(seq, truth), _final_state(shuffled, truth)
    assert (a.contradicted, a.noncovered) == (b.contradicted, b.noncovered)
    assert a.max_lower == b.max_lower and a.min_upper == b.min_upper


@given(st.lists(intervals, min_size=1, max_size=12), st.floats(-60, 60, allow_nan=False))
def test_contradiction_implies_noncoverage(seq, truth):
    mon = _final_state(seq, truth)
    if mon.contradicted:
        assert mon.noncovered          # an empty intersection must exclude the truth



def _half_width_at(n):
    return engine.closed_form_half_width(1.0, n, 0.0, NormalWeight(0.0, 1.0), PersistenceLevel(0.2))


@pytest.mark.parametrize("make", [
    lambda: BernoulliSuffStat(10, 3.5),
    lambda: BernoulliSuffStat(10.0, 3),
    lambda: BernoulliSuffStat(1, True),
    lambda: NormalSuffStat(2.5, 0.1),
    lambda: NormalSuffStat(True, 0.1),
    lambda: TwoSampleStat(10, 10, 3.5, 5),
    lambda: TwoSampleStat(10, 10.0, 3, 5),
    lambda: TwoSampleStat(10, 10, 3, True),
    lambda: _half_width_at(100.5),
    lambda: _half_width_at(True),
], ids=["bernoulli-float-s", "bernoulli-float-n", "bernoulli-bool-s", "normal-float-n",
        "normal-bool-n", "two-sample-float-s1", "two-sample-float-n2", "two-sample-bool-s2",
        "half-width-float-n", "half-width-bool-n"])
def test_non_integer_counts_raise(make):
    # float and bool counts once gave intervals silently (a float s1 an IndexError)
    with pytest.raises(ValueError, match="must be an integer"):
        make()


@pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint16])
def test_numpy_integer_counts_accepted(int_type):
    n, s = int_type(10), int_type(3)
    assert BernoulliSuffStat(n, s).mle == 0.3
    assert NormalSuffStat(n, 0.1).n == 10
    assert TwoSampleStat(n, n, s, s).t == 6
    assert _half_width_at(int_type(100)) == _half_width_at(100)
