"""PiecewiseCurve: construction, evaluation, shape predicates."""

import pytest

from tests.netcalc.curves import PiecewiseCurve


class TestConstruction:
    def test_affine(self):
        curve = PiecewiseCurve.affine(rate=2.0, burst=10.0)
        assert curve.burst == 10.0
        assert curve.final_slope == 2.0

    def test_rate_latency(self):
        curve = PiecewiseCurve.rate_latency(rate=100.0, latency=16.0)
        assert curve(0) == 0.0
        assert curve(16) == 0.0
        assert curve(17) == pytest.approx(100.0)

    def test_rate_latency_zero_latency(self):
        curve = PiecewiseCurve.rate_latency(rate=100.0, latency=0.0)
        assert curve(1) == 100.0

    def test_zero(self):
        curve = PiecewiseCurve.zero()
        assert curve(0) == 0.0
        assert curve(1e9) == 0.0

    def test_requires_breakpoint_at_zero(self):
        with pytest.raises(ValueError, match="x=0"):
            PiecewiseCurve([(1.0, 5.0)], 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            PiecewiseCurve([], 1.0)

    def test_rejects_decreasing_y(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseCurve([(0.0, 5.0), (1.0, 3.0)], 1.0)

    def test_rejects_negative_final_slope(self):
        with pytest.raises(ValueError, match="final slope"):
            PiecewiseCurve([(0.0, 0.0)], -1.0)

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError, match="increase"):
            PiecewiseCurve([(0.0, 0.0), (2.0, 2.0), (1.0, 3.0)], 1.0)

    def test_duplicate_x_deduped(self):
        curve = PiecewiseCurve([(0.0, 1.0), (0.0, 2.0), (3.0, 5.0)], 1.0)
        assert curve(0) == 2.0


class TestEvaluation:
    def test_interpolation(self):
        curve = PiecewiseCurve([(0.0, 0.0), (10.0, 100.0)], 5.0)
        assert curve(5) == 50.0

    def test_beyond_last_breakpoint(self):
        curve = PiecewiseCurve([(0.0, 0.0), (10.0, 100.0)], 5.0)
        assert curve(12) == 110.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseCurve.zero()(-1.0)

    def test_many_breakpoints_binary_search(self):
        points = [(float(i), float(i * i)) for i in range(50)]
        curve = PiecewiseCurve(points, 100.0)
        assert curve(7.0) == 49.0
        assert curve(7.5) == pytest.approx((49 + 64) / 2)


class TestShape:
    def test_affine_is_concave_and_convex(self):
        curve = PiecewiseCurve.affine(1.0, 5.0)
        assert curve.is_concave()
        assert curve.is_convex()

    def test_rate_latency_is_convex_not_concave(self):
        curve = PiecewiseCurve.rate_latency(100.0, 16.0)
        assert curve.is_convex()
        assert not curve.is_concave()

    def test_concave_two_segment(self):
        curve = PiecewiseCurve([(0.0, 10.0), (5.0, 60.0)], 2.0)  # slopes 10, 2
        assert curve.is_concave()
        assert not curve.is_convex()

    def test_slopes(self):
        curve = PiecewiseCurve([(0.0, 0.0), (2.0, 20.0)], 3.0)
        assert curve.slopes() == [10.0, 3.0]

    def test_max_slope(self):
        curve = PiecewiseCurve([(0.0, 0.0), (2.0, 20.0)], 3.0)
        assert curve.max_slope() == 10.0


class TestInverse:
    def test_inverse_on_segment(self):
        curve = PiecewiseCurve([(0.0, 0.0), (10.0, 100.0)], 1.0)
        assert curve.inverse(50.0) == 5.0

    def test_inverse_below_burst_is_zero(self):
        curve = PiecewiseCurve.affine(1.0, 10.0)
        assert curve.inverse(5.0) == 0.0

    def test_inverse_beyond_last_breakpoint(self):
        curve = PiecewiseCurve([(0.0, 0.0), (10.0, 10.0)], 2.0)
        assert curve.inverse(20.0) == 15.0

    def test_inverse_flat_tail_raises(self):
        curve = PiecewiseCurve([(0.0, 0.0), (10.0, 10.0)], 0.0)
        with pytest.raises(ValueError, match="never reaches"):
            curve.inverse(11.0)

    def test_inverse_of_flat_segment_takes_right_edge(self):
        curve = PiecewiseCurve([(0.0, 0.0), (5.0, 0.0)], 100.0)  # rate-latency
        assert curve.inverse(0.0) == 0.0


class TestComparison:
    def test_equals_same_curve_different_breakpoints(self):
        a = PiecewiseCurve([(0.0, 0.0), (10.0, 10.0)], 1.0)
        b = PiecewiseCurve([(0.0, 0.0), (4.0, 4.0), (10.0, 10.0)], 1.0)
        assert a.equals(b)

    def test_not_equals_different_tail(self):
        a = PiecewiseCurve([(0.0, 0.0)], 1.0)
        b = PiecewiseCurve([(0.0, 0.0)], 2.0)
        assert not a.equals(b)

    def test_dominates(self):
        low = PiecewiseCurve.affine(1.0, 5.0)
        high = PiecewiseCurve.affine(1.0, 10.0)
        assert high.dominates(low)
        assert not low.dominates(high)

    def test_dominates_requires_tail_dominance(self):
        slow = PiecewiseCurve.affine(1.0, 100.0)
        fast = PiecewiseCurve.affine(5.0, 0.0)
        assert not slow.dominates(fast)

    def test_repr_mentions_breakpoints(self):
        assert "final_slope" in repr(PiecewiseCurve.affine(1.0, 2.0))
