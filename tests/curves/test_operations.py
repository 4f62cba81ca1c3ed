"""Min-plus operations: sums, minima, deviations, deconvolution."""

import math

import pytest

from tests.netcalc.curves import (
    LeakyBucket,
    PiecewiseCurve,
    RateLatency,
    add_curves,
    deconvolve,
    horizontal_deviation,
    min_curves,
    sum_curves,
    vertical_deviation,
)


class TestAdd:
    def test_two_affine(self):
        total = add_curves(
            PiecewiseCurve.affine(1.0, 4000.0), PiecewiseCurve.affine(2.0, 1000.0)
        )
        assert total(0) == 5000.0
        assert total.final_slope == 3.0

    def test_sum_empty_is_zero(self):
        assert sum_curves([]).equals(PiecewiseCurve.zero())

    def test_sum_many(self):
        curves = [PiecewiseCurve.affine(1.0, 100.0) for _ in range(10)]
        total = sum_curves(curves)
        assert total(0) == 1000.0
        assert total.final_slope == 10.0

    def test_add_merges_breakpoints(self):
        a = PiecewiseCurve([(0.0, 0.0), (5.0, 50.0)], 1.0)
        b = PiecewiseCurve([(0.0, 0.0), (3.0, 3.0)], 0.0)
        total = add_curves(a, b)
        assert total(3.0) == pytest.approx(33.0)
        assert total(5.0) == pytest.approx(53.0)


class TestMin:
    def test_grouping_cap(self):
        # two flows of burst 4000 each, capped by the link shaping curve
        summed = add_curves(
            PiecewiseCurve.affine(1.0, 4000.0), PiecewiseCurve.affine(1.0, 4000.0)
        )
        shaping = PiecewiseCurve.affine(100.0, 4000.0)
        capped = min_curves(summed, shaping)
        assert capped(0) == 4000.0  # burst limited to one max frame
        # far out, the sustained rates dominate
        assert capped.final_slope == 2.0

    def test_min_of_concave_is_concave(self):
        a = PiecewiseCurve.affine(1.0, 8000.0)
        b = PiecewiseCurve.affine(100.0, 1500.0)
        assert min_curves(a, b).is_concave()

    def test_min_is_pointwise(self):
        a = PiecewiseCurve.affine(1.0, 8000.0)
        b = PiecewiseCurve.affine(100.0, 1500.0)
        low = min_curves(a, b)
        for t in (0.0, 10.0, 65.0, 66.0, 100.0, 1000.0):
            assert low(t) == pytest.approx(min(a(t), b(t)))

    def test_min_commutative(self):
        a = PiecewiseCurve.affine(3.0, 100.0)
        b = PiecewiseCurve.affine(1.0, 500.0)
        assert min_curves(a, b).equals(min_curves(b, a))

    def test_min_with_self_is_identity(self):
        a = PiecewiseCurve.affine(3.0, 100.0)
        assert min_curves(a, a).equals(a)


class TestHorizontalDeviation:
    def test_textbook_affine_vs_rate_latency(self):
        # h(gamma_{r,b}, beta_{R,T}) = T + b/R for r <= R
        alpha = PiecewiseCurve.affine(1.0, 4000.0)
        beta = RateLatency(100.0, 16.0).curve()
        assert horizontal_deviation(alpha, beta) == pytest.approx(16.0 + 40.0)

    def test_unstable_returns_inf(self):
        alpha = PiecewiseCurve.affine(200.0, 0.0)
        beta = RateLatency(100.0, 0.0).curve()
        assert math.isinf(horizontal_deviation(alpha, beta))

    def test_equal_rates_is_finite(self):
        alpha = PiecewiseCurve.affine(100.0, 4000.0)
        beta = RateLatency(100.0, 16.0).curve()
        assert horizontal_deviation(alpha, beta) == pytest.approx(56.0)

    def test_zero_arrival(self):
        beta = RateLatency(100.0, 16.0).curve()
        assert horizontal_deviation(PiecewiseCurve.zero(), beta) == 0.0

    def test_capped_group_curve(self):
        # grouped aggregate: initial slope at link rate, then sustained
        group = min_curves(
            add_curves(
                PiecewiseCurve.affine(1.0, 6000.0), PiecewiseCurve.affine(1.0, 6000.0)
            ),
            PiecewiseCurve.affine(100.0, 4000.0),
        )
        beta = RateLatency(100.0, 16.0).curve()
        delay = horizontal_deviation(group, beta)
        # must be between the single-frame and the naive two-burst delay
        assert 16.0 + 40.0 <= delay <= 16.0 + 120.0


class TestVerticalDeviation:
    def test_textbook_backlog(self):
        # v(gamma_{r,b}, beta_{R,T}) = b + r T for r <= R
        alpha = PiecewiseCurve.affine(1.0, 4000.0)
        beta = RateLatency(100.0, 16.0).curve()
        assert vertical_deviation(alpha, beta) == pytest.approx(4016.0)

    def test_unstable_returns_inf(self):
        alpha = PiecewiseCurve.affine(200.0, 0.0)
        beta = RateLatency(100.0, 0.0).curve()
        assert math.isinf(vertical_deviation(alpha, beta))

    def test_backlog_at_least_burst(self):
        alpha = PiecewiseCurve.affine(0.5, 12000.0)
        beta = RateLatency(100.0, 16.0).curve()
        assert vertical_deviation(alpha, beta) >= 12000.0


class TestDeconvolve:
    def test_textbook_affine(self):
        # gamma_{r,b} (/) beta_{R,T} = gamma_{r, b + rT}
        alpha = PiecewiseCurve.affine(2.0, 1000.0)
        out = deconvolve(alpha, RateLatency(100.0, 16.0))
        expected = PiecewiseCurve.affine(2.0, 1000.0 + 2.0 * 16.0)
        assert out.equals(expected)

    def test_requires_concave(self):
        convex = PiecewiseCurve.rate_latency(100.0, 16.0)
        with pytest.raises(ValueError, match="concave"):
            deconvolve(convex, RateLatency(100.0, 0.0))

    def test_unstable_rejected(self):
        alpha = PiecewiseCurve.affine(200.0, 0.0)
        with pytest.raises(ValueError, match="exceeds"):
            deconvolve(alpha, RateLatency(100.0, 0.0))

    def test_steep_initial_segment(self):
        # group curve whose first segment runs at the link rate
        alpha = min_curves(
            PiecewiseCurve.affine(100.0, 1000.0),
            PiecewiseCurve.affine(1.0, 9000.0),
        )
        out = deconvolve(alpha, RateLatency(100.0, 10.0))
        # output dominates the input (a causal system can only spread traffic)
        assert out.dominates(alpha)
        assert out.final_slope == pytest.approx(alpha.final_slope)

    def test_output_dominates_input(self):
        alpha = PiecewiseCurve.affine(3.0, 500.0)
        out = deconvolve(alpha, RateLatency(10.0, 5.0))
        assert out.dominates(alpha)


class TestConcaveEnvelope:
    """min_curves must stay concave even when a crossing lands within
    floating-point noise of an existing knot (hypothesis-found
    regression: the micro-segment between the two near-equal x values
    got a garbage slope and is_concave() failed)."""

    def test_crossing_adjacent_to_knot_stays_concave(self):
        from tests.netcalc.curves import PiecewiseCurve

        f = PiecewiseCurve.affine(1.0, 100.0)  # 100 + t
        # crosses f a couple of 1e-7 before its own knot at x ~= 100
        g = PiecewiseCurve([(0.0, 0.0), (100.0 - 1e-7, 200.0000001)], 0.5)
        assert f.is_concave() and g.is_concave()
        low = min_curves(f, g)
        assert low.is_concave()
        # and it is still the pointwise minimum
        for t in (0.0, 50.0, 99.9999, 100.0, 150.0):
            assert low(t) == pytest.approx(min(f(t), g(t)), abs=1e-6)

    def test_crossing_within_knot_tolerance_stays_concave(self):
        from tests.netcalc.curves import PiecewiseCurve

        # hypothesis-found: f crosses g ~1e-9 after x = 0, closer than
        # the tolerance at which PiecewiseCurve merges two knots
        f = PiecewiseCurve([(0.0, 5.960464477539063e-08)], 1.0)
        g = PiecewiseCurve([(0.0, 0.0), (1 / 60, 1 / 60 + 1.0)], 1.0)
        low = min_curves(f, g)
        assert low.is_concave()
        for t in (0.0, 1e-9, 0.01, 1 / 60, 1.0):
            assert low(t) == pytest.approx(min(f(t), g(t)), abs=1e-6)
            assert low(t) >= min(f(t), g(t)) - 1e-12

    def test_envelope_merges_points_within_tolerance(self):
        from tests.netcalc.curves.operations import _concave_envelope

        close = [(0.0, 0.0), (5e-10, 6e-8), (1.0, 1.0 + 5e-8)]
        assert _concave_envelope(close, 1.0) == [(0.0, 6e-8)]

    def test_envelope_drops_noise_point(self):
        from tests.netcalc.curves.operations import _concave_envelope

        noisy = [(0.0, 0.0), (10.0, 100.0), (10.0 + 1e-7, 100.0 - 1e-9),
                 (20.0, 105.0)]
        cleaned = _concave_envelope(noisy, 0.1)
        assert cleaned == [(0.0, 0.0), (10.0, 100.0), (20.0, 105.0)]

    def test_envelope_respects_tail_slope(self):
        from tests.netcalc.curves.operations import _concave_envelope

        # last sampled point dips below: the 2.0 tail slope would make
        # slopes increase again, so the dip must be dropped
        dipping = [(0.0, 0.0), (10.0, 100.0), (10.0 + 1e-7, 100.0 - 1e-9)]
        assert _concave_envelope(dipping, 2.0) == [(0.0, 0.0), (10.0, 100.0)]


class TestMergeKnots:
    """The linear merge must be bit-identical to ``sorted(set|set)``."""

    def test_matches_set_union_on_random_ascending_lists(self):
        import random

        from tests.netcalc.curves.operations import _merge_knots

        rng = random.Random(99)
        for _ in range(200):
            pool = sorted({rng.uniform(0, 100) for _ in range(rng.randrange(0, 12))})
            a = sorted(rng.sample(pool, rng.randint(0, len(pool))))
            b = sorted(rng.sample(pool, rng.randint(0, len(pool))))
            assert _merge_knots(a, b) == sorted(set(a) | set(b))

    def test_empty_and_duplicate_edges(self):
        from tests.netcalc.curves.operations import _merge_knots

        assert _merge_knots([], []) == []
        assert _merge_knots([1.0], []) == [1.0]
        assert _merge_knots([], [2.0]) == [2.0]
        assert _merge_knots([1.0, 2.0], [1.0, 2.0]) == [1.0, 2.0]
        # -0.0 == 0.0: collapses exactly like the set did
        assert _merge_knots([-0.0], [0.0]) == sorted({-0.0} | {0.0})
