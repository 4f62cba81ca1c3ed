"""Property-based tests of the min-plus algebra (hypothesis)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tests.netcalc.curves import (
    PiecewiseCurve,
    RateLatency,
    add_curves,
    deconvolve,
    horizontal_deviation,
    min_curves,
    vertical_deviation,
)

rates = st.floats(min_value=0.01, max_value=90.0)
bursts = st.floats(min_value=0.0, max_value=20000.0)
latencies = st.floats(min_value=0.0, max_value=100.0)
times = st.floats(min_value=0.0, max_value=10000.0)


@st.composite
def concave_curves(draw):
    """Random concave curve: min of 1-3 affine curves."""
    n = draw(st.integers(min_value=1, max_value=3))
    curve = PiecewiseCurve.affine(draw(rates), draw(bursts))
    for _ in range(n - 1):
        curve = min_curves(curve, PiecewiseCurve.affine(draw(rates), draw(bursts)))
    return curve


@given(concave_curves(), concave_curves(), times)
@settings(max_examples=60)
def test_add_is_pointwise(a, b, t):
    assert add_curves(a, b)(t) == pytest.approx(a(t) + b(t), rel=1e-6, abs=1e-6)


@given(concave_curves(), concave_curves(), times)
@settings(max_examples=60)
def test_min_is_pointwise_lower_bound(a, b, t):
    low = min_curves(a, b)
    assert low(t) <= min(a(t), b(t)) + 1e-6
    assert low(t) >= min(a(t), b(t)) - 1e-6


@given(concave_curves(), concave_curves())
@settings(max_examples=60)
def test_min_preserves_concavity(a, b):
    assert min_curves(a, b).is_concave()


@given(concave_curves(), concave_curves())
@settings(max_examples=60)
def test_add_preserves_concavity(a, b):
    assert add_curves(a, b).is_concave()


@given(concave_curves(), latencies)
@settings(max_examples=60)
def test_hdev_definition(alpha, latency):
    """alpha(t) <= beta(t + h) for every t — h really is a delay bound."""
    beta_obj = RateLatency(100.0, latency)
    beta = beta_obj.curve()
    h = horizontal_deviation(alpha, beta)
    for t in [0.0, 1.0, 10.0, 100.0, 1000.0] + [x for x, _ in alpha.breakpoints]:
        assert alpha(t) <= beta(t + h) + 1e-6


@given(concave_curves(), latencies)
@settings(max_examples=60)
def test_vdev_definition(alpha, latency):
    """alpha(t) - beta(t) <= v at every breakpoint."""
    beta = RateLatency(100.0, latency).curve()
    v = vertical_deviation(alpha, beta)
    for t in [0.0, 1.0, 10.0, 100.0, 1000.0] + [x for x, _ in alpha.breakpoints]:
        assert alpha(t) - beta(t) <= v + 1e-6


@given(concave_curves(), latencies)
@settings(max_examples=60)
def test_hdev_increases_with_latency(alpha, latency):
    beta_low = RateLatency(100.0, latency).curve()
    beta_high = RateLatency(100.0, latency + 10.0).curve()
    assert horizontal_deviation(alpha, beta_high) >= horizontal_deviation(alpha, beta_low) - 1e-9


@given(concave_curves(), latencies)
@settings(max_examples=60)
def test_deconvolve_dominates_input(alpha, latency):
    out = deconvolve(alpha, RateLatency(100.0, latency))
    assert out.dominates(alpha, tol=1e-5)


@given(concave_curves(), latencies)
@settings(max_examples=60)
def test_deconvolve_keeps_long_term_rate(alpha, latency):
    out = deconvolve(alpha, RateLatency(100.0, latency))
    assert out.final_slope == pytest.approx(alpha.final_slope)
