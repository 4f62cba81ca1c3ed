"""RateLatency service curves."""

import pytest

from tests.netcalc.curves import RateLatency


def test_afdx_port_service():
    beta = RateLatency(rate=100.0, latency=16.0)
    assert beta(16.0) == 0.0
    assert beta(17.0) == pytest.approx(100.0)
    assert beta(0.0) == 0.0


def test_zero_latency():
    beta = RateLatency(rate=100.0, latency=0.0)
    assert beta(1.0) == 100.0


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        RateLatency(rate=0.0, latency=1.0)


def test_latency_must_be_nonnegative():
    with pytest.raises(ValueError):
        RateLatency(rate=1.0, latency=-1.0)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        RateLatency(1.0, 0.0)(-1.0)


def test_convolution_concatenates_ports():
    first = RateLatency(rate=100.0, latency=16.0)
    second = RateLatency(rate=80.0, latency=10.0)
    series = first.convolve(second)
    assert series.rate == 80.0
    assert series.latency == 26.0


def test_convolution_is_commutative():
    a = RateLatency(100.0, 16.0)
    b = RateLatency(50.0, 3.0)
    assert a.convolve(b) == b.convolve(a)


def test_curve_matches_callable():
    beta = RateLatency(rate=100.0, latency=16.0)
    curve = beta.curve()
    for t in (0.0, 10.0, 16.0, 20.0, 500.0):
        assert curve(t) == pytest.approx(beta(t))
