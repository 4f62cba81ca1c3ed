"""LeakyBucket arrival curves."""

import pytest

from tests.netcalc.curves import LeakyBucket


def test_vl_contract_values():
    # a 500 B / 4 ms VL at the ingress: burst 4000 bits, rate 1 bit/us
    bucket = LeakyBucket(rate=1.0, burst=4000.0)
    assert bucket(0) == 4000.0
    assert bucket(4000) == 8000.0


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        LeakyBucket(rate=-1.0, burst=0.0)


def test_negative_burst_rejected():
    with pytest.raises(ValueError):
        LeakyBucket(rate=1.0, burst=-1.0)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        LeakyBucket(rate=1.0, burst=1.0)(-0.5)


def test_addition_aggregates():
    total = LeakyBucket(1.0, 4000.0) + LeakyBucket(2.0, 8000.0)
    assert total.rate == 3.0
    assert total.burst == 12000.0


def test_addition_rejects_other_types():
    with pytest.raises(TypeError):
        LeakyBucket(1.0, 1.0) + 3  # noqa: B018


def test_delayed_inflates_burst_by_rate_times_delay():
    bucket = LeakyBucket(rate=2.0, burst=1000.0)
    assert bucket.delayed(50.0) == LeakyBucket(rate=2.0, burst=1100.0)


def test_delayed_zero_is_identity():
    bucket = LeakyBucket(rate=2.0, burst=1000.0)
    assert bucket.delayed(0.0) == bucket


def test_delayed_negative_rejected():
    with pytest.raises(ValueError):
        LeakyBucket(1.0, 1.0).delayed(-1.0)


def test_curve_matches_callable():
    bucket = LeakyBucket(rate=1.5, burst=300.0)
    curve = bucket.curve()
    for t in (0.0, 1.0, 10.0, 1000.0):
        assert curve(t) == pytest.approx(bucket(t))


def test_zero_rate_bucket_is_constant():
    bucket = LeakyBucket(rate=0.0, burst=100.0)
    assert bucket(1e6) == 100.0
    assert bucket.delayed(1e6).burst == 100.0
