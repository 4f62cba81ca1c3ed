"""The flat-float port kernel against the curve algebra, bit for bit.

:func:`repro.netcalc.kernel.port_bounds` replays the float operations
of ``group_arrival_curve``, ``sum_curves``, ``horizontal_deviation`` and
``vertical_deviation`` without curve objects.  Here random input-link
groups, with and without a shaping curve, go through both; delay,
backlog, and every knot, value and the final slope of the aggregate
curve must have the same ``float.hex``, and a curve the algebra
rejects must be rejected by the kernel with the same message.
"""

import math
from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.netcalc.kernel import aggregate_curve, port_bounds
from tests.netcalc.curve_grouping import group_arrival_curve
from tests.netcalc.curves import (
    LeakyBucket,
    RateLatency,
    horizontal_deviation,
    sum_curves,
    vertical_deviation,
)


class _Links:
    """The two network queries ``group_arrival_curve`` makes."""

    def __init__(self):
        self.rates = {}
        self.frames = {}

    def link_rate(self, a, b):
        return self.rates[(a, b)]

    def vl(self, name):
        return SimpleNamespace(s_max_bits=self.frames[name])


def _outcome(run):
    try:
        (delay, backlog, rate), (xs, ys, slope) = run()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (
        (delay.hex(), backlog.hex(), rate.hex()),
        ([x.hex() for x in xs], [y.hex() for y in ys], slope.hex()),
    )


def _curve_algebra(groups, rate, latency):
    """The bounds from curve objects: the NC oracle's per-port steps."""
    links = _Links()
    curves = []
    for index, (members, link_rate) in enumerate(groups):
        names = [f"g{index}m{position:02d}" for position in range(len(members))]
        buckets = {}
        for name, (member_rate, burst, frame) in zip(names, members):
            buckets[name] = LeakyBucket(rate=member_rate, burst=burst)
            links.frames[name] = frame
        if link_rate is None:
            key = (names[0],)
        else:
            key = (f"L{index}", "P")
            links.rates[key] = link_rate
        curves.append(group_arrival_curve(links, key, names, buckets, True))
    aggregate = sum_curves(curves)
    beta = RateLatency(rate=rate, latency=latency).curve()
    delay = horizontal_deviation(aggregate, beta)
    backlog = math.inf if math.isinf(delay) else vertical_deviation(aggregate, beta)
    xs = [x for x, _ in aggregate.breakpoints]
    ys = [y for _, y in aggregate.breakpoints]
    return (delay, backlog, aggregate.final_slope), (xs, ys, aggregate.final_slope)


def _kernel(groups, rate, latency):
    """The bounds from the kernel, each group folded as the analyzer folds it."""
    folded = []
    for members, link_rate in groups:
        group_rate = 0.0
        burst = 0.0
        for member_rate, member_burst, _frame in members:
            group_rate += member_rate
            burst += member_burst
        shaping = None
        if link_rate is not None:
            shaping = (link_rate, float(max(frame for _r, _b, frame in members)))
        folded.append((group_rate, burst, shaping))
    return port_bounds(folded, rate, latency), aggregate_curve(folded)


def _floats(low, high, *pinned):
    return st.one_of(
        st.sampled_from(pinned),
        st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False),
    )


_member = st.tuples(
    _floats(0.0, 200.0, 0.0, -0.0, 1.0, 12.144, 100.0),  # rate
    _floats(0.0, 2e5, 0.0, -0.0, 512.0, 12144.0),  # burst
    _floats(1.0, 2e4, 512.0, 4096.0, 12144.0),  # frame
)
_group = st.tuples(
    st.lists(_member, min_size=1, max_size=4),
    st.one_of(st.none(), _floats(1e-3, 1e4, 10.0, 100.0, 1000.0)),  # shaping rate
)

# two groups shaped by (100 bits/us, 1000 bits) whose crossings lie
# within 1e-9 of each other: the second crossing merges into the first
# knot (later) or the first knot merges into it (earlier)
_NEAR_A = ([(10.0, 2000.0, 1000.0)], 100.0)
_NEAR_LATER = ([(10.0, 2000.000000045, 1000.0)], 100.0)
_NEAR_EARLIER = ([(10.0, 1999.999999955, 1000.0)], 100.0)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    groups=st.lists(_group, min_size=0, max_size=8),
    rate=_floats(1e-3, 1e4, 10.0, 100.0, 1000.0),
    latency=_floats(0.0, 100.0, 0.0, 1e-10, 16.0),
)
# zero and negative-zero rates and bursts, shaped and unshaped
@example(
    groups=[
        ([(0.0, -0.0, 12144.0), (-0.0, 0.0, 512.0)], 100.0),
        ([(-0.0, -0.0, 512.0)], None),
        ([(0.0, 0.0, 512.0)], 100.0),
    ],
    rate=100.0,
    latency=16.0,
)
# a shaping rate within 1e-9 of the summed rate: no crossing, the
# smaller slope wins the tail
@example(
    groups=[([(100.0 - 5e-10, 4000.0, 12144.0)], 100.0), ([(1.0, 512.0, 512.0)], None)],
    rate=1000.0,
    latency=16.0,
)
@example(groups=[_NEAR_A, _NEAR_LATER], rate=1000.0, latency=16.0)
@example(groups=[_NEAR_A, _NEAR_EARLIER], rate=1000.0, latency=16.0)
@example(groups=[_NEAR_A, _NEAR_EARLIER, _NEAR_LATER], rate=1000.0, latency=0.0)
# the tail-slope pop of _concave_envelope: slopes one ulp apart, the
# crossing's rounding puts the tail above the segment; summed curve
# above the shaping curve at 0, then the other way round
@example(
    groups=[([(1774821041.1579127, 2897.386461252165, 2897.386461252163)], 1774821041.157913)],
    rate=1e10,
    latency=16.0,
)
@example(
    groups=[([(1774821041.157913, 2897.386461252163, 2897.386461252165)], 1774821041.1579127)],
    rate=1e10,
    latency=16.0,
)
# curves that meet at 0, or within 1e-9 of it: no crossing knot
@example(
    groups=[([(10.0, 1000.0, 1000.0)], 100.0), ([(10.0, 1000.000000045, 1000.0)], 100.0)],
    rate=1000.0,
    latency=16.0,
)
# an aggregate rate over R by less than 1e-9: the horizon candidate wins
@example(groups=[([(100.0 + 5e-10, 12144.0, 12144.0)], None)], rate=100.0, latency=16.0)
# latency 0, and a latency PiecewiseCurve merges into the knot at 0
@example(groups=[([(12.144, 12144.0, 12144.0)], 100.0)], rate=100.0, latency=0.0)
@example(groups=[([(12.144, 12144.0, 12144.0)], 100.0)], rate=100.0, latency=1e-10)
# no traffic, and a rate over the service rate
@example(groups=[], rate=100.0, latency=16.0)
@example(groups=[([(150.0, 12144.0, 12144.0)], None)], rate=100.0, latency=16.0)
def test_kernel_matches_the_curve_algebra(groups, rate, latency):
    expected = _outcome(lambda: _curve_algebra(groups, rate, latency))
    assert _outcome(lambda: _kernel(groups, rate, latency)) == expected


def test_near_knot_examples_merge():
    """The near-knot examples above really meet the PiecewiseCurve merge."""
    links = _Links()
    links.rates[("L", "P")] = 100.0
    curves = []
    for name, (members, _link) in zip("abc", (_NEAR_A, _NEAR_LATER, _NEAR_EARLIER)):
        (member_rate, burst, frame), = members
        links.frames[name] = frame
        buckets = {name: LeakyBucket(rate=member_rate, burst=burst)}
        curves.append(group_arrival_curve(links, ("L", "P"), [name], buckets, True))
    knots = [curve.breakpoints[1][0] for curve in curves]
    assert knots[2] < knots[0] < knots[1]
    assert knots[1] - knots[0] < 1e-9 and knots[0] - knots[2] < 1e-9
    assert [x for x, _ in sum_curves(curves[:2]).breakpoints] == [0.0, knots[0]]
    assert [x for x, _ in sum_curves(curves[::2]).breakpoints] == [0.0, knots[2]]


def test_tail_pop_example_pops():
    """The tail-pop examples above really leave min_curves one knot."""
    for (summed_rate, burst, frame), link_rate in (
        ((1774821041.1579127, 2897.386461252165, 2897.386461252163), 1774821041.157913),
        ((1774821041.157913, 2897.386461252163, 2897.386461252165), 1774821041.1579127),
    ):
        links = _Links()
        links.rates[("L", "P")] = link_rate
        links.frames["v"] = frame
        buckets = {"v": LeakyBucket(rate=summed_rate, burst=burst)}
        curve = group_arrival_curve(links, ("L", "P"), ["v"], buckets, True)
        assert len(curve.breakpoints) == 1
        assert abs(summed_rate - link_rate) > 1e-9  # the curves do cross
