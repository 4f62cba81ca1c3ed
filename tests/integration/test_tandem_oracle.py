"""Closed-form tandem oracle for a lone VL on a switch chain.

One VL crosses ``src -> S1 -> ... -> Sk -> dst``: ``k + 1`` output ports
at a uniform rate ``R``, ``k`` switches of technological latency ``L``,
frames of ``s`` bits every ``BAG``.  With no competitor the answers are
textbook formulas (the cascaded rate-latency bound of SNIPPETS.md
Snippet 1, specialised to one token bucket ``(s, r = s / BAG)``):

* NC without grouping propagates the burst hop by hop: the first port
  delays by ``D_1 = s / R`` and every switch port by
  ``D_j = (s + r * sum(D_1 .. D_{j-1})) / R + L``;
* NC with grouping (the input link serializes the burst), trajectory
  in every serialization mode and the simulator's worst observed frame
  all give the store-and-forward latency ``(k + 1) * s / R + k * L``.

These formulas are independent of the analyzers' code, so they pin
NC, trajectory and the simulator to the same numbers from outside.
They hold only below utilization 1 (``s / BAG < R``); at or above it no
busy period is finite and the analysis must refuse the chain.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import UnstableNetworkError
from repro.netcalc.analyzer import analyze_network_calculus
from repro.network import NetworkBuilder
from repro.sim import TrafficScenario, simulate
from repro.trajectory import analyze_trajectory

REL = 1e-9


def _chain(k, rate_mbps, latency_us, s_max_bytes, bag_ms):
    switches = [f"S{index}" for index in range(1, k + 1)]
    hops = ["src", *switches, "dst"]
    return (
        NetworkBuilder("tandem", rate_bits_per_us=rate_mbps, switch_latency_us=latency_us)
        .end_systems("src", "dst")
        .switches(*switches)
        .links(zip(hops, hops[1:]))
        .virtual_link(
            "v", source="src", destinations=["dst"], bag_ms=bag_ms,
            s_max_bytes=s_max_bytes, s_min_bytes=64, paths=[hops],
        )
        .build()
    )


def _burst_growth(k, rate, latency, s, bag):
    """``sum(D_j)`` of the hop-by-hop burst recursion, in microseconds."""
    r = s / bag
    delays = [s / rate]
    for _ in range(k):
        delays.append((s + r * math.fsum(delays)) / rate + latency)
    return math.fsum(delays)


@given(
    k=st.integers(1, 6),
    rate_mbps=st.sampled_from([10.0, 100.0, 1000.0]),
    latency_us=st.sampled_from([0.0, 8.0, 16.0, 40.0]),
    s_max_bytes=st.integers(64, 1518),
    bag_ms=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
)
@example(k=3, rate_mbps=100.0, latency_us=16.0, s_max_bytes=500, bag_ms=4)
@example(k=6, rate_mbps=100.0, latency_us=8.0, s_max_bytes=1518, bag_ms=2)
@settings(max_examples=25, deadline=None)
def test_lone_vl_on_a_chain_matches_closed_forms(
    k, rate_mbps, latency_us, s_max_bytes, bag_ms
):
    s = s_max_bytes * 8.0  # bits
    rate = rate_mbps  # bits per microsecond
    bag = bag_ms * 1000.0  # microseconds
    assume(s / bag < rate)  # see test_chain_without_spare_rate_is_unstable
    network = _chain(k, rate_mbps, latency_us, s_max_bytes, bag_ms)
    key = ("v", 0)

    ungrouped = analyze_network_calculus(network, grouping=False).paths[key].total_us
    assert math.isclose(
        ungrouped, _burst_growth(k, rate, latency_us, s, bag), rel_tol=REL
    )

    store_and_forward = (k + 1) * s / rate + k * latency_us
    grouped = analyze_network_calculus(network, grouping=True).paths[key].total_us
    assert math.isclose(grouped, store_and_forward, rel_tol=REL)
    for mode in ("paper", "windowed", "safe"):
        bound = analyze_trajectory(network, serialization=mode).paths[key].total_us
        assert math.isclose(bound, store_and_forward, rel_tol=REL), mode
    observed = simulate(network, TrafficScenario(duration_ms=4 * bag_ms))
    assert math.isclose(observed.paths[key].max_us, store_and_forward, rel_tol=REL)


@pytest.mark.parametrize(
    "k, latency_us, s_max_bytes, bag_ms, ungrouped_us, store_and_forward_us",
    [(3, 16.0, 500, 4, 210.89764, 208.0), (6, 8.0, 1518, 2, 1077.49219, 898.08)],
)
def test_hand_computed_chains(
    k, latency_us, s_max_bytes, bag_ms, ungrouped_us, store_and_forward_us
):
    """Two 100 Mb/s chains against totals worked out by hand."""
    network = _chain(k, 100.0, latency_us, s_max_bytes, bag_ms)
    key = ("v", 0)
    ungrouped = analyze_network_calculus(network, grouping=False).paths[key].total_us
    assert math.isclose(ungrouped, ungrouped_us, rel_tol=1e-8)
    trajectory = analyze_trajectory(network, serialization="safe").paths[key].total_us
    assert math.isclose(trajectory, store_and_forward_us, rel_tol=REL)


@pytest.mark.parametrize("s_max_bytes", [1250, 1251], ids=["utilization-1", "overloaded"])
def test_chain_without_spare_rate_is_unstable(s_max_bytes):
    """10 Mb/s, BAG 1 ms: 1250 B is utilization 1.0, 1251 B above it.

    No busy period is finite there, so trajectory refuses the chain
    (1250 B) or the network builder already does (1251 B).
    """
    with pytest.raises(UnstableNetworkError):
        analyze_trajectory(_chain(1, 10.0, 0.0, s_max_bytes, 1))
