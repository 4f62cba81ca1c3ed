"""Input-link grouping for Network Calculus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.grouping import arrival_groups, source_key
from repro.network import Network, VirtualLink
from tests.netcalc.curve_grouping import group_arrival_curve, port_aggregate_curve
from tests.netcalc.curves import LeakyBucket, PiecewiseCurve, min_curves, sum_curves


def buckets_for(network, port_id):
    return {
        name: LeakyBucket(
            rate=network.vl(name).rate_bits_per_us, burst=network.vl(name).s_max_bits
        )
        for name in network.vls_at_port(port_id)
    }


def test_groups_at_fan_in_port(fig2):
    # S3->e6 receives v1,v2 via S1 and v3,v4 via S2
    groups = arrival_groups(fig2, ("S3", "e6"))
    assert groups[("S1", "S3")] == frozenset({"v1", "v2"})
    assert groups[("S2", "S3")] == frozenset({"v3", "v4"})


def test_source_flows_get_singleton_groups(fig2):
    groups = arrival_groups(fig2, ("e1", "S1"))
    assert groups == {source_key("v1"): frozenset({"v1"})}


def test_group_curve_capped_by_link(fig2):
    port = ("S3", "e6")
    buckets = buckets_for(fig2, port)
    capped = group_arrival_curve(
        fig2, ("S1", "S3"), {"v1", "v2"}, buckets, grouping=True
    )
    # burst limited to one maximal frame (4000 bits), not 8000
    assert capped(0) == pytest.approx(4000.0)


def test_group_curve_plain_sum_without_grouping(fig2):
    port = ("S3", "e6")
    buckets = buckets_for(fig2, port)
    plain = group_arrival_curve(
        fig2, ("S1", "S3"), {"v1", "v2"}, buckets, grouping=False
    )
    assert plain(0) == pytest.approx(8000.0)


def test_source_groups_never_capped(fig2):
    port = ("e1", "S1")
    buckets = buckets_for(fig2, port)
    curve = group_arrival_curve(
        fig2, source_key("v1"), {"v1"}, buckets, grouping=True
    )
    assert curve(0) == pytest.approx(4000.0)
    assert curve.final_slope == pytest.approx(1.0)


def test_aggregate_grouped_below_plain(fig2):
    port = ("S3", "e6")
    buckets = buckets_for(fig2, port)
    grouped, n_grouped = port_aggregate_curve(fig2, port, buckets, grouping=True)
    plain, n_plain = port_aggregate_curve(fig2, port, buckets, grouping=False)
    assert n_grouped == n_plain == 2
    assert plain.dominates(grouped)
    assert grouped(0) < plain(0)


def test_aggregate_keeps_longterm_rate(fig2):
    port = ("S3", "e6")
    buckets = buckets_for(fig2, port)
    grouped, _ = port_aggregate_curve(fig2, port, buckets, grouping=True)
    assert grouped.final_slope == pytest.approx(4.0)  # 4 VLs x 1 bit/us


def test_multicast_fan_out_counted_once_per_output_port():
    """A multicast VL crosses several output ports of the same switch.

    Grouping must treat every branch independently: at each output port
    the VL appears in exactly one group, and the link-shaping cap only
    pools flows that genuinely crossed that group's upstream link —
    which holds by construction, because a VL has a unique upstream
    port at every node of its tree.
    """
    from repro.network import NetworkBuilder

    net = (
        NetworkBuilder("mcast")
        .switches("S1")
        .end_systems("a", "d1", "d2")
        .links([("a", "S1"), ("S1", "d1"), ("S1", "d2")])
        .virtual_link("v1", source="a", destinations=["d1", "d2"],
                      bag_ms=2, s_max_bytes=500)
        .virtual_link("v2", source="a", destinations=["d1", "d2"],
                      bag_ms=2, s_max_bytes=1000)
        .build()
    )
    for port in (("S1", "d1"), ("S1", "d2")):
        groups = arrival_groups(net, port)
        assert groups == {("a", "S1"): frozenset({"v1", "v2"})}
        members = sorted(name for g in groups.values() for name in g)
        assert members == ["v1", "v2"]  # once per output port, not per branch
        curve, n_groups = port_aggregate_curve(
            net, port, buckets_for(net, port), grouping=True
        )
        assert n_groups == 1
        # capped at one maximal frame of the shared link (1000 B = 8000 b),
        # not the 12000-bit plain sum
        assert curve(0) == pytest.approx(8000.0)


# finite non-negative magnitudes up to far beyond any link budget, with
# exact zeros (a flow with no rate, an empty burst) drawn explicitly
_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


def _fan_in_network(link_rate, frame_bytes):
    """VLs v0..vN from ES ``a`` through ``S0 -> S1`` to ES ``d``."""
    net = Network(rate_bits_per_us=link_rate, name="fold")
    net.add_end_system("a")
    net.add_end_system("d")
    net.add_switch("S0")
    net.add_switch("S1")
    net.add_link("a", "S0")
    net.add_link("S0", "S1")
    net.add_link("S1", "d")
    for index, s_max in enumerate(frame_bytes):
        net.add_virtual_link(
            VirtualLink(
                name=f"v{index}", source="a", paths=(("a", "S0", "S1", "d"),),
                bag_ms=128, s_max_bytes=s_max, s_min_bytes=64,
            )
        )
    return net


def _bits(curve):
    return [(x.hex(), y.hex()) for x, y in curve.breakpoints], curve.final_slope.hex()


@settings(max_examples=300, deadline=None)
@given(
    members=st.lists(st.tuples(_MAGNITUDES, _MAGNITUDES), min_size=1, max_size=12),
    frame_bytes=st.lists(st.integers(min_value=64, max_value=1518), min_size=12, max_size=12),
    link_rate=st.sampled_from([10.0, 100.0, 1000.0]),
    grouping=st.booleans(),
    source_key=st.booleans(),
)
def test_group_fold_equals_the_per_flow_fold(
    members, frame_bytes, link_rate, grouping, source_key
):
    """One affine curve per group is exactly the per-flow curve sum.

    The per-flow fold builds one affine curve per member and adds them
    with ``sum_curves``, then caps the sum with the link's shaping curve;
    the product folds the buckets' bursts and rates first.  Every
    breakpoint and the final slope must be equal as doubles.
    """
    net = _fan_in_network(link_rate, frame_bytes)
    names = [f"v{index}" for index in range(len(members))]
    buckets = {
        name: LeakyBucket(rate=rate, burst=burst)
        for name, (rate, burst) in zip(names, members)
    }
    key = (names[0],) if source_key else ("S0", "S1")
    if source_key:
        names, buckets = names[:1], {names[0]: buckets[names[0]]}

    got = group_arrival_curve(net, key, frozenset(names), buckets, grouping)

    expected = sum_curves(buckets[name].curve() for name in sorted(names))
    if grouping and not source_key:
        shaping = PiecewiseCurve.affine(
            link_rate, max(net.vl(name).s_max_bits for name in names)
        )
        expected = min_curves(expected, shaping)
    assert got.breakpoints == expected.breakpoints
    assert got.final_slope == expected.final_slope
    assert _bits(got) == _bits(expected)


def _two_switches(first_switch):
    """ES a, b -> ``first_switch`` -> T -> d: two 1518-B VLs at BAG 1 ms."""
    net = Network()
    for name in ("a", "b", "d"):
        net.add_end_system(name)
    net.add_switch(first_switch)
    net.add_switch("T")
    for a, b in (("a", first_switch), ("b", first_switch), (first_switch, "T"), ("T", "d")):
        net.add_link(a, b)
    for name, source in (("v1", "a"), ("v2", "b")):
        net.add_virtual_link(
            VirtualLink(
                name=name, source=source, paths=((source, first_switch, "T", "d"),),
                bag_ms=1, s_max_bytes=1518,
            )
        )
    return net


@pytest.mark.parametrize("first_switch", ["S", "source"])
def test_grouping_does_not_depend_on_node_names(first_switch):
    """Both flows reach T->d over one link, capped by its shaping curve
    whatever the upstream switch is called (a switch named ``source``
    once switched the cap off: 355.33 us)."""
    net = _two_switches(first_switch)
    assert arrival_groups(net, ("T", "d")) == {(first_switch, "T"): frozenset({"v1", "v2"})}
    port = analyze_network_calculus(net).ports[("T", "d")]
    assert port.delay_us == pytest.approx(137.44)
