"""Network Calculus analyzer."""

import pytest

from repro.errors import UnstableNetworkError
from repro.netcalc import NetworkCalculusAnalyzer, analyze_network_calculus
from repro.network import NetworkBuilder
from tests.netcalc.reference_analyzer import ReferenceNetworkCalculusAnalyzer


def funnel_network(n):
    """n 1518-B VLs at BAG 1 ms, each from its own ES, into port SW->d."""
    builder = NetworkBuilder("u").switches("SW").end_systems(
        *(f"e{i}" for i in range(n)), "d"
    )
    for i in range(n):
        builder.link(f"e{i}", "SW")
    builder.link("SW", "d")
    for i in range(n):
        builder.virtual_link(
            f"v{i}", source=f"e{i}", destinations=["d"], bag_ms=1, s_max_bytes=1518
        )
    return builder.build(validate=False)


class TestSingleHop:
    def test_lone_flow_delay(self, single_switch):
        result = analyze_network_calculus(single_switch)
        # ES port: burst/R = 40 us, no latency
        assert result.ports[("a", "SW")].delay_us == pytest.approx(40.0)

    def test_switch_port_includes_latency(self, single_switch):
        result = analyze_network_calculus(single_switch)
        port = result.ports[("SW", "d")]
        # aggregate burst (both flows, distinct links, after source delay
        # inflation) / 100 + 16 us latency
        assert port.delay_us > 16.0
        assert port.n_flows == 2
        assert port.n_groups == 2

    def test_end_to_end_is_sum_of_ports(self, single_switch):
        result = analyze_network_calculus(single_switch)
        path = result.paths[("va", 0)]
        assert path.total_us == pytest.approx(sum(path.per_port_delay_us))
        assert path.total_us == pytest.approx(
            result.ports[("a", "SW")].delay_us + result.ports[("SW", "d")].delay_us
        )


class TestFig2:
    def test_paper_sample_bounds(self, fig2):
        result = analyze_network_calculus(fig2)
        # symmetric flows get identical bounds
        assert result.bound_us("v1") == pytest.approx(result.bound_us("v2"))
        assert result.bound_us("v3") == pytest.approx(result.bound_us("v4"))
        # v5 crosses the quiet e7 port: smallest bound
        assert result.bound_us("v5") < result.bound_us("v1") < result.bound_us("v3")

    def test_grouping_never_hurts(self, fig2):
        grouped = analyze_network_calculus(fig2, grouping=True)
        plain = analyze_network_calculus(fig2, grouping=False)
        for key in grouped.paths:
            assert grouped.paths[key].total_us <= plain.paths[key].total_us + 1e-9

    def test_backlog_positive_everywhere(self, fig2):
        result = analyze_network_calculus(fig2)
        for port in result.ports.values():
            assert port.backlog_bits > 0

    def test_worst_path(self, fig2):
        result = analyze_network_calculus(fig2)
        assert result.worst_path().total_us == max(
            p.total_us for p in result.paths.values()
        )

    def test_total_buffer(self, fig2):
        result = analyze_network_calculus(fig2)
        assert result.total_buffer_bits() == pytest.approx(
            sum(p.backlog_bits for p in result.ports.values())
        )

    def test_result_cached(self, fig2):
        analyzer = NetworkCalculusAnalyzer(fig2)
        assert analyzer.analyze() is analyzer.analyze()


class TestOverheads:
    def test_frame_overhead_increases_bounds(self, fig2):
        bare = analyze_network_calculus(fig2)
        wire = analyze_network_calculus(fig2, frame_overhead_bytes=20)
        for key in bare.paths:
            assert wire.paths[key].total_us > bare.paths[key].total_us

    def test_negative_overhead_rejected(self, fig2):
        with pytest.raises(ValueError):
            NetworkCalculusAnalyzer(fig2, frame_overhead_bytes=-1)


class TestStability:
    def test_unstable_network_raises(self):
        with pytest.raises(UnstableNetworkError):
            analyze_network_calculus(funnel_network(11))

    @pytest.mark.parametrize("grouping", [True, False])
    @pytest.mark.parametrize(
        "analyze",
        [
            analyze_network_calculus,
            lambda net, **kw: ReferenceNetworkCalculusAnalyzer(net, **kw).analyze(),
        ],
        ids=["product", "oracle"],
    )
    def test_port_without_finite_bound(self, analyze, grouping):
        # utilization 8 x 12144 bits / 1000 us / 100 = 0.97 passes the
        # gate (CFG102 counts bare frames); 100 B of overhead per frame
        # lift the aggregate to 8 x 12.944 bits/us, over the link rate
        network = funnel_network(8)
        with pytest.raises(UnstableNetworkError) as info:
            analyze(network, grouping=grouping, frame_overhead_bytes=100)
        assert type(info.value) is UnstableNetworkError
        assert str(info.value) == (
            "no finite delay bound at port SW->d: aggregate long-term rate "
            "103.552 bits/us exceeds the link rate 100.000"
        )


class TestMulticast:
    def test_multicast_paths_each_bounded(self, fig1):
        result = analyze_network_calculus(fig1)
        assert ("v6", 0) in result.paths
        assert ("v6", 1) in result.paths
        # shared prefix, different tails -> different totals possible
        assert result.paths[("v6", 0)].node_path[-1] == "e7"
        assert result.paths[("v6", 1)].node_path[-1] == "e8"

    def test_shared_prefix_port_delays_match(self, fig1):
        result = analyze_network_calculus(fig1)
        first = result.paths[("v6", 0)]
        second = result.paths[("v6", 1)]
        # both paths start with the same two ports (e1->S1, S1->S3)
        assert first.port_ids[0] == second.port_ids[0]
        assert first.per_port_delay_us[0] == second.per_port_delay_us[0]
