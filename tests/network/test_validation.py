"""Whole-configuration validation: the verifier's rules on built networks.

:func:`check_network` is the library gate every analyzer runs; the
:class:`ConfigVerifier` report carries the same rules' findings.
"""

import pytest

from repro.errors import ConfigurationError, UnstableNetworkError
from repro.network import Network, NetworkBuilder, VirtualLink
from repro.network.preflight import ConfigVerifier, check_network


def overload_network(bag_ms=1, s_max_bytes=1518, n=10):
    """n VLs from separate sources funnelled into one 100 Mb/s port."""
    builder = NetworkBuilder("overload").switches("SW").end_systems(
        *(f"e{i}" for i in range(n)), "d"
    )
    for i in range(n):
        builder.link(f"e{i}", "SW")
    builder.link("SW", "d")
    for i in range(n):
        builder.virtual_link(
            f"v{i}", source=f"e{i}", destinations=["d"], bag_ms=bag_ms,
            s_max_bytes=s_max_bytes,
        )
    return builder.build(validate=False)


def _rules(report, severity="errors"):
    return {f.rule_id for f in getattr(report, severity)}


def test_valid_network_passes(fig2):
    report = ConfigVerifier().verify_network(fig2)
    assert report.ok
    assert not report.errors
    check_network(fig2)


def test_overloaded_port_detected():
    # 10 x 1518 B / 1 ms = ~121 bits/us > 100 bits/us
    report = ConfigVerifier().verify_network(overload_network())
    assert not report.ok
    assert _rules(report) == {"CFG102"}
    assert report.stability_only


def test_check_network_raises_unstable():
    with pytest.raises(UnstableNetworkError, match="CFG102"):
        check_network(overload_network())


def test_saturated_port_is_unstable():
    # 10 x 1250 B / 1 ms = exactly 100 bits/us: utilization 1.0 has no
    # finite busy period, whatever port it is on
    network = overload_network(s_max_bytes=1250)
    assert network.port_utilization(("SW", "d")) == 1.0
    with pytest.raises(UnstableNetworkError, match="CFG102"):
        check_network(network)


def test_utilization_warning_margin():
    # 8 x 1330 B / 1 ms = ~85 bits/us: feasible but above the 0.75 margin
    net = overload_network(bag_ms=1, s_max_bytes=1330, n=8)
    report = ConfigVerifier().verify_network(net)
    assert report.ok
    assert _rules(report, "warnings") == {"CFG103"}
    check_network(net)  # a warning never raises


def test_unwired_end_system_is_an_error():
    net = Network()
    net.add_end_system("lonely")
    report = ConfigVerifier().verify_network(net)
    assert _rules(report) == {"CFG109"}
    with pytest.raises(ConfigurationError, match="CFG109"):
        check_network(net)


def test_multicast_rejoin_detected():
    net = Network()
    for name in ("S1", "S2", "S3"):
        net.add_switch(name)
    net.add_end_system("e1")
    net.add_end_system("e2")
    net.add_link("e1", "S1")
    net.add_link("S1", "S2")
    net.add_link("S1", "S3")
    net.add_link("S2", "e2")
    net.add_end_system("e3")
    net.add_link("S2", "S3")
    net.add_link("S3", "e3")
    # path 1 reaches S3 via S2, path 2 goes S1->S3 directly: they fork
    # at S1 and re-join at S3 -> not a tree
    rejoining = VirtualLink(
        name="vx",
        source="e1",
        paths=(("e1", "S1", "S2", "S3", "e3"), ("e1", "S1", "S3", "e3")),
        bag_ms=4,
        s_max_bytes=500,
    )
    net.add_virtual_link(rejoining)
    assert _rules(ConfigVerifier().verify_network(net)) == {"CFG108"}
    with pytest.raises(ConfigurationError, match="CFG108"):
        check_network(net)


def test_check_network_raises_configuration_error():
    net = Network()
    net.add_switch("S1")
    net.add_switch("S2")
    net.add_end_system("e1")
    net.add_link("e1", "S1")
    net.add_link("S1", "S2")
    net.add_end_system("e2")
    net.add_end_system("e3")
    net.add_link("e2", "S2")
    net.add_link("e3", "S2")
    vl = VirtualLink(
        name="v1",
        source="e1",
        paths=(("e1", "S1", "S2", "e2"), ("e1", "S1", "S2", "e3")),
        bag_ms=4,
        s_max_bytes=100,
    )
    net.add_virtual_link(vl)
    check_network(net)  # a proper tree passes
    # a structural error next to an overload is a configuration error,
    # not an unstable network, and the message names the first rule
    net.add_end_system("e4")
    for index in range(10):
        net.add_virtual_link(
            VirtualLink(
                name=f"w{index}", source="e2", paths=(("e2", "S2", "e3"),),
                bag_ms=1, s_max_bytes=1518,
            )
        )
    with pytest.raises(ConfigurationError, match=r"^CFG102: .*\(and 2 more error") as info:
        check_network(net)
    assert not isinstance(info.value, UnstableNetworkError)


def test_admission_rules_bind_files_only():
    # a BAG of 3 ms and a 2000 B frame break ARINC 664 (CFG104, CFG105)
    # but leave every bound finite: networks built in code may use them
    net = (
        NetworkBuilder("sweep").switches("S1").end_systems("e1", "e2")
        .link("e1", "S1").link("S1", "e2")
        .virtual_link("v1", source="e1", destinations=["e2"], bag_ms=3,
                      s_max_bytes=2000)
        .build()
    )
    assert _rules(ConfigVerifier().verify_network(net)) == {"CFG104", "CFG105"}


def test_port_utilization_reported(fig2):
    report = ConfigVerifier().verify_network(fig2)
    assert report.port_utilization[("S3", "e6")] == pytest.approx(0.04)


class TestGatePass:
    """A pass of the gate's rules at the gate's limit is kept on the
    network until its next mutation; :func:`check_network` then judges
    nothing."""

    @pytest.fixture
    def rule_runs(self, monkeypatch):
        runs = []
        check = ConfigVerifier._check_bound_preconditions

        def counted(self, network, report):
            runs.append(self.max_utilization)
            return check(self, network, report)

        monkeypatch.setattr(ConfigVerifier, "_check_bound_preconditions", counted)
        return runs

    def test_verified_network_is_not_judged_again(self, rule_runs):
        # 8 x 1330 B / 1 ms: a CFG103 warning, no error
        net = overload_network(s_max_bytes=1330, n=8)
        assert ConfigVerifier().verify_network(net).ok
        check_network(net)
        check_network(net)
        assert rule_runs == [1.0]

    def test_stricter_limit_keeps_no_pass(self, rule_runs):
        net = overload_network(s_max_bytes=1000, n=8)  # utilization 0.64
        assert ConfigVerifier(max_utilization=0.9).verify_network(net).ok
        assert not net._gate_passed
        check_network(net)
        assert rule_runs == [0.9, 1.0]
        assert net._gate_passed

    def test_failed_rules_keep_no_pass(self, rule_runs):
        net = overload_network()
        assert not ConfigVerifier().verify_network(net).ok
        assert not net._gate_passed
        with pytest.raises(UnstableNetworkError):
            check_network(net)

    def test_other_errors_do_not_void_the_pass(self):
        # an admission error (CFG104) binds files only: the gate passed
        net = overload_network(bag_ms=3, s_max_bytes=100, n=2)
        report = ConfigVerifier().verify_network(net)
        assert {f.rule_id for f in report.errors} == {"CFG104"}
        assert net._gate_passed

    def test_mutation_drops_the_pass(self):
        net = overload_network(s_max_bytes=1250, n=8)  # utilization 0.8
        check_network(net)
        assert net._gate_passed
        assert not net.copy()._gate_passed
        # two more 1250 B flows saturate the port: utilization 1.0
        for index in (8, 9):
            net.add_end_system(f"e{index}")
            net.add_link(f"e{index}", "SW")
            net.add_virtual_link(
                VirtualLink(
                    name=f"v{index}", source=f"e{index}", paths=((f"e{index}", "SW", "d"),),
                    bag_ms=1, s_max_bytes=1250,
                )
            )
            assert not net._gate_passed
        with pytest.raises(UnstableNetworkError, match="CFG102"):
            check_network(net)

    def test_removal_drops_the_pass(self):
        net = overload_network(s_max_bytes=1000, n=8)
        check_network(net)
        net.remove_virtual_link("v0")
        assert not net._gate_passed
