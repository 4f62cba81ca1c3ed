"""Network container: wiring rules, port queries, utilization."""

import pickle

import pytest

from repro.errors import (
    DuplicateNameError,
    InvalidTopologyError,
    InvalidVirtualLinkError,
    UnknownNodeError,
)
from repro.incremental.edits import RemoveVL, RerouteVL, apply_edits
from repro.incremental.fingerprint import network_fingerprint
from repro.network import Network, VirtualLink
from repro.network.port_graph import port_successors
from repro.trajectory.timing import tree_prefixes


@pytest.fixture
def net():
    network = Network(name="t")
    network.add_end_system("e1")
    network.add_end_system("e2")
    network.add_switch("S1")
    network.add_switch("S2")
    network.add_link("e1", "S1")
    network.add_link("S1", "S2")
    network.add_link("S2", "e2")
    return network


def vl(name="v1", paths=(("e1", "S1", "S2", "e2"),), **kw):
    fields = dict(name=name, source="e1", paths=paths, bag_ms=4, s_max_bytes=500)
    fields.update(kw)
    return VirtualLink(**fields)


class TestWiring:
    def test_duplicate_node_rejected(self, net):
        with pytest.raises(DuplicateNameError):
            net.add_switch("S1")

    def test_link_to_unknown_node(self, net):
        with pytest.raises(UnknownNodeError):
            net.add_link("e1", "S9")

    def test_self_link_rejected(self, net):
        with pytest.raises(InvalidTopologyError):
            net.add_link("S1", "S1")

    def test_parallel_link_rejected(self, net):
        with pytest.raises(InvalidTopologyError, match="already exists"):
            net.add_link("S1", "e1")

    def test_es_to_es_link_rejected(self, net):
        with pytest.raises(InvalidTopologyError, match="exactly one switch"):
            net.add_link("e1", "e2")

    def test_second_es_link_rejected(self, net):
        with pytest.raises(InvalidTopologyError, match="already has a link"):
            net.add_link("e1", "S2")

    def test_nonpositive_rate_rejected(self, net):
        net.add_end_system("e3")
        with pytest.raises(ValueError):
            net.add_link("e3", "S1", rate_bits_per_us=0.0)

    def test_has_link_symmetric(self, net):
        assert net.has_link("e1", "S1")
        assert net.has_link("S1", "e1")
        assert not net.has_link("e1", "S2")

    def test_link_rate_default(self, net):
        assert net.link_rate("S1", "S2") == 100.0

    def test_link_rate_override(self):
        network = Network()
        network.add_switch("S1")
        network.add_switch("S2")
        network.add_link("S1", "S2", rate_bits_per_us=1000.0)
        assert network.link_rate("S2", "S1") == 1000.0

    def test_neighbors(self, net):
        assert net.neighbors("S1") == {"e1", "S2"}

    def test_links_listing(self, net):
        assert len(net.links()) == 3


class TestVirtualLinks:
    def test_add_and_lookup(self, net):
        net.add_virtual_link(vl())
        assert net.vl("v1").bag_ms == 4

    def test_duplicate_vl_rejected(self, net):
        net.add_virtual_link(vl())
        with pytest.raises(DuplicateNameError):
            net.add_virtual_link(vl())

    def test_source_must_be_end_system(self, net):
        bad = VirtualLink(
            name="vx", source="S1", paths=(("S1", "S2", "e2"),), bag_ms=4, s_max_bytes=500
        )
        with pytest.raises(InvalidVirtualLinkError, match="mono-transmitter"):
            net.add_virtual_link(bad)

    def test_destination_must_be_end_system(self, net):
        with pytest.raises(InvalidVirtualLinkError, match="not an end system"):
            net.add_virtual_link(vl(paths=(("e1", "S1", "S2"),)))

    def test_intermediate_must_be_switch(self, net):
        net.add_end_system("e3")
        net.add_link("e3", "S2")
        with pytest.raises(InvalidVirtualLinkError):
            net.add_virtual_link(vl(paths=(("e1", "S1", "S2", "e2", "e3"),)))

    def test_path_must_follow_links(self, net):
        with pytest.raises(InvalidVirtualLinkError, match="non-existent link"):
            net.add_virtual_link(vl(paths=(("e1", "S2", "e2"),)))

    def test_unknown_node_in_path(self, net):
        with pytest.raises(UnknownNodeError):
            net.add_virtual_link(vl(paths=(("e1", "S1", "S9", "e2"),)))

    def test_replace_virtual_link(self, net):
        net.add_virtual_link(vl())
        net.replace_virtual_link(net.vl("v1").with_bag_ms(8))
        assert net.vl("v1").bag_ms == 8

    def test_replace_unknown_rejected(self, net):
        with pytest.raises(UnknownNodeError):
            net.replace_virtual_link(vl(name="nope"))

    def test_remove_virtual_link(self, net):
        added = net.add_virtual_link(vl())
        assert net.remove_virtual_link("v1") is added
        assert "v1" not in net.virtual_links
        assert net.used_ports() == []

    def test_remove_unknown_rejected(self, net):
        with pytest.raises(UnknownNodeError):
            net.remove_virtual_link("nope")


class TestPortQueries:
    def test_port_path(self, net):
        net.add_virtual_link(vl())
        assert net.port_path("v1") == (("e1", "S1"), ("S1", "S2"), ("S2", "e2"))

    def test_port_path_bad_index(self, net):
        net.add_virtual_link(vl())
        with pytest.raises(InvalidVirtualLinkError, match="out of range"):
            net.port_path("v1", 3)

    def test_vls_at_port(self, net):
        net.add_virtual_link(vl())
        assert net.vls_at_port(("S1", "S2")) == frozenset({"v1"})
        assert net.vls_at_port(("S2", "S1")) == frozenset()

    def test_multicast_counted_once_per_port(self, net):
        net.add_end_system("e3")
        net.add_link("e3", "S2")
        multicast = vl(paths=(("e1", "S1", "S2", "e2"), ("e1", "S1", "S2", "e3")))
        net.add_virtual_link(multicast)
        assert net.vls_at_port(("S1", "S2")) == frozenset({"v1"})
        assert len(net.flow_paths()) == 2

    def test_upstream_port(self, net):
        net.add_virtual_link(vl())
        assert net.upstream_port("v1", ("S1", "S2")) == ("e1", "S1")
        assert net.upstream_port("v1", ("e1", "S1")) is None

    def test_upstream_port_unrelated_port_raises(self, net):
        net.add_virtual_link(vl())
        with pytest.raises(InvalidVirtualLinkError):
            net.upstream_port("v1", ("S2", "S1"))

    def test_utilization(self, net):
        net.add_virtual_link(vl())  # 1 bit/us on 100 bit/us links
        assert net.port_utilization(("S1", "S2")) == pytest.approx(0.01)
        assert net.max_utilization() == pytest.approx(0.01)

    def test_max_utilization_empty(self, net):
        assert net.max_utilization() == 0.0

    def test_used_ports_sorted(self, net):
        net.add_virtual_link(vl())
        assert net.used_ports() == sorted(net.used_ports())


class TestMisc:
    def test_copy_is_independent(self, net):
        net.add_virtual_link(vl())
        dup = net.copy()
        dup.add_virtual_link(vl(name="v2"))
        assert "v2" not in net.virtual_links
        assert "v1" in dup.virtual_links

    def test_views_reject_writes(self, net):
        net.add_virtual_link(vl())
        with pytest.raises(TypeError):
            net.virtual_links["v2"] = vl(name="v2")
        with pytest.raises(TypeError):
            del net.virtual_links["v1"]
        with pytest.raises(TypeError):
            net.nodes["S9"] = net.node("S1")
        with pytest.raises(TypeError):
            del net.nodes["S1"]
        with pytest.raises(AttributeError):
            net.virtual_links.pop("v1")
        assert list(net.virtual_links) == ["v1"]
        assert sorted(net.nodes) == ["S1", "S2", "e1", "e2"]

    def test_views_are_built_once_and_follow_the_network(self, net):
        vls, nodes = net.virtual_links, net.nodes
        assert net.virtual_links is vls and net.nodes is nodes
        net.add_virtual_link(vl())
        net.add_switch("S3")
        assert "v1" in vls and "S3" in nodes
        dup = net.copy()
        dup.remove_virtual_link("v1")
        assert "v1" in vls and "v1" not in dup.virtual_links

    def test_pickle_round_trip(self, net):
        net.add_virtual_link(vl())
        back = pickle.loads(pickle.dumps(net))
        assert dict(back.virtual_links) == dict(net.virtual_links)
        assert dict(back.nodes) == dict(net.nodes)
        back.remove_virtual_link("v1")
        assert "v1" not in back.virtual_links and "v1" in net.virtual_links

    def test_repr_counts(self, net):
        net.add_virtual_link(vl())
        assert "1 VLs / 1 paths" in repr(net)

    def test_end_systems_and_switches_sorted(self, net):
        assert [n.name for n in net.end_systems()] == ["e1", "e2"]
        assert [n.name for n in net.switches()] == ["S1", "S2"]

    def test_unknown_lookups(self, net):
        with pytest.raises(UnknownNodeError):
            net.node("zz")
        with pytest.raises(UnknownNodeError):
            net.vl("zz")
        with pytest.raises(UnknownNodeError):
            net.link_rate("e1", "e2")


def rebuilt(network):
    """The same configuration built from scratch, VLs added in reverse."""
    fresh = Network(rate_bits_per_us=network.default_rate, name=network.name)
    for node in network.nodes.values():
        fresh.add_node(node)
    for a, b, rate in network.links():
        fresh.add_link(a, b, rate)
    for name in sorted(network.virtual_links, reverse=True):
        fresh.add_virtual_link(network.vl(name))
    return fresh


def routing_view(network):
    """Every value the routing table serves, in the order it serves them."""
    ports = network.used_ports()
    return {
        "prefixes": list(tree_prefixes(network).items()),
        "upstream": {
            (name, pid): network.upstream_port(name, pid)
            for pid in ports
            for name in sorted(network.vls_at_port(pid))
        },
        "successors": list(port_successors(network).items()),
        "utilization": {pid: network.port_utilization(pid) for pid in ports},
    }


@pytest.fixture
def mesh(net):
    net.add_end_system("e3")
    net.add_switch("S3")
    net.add_link("S1", "S3")
    net.add_link("S3", "e3")
    net.add_link("S2", "S3")
    net.add_virtual_link(
        vl(paths=(("e1", "S1", "S2", "e2"), ("e1", "S1", "S3", "e3")))
    )
    net.add_virtual_link(
        vl(name="v2", paths=(("e1", "S1", "S2", "S3", "e3"),), bag_ms=2)
    )
    # build the table and the digest before every mutation below
    routing_view(net)
    network_fingerprint(net)
    return net


class TestRoutingTable:
    """The table is dropped on every mutation and never shared."""

    def test_view_of_a_multicast_tree(self, mesh):
        view = routing_view(mesh)
        assert dict(view["prefixes"])[("v1", ("S3", "e3"))] == (
            ("e1", "S1"), ("S1", "S3"), ("S3", "e3")
        )
        assert view["upstream"][("v2", ("S3", "e3"))] == ("S2", "S3")
        assert dict(view["successors"])[("S1", "S2")] == {("S2", "e2"), ("S2", "S3")}

    def test_add_virtual_link(self, mesh):
        mesh.add_virtual_link(vl(name="v3", paths=(("e1", "S1", "S3", "e3"),)))
        assert routing_view(mesh) == routing_view(rebuilt(mesh))
        assert mesh.upstream_port("v3", ("S3", "e3")) == ("S1", "S3")

    def test_replace_virtual_link(self, mesh):
        before = mesh.port_utilization(("S1", "S2"))
        mesh.replace_virtual_link(mesh.vl("v2").with_paths((("e1", "S1", "S3", "e3"),)))
        assert routing_view(mesh) == routing_view(rebuilt(mesh))
        assert mesh.port_utilization(("S1", "S2")) < before
        with pytest.raises(InvalidVirtualLinkError):
            mesh.upstream_port("v2", ("S2", "S3"))

    def test_retime_updates_utilization(self, mesh):
        before = mesh.port_utilization(("S1", "S2"))
        mesh.replace_virtual_link(mesh.vl("v2").with_bag_ms(4))
        assert mesh.port_utilization(("S1", "S2")) < before
        assert routing_view(mesh) == routing_view(rebuilt(mesh))

    @pytest.mark.parametrize(
        "edit",
        [
            RemoveVL(name="v1"),
            RerouteVL(name="v2", paths=(("e1", "S1", "S3", "e3"),)),
        ],
        ids=["remove", "reroute"],
    )
    def test_apply_edits(self, mesh, edit):
        source_view = routing_view(mesh)
        edited, _impact = apply_edits(mesh, [edit])
        assert routing_view(edited) == routing_view(rebuilt(edited))
        assert routing_view(mesh) == source_view

    def test_remove_drops_the_table(self, mesh):
        # what RemoveVL does to the network it edits
        mesh.remove_virtual_link("v1")
        assert routing_view(mesh) == routing_view(rebuilt(mesh))
        with pytest.raises(UnknownNodeError):
            mesh.upstream_port("v1", ("S1", "S2"))

    def test_copy_shares_no_table(self, mesh):
        dup = mesh.copy()
        assert dup.routing_table() is not mesh.routing_table()
        dup.add_virtual_link(vl(name="v3", paths=(("e1", "S1", "S3", "e3"),)))
        assert routing_view(mesh) == routing_view(rebuilt(mesh))
        assert routing_view(dup) == routing_view(rebuilt(dup))
        assert ("v3", ("S3", "e3")) not in tree_prefixes(mesh)

    def test_port_graph_and_utilization_build_no_tree_facts(self, net):
        # a cache-served what-if edit reads only the port graph, and a
        # generator's repair loop only utilization: neither pays for the
        # per-(VL, port) tree facts
        net.add_virtual_link(vl())
        port_successors(net)
        net.port_utilization(("S1", "S2"))
        assert net.routing_table()._tree is None
        tree_prefixes(net)
        assert net.routing_table()._tree is not None

    def test_upstream_port_edges(self, mesh):
        assert mesh.upstream_port("v1", ("e1", "S1")) is None
        with pytest.raises(InvalidVirtualLinkError):
            mesh.upstream_port("v1", ("S2", "S3"))
        with pytest.raises(InvalidVirtualLinkError):
            mesh.upstream_port("v2", ("S1", "S3"))


def assert_fresh_fingerprint(network):
    assert network_fingerprint(network) == network_fingerprint(rebuilt(network))


class TestFingerprint:
    """The stored digest is dropped on every mutation and never shared:
    a stale one would let the bound cache serve another network's bounds."""

    def test_add_node_and_link(self, mesh):
        mesh.add_switch("S4")
        assert_fresh_fingerprint(mesh)
        mesh.add_link("S3", "S4", 1000.0)
        assert_fresh_fingerprint(mesh)

    def test_add_virtual_link(self, mesh):
        mesh.add_virtual_link(vl(name="v3", paths=(("e1", "S1", "S3", "e3"),)))
        assert_fresh_fingerprint(mesh)

    def test_replace_virtual_link(self, mesh):
        mesh.replace_virtual_link(mesh.vl("v2").with_bag_ms(4))
        assert_fresh_fingerprint(mesh)

    @pytest.mark.parametrize(
        "edit",
        [
            RemoveVL(name="v1"),
            RerouteVL(name="v2", paths=(("e1", "S1", "S3", "e3"),)),
        ],
        ids=["remove", "reroute"],
    )
    def test_apply_edits(self, mesh, edit):
        source = network_fingerprint(mesh)
        edited, _impact = apply_edits(mesh, [edit])
        assert_fresh_fingerprint(edited)
        assert network_fingerprint(edited) != source
        assert network_fingerprint(mesh) == source
        assert_fresh_fingerprint(mesh)

    def test_remove_drops_the_digest(self, mesh):
        # what RemoveVL does to the network it edits
        mesh.remove_virtual_link("v1")
        assert_fresh_fingerprint(mesh)

    def test_copy_shares_no_digest(self, mesh):
        dup = mesh.copy()
        dup.add_virtual_link(vl(name="v3", paths=(("e1", "S1", "S3", "e3"),)))
        assert_fresh_fingerprint(dup)
        assert_fresh_fingerprint(mesh)
