"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.configs import fig1_network, fig2_network
from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.network.builder import NetworkBuilder


@pytest.fixture
def fig2():
    """The paper's Fig. 2 sample configuration (fresh copy)."""
    return fig2_network()


@pytest.fixture
def fig1():
    """The reconstructed Fig. 1 illustrative configuration."""
    return fig1_network()


@pytest.fixture(scope="session")
def small_industrial():
    """A reduced industrial configuration (fast enough for many tests)."""
    return industrial_network(
        IndustrialConfigSpec(n_virtual_links=120, end_systems_per_switch=6)
    )


@pytest.fixture
def single_switch():
    """Minimal network: two sources, one switch, one destination, two VLs."""
    return (
        NetworkBuilder("single")
        .switches("SW")
        .end_systems("a", "b", "d")
        .link("a", "SW")
        .link("b", "SW")
        .link("SW", "d")
        .virtual_link("va", source="a", destinations=["d"], bag_ms=4, s_max_bytes=500)
        .virtual_link("vb", source="b", destinations=["d"], bag_ms=8, s_max_bytes=1000)
        .build()
    )


@pytest.fixture
def mesh():
    """A meshed routing where a competitor leaves the path and rejoins.

    v2 meets v1 at (S1, S2), detours via S4 while v1 goes straight to
    S3, and re-meets v1 at (S3, d).
    """
    return (
        NetworkBuilder("mesh")
        .switches("S1", "S2", "S3", "S4")
        .end_systems("a", "b", "d")
        .links(
            [("a", "S1"), ("b", "S1"), ("S1", "S2"), ("S2", "S3"),
             ("S2", "S4"), ("S4", "S3"), ("S3", "d")]
        )
        .virtual_link(
            "v1", source="a", destinations=["d"], bag_ms=1,
            s_max_bytes=1518, paths=[["a", "S1", "S2", "S3", "d"]],
        )
        .virtual_link(
            "v2", source="b", destinations=["d"], bag_ms=1,
            s_max_bytes=1518,
            paths=[["b", "S1", "S2", "S4", "S3", "d"]],
        )
        .build()
    )


@pytest.fixture
def optimism_network():
    """The configuration demonstrating the 'paper' serialization optimism.

    Two source end systems with five identical VLs each, funnelled into
    one switch output port; the sound worst case for the last flow is
    456 us and is attained by simulation, while the historical
    per-group serialization credit claims less.
    """
    builder = NetworkBuilder("optimism").switches("SW").end_systems("a", "b", "d")
    builder.link("a", "SW").link("b", "SW").link("SW", "d")
    for index in range(5):
        for source in ("a", "b"):
            builder.virtual_link(
                f"v{source}{index}",
                source=source,
                destinations=["d"],
                bag_ms=4,
                s_max_bytes=500,
                s_min_bytes=500,
            )
    return builder.build()
