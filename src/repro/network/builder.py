"""Fluent construction helper for network configurations.

:class:`NetworkBuilder` removes the boilerplate of building
configurations in code (tests, examples, generators)::

    net = (
        NetworkBuilder("demo")
        .switches("S1", "S2")
        .end_systems("e1", "e2", "e3")
        .link("e1", "S1").link("e2", "S1").link("e3", "S2").link("S1", "S2")
        .virtual_link("v1", source="e1", destinations=["e3"],
                      bag_ms=4, s_max_bytes=500)
        .build()
    )

Routes are computed automatically with deterministic shortest-path
routing unless explicit paths are given.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro import units
from repro.network.preflight import check_network
from repro.network.routing import route_virtual_link
from repro.network.topology import Network
from repro.network.virtual_link import VirtualLink

__all__ = ["NetworkBuilder"]


class NetworkBuilder:
    """Incrementally assemble a :class:`~repro.network.Network`."""

    def __init__(
        self,
        name: str = "afdx",
        rate_bits_per_us: float = units.MBPS_100,
        switch_latency_us: float = 16.0,
    ):
        self._network = Network(rate_bits_per_us=rate_bits_per_us, name=name)
        self._switch_latency = switch_latency_us

    def end_systems(self, *names: str) -> "NetworkBuilder":
        """Register one or more end systems."""
        for name in names:
            self._network.add_end_system(name)
        return self

    def switches(self, *names: str) -> "NetworkBuilder":
        """Register one or more switches (builder-level default latency)."""
        for name in names:
            self._network.add_switch(name, technological_latency_us=self._switch_latency)
        return self

    def link(self, a: str, b: str, rate_bits_per_us: Optional[float] = None) -> "NetworkBuilder":
        """Wire a full-duplex link."""
        self._network.add_link(a, b, rate_bits_per_us=rate_bits_per_us)
        return self

    def links(self, pairs: Iterable[Tuple[str, str]]) -> "NetworkBuilder":
        """Wire several links at once."""
        for a, b in pairs:
            self.link(a, b)
        return self

    def virtual_link(
        self,
        name: str,
        source: str,
        destinations: Sequence[str],
        bag_ms: float,
        s_max_bytes: float,
        s_min_bytes: float = 64,
        paths: Optional[Sequence[Sequence[str]]] = None,
    ) -> "NetworkBuilder":
        """Register a VL; routes are auto-computed when ``paths`` is None."""
        if paths is None:
            routed = route_virtual_link(self._network, source, destinations)
        else:
            routed = tuple(tuple(p) for p in paths)
        self._network.add_virtual_link(
            VirtualLink(
                name=name,
                source=source,
                paths=routed,
                bag_ms=bag_ms,
                s_max_bytes=s_max_bytes,
                s_min_bytes=s_min_bytes,
            )
        )
        return self

    def build(self, validate: bool = True) -> Network:
        """Return the assembled network, validated by default."""
        if validate:
            check_network(self._network)
        return self._network
