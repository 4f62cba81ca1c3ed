"""Virtual Links — the ARINC 664 traffic contract.

A Virtual Link (VL) is a statically defined, logically unidirectional
connection from one source end system to one or more destination end
systems.  Its admission contract is:

* **BAG** (Bandwidth Allocation Gap) — minimum time between two
  consecutive frames of the VL at the network ingress, enforced by the
  source ES shaper; ARINC 664 restricts it to a power of two between
  1 ms and 128 ms, which the paper's industrial configuration follows
  ("BAG values are harmonic between 1 ms and 128 ms");
* **s_min / s_max** — minimum / maximum Ethernet frame size in bytes
  (64..1518 B), policed at every switch entry port.

The VL contract is exactly the leaky bucket ``(s_max, s_max / BAG)``
used by the Network Calculus analysis, and the sporadic task
``(C = s_max / R, T = BAG)`` used by the Trajectory analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro import units
from repro.errors import InvalidVirtualLinkError

__all__ = [
    "VirtualLink",
    "ETHERNET_MIN_FRAME_BYTES",
    "ETHERNET_MAX_FRAME_BYTES",
    "STANDARD_BAGS_MS",
]

#: Minimal / maximal Ethernet frame sizes (paper Sec. III-A-2).
ETHERNET_MIN_FRAME_BYTES = 64
ETHERNET_MAX_FRAME_BYTES = 1518

#: ARINC-664 harmonic BAG values, in milliseconds.
STANDARD_BAGS_MS = (1, 2, 4, 8, 16, 32, 64, 128)

Path = Tuple[str, ...]


@dataclass(frozen=True)
class VirtualLink:
    """A statically routed, mono-transmitter, possibly multicast flow.

    Parameters
    ----------
    name:
        Unique VL identifier.
    source:
        Name of the source end system (the only allowed emitter).
    paths:
        One node-name sequence per destination, each starting at
        ``source`` and ending at a destination end system.  Multicast
        VLs list several paths that share a common prefix and fork
        inside the network (frames are physically duplicated at the
        forking switches).
    bag_ms:
        Bandwidth Allocation Gap in milliseconds.
    s_max_bytes / s_min_bytes:
        Frame size bounds in bytes.
    priority:
        Output-port scheduling class as a configuration file states it:
        0 = low (default), 1 = high.  ARINC 664 switches support two
        statically configured priority levels per VL; the DATE 2010
        paper studies the pure-FIFO case, and both analyzers model FIFO
        output ports only, so the configuration gate refuses a VL at
        priority 1 (rule CFG112 of :mod:`repro.network.preflight`).  The
        field stays parsed so that such a file gets that diagnostic.

    Any positive BAG is accepted, so parameter sweeps (paper Figs. 7-9)
    can explore arbitrary values; the ARINC 664 BAG range binds
    configuration files (rule CFG104 of :mod:`repro.network.preflight`).
    """

    name: str
    source: str
    paths: Tuple[Path, ...]
    bag_ms: float
    s_max_bytes: float
    s_min_bytes: float = ETHERNET_MIN_FRAME_BYTES
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidVirtualLinkError("VL name must be a non-empty string")
        if not self.source:
            raise InvalidVirtualLinkError(f"VL {self.name}: source must be set")
        if self.bag_ms <= 0:
            raise InvalidVirtualLinkError(f"VL {self.name}: BAG must be positive, got {self.bag_ms}")
        if self.s_max_bytes <= 0:
            raise InvalidVirtualLinkError(
                f"VL {self.name}: s_max must be positive, got {self.s_max_bytes}"
            )
        if not 0 < self.s_min_bytes <= self.s_max_bytes:
            raise InvalidVirtualLinkError(
                f"VL {self.name}: need 0 < s_min <= s_max, got "
                f"s_min={self.s_min_bytes}, s_max={self.s_max_bytes}"
            )
        if self.priority not in (0, 1):
            raise InvalidVirtualLinkError(
                f"VL {self.name}: priority must be 0 (low) or 1 (high), "
                f"got {self.priority}"
            )
        norm_paths = tuple(tuple(p) for p in self.paths)
        object.__setattr__(self, "paths", norm_paths)
        if not norm_paths:
            raise InvalidVirtualLinkError(f"VL {self.name}: at least one path is required")
        seen_paths = set()
        for path in norm_paths:
            if len(path) < 2:
                raise InvalidVirtualLinkError(
                    f"VL {self.name}: path {path} must contain source and destination"
                )
            if path[0] != self.source:
                raise InvalidVirtualLinkError(
                    f"VL {self.name}: path {path} does not start at source {self.source}"
                )
            if len(set(path)) != len(path):
                raise InvalidVirtualLinkError(f"VL {self.name}: path {path} repeats a node")
            if path in seen_paths:
                raise InvalidVirtualLinkError(f"VL {self.name}: duplicate path {path}")
            seen_paths.add(path)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def bag_us(self) -> float:
        """BAG in microseconds (the analysis-side period ``T``)."""
        return units.ms_to_us(self.bag_ms)

    @property
    def s_max_bits(self) -> float:
        """Maximum frame size in bits (the ingress burst ``b``)."""
        return units.bytes_to_bits(self.s_max_bytes)

    @property
    def s_min_bits(self) -> float:
        """Minimum frame size in bits."""
        return units.bytes_to_bits(self.s_min_bytes)

    @property
    def rate_bits_per_us(self) -> float:
        """Long-term contracted rate ``s_max / BAG`` in bits/us."""
        return self.s_max_bits / self.bag_us

    def c_max_us(self, link_rate_bits_per_us: float) -> float:
        """Max transmission time of one frame at the given link rate."""
        return self.s_max_bits / link_rate_bits_per_us

    def c_min_us(self, link_rate_bits_per_us: float) -> float:
        """Min transmission time of one frame at the given link rate."""
        return self.s_min_bits / link_rate_bits_per_us

    @property
    def destinations(self) -> Tuple[str, ...]:
        """Destination end systems, one per path, in path order."""
        return tuple(path[-1] for path in self.paths)

    @property
    def is_multicast(self) -> bool:
        """True when the VL has more than one destination."""
        return len(self.paths) > 1

    # ------------------------------------------------------------------
    # Functional updates (used heavily by the parameter sweeps)
    # ------------------------------------------------------------------

    def with_bag_ms(self, bag_ms: float) -> "VirtualLink":
        """Copy of this VL with a different BAG (sweeps of Figs. 8-9)."""
        return replace(self, bag_ms=bag_ms)

    def with_s_max_bytes(self, s_max_bytes: float) -> "VirtualLink":
        """Copy with a different ``s_max`` (sweeps of Figs. 7 and 9)."""
        s_min = min(self.s_min_bytes, s_max_bytes)
        return replace(self, s_max_bytes=s_max_bytes, s_min_bytes=s_min)

    def with_paths(self, paths: Sequence[Path]) -> "VirtualLink":
        """Copy with re-computed routing."""
        return replace(self, paths=tuple(tuple(p) for p in paths))
