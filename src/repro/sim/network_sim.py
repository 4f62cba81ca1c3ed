"""Wiring a :class:`~repro.network.Network` into the event engine.

:class:`NetworkSimulation` instantiates one simulated FIFO port per used
output port, builds per-VL forwarding tables from the multicast trees,
applies each node's technological latency between reception and
enqueueing, duplicates frames at forking switches, and traces
end-to-end delays at the destination end systems.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.network.port import PortId
from repro.network.topology import Network
from repro.obs.logging import get_logger, kv
from repro.sim.engine import Simulator
from repro.sim.frames import Frame
from repro.sim.ports import SimOutputPort
from repro.sim.tracer import DelayTracer, SimulationResult

__all__ = ["NetworkSimulation"]

_LOG = get_logger("sim")


class NetworkSimulation:
    """Executable model of an AFDX configuration.

    Parameters
    ----------
    network:
        The configuration to simulate (not mutated).
    simulator:
        An event engine to share; a fresh one is created by default.
    keep_samples:
        Per-path delay samples to retain verbatim (0 = aggregates only).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` handed to
        the default-constructed :class:`Simulator` (ignored when an
        engine is shared in).
    """

    def __init__(
        self,
        network: Network,
        simulator: Optional[Simulator] = None,
        keep_samples: int = 0,
        metrics=None,
    ):
        self.network = network
        self.simulator = simulator if simulator is not None else Simulator(metrics=metrics)
        self.tracer = DelayTracer(keep_samples=keep_samples)
        self._sequence: Dict[str, int] = {}

        # forwarding[(vl, node)] -> next nodes on the VL tree at that node
        self._forwarding: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # dest_index[(vl, destination_es)] -> path index (for tracing)
        self._dest_index: Dict[Tuple[str, str], int] = {}
        for name, vl in network.virtual_links.items():
            hops: Dict[str, list] = {}
            for idx, path in enumerate(vl.paths):
                self._dest_index[(name, path[-1])] = idx
                for a, b in zip(path, path[1:]):
                    nexts = hops.setdefault(a, [])
                    if b not in nexts:
                        nexts.append(b)
            for node, nexts in hops.items():
                self._forwarding[(name, node)] = tuple(nexts)

        self._ports: Dict[PortId, SimOutputPort] = {}
        for port_id in network.used_ports():

            def deliver(frame: Frame, time: float, pid: PortId = port_id) -> None:
                self._on_delivered(pid, frame, time)

            self._ports[port_id] = SimOutputPort(
                self.simulator,
                rate_bits_per_us=network.link_rate(*port_id),
                on_delivered=deliver,
            )

    # ------------------------------------------------------------------

    def release_frame(
        self, vl_name: str, time_us: float, size_bits: Optional[float] = None
    ) -> None:
        """Schedule the release of one frame of a VL at ``time_us``.

        The frame enters the source end system's output queue after the
        ES's technological latency (0 by default).  ``size_bits``
        defaults to the VL's ``s_max``.
        """
        vl = self.network.vl(vl_name)
        if size_bits is None:
            size_bits = vl.s_max_bits
        if not vl.s_min_bits - 1e-9 <= size_bits <= vl.s_max_bits + 1e-9:
            raise ValueError(
                f"frame of {size_bits} bits violates VL {vl_name}'s contract "
                f"[{vl.s_min_bits}, {vl.s_max_bits}]"
            )
        seq = self._sequence.get(vl_name, 0)
        self._sequence[vl_name] = seq + 1
        frame = Frame(
            vl_name=vl_name, sequence=seq, size_bits=size_bits, release_time_us=time_us
        )
        source_latency = self.network.node(vl.source).technological_latency_us
        first_port = (vl.source, vl.paths[0][1])

        self.simulator.schedule(
            time_us + source_latency,
            lambda: self._ports[first_port].enqueue(frame),
        )

    def _on_delivered(self, port_id: PortId, frame: Frame, time: float) -> None:
        """A frame's last bit reached ``port_id``'s downstream node."""
        node_name = port_id[1]
        node = self.network.node(node_name)
        if node.is_end_system:
            path_index = self._dest_index[(frame.vl_name, node_name)]
            self.tracer.record(
                frame.vl_name, path_index, time - frame.release_time_us
            )
            return
        next_hops = self._forwarding[(frame.vl_name, node_name)]
        for next_node in next_hops:  # multicast duplication happens here
            port = self._ports[(node_name, next_node)]
            self.simulator.schedule(
                time + node.technological_latency_us,
                lambda p=port: p.enqueue(frame),
            )

    # ------------------------------------------------------------------

    def run(self, until_us: float) -> SimulationResult:
        """Drive the event loop to ``until_us`` and collect results."""
        _LOG.info(
            "run start %s",
            kv(
                until_us=until_us,
                ports=len(self._ports),
                vls=len(self.network.virtual_links),
            ),
        )
        self.simulator.run(until_us)
        peaks = {
            pid: port.peak_backlog_bits for pid, port in self._ports.items()
        }
        if _LOG.isEnabledFor(10):  # DEBUG: one high-water line per queue
            for pid in sorted(peaks):
                _LOG.debug(
                    "queue high-water %s",
                    kv(port="->".join(pid), peak_backlog_bits=peaks[pid]),
                )
        paths = self.tracer.stats()
        worst_us = max((stats.max_us for stats in paths.values()), default=0.0)
        _LOG.info(
            "run finish %s",
            kv(
                events=self.simulator.processed_events,
                paths=len(paths),
                worst_observed_us=worst_us,
                peak_backlog_bits=max(peaks.values(), default=0.0),
            ),
        )
        return SimulationResult(
            duration_us=until_us,
            paths=paths,
            peak_backlog_bits=peaks,
        )
