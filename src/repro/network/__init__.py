"""AFDX (ARINC 664 part 7) network model.

The model mirrors the entities of the paper's Section II-A:

* :class:`EndSystem` / :class:`Switch` — the nodes.  End systems are the
  network's only traffic sources and sinks; switches store-and-forward
  through FIFO output buffers after a bounded *technological latency*.
* physical full-duplex links (switch-switch or switch-ES), registered on
  the :class:`Network`;
* :class:`OutputPort` — the unit of contention: one FIFO queue per
  directed link, served at the link rate.  Worst-case analyses operate
  on sequences of output ports;
* :class:`VirtualLink` — the ARINC-664 traffic contract: a statically
  routed, mono-transmitter, possibly multicast flow with a Bandwidth
  Allocation Gap (BAG) and bounded frame sizes;
* :class:`Network` — the container tying everything together, with
  the configuration gate (:mod:`repro.network.preflight`), static shortest-path
  routing helpers (:mod:`repro.network.routing`) and JSON persistence
  (:mod:`repro.network.serialization`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Node",
    "EndSystem",
    "Switch",
    "OutputPort",
    "PortId",
    "VirtualLink",
    "Network",
    "NetworkBuilder",
    "RedundantBound",
    "duplicate_network",
    "combine_redundant",
    "network_to_dict",
    "network_from_dict",
    "network_to_json",
    "network_from_json",
]

_EXPORTS = {
    "repro.network.node": ("EndSystem", "Node", "Switch"),
    "repro.network.port": ("OutputPort", "PortId"),
    "repro.network.virtual_link": ("VirtualLink",),
    "repro.network.topology": ("Network",),
    "repro.network.builder": ("NetworkBuilder",),
    "repro.network.redundancy": (
        "RedundantBound",
        "combine_redundant",
        "duplicate_network",
    ),
    "repro.network.serialization": (
        "network_from_dict",
        "network_from_json",
        "network_to_dict",
        "network_to_json",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
