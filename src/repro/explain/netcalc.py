"""Provenance recorder for the Network Calculus analyzer.

The NC propagation is a deterministic pure function of the
configuration, so the recorder works **post hoc**: given a finished
:class:`~repro.netcalc.results.NetworkCalculusResult` it replays the
burst propagation with the analyzer's own group folding and port
kernel (using the recorded per-port delays, which it cross-checks bit
for bit) and splits every hop's delay bound into the paper's additive
pieces:

``service-latency``
    The rate-latency server's latency ``T`` (switching latency plus
    the transmission tail, Sec. II-B).
``ingress-shaping`` / ``burst-delay``
    The queueing part of the hop bound against the *ungrouped*
    aggregate — the serialized source burst at hop 1, accumulated
    upstream bursts afterwards (the holistic-pessimism inflation
    ``b <- b + r * D`` the paper blames for NC's small-BAG behaviour).
``grouping-credit``
    What the input-link grouping technique removed at this hop
    (grouped minus ungrouped horizontal deviation, always <= 0 up to
    rounding).
``fp-residual``
    Exact rounding errors of the above splits — see
    :mod:`repro.obs.provenance`.  The path-level summation itself is
    ``math.fsum`` (correctly rounded), so it adds no residual: the
    per-hop splits are error-free transformations of each recorded
    port delay, hence the ledger's real-number sum *is* the real sum
    of the per-port delays, and ``fsum`` rounds both to the same
    float.

A post-hoc replay also covers every cache-hit path of the incremental
layer for free: provenance is *recomputed* from the (bit-identical)
cached result, never served stale.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import ProvenanceError
from repro.netcalc.kernel import port_bounds
from repro.network.port import PortId
from repro.network.port_graph import topological_port_order
from repro.obs.provenance import (
    FP_RESIDUAL,
    Decomposition,
    Term,
    two_sum,
)

__all__ = ["netcalc_provenance"]

#: per-port replay record: (T, queueing, queueing residual,
#: grouping credit or None, credit residual)
_HopSplit = Tuple[float, float, float, "float | None", float]


def _replay_ports(analyzer, result) -> Dict[PortId, _HopSplit]:
    """Replay the propagation, splitting each port's recorded delay.

    The replay folds every port's groups as the analyzer does
    (:meth:`~repro.netcalc.analyzer.NetworkCalculusAnalyzer.ingress`,
    :meth:`~repro.netcalc.analyzer.NetworkCalculusAnalyzer.port_groups`)
    and bounds them with :func:`~repro.netcalc.kernel.port_bounds`: once
    as analyzed, and once more without shaping for the ungrouped delay
    the grouping credit is measured against.

    Raises :class:`ProvenanceError` if any replayed delay disagrees
    with the recorded per-port delay: the result was not computed from
    this network and these options (a cache entry that decoded to
    wrong floats, say).
    """
    network = analyzer.network
    order = topological_port_order(network)
    table = network.routing_table()
    frames, rates, bursts = analyzer.ingress()
    splits: Dict[PortId, _HopSplit] = {}
    for port_id in order:
        recorded = result.ports[port_id].delay_us
        port = network.output_port(*port_id)
        rate, latency = port.rate_bits_per_us, port.latency_us
        groups = analyzer.port_groups(
            port_id, frames, rates, bursts, analyzer.grouping
        )
        replayed = port_bounds(groups, rate, latency)[0]
        if replayed != recorded:
            raise ProvenanceError(
                f"NC replay of port {port_id[0]}->{port_id[1]} gives "
                f"{replayed!r}, result recorded {recorded!r}"
            )
        if analyzer.grouping:
            ungrouped = analyzer.port_groups(port_id, frames, rates, bursts, False)
            h_ungrouped = port_bounds(ungrouped, rate, latency)[0]
        else:
            h_ungrouped = recorded
        queueing, queue_residual = two_sum(h_ungrouped, -latency)
        if h_ungrouped == recorded:
            credit, credit_residual = None, 0.0
        else:
            credit, credit_residual = two_sum(recorded, -h_ungrouped)
        splits[port_id] = (
            latency, queueing, queue_residual, credit, credit_residual
        )
        # bursts downstream inflate by the recorded (== replayed) delay
        for name in table.members[port_id]:
            targets = table.next_ports[(name, port_id)]
            if targets:
                inflated = bursts[(name, port_id)] + rates[name] * recorded
                for pid in targets:
                    bursts[(name, pid)] = inflated
    return splits


def netcalc_provenance(analyzer, result) -> Dict[Tuple[str, int], Decomposition]:
    """Exact per-path decompositions of a Network Calculus result.

    Keyed like ``result.paths``; every decomposition is
    :meth:`~repro.obs.provenance.Decomposition.check`-ed before return.
    """
    splits = _replay_ports(analyzer, result)
    out: Dict[Tuple[str, int], Decomposition] = {}
    for key, path in result.paths.items():
        delays = [result.ports[port_id].delay_us for port_id in path.port_ids]
        terms = []
        hop_bounds = []
        for hop, port_id in enumerate(path.port_ids, start=1):
            latency, queueing, queue_residual, credit, credit_residual = (
                splits[port_id]
            )
            hop_bounds.append(math.fsum(delays[:hop]))
            terms.append(
                Term("service-latency", latency, hop=hop, port=port_id)
            )
            queue_label = "ingress-shaping" if hop == 1 else "burst-delay"
            terms.append(Term(queue_label, queueing, hop=hop, port=port_id))
            if queue_residual != 0.0:
                terms.append(
                    Term(
                        FP_RESIDUAL, queue_residual,
                        hop=hop, port=port_id, group=queue_label,
                    )
                )
            if credit is not None:
                terms.append(
                    Term("grouping-credit", credit, hop=hop, port=port_id)
                )
                if credit_residual != 0.0:
                    terms.append(
                        Term(
                            FP_RESIDUAL, credit_residual,
                            hop=hop, port=port_id, group="grouping-credit",
                        )
                    )
        # total_us is math.fsum(per-port delays); the per-hop splits are
        # error-free, so the ledger needs no path-sum residual to conserve.
        replayed_total = math.fsum(delays)
        if replayed_total != path.total_us:
            raise ProvenanceError(
                f"NC path replay of {key[0]}[{key[1]}] sums per-port delays "
                f"to {replayed_total!r}, result recorded {path.total_us!r}"
            )
        decomposition = Decomposition(
            method="network_calculus",
            vl_name=path.vl_name,
            path_index=path.path_index,
            node_path=path.node_path,
            bound_us=path.total_us,
            terms=tuple(terms),
            hop_bounds_us=tuple(hop_bounds),
        )
        decomposition.check()
        out[key] = decomposition
    return out
