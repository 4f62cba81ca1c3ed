"""The grouping (serialization) technique of the Network Calculus tool.

Paper, Sec. II-B: *"the worst-case incoming traffic in a switch output
port is divided and grouped by flows coming from the same source (i.e.
transmission link).  Each group is shaped by a leaky bucket with a burst
equal to the largest frame size and a rate equal to the rate of the
source."*

Frames of flows that share an upstream link are physically serialized
on that link, so the aggregate they present to the next port can never
exceed the link's own shaping curve — the leaky bucket
``(max frame of the group, link rate)``.  Taking the pointwise minimum
of the group members' summed curves and the link shaping curve tightens
the aggregate (historically ~40 % on industrial configurations, per the
paper's 10 % figure being *on top of* an already-grouped NC baseline).

**Multicast fan-out (audit note).**  A multicast VL crosses several
output ports of the same switch.  Grouping stays sound there because it
partitions *per output port* and keys each group by the VL's upstream
port at that node — which is unique per node of the VL's tree — so
every member listed in a group genuinely crossed the group's shared
link, on every branch independently, and no flow is double-counted
within a port.  Audited alongside the trajectory re-meeting fix; see
``tests/netcalc/test_grouping.py::
test_multicast_fan_out_counted_once_per_output_port``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Tuple

from repro.network.port import PortId
from repro.network.topology import Network

if TYPE_CHECKING:  # the curve algebra loads only with the curve-object functions
    from repro.curves import LeakyBucket, PiecewiseCurve

__all__ = [
    "GroupKey",
    "arrival_groups",
    "group_arrival_curve",
    "is_source_key",
    "member_groups",
    "port_aggregate_curve",
    "source_key",
]

#: Flows are grouped by the upstream port they arrive through, a pair of
#: node names.  A flow sourced at the port's own end system is ungrouped:
#: its key is the 1-tuple ``(vl_name,)`` (:func:`source_key`), which no
#: port id equals whatever the nodes are named.  An end system only
#: sources, so a port's keys are either all ports or all source keys,
#: and source keys sort by VL name.
GroupKey = Tuple[str, ...]


def source_key(vl_name: str) -> GroupKey:
    """The group key of a flow sourced at the port's own end system."""
    return (vl_name,)


def is_source_key(key: GroupKey) -> bool:
    """True for a :func:`source_key`, False for an upstream port id."""
    return len(key) == 1


def member_groups(network: Network, port_id: PortId) -> Dict[GroupKey, List[str]]:
    """:func:`arrival_groups` with each group's names as a sorted list."""
    table = network.routing_table()
    prefixes = table.prefixes
    groups: Dict[GroupKey, List[str]] = {}
    # members arrive sorted, so each group's list is sorted too
    for vl_name in table.members.get(port_id, ()):
        prefix = prefixes[(vl_name, port_id)]
        key: GroupKey = prefix[-2] if len(prefix) > 1 else source_key(vl_name)
        groups.setdefault(key, []).append(vl_name)
    return groups


def arrival_groups(network: Network, port_id: PortId) -> Dict[GroupKey, FrozenSet[str]]:
    """Partition the VLs crossing ``port_id`` by arrival link.

    Returns a mapping from group key to the VL names of the group.
    Flows whose source end system owns the port get singleton groups
    (nothing upstream constrains them jointly).
    """
    return {
        key: frozenset(members)
        for key, members in member_groups(network, port_id).items()
    }


def group_arrival_curve(
    network: Network,
    key: GroupKey,
    members: Iterable[str],
    buckets: Mapping[str, "LeakyBucket"],
    grouping: bool,
) -> "PiecewiseCurve":
    """Arrival curve of one input-link group at a port.

    Parameters
    ----------
    key:
        The group key from :func:`arrival_groups` — an upstream port id,
        or :func:`source_key` of a locally-sourced flow.
    members:
        VL names in the group.
    buckets:
        Current leaky bucket of each member *at this port*.
    grouping:
        When False, or when the group is locally sourced, the curve is
        the plain sum of the members; otherwise it is capped by the
        upstream link's shaping curve.

    The members' buckets fold into one affine curve: bursts and rates
    summed one after the other in sorted-name order.  That is bit for
    bit the curve ``sum_curves`` builds from the per-member affine
    curves, because :func:`~repro.curves.add_curves` evaluates affine
    curves only at ``x = 0``, where ``burst + rate * 0.0 == burst``, and
    the curve's ``max(0.0, slope)`` clamp leaves a non-negative rate sum
    unchanged (``tests/netcalc/test_grouping.py`` checks the identity).
    """
    from repro.curves import PiecewiseCurve, min_curves

    member_list = sorted(members)
    burst = 0.0
    rate = 0.0
    for name in member_list:
        bucket = buckets[name]
        # repro-lint: allow[REPRO102] the sequential sum add_curves folds per member, kept bit for bit
        burst += bucket.burst
        # repro-lint: allow[REPRO102] the sequential sum add_curves folds per member, kept bit for bit
        rate += bucket.rate
    summed = PiecewiseCurve.affine(rate, burst)
    if not grouping or is_source_key(key):
        return summed
    link_rate = network.link_rate(*key)
    biggest_frame = max(network.vl(name).s_max_bits for name in member_list)
    shaping = PiecewiseCurve.affine(link_rate, biggest_frame)
    return min_curves(summed, shaping)


def port_aggregate_curve(
    network: Network,
    port_id: PortId,
    buckets: Mapping[str, "LeakyBucket"],
    grouping: bool,
) -> Tuple["PiecewiseCurve", int]:
    """Aggregate arrival curve at a port and the number of groups used."""
    from repro.curves import sum_curves

    groups = arrival_groups(network, port_id)
    curves: List[PiecewiseCurve] = [
        group_arrival_curve(network, key, members, buckets, grouping)
        for key, members in sorted(groups.items())
    ]
    return sum_curves(curves), len(groups)
