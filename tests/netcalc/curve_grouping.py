"""The grouping technique built from curve objects: the oracle's aggregates.

:mod:`repro.netcalc.grouping` partitions a port's flows by input link,
and the analyzer folds each group to one ``(rate, burst)`` pair for the
flat-float port kernel.  The two functions here build the same groups
as :class:`~tests.netcalc.curves.PiecewiseCurve` objects from the
members' :class:`~tests.netcalc.curves.LeakyBucket` objects, the way
the curve algebra states the paper's Sec. II-B; ``test_kernel.py``,
``test_grouping.py`` and the reference analyzer compare the kernel
with them.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple

from repro.netcalc.grouping import GroupKey, arrival_groups, is_source_key
from repro.network.port import PortId
from repro.network.topology import Network
from tests.netcalc.curves import (
    LeakyBucket,
    PiecewiseCurve,
    min_curves,
    sum_curves,
)

__all__ = ["group_arrival_curve", "port_aggregate_curve"]


def group_arrival_curve(
    network: Network,
    key: GroupKey,
    members: Iterable[str],
    buckets: Mapping[str, LeakyBucket],
    grouping: bool,
) -> PiecewiseCurve:
    """Arrival curve of one input-link group at a port.

    Parameters
    ----------
    key:
        The group key from :func:`arrival_groups` — an upstream port id,
        or :func:`~repro.netcalc.grouping.source_key` of a
        locally-sourced flow.
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
    curves, because :func:`~tests.netcalc.curves.add_curves` evaluates
    affine curves only at ``x = 0``, where ``burst + rate * 0.0 ==
    burst``, and the curve's ``max(0.0, slope)`` clamp leaves a
    non-negative rate sum unchanged (``tests/netcalc/test_grouping.py``
    checks the identity).
    """
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
    buckets: Mapping[str, LeakyBucket],
    grouping: bool,
) -> Tuple[PiecewiseCurve, int]:
    """Aggregate arrival curve at a port and the number of groups used."""
    groups = arrival_groups(network, port_id)
    curves: List[PiecewiseCurve] = [
        group_arrival_curve(network, key, members, buckets, grouping)
        for key, members in sorted(groups.items())
    ]
    return sum_curves(curves), len(groups)
