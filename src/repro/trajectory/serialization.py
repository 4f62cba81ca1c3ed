"""Input-link serialization for the Trajectory approach.

Paper Sec. II-B (Figs. 3 and 4): the plain Trajectory worst case lets
every competing frame reach a port *simultaneously*, even frames that
travel over the same upstream link — a physically impossible scenario.
The paper's "enhanced trajectory approach" serializes such frames: for
a group ``G`` of competing flows that first meets the studied path at a
port and arrives there through one shared input link, the burst is
reduced by

    ``sum_{j in G} C_j - max_{j in G} C_j``

(the largest frame may still head the burst; every other one is pushed
back by at least its own transmission time on the shared link).  On the
paper's Fig. 2 example this removes exactly one 40 us frame time from
v1's bound — the Fig. 3 -> Fig. 4 improvement — and it is the credit
the DATE 2010 tool used to produce Table I.

**Known optimism.**  This reproduction found — by checking every bound
against exhaustive simulation — that the per-group credit can undershoot
the true worst case: when the studied packet is delayed at its *own*
source, a long serialized burst still fits entirely ahead of it (see
``tests/trajectory/test_serialization.py`` for the concrete violating
scenario, where the sound bound of 456 us is attained by simulation
while the credited bound claims 416 us or less).  This is consistent
with the later literature: Kemayo et al. subsequently showed the
serialization optimisation of the FIFO trajectory approach to be
optimistic in corner cases.  The library therefore exposes two modes:

* ``"paper"`` — the historical credit above, used to reproduce the
  paper's evaluation;
* ``"windowed"`` — an intermediate credit: the serialized span of a
  group must elapse inside the studied packet's busy period, but the
  spans of *different* input links overlap in time, so per port only
  the largest group's credit is taken (``max`` instead of ``sum`` over
  groups).  Much less optimistic than ``"paper"`` on ports fed by many
  links, though still not proof-grade;
* ``"safe"`` — no serialization credit (the plain Martin & Minet
  accounting), provably sound; this is what the simulation-backed
  property tests run against.

**Re-meetings (audit note).**  This module only credits *first*
meetings, which is where the whole serialization argument lives: a
group is serialized on the link it arrives through when it *joins* the
studied path.  On meshed routings a competitor can additionally leave
the studied path and rejoin it downstream; how such re-meetings are
*charged* is the trajectory kernel's concern
(:meth:`~repro.trajectory.analyzer.TrajectoryAnalyzer._discover_meetings`,
mirrored by name in the test oracle ``tests/trajectory/reference_kernel.py``):
``paper`` and ``windowed`` keep the historical counted-once treatment
(optimistic on meshes), ``safe`` charges every re-meeting as an
additional competitor.  See ``tests/trajectory/test_analyzer.py::
TestMeshReMeeting`` for the concrete divergence/rejoin topology.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

from repro.network.port import PortId
from repro.network.topology import Network

__all__ = ["SERIALIZATION_MODES", "normalize_mode", "serialization_gain"]

SERIALIZATION_MODES = ("paper", "windowed", "safe")


def normalize_mode(serialization) -> str:
    """Map the public ``serialization`` argument to a mode string.

    ``True`` means the ``"windowed"`` credit — the reconstruction that
    best matches the published evaluation at industrial scale while
    reproducing the paper's Fig. 4 example exactly (on a single group
    per port, ``"windowed"`` and ``"paper"`` coincide).  ``False`` is
    the sound plain analysis; the strings ``"paper"`` / ``"windowed"``
    / ``"safe"`` are accepted verbatim.
    """
    if serialization is True:
        return "windowed"
    if serialization is False:
        return "safe"
    if serialization in SERIALIZATION_MODES:
        return str(serialization)
    raise ValueError(
        "serialization must be True, False, 'paper', 'windowed' or 'safe', "
        f"got {serialization!r}"
    )


def serialization_gain(
    network: Network,
    prefix_ports: Tuple[PortId, ...],
    first_meeting: Mapping[str, PortId],
    transmission_time: Mapping[str, float],
    mode: str = "paper",
) -> float:
    """Workload credit from serialized same-link arrivals.

    Parameters
    ----------
    prefix_ports:
        The studied flow's (prefix) trajectory.
    first_meeting:
        For every competing VL, the first port of ``prefix_ports`` it
        shares with the studied flow.
    transmission_time:
        Worst-case transmission time ``C_j`` of every competing VL.
    mode:
        ``"paper"`` for the historical per-group credit, ``"windowed"``
        for the per-port max-group credit, ``"safe"`` for none (see
        module docstring).

    Only groups *not* sharing the studied flow's own trajectory qualify:
    frames arriving through the studied flow's own input link already
    had their interference accounted at the previous port.
    """
    if mode not in SERIALIZATION_MODES:
        raise ValueError(f"unknown serialization mode {mode!r}")
    if mode == "safe":
        return 0.0

    groups: Dict[Tuple[PortId, PortId], List[float]] = {}
    for vl_name, meet_port in first_meeting.items():
        upstream = network.upstream_port(vl_name, meet_port)
        if upstream is None:
            continue  # sourced at the port's owner: no shared link upstream
        if upstream in prefix_ports:
            continue  # shares the studied flow's own input link
        groups.setdefault((meet_port, upstream), []).append(transmission_time[vl_name])

    if mode == "paper":
        return math.fsum(
            math.fsum(members) - max(members)
            for members in groups.values()
            if len(members) >= 2
        )

    # "windowed": one credit per port — the largest group's span
    per_port: Dict[PortId, float] = {}
    for (meet_port, _upstream), members in groups.items():
        if len(members) >= 2:
            span = math.fsum(members) - max(members)
            per_port[meet_port] = max(per_port.get(meet_port, 0.0), span)
    return math.fsum(per_port.values())
