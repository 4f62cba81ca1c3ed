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

This module names the modes; the trajectory kernel computes the
credits (:class:`~repro.trajectory.analyzer.TrajectoryAnalyzer`).

**Re-meetings (audit note).**  The credit covers only *first*
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

__all__ = [
    "DEFAULT_SERIALIZATION",
    "SERIALIZATION_MODES",
    "normalize_mode",
]

SERIALIZATION_MODES = ("paper", "windowed", "safe")

#: The mode every analysis runs unless told otherwise: the trajectory
#: analyzer, :class:`repro.core.combined.AnalysisOptions` and the
#: ``afdx --serialization`` flag.  ``"safe"``, the only mode whose
#: bounds no simulated release pattern exceeds: with the credit,
#: ``"windowed"`` bounds fig2's ``v2`` by 232.0 us and fig1's ``v7`` by
#: 499.2 us, yet delaying ``v4``'s releases drives them to 248.83 and
#: 539.20 us (``tests/trajectory/test_serialization.py::
#: TestDefaultIsSound``).  The paper's evaluation runs name
#: ``"windowed"``, which reproduces its Fig. 4 example exactly.
DEFAULT_SERIALIZATION = "safe"


def normalize_mode(serialization) -> str:
    """Check a public ``serialization`` argument and return its mode.

    Only the names in :data:`SERIALIZATION_MODES` are accepted; anything
    else, ``True`` and ``False`` included, raises :class:`ValueError`.
    """
    if isinstance(serialization, str) and serialization in SERIALIZATION_MODES:
        return serialization
    raise ValueError(
        f"serialization must be one of {', '.join(map(repr, SERIALIZATION_MODES))}, "
        f"got {serialization!r}"
    )
