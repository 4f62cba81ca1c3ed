"""Shared machinery for the Fig. 2 parameter sweeps (Figs. 7-9).

Each sweep perturbs VL v1 of the paper's sample configuration and
recomputes both end-to-end bounds; the other four VLs keep the default
BAG 4 ms / s_max 500 B.
"""

from __future__ import annotations

from typing import Tuple

from repro.configs.fig2 import fig2_network
from repro.core.combined import AnalysisOptions, run_analyses

__all__ = ["DEFAULT_S_MAX_SWEEP_BYTES", "DEFAULT_BAG_SWEEP_MS", "bounds_for_v1"]

#: s_max values of the Fig. 7 sweep (paper: 100..1500 B).
DEFAULT_S_MAX_SWEEP_BYTES: Tuple[float, ...] = tuple(range(100, 1501, 100))

#: BAG values of the Fig. 8 sweep (paper: 1..128 ms, harmonic).
DEFAULT_BAG_SWEEP_MS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


def bounds_for_v1(
    s_max_bytes: float = 500.0, bag_ms: float = 4.0
) -> Tuple[float, float]:
    """(WCNC, Trajectory) end-to-end bounds for v1 with modified contract.

    Rebuilds the Fig. 2 configuration, replaces v1's BAG / ``s_max``
    and runs both analyses with the paper's options (grouping, the
    ``windowed`` serialization credit).
    """
    network = fig2_network()
    v1 = network.vl("v1").with_bag_ms(bag_ms).with_s_max_bytes(s_max_bytes)
    network.replace_virtual_link(v1)
    nc, trajectory = run_analyses(network, AnalysisOptions(serialization="windowed"))
    return nc.bound_us("v1"), trajectory.bound_us("v1")
