"""The what-if re-analysis engine (``DeltaAnalyzer``).

Interactive admission control edits a configuration one Virtual Link at
a time and needs fresh worst-case bounds after every edit.  The engine
applies the edits, reports which region they can affect, and re-analyzes
the edited configuration through a shared bound cache:

**Dirty-set propagation.**  An edit directly touches the output ports
on the edited VL's old and new paths (:class:`~repro.incremental.edits.
EditImpact`).  Because static AFDX routing is feed-forward, the set of
ports whose analysis *can* change is the downstream closure of that
seed over :func:`~repro.network.port_graph.port_successors`
(:func:`dirty_closure`); every port outside it sees bit-identical
inputs.  The VLs whose trajectory walks can change are exactly those
crossing a dirty port (:func:`dirty_vls`).  Both sizes are reported
(``n_dirty_ports`` / ``n_dirty_vls`` in the round stats and the
``afdx whatif`` report).

**Whole-result reuse.**  Each round runs the ordinary Network Calculus
and trajectory analyzers with a shared
:class:`~repro.incremental.cache.BoundCache`, which stores whole
results keyed by a fingerprint of the whole configuration plus the
analyzer parameters (:mod:`repro.incremental.fingerprint`).  A
configuration analyzed before — a repeated what-if query, a replayed
edit stream on a reopened ``cache_dir`` — costs one fingerprint and one
lookup; any other configuration is analyzed cold.  Finer reuse does not
pay: one edit of a realistic configuration dirties almost every VL
(93% on the 120-VL industrial configuration), so per-port and per-walk
entries rarely hit and cost more to write than to recompute.  The
results are bit-identical to a cold analysis by construction, which
``scripts/check.sh`` checks on a randomized edit stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.incremental.cache import BoundCache
from repro.incremental.edits import Edit, EditImpact, apply_edits
from repro.netcalc.analyzer import NetworkCalculusAnalyzer
from repro.netcalc.results import NetworkCalculusResult
from repro.network.port import PortId
from repro.network.port_graph import port_successors
from repro.network.topology import FlowPath, Network
from repro.obs.logging import get_logger, kv
from repro.trajectory.analyzer import TrajectoryAnalyzer
from repro.trajectory.results import TrajectoryResult

__all__ = [
    "DeltaAnalyzer",
    "DeltaResult",
    "BoundChange",
    "dirty_closure",
    "dirty_vls",
]

_LOG = get_logger("incremental")


def dirty_closure(network: Network, seeds: Iterable[PortId]) -> FrozenSet[PortId]:
    """Downstream closure of the seed ports over the port graph.

    Feed-forward routing means an edit at port ``p`` can only alter the
    entering buckets / arrival offsets of ports reachable from ``p`` —
    this closure is the complete set of ports whose analysis inputs may
    differ from the previous run.
    """
    successors = port_successors(network)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        port = stack.pop()
        for nxt in successors.get(port, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def dirty_vls(network: Network, closure: Iterable[PortId]) -> FrozenSet[str]:
    """VLs whose trajectory walk intersects the dirty closure.

    A VL's walk reads state only at the ports of its own tree (its
    competitors' ``Smax`` values *at those ports*), so a VL crossing no
    dirty port is untouched: its competitor set, ``Smax`` seed and
    meeting structure are all bit-identical to the previous run.
    """
    out: set = set()
    for port in closure:
        out.update(network.vls_at_port(port))
    return frozenset(out)


@dataclass(frozen=True)
class BoundChange:
    """Before/after end-to-end bounds of one VL path (``None`` = absent)."""

    flow: FlowPath
    nc_before_us: Optional[float]
    nc_after_us: Optional[float]
    trajectory_before_us: Optional[float]
    trajectory_after_us: Optional[float]

    @property
    def kind(self) -> str:
        if self.nc_before_us is None and self.trajectory_before_us is None:
            return "added"
        if self.nc_after_us is None and self.trajectory_after_us is None:
            return "removed"
        return "changed"


@dataclass
class DeltaResult:
    """Outcome of one (incremental) analysis round."""

    network: Network
    netcalc: NetworkCalculusResult
    trajectory: TrajectoryResult
    impact: Optional[EditImpact] = None
    dirty_ports: FrozenSet[PortId] = frozenset()
    dirty_vl_names: FrozenSet[str] = frozenset()
    changed: Dict[FlowPath, BoundChange] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)


class DeltaAnalyzer:
    """Re-analyzes a configuration across a stream of edits.

    Parameters mirror the sequential analyzers (bit-identical results
    are part of the contract); ``cache`` / ``cache_dir`` configure the
    shared :class:`BoundCache` (a fresh in-memory cache by default).

    Usage::

        engine = DeltaAnalyzer(network, cache_dir="~/.afdx-cache")
        engine.analyze_base()          # cold run, warms the cache
        delta = engine.apply(edits)    # re-analysis of the edited config
        for change in delta.changed.values(): ...

    ``apply`` chains: each call edits the network produced by the
    previous one, exactly like the admission-control repair loop.
    """

    def __init__(
        self,
        network: Network,
        cache: Optional[BoundCache] = None,
        cache_dir=None,
        grouping: bool = True,
        frame_overhead_bytes: float = 0.0,
        serialization=True,
        refine_smax: bool = True,
        max_refinements: int = 8,
        collect_stats: bool = False,
        progress=None,
        explain: bool = False,
    ) -> None:
        if cache is None:
            cache = BoundCache(cache_dir=cache_dir)
        elif cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.cache = cache
        self.grouping = grouping
        self.frame_overhead_bytes = frame_overhead_bytes
        self.serialization = serialization
        self.refine_smax = refine_smax
        self.max_refinements = max_refinements
        self.explain = explain
        self.collect_stats = collect_stats
        self.progress = progress
        self._network = network
        self._last: Optional[DeltaResult] = None

    @property
    def network(self) -> Network:
        """The current configuration (after all applied edits)."""
        return self._network

    @property
    def last_result(self) -> Optional[DeltaResult]:
        return self._last

    # ------------------------------------------------------------------

    def analyze_base(self) -> DeltaResult:
        """Analyze the current configuration (cold on a fresh cache).

        Idempotent; the first :meth:`apply` runs it implicitly so that
        "changed bounds" always have a baseline to diff against.
        """
        if self._last is None:
            counters_before = self.cache.stats()
            netcalc, trajectory = self._run(self._network)
            self._last = DeltaResult(
                network=self._network,
                netcalc=netcalc,
                trajectory=trajectory,
                stats=self._round_stats(
                    self._network, counters_before, dirty_ports=None, dirty=None
                ),
            )
        return self._last

    def apply(self, edits: Sequence[Edit]) -> DeltaResult:
        """Apply edits to the current network and re-analyze it."""
        previous = self.analyze_base()
        edited, impact = apply_edits(self._network, edits)
        closure = dirty_closure(edited, impact.dirty_ports)
        touched = dirty_vls(edited, closure) | impact.changed_vls

        counters_before = self.cache.stats()
        netcalc, trajectory = self._run(edited)
        result = DeltaResult(
            network=edited,
            netcalc=netcalc,
            trajectory=trajectory,
            impact=impact,
            dirty_ports=closure,
            dirty_vl_names=touched,
            changed=self._diff(previous, netcalc, trajectory),
            stats=self._round_stats(edited, counters_before, closure, touched),
        )
        _LOG.debug(
            "delta applied %s",
            kv(
                edits=len(edits),
                dirty_ports=len(closure),
                dirty_vls=len(touched),
                changed_paths=len(result.changed),
            ),
        )
        self._network = edited
        self._last = result
        return result

    # ------------------------------------------------------------------

    def _run(self, network: Network) -> Tuple[NetworkCalculusResult, TrajectoryResult]:
        netcalc = NetworkCalculusAnalyzer(
            network,
            grouping=self.grouping,
            frame_overhead_bytes=self.frame_overhead_bytes,
            collect_stats=self.collect_stats,
            progress=self.progress,
            incremental=True,
            cache=self.cache,
            explain=self.explain,
        ).analyze()
        trajectory = TrajectoryAnalyzer(
            network,
            serialization=self.serialization,
            refine_smax=self.refine_smax,
            max_refinements=self.max_refinements,
            collect_stats=self.collect_stats,
            progress=self.progress,
            incremental=True,
            cache=self.cache,
            explain=self.explain,
            nc_result=netcalc,
        ).analyze()
        return netcalc, trajectory

    @staticmethod
    def _diff(
        previous: DeltaResult,
        netcalc: NetworkCalculusResult,
        trajectory: TrajectoryResult,
    ) -> Dict[FlowPath, BoundChange]:
        """Paths whose bounds changed, appeared or disappeared (exact compare)."""
        changed: Dict[FlowPath, BoundChange] = {}
        keys = set(previous.netcalc.paths) | set(netcalc.paths)
        for key in sorted(keys):
            nc_before = (
                previous.netcalc.paths[key].total_us
                if key in previous.netcalc.paths
                else None
            )
            nc_after = netcalc.paths[key].total_us if key in netcalc.paths else None
            tr_before = (
                previous.trajectory.paths[key].total_us
                if key in previous.trajectory.paths
                else None
            )
            tr_after = (
                trajectory.paths[key].total_us if key in trajectory.paths else None
            )
            if nc_before != nc_after or tr_before != tr_after:
                changed[key] = BoundChange(
                    flow=key,
                    nc_before_us=nc_before,
                    nc_after_us=nc_after,
                    trajectory_before_us=tr_before,
                    trajectory_after_us=tr_after,
                )
        return changed

    def _round_stats(
        self,
        network: Network,
        counters_before: Dict[str, int],
        dirty_ports: Optional[FrozenSet[PortId]],
        dirty: Optional[FrozenSet[str]],
    ) -> Dict[str, object]:
        after = self.cache.stats()
        stats: Dict[str, object] = {
            "n_ports": len(network.used_ports()),
            "n_vls": len(network.virtual_links),
            "cache": {
                name: after[name] - counters_before.get(name, 0) for name in after
            },
            "cache_totals": after,
            "cache_entries": len(self.cache),
        }
        if dirty_ports is not None:
            stats["n_dirty_ports"] = len(dirty_ports)
        if dirty is not None:
            stats["n_dirty_vls"] = len(dirty)
        return stats
