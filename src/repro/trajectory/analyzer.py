"""The Trajectory-approach analyzer.

For every Virtual-Link path the analyzer maximizes, over the candidate
release instants ``t`` of the source-port busy period, the latest
completion time of the studied packet at its last port:

    ``R_i(t) = sum_j N_j(t) C_j  +  sum_k Delta_k  +  sum_k L_k
               - serialization_gain - t``

where ``N_j`` counts the frames of every flow sharing at least one port
with the path (each flow counted once, at its first meeting port,
offset by ``A_ij = Smax_j - Smin_i``), ``Delta_k`` is the
"frame counted twice" bound at each port transition (the largest frame
crossing the port — the paper's Sec. III-B-1 pessimism source), and
``L_k`` the technological latencies.

``Smax`` is refined by a sound descending fixed point: it is seeded
from the Network Calculus per-port bounds (valid upper bounds) and
tightened with trajectory prefix bounds until stable, so the analysis
is sound after *any* number of sweeps.

In ``"safe"`` mode the competitor counter additionally applies the
**catch-up correction**: the historical Martin & Minet alignment
``A_ij = Smax_j(f) - Smin_i(f)`` misses frames of a competitor released
*after* the studied packet that still reach the first shared queue
before it — feasible whenever the studied flow's longest transit to the
meeting port exceeds the competitor's shortest one (long prefixes
meeting short feeders, the ``random_network(589)`` soundness violation).
Safe mode therefore uses ``A_ij = max(Smax_j(f) - Smin_i(f),
Smax_i(f) - Smin_j(f))``, which covers both the delayed-competitor and
the delayed-studied-packet alignments.  The reproduction modes
(``"paper"`` / ``"windowed"``) keep the historical counter.

Implementation note: each sweep walks every VL's multicast tree once,
maintaining the competitor set, the base workload and the candidate
jump events incrementally (with rollback on backtrack), so the cost per
tree port is proportional to the *new* competitors met there rather
than to the whole competitor set — this is what keeps the ~1000-VL
industrial configuration tractable in seconds.  The walk reads flat
per-port competitor tables (parallel ``(C, T, Smin, Smax)`` arrays over
each port's sorted members) instead of dict walks; the meeting
structure is resolved once per port path into member *indices*;
finished walks are memoized across sweeps keyed by the packed ``Smax``
slices they read (``repro.incremental``'s content-addressed packing),
so a converged region is never re-walked; and the candidate scan prunes
provably dominated instants (:meth:`TrajectoryAnalyzer._maximize`).

None of this changes a float: every bound replays the operation
sequence of the plain dict-based walk, which is kept as a test oracle
in ``tests/trajectory/reference_kernel.py``.  ``scripts/kernel_gate.py``
diffs the two bit for bit on every ``make check``; only
``n_candidates`` may be smaller here (see ``docs/PERFORMANCE.md`` for
the dominance proof).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult
from repro.network.port import PortId
from repro.network.port_graph import topological_port_order
from repro.network.topology import Network
from repro.network.validation import check_network
from repro.obs.costmodel import CostLedger, record_trajectory_sweep
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv
from repro.trajectory.busy_period import busy_period_bound, interference_count
from repro.trajectory.results import TrajectoryPathBound, TrajectoryResult
from repro.trajectory.serialization import DEFAULT_SERIALIZATION, normalize_mode
from repro.trajectory.timing import (
    FlowPortKey,
    compute_smin,
    seed_smax_from_netcalc,
    tree_prefixes,
)

__all__ = ["TrajectoryAnalyzer", "analyze_trajectory"]

_LOG = get_logger("trajectory")

_EPS = 1e-6

#: smallest per-port competitor batch worth the numpy
#: dispatch overhead; smaller batches run the scalar fold loop (both
#: paths compute the same floats, so the threshold is purely a tuning
#: knob, not a semantics switch)
_VEC_MIN = 16

#: boundary tolerance of the `interference_count` fast path (one part
#: in 2^50 of the quotient — 8x the worst-case division error)
_BOUNDARY_TOL = 2.0 ** -50


def _batch_fold(
    c: "np.ndarray", period: "np.ndarray", offset: "np.ndarray", horizon: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vector twin of the scalar per-competitor fold.

    ``bases[i]`` is bit-identical to
    ``interference_count(0.0, offset[i], period[i]) * c[i]``: every
    operation is the same IEEE-754 double operation the scalar code
    performs, executed elementwise (numpy ufuncs round each element
    independently — there is no re-association to drift on).  Elements
    near a period boundary fall back to the exact scalar counter, just
    like the scalar fast path does.

    ``maybe`` lists the positions whose first counter jump
    ``fl((offset // period + 1) * period - offset)`` — the exact float
    the scalar event loop tests first — lands inside the busy period.
    Only those flows can contribute candidate events; callers fold them
    through the exact `_flow_events` path.  On avionics-shaped
    configurations (BAG orders of magnitude above the busy period) the
    list is almost always empty, which is what makes the batch fold
    worth it: the common case is pure elementwise arithmetic.
    """
    quotient = offset / period
    k = np.floor(quotient)
    fraction = quotient - k
    tolerance = (quotient + 1.0) * _BOUNDARY_TOL
    counts = k + 1.0
    exact = (tolerance < fraction) & (fraction < 1.0 - tolerance)
    negative = offset < 0.0
    counts[negative] = 0.0
    for i in (~(exact | negative)).nonzero()[0].tolist():
        counts[i] = interference_count(0.0, float(offset[i]), float(period[i]))
    bases = counts * c
    first_jump = (np.floor_divide(offset, period) + 1.0) * period - offset
    maybe = (first_jump < horizon).nonzero()[0]
    return bases, maybe


def _replay_add(value: float, terms) -> float:
    """``(((value + t0) + t1) + ...)`` — the exact sequential chain.

    This *is* the reference walk's accumulation: a ``+=`` chain over
    the per-flow bases in add order.  The batch fold hands the bases
    over as a tuple of Python floats so replaying a cached fold costs a
    plain scalar loop (cheaper than any numpy round-trip at the 16-64
    element sizes involved).  Pass the negated terms for the rollback
    chain: IEEE-754 guarantees ``a - b == a + (-b)`` exactly.
    """
    for term in terms:
        value += term
    return value


def _flow_events(
    c: float, period: float, offset: float, horizon: float
) -> Tuple[float, Tuple[Tuple[float, float], ...]]:
    """One flow's base workload and candidate jump events ``(t, C)``.

    Pure in its four floats, which is what makes the
    event memo in :meth:`TrajectoryAnalyzer._walk_tree` exact: the same
    ``(C, T, A, horizon)`` always reproduces the same event tuple.
    """
    base = interference_count(0.0, offset, period) * c
    flow_events = []
    k = int((offset // period) + 1)
    while True:
        t = k * period - offset
        if t >= horizon:
            break
        if t > _EPS:
            flow_events.append((t, c))
        k += 1
    return base, tuple(flow_events)


class TrajectoryAnalyzer:
    """Computes Trajectory end-to-end delay bounds for every VL path.

    Parameters
    ----------
    network:
        The configuration to analyze (not mutated).
    serialization:
        Input-link serialization credit (the "enhanced trajectory
        approach" of the paper's Fig. 4), by name.  ``"windowed"`` (the
        default, :data:`~repro.trajectory.serialization.DEFAULT_SERIALIZATION`)
        applies one credit per port (the reconstruction matching the
        published evaluation); ``"paper"`` applies the literal
        per-group credit (known to be optimistic in corner cases — see
        :mod:`repro.trajectory.serialization`); ``"safe"`` runs the
        provably sound plain analysis.  Any other value, a bool
        included, raises :class:`ValueError`.
    refine_smax:
        Tighten the ``Smax`` arrival-jitter terms with trajectory
        prefix bounds (default True).  When False the Network Calculus
        seed is used as-is (single sweep) — the ablation of
        ``benchmarks/bench_ablation_fixpoint.py``.
    max_refinements:
        Upper bound on fixed-point sweeps.
    collect_stats:
        Record per-phase spans, counters and the sweep-convergence
        trace (:mod:`repro.obs`) and attach them to the result's
        ``stats`` field.  Off by default: the uninstrumented run is
        bit-identical to the pre-observability analyzer.
    progress:
        Optional ``callable(phase, done, total)`` invoked as each
        sweep walks the VL population.
    incremental:
        Serve the whole result (and its cost ledger) from a
        content-addressed :class:`~repro.incremental.cache.BoundCache`
        keyed by :meth:`result_fingerprint`.  A hit is bit-identical to
        recomputation: the fingerprint covers the whole network and
        every analyzer parameter.
    cache:
        The cache to use when ``incremental``; defaults to the
        process-wide cache.  Passing a cache implies
        ``incremental=True``.
    explain:
        Attach per-path bound provenance ledgers
        (:func:`repro.explain.trajectory.trajectory_provenance`) to the
        result.  The bounds themselves are bit-identical either way;
        the only recording cost is one ``Smax`` snapshot per sweep.
        Under ``incremental`` the whole-result cache is skipped —
        provenance needs the final sweep's live state, so it is always
        recomputed, never served stale.
    nc_result:
        The caller's Network Calculus result for the same network, so
        that the combined approach runs NC once
        (:func:`repro.core.combined.run_analyses` passes it).  It
        becomes the ``Smax`` seed only when it is the default seed
        (grouping on, frame overhead 0); otherwise the analyzer seeds
        itself, as it does without one.  Either way the run counts as self-seeded:
        bounds and result-cache entries are those of a run without
        ``nc_result``.  A result whose path keys differ from the
        network's raises :class:`ValueError`.
    """

    def __init__(
        self,
        network: Network,
        serialization: str = DEFAULT_SERIALIZATION,
        refine_smax: bool = True,
        max_refinements: int = 8,
        collect_stats: bool = False,
        progress=None,
        incremental: bool = False,
        cache=None,
        explain: bool = False,
        nc_result: Optional[NetworkCalculusResult] = None,
    ):
        if max_refinements < 1:
            raise ValueError(f"max_refinements must be >= 1, got {max_refinements}")
        if nc_result is not None and nc_result.paths.keys() != network.path_keys():
            raise ValueError(
                "nc_result covers different VL paths than the network; "
                "pass the Network Calculus result of the same configuration"
            )
        self.network = network
        self.serialization_mode = normalize_mode(serialization)
        self.refine_smax = refine_smax
        self.max_refinements = max_refinements
        self.incremental = incremental or cache is not None
        self.explain = explain
        self._cache = cache
        self._result_fp: Optional[str] = None
        self._obs = Instrumentation.create(collect_stats, progress)
        # the one seed rule: only the default seed may replace the NC
        # run prepare() would make (the result fingerprint assumes it)
        self._nc_seed = (
            nc_result
            if nc_result is not None
            and nc_result.grouping
            and nc_result.frame_overhead_bytes == 0
            else None
        )
        self._result: Optional[TrajectoryResult] = None
        self._prepared = False
        self._event_memo_enabled = True  # test hook: equivalence guard
        # explain=True recording: the Smax map the final sweep ran with
        # and that sweep's complete prefix-bound dictionary
        self._explain_smax: Optional[Dict[FlowPortKey, float]] = None
        self._explain_bounds: Optional[Dict[FlowPortKey, TrajectoryPathBound]] = None

    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Validate, seed ``Smax`` and precompute sweep-invariant state.

        The seed comes from the constructor's ``nc_result`` when it is
        the default seed, else from a Network Calculus run of its own.
        Idempotent: the first call wins.
        """
        if self._prepared:
            return
        network = self.network
        obs = self._obs
        with obs.tracer.span("trajectory.validate"):
            check_network(network)
            topological_port_order(network)  # raises CyclicRoutingError if cyclic

        nc_seed = self._nc_seed
        if nc_seed is None:
            with obs.tracer.span("trajectory.nc_seed"):
                nc_seed = analyze_network_calculus(
                    network,
                    grouping=True,
                    incremental=self.incremental,
                    cache=self._cache,
                )
        smax_seed = seed_smax_from_netcalc(network, nc_seed)
        with obs.tracer.span("trajectory.precompute"):
            self._smin = compute_smin(network)
            self._smax: Dict[FlowPortKey, float] = dict(smax_seed)
            self._prefixes = tree_prefixes(network)
            self._precompute_structure()
        self._prepared = True

    def result_fingerprint(self) -> str:
        """Digest of the whole analysis' inputs (network + parameters)."""
        if self._result_fp is None:
            from repro.incremental.fingerprint import network_fingerprint, stable_digest

            self._result_fp = stable_digest(
                "trajresult",
                network_fingerprint(self.network),
                self.serialization_mode,
                self.refine_smax,
                self.max_refinements,
            )
        return self._result_fp

    def _result_cache(self):
        """The bound cache serving whole results, or None.

        None when not incremental, and under ``explain``: provenance
        needs the final sweep's live state, so it is never served from
        the cache.
        """
        if not self.incremental or self.explain:
            return None
        if self._cache is None:
            # imported lazily: repro.incremental depends on this module
            from repro.incremental.cache import default_cache

            self._cache = default_cache()
        return self._cache

    def cached_result(self) -> Optional[TrajectoryResult]:
        """The whole result from the bound cache, or None on a miss.

        The fingerprint does not cover the ``Smax`` seed: a hit is the
        result of the default seeding (a grouped, overhead-free Network
        Calculus run, what :meth:`prepare` computes or takes from
        ``nc_result``).  An entry whose path keys differ from the
        network's is stale and counts as a miss; the caller recomputes
        and overwrites it.  The hit is a shallow copy carrying the
        stats a computed run would attach, with the cold run's
        deterministic ledger sections.
        """
        cache = self._result_cache()
        if cache is None:
            return None
        obs = self._obs
        with obs.tracer.span("trajectory.result_probe"):
            fingerprint = self.result_fingerprint()
            cached = cache.get("traj.result", fingerprint)
        if cached is None:
            return None
        if cached.paths.keys() != self.network.path_keys():
            cache.reject("traj.result", fingerprint)
            return None
        result = TrajectoryResult(
            serialization=cached.serialization,
            refinement_iterations=cached.refinement_iterations,
            paths=dict(cached.paths),
        )
        if obs.enabled:
            obs.metrics.counter("trajectory.result_cache_hit", 1)
            # the deterministic ledger sections travel with the cached
            # result; the hit itself is recorded as an explicit cache
            # entry, never silently absent
            cached_cost = cache.get("traj.cost", fingerprint)
            ledger = (
                cached_cost.snapshot()
                if isinstance(cached_cost, CostLedger)
                else CostLedger("trajectory")
            )
            ledger.record_cache("result", 1, 0)
            stats = obs.export()
            stats["cost"] = ledger.to_dict()
            result.stats = stats
        _LOG.debug("trajectory result cache hit %s", kv(paths=len(result.paths)))
        return result

    def store_result(self, result: TrajectoryResult, ledger: CostLedger) -> bool:
        """Put a computed result and its ledger into the bound cache.

        Only for a result of the default seeding (see
        :meth:`cached_result`).  The ledger is stored as a snapshot —
        deterministic sections only — so a warm hit reconstructs them
        byte-identically while recording its own cache tallies.
        Returns False, storing nothing, when :meth:`cached_result`
        would never probe.
        """
        cache = self._result_cache()
        if cache is None:
            return False
        fingerprint = self.result_fingerprint()
        cache.put(
            "traj.result",
            fingerprint,
            TrajectoryResult(
                serialization=result.serialization,
                refinement_iterations=result.refinement_iterations,
                paths=dict(result.paths),
            ),
        )
        cache.put("traj.cost", fingerprint, ledger.snapshot())
        return True

    def analyze(self) -> TrajectoryResult:
        """Run the analysis and return (and cache) the result."""
        if self._result is not None:
            return self._result
        obs = self._obs
        collect = obs.enabled

        # an analyzer already prepared may have been stepped by hand
        # (sweep_vls / tighten_smax), which the fingerprint does not
        # cover, so only a fresh run touches the result cache
        cacheable = not self._prepared and self._result_cache() is not None
        if cacheable:
            cached = self.cached_result()
            if cached is not None:
                self._result = cached
                return cached

        self.prepare()

        bounds: Dict[FlowPortKey, TrajectoryPathBound] = {}
        sweeps = 0
        sweep_trace: List[Dict[str, object]] = []
        # integer sums over the sweep's own bounds: cheap, and computed
        # whenever either a stats consumer or the result cache needs it
        # (a cold stats-off run must still persist the ledger so a warm
        # stats-on run reads identical deterministic sections)
        ledger = CostLedger("trajectory") if collect or cacheable else None
        for _ in range(self.max_refinements):
            with obs.tracer.span("trajectory.sweep", sweep=sweeps + 1) as span:
                if self.explain:
                    # the last snapshot taken is the map the final
                    # sweep ran with — what the provenance replay reads
                    self._explain_smax = dict(self._smax)
                bounds = self._sweep()
                sweeps += 1
                stable = True
                smax_updates: Dict[FlowPortKey, float] = {}
                max_delta = 0.0
                if self.refine_smax:
                    smax_updates, max_delta = self.tighten_smax(bounds)
                    stable = not smax_updates
                if ledger is not None:
                    record_trajectory_sweep(
                        ledger, bounds, smax_updates=len(smax_updates)
                    )
                if collect:
                    span.attrs.update(smax_updates=len(smax_updates))
                    sweep_trace.append(
                        {
                            "sweep": sweeps,
                            "smax_updates": len(smax_updates),
                            "max_delta_us": round(max_delta, 6),
                        }
                    )
                _LOG.debug(
                    "sweep done %s",
                    kv(
                        sweep=sweeps,
                        smax_updates=len(smax_updates),
                        max_delta_us=max_delta,
                    ),
                )
            if stable:
                break

        result = self.build_result(bounds, sweeps)
        if ledger is not None:
            ledger.add_work("paths_bound", len(result.paths))
        if self.explain:
            self._explain_bounds = bounds
            with obs.tracer.span("trajectory.explain"):
                self._attach_provenance(result)
        if cacheable:
            self.store_result(result, ledger)
        if ledger is not None:
            for name, (hits, misses) in sorted(self.cache_stats().items()):
                ledger.record_cache(name, hits, misses)
            if cacheable:
                ledger.record_cache("result", 0, 1)
        if collect:
            obs.metrics.counter("trajectory.sweeps", sweeps)
            obs.metrics.counter("trajectory.tree_ports_visited", sweeps * len(bounds))
            obs.metrics.counter(
                "trajectory.competitors_met",
                # repro-lint: allow[REPRO101] integer competitor counts; exact in floats
                sum(b.n_competitors for b in bounds.values()),
            )
            obs.metrics.counter(
                "trajectory.candidates_evaluated",
                # repro-lint: allow[REPRO101] integer candidate counts; exact in floats
                sum(b.n_candidates for b in bounds.values()),
            )
            obs.metrics.counter("trajectory.paths_bound", len(result.paths))
            for name, (hits, misses) in sorted(self.cache_stats().items()):
                obs.metrics.counter(f"trajectory.{name}_cache_hits", hits)
                obs.metrics.counter(f"trajectory.{name}_cache_misses", misses)
            stats = obs.export()
            stats["sweeps"] = sweep_trace
            stats["cost"] = ledger.to_dict()
            result.stats = stats
        _LOG.debug(
            "trajectory done %s",
            kv(
                sweeps=sweeps,
                paths=len(result.paths),
                serialization=self.serialization_mode,
            ),
        )
        self._result = result
        return result

    def _attach_provenance(self, result: TrajectoryResult) -> None:
        """Replay the final sweep and attach the per-path ledgers.

        Lazy import: the explain layer costs nothing unless requested.
        Requires ``_explain_smax`` / ``_explain_bounds`` to be set
        (done by :meth:`analyze`).
        """
        from repro.explain.trajectory import trajectory_provenance

        result.provenance = trajectory_provenance(self, result)

    def build_result(
        self, bounds: Dict[FlowPortKey, TrajectoryPathBound], sweeps: int
    ) -> TrajectoryResult:
        """Per-path result from one converged sweep's prefix bounds."""
        result = TrajectoryResult(
            serialization=self.serialization_mode, refinement_iterations=sweeps
        )
        for vl_name, path_index, node_path in self.network.flow_paths():
            last_port = (node_path[-2], node_path[-1])
            detail = bounds[(vl_name, last_port)]
            result.paths[(vl_name, path_index)] = TrajectoryPathBound(
                vl_name=vl_name,
                path_index=path_index,
                node_path=tuple(node_path),
                port_ids=tuple((a, b) for a, b in zip(node_path, node_path[1:])),
                total_us=detail.total_us,
                critical_instant_us=detail.critical_instant_us,
                busy_period_us=detail.busy_period_us,
                workload_us=detail.workload_us,
                transition_us=detail.transition_us,
                latency_us=detail.latency_us,
                serialization_gain_us=detail.serialization_gain_us,
                n_competitors=detail.n_competitors,
                n_candidates=detail.n_candidates,
            )
        return result

    # ------------------------------------------------------------------
    # Structural precomputation (sweep-invariant)
    # ------------------------------------------------------------------

    def _precompute_structure(self) -> None:
        """Sweep-invariant per-port tables, per-VL trees and memo tiers.

        Each used port gets one tuple of parallel arrays, indexed by the
        position of each member in the port's sorted member tuple:

        ``(members, C, T, vl_index, upstream, Smin, position)``

        ``C`` is built with the exact expression the reference walk
        evaluates per meeting (``vl.s_max_bits / rate``), so every float
        read from these tables is bit-identical to the dict walk.
        ``Smax`` is the only sweep-varying input; its per-port slices
        are rebuilt lazily each sweep (:meth:`_smax_slice`).
        """
        network = self.network
        vl_order = sorted(network.virtual_links)
        self._vl_index: Dict[str, int] = {
            name: index for index, name in enumerate(vl_order)
        }
        self._n_vls = len(vl_order)
        # sorted flow tuple per port: a deterministic iteration order
        # regardless of process hash seed (frozenset order is not)
        self._port_vls: Dict[PortId, Tuple[str, ...]] = {
            pid: tuple(sorted(network.vls_at_port(pid)))
            for pid in network.used_ports()
        }
        # largest frame transmission time crossing each port (Delta term)
        self._port_max_c: Dict[PortId, float] = {}
        self._port_rate: Dict[PortId, float] = {}
        for pid, members in self._port_vls.items():
            rate = network.link_rate(*pid)
            self._port_rate[pid] = rate
            self._port_max_c[pid] = max(
                network.vl(v).s_max_bits / rate for v in members
            )
        # owner-node technological latency per port (hot in every visit)
        self._port_lat: Dict[PortId, float] = {
            pid: network.node(pid[0]).technological_latency_us
            for pid in self._port_vls
        }
        # per-VL multicast tree: root port and children adjacency
        self._trees: Dict[str, Tuple[PortId, Dict[PortId, List[PortId]]]] = {}
        for vl_name in network.virtual_links:
            children: Dict[PortId, List[PortId]] = {}
            root: Optional[PortId] = None
            for path in network.vl(vl_name).paths:
                ports = [(a, b) for a, b in zip(path, path[1:])]
                root = ports[0]
                for parent, child in zip(ports, ports[1:]):
                    siblings = children.setdefault(parent, [])
                    if child not in siblings:
                        siblings.append(child)
            assert root is not None
            self._trees[vl_name] = (root, children)
        # each VL's tree ports in walk order: the per-VL key of the
        # sweep memo
        self._walk_tree_ports: Dict[str, Tuple[PortId, ...]] = {
            name: tuple(self._tree_ports(name)) for name in vl_order
        }
        # upstream port of each VL at each of its tree ports
        self._upstream: Dict[FlowPortKey, Optional[PortId]] = {
            key: network.upstream_port(key[0], key[1]) for key in self._prefixes
        }
        # per-port tuples plus their numpy mirrors for the batched fold
        # (`_batch_fold`) on wide ports; the fifth numpy column maps
        # each member's upstream port to a small per-port integer id
        # (-1 for source members) for the serialization-gain grouping.
        self._port_tab: Dict[PortId, Tuple] = {}
        self._port_np: Dict[PortId, Tuple] = {}
        for pid, members in self._port_vls.items():
            rate = self._port_rate[pid]
            tab = (
                members,
                tuple(network.vl(m).s_max_bits / rate for m in members),
                tuple(network.vl(m).bag_us for m in members),
                tuple(self._vl_index[m] for m in members),
                tuple(self._upstream[(m, pid)] for m in members),
                tuple(self._smin[(m, pid)] for m in members),
                {m: index for index, m in enumerate(members)},
            )
            self._port_tab[pid] = tab
            upstream_ids: Dict[PortId, int] = {}
            mup_id = []
            for up in tab[4]:
                if up is None:
                    mup_id.append(-1)
                else:
                    mup_id.append(upstream_ids.setdefault(up, len(upstream_ids)))
            self._port_np[pid] = (
                np.array(tab[1], dtype=np.float64),
                np.array(tab[2], dtype=np.float64),
                np.array(tab[3], dtype=np.intp),
                np.array(tab[5], dtype=np.float64),
                np.array(mup_id, dtype=np.intp),
            )

        # ---- memo tiers ----------------------------------------------
        # the source busy period only involves flows sourced at the root
        # ES port, all with zero arrival offset, so it is one number per
        # root port shared by every VL of that port and every sweep
        self._horizon_cache: Dict[PortId, float] = {}
        # candidate-event memo: the jump instants of a competitor entry
        # depend only on (C, T, offset, horizon), and the same entry
        # recurs at every meeting port of every studied VL sharing it
        # (`_flow_events`)
        self._event_cache: Dict[
            Tuple[float, float, float, float], Tuple[float, Tuple[Tuple[float, float], ...]]
        ] = {}
        # (port, parent) -> bool column: does each member cross parent?
        # (the re-meeting test of `_discover_meetings`, vectorized)
        self._crosses_cache: Dict[Tuple[PortId, PortId], "np.ndarray"] = {}
        # shared-path meeting tree: the met bitmap at any walk node is
        # the union of the path ports' member sets — independent of
        # *which* member is the studied VL — so discovery results are
        # keyed by the port path from the root, not per VL.  Each node
        # is ``[entry, children, fold_cache]`` with ``children``
        # keyed by port and ``fold_cache`` keyed by the fold inputs
        # ``(Smin_i, Smax_i, packed port Smax)`` — a hit replays the
        # node's batch bases and events bit for bit across sweeps
        self._meet_tree: Dict[PortId, list] = {}
        # per-sweep packed Smax slices and raw slices, one per port
        # (`_port_pack`, `_smax_slice`) — cleared every sweep
        self._port_packs: Dict[PortId, bytes] = {}
        self._port_smax: Dict[PortId, List[float]] = {}
        self._port_smax_np: Dict[PortId, "np.ndarray"] = {}
        # cross-sweep walk memo: vl -> (packed Smax slices, bounds);
        # a walk whose entire Smax input is unchanged since the last
        # sweep is replayed from here without touching the tree
        self._sweep_memo: Dict[str, Tuple[bytes, Dict]] = {}
        self._cache_counters: Dict[str, List[int]] = {
            "horizon": [0, 0],
            "meetings": [0, 0],
            "events": [0, 0],
            "sweep_memo": [0, 0],
        }

    def _smax_slice(self, port: PortId) -> List[float]:
        """This sweep's ``Smax`` values of one port's members, in order."""
        arr = self._port_smax.get(port)
        if arr is None:
            smax = self._smax
            arr = [smax[(m, port)] for m in self._port_vls[port]]
            self._port_smax[port] = arr
        return arr

    def _smax_np(self, port: PortId) -> "np.ndarray":
        """:meth:`_smax_slice` as a numpy column (same floats)."""
        arr = self._port_smax_np.get(port)
        if arr is None:
            arr = np.array(self._smax_slice(port), dtype=np.float64)
            self._port_smax_np[port] = arr
        return arr

    def _tree_ports(self, vl_name: str) -> List[PortId]:
        """One VL's tree ports in the DFS preorder :meth:`_walk_tree` visits."""
        root, children = self._trees[vl_name]
        out: List[PortId] = []
        stack = [root]
        while stack:
            port = stack.pop()
            out.append(port)
            stack.extend(reversed(children.get(port, ())))
        return out

    def _port_pack(self, port: PortId) -> bytes:
        """This sweep's packed ``Smax`` slice of one port's members."""
        pack = self._port_packs.get(port)
        if pack is None:
            from repro.incremental.fingerprint import pack_floats

            smax = self._smax
            pack = pack_floats([smax[(m, port)] for m in self._port_vls[port]])
            self._port_packs[port] = pack
        return pack

    def cache_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-cache ``(hits, misses)`` of the per-node memo caches."""
        if not self._prepared:
            return {}
        return {
            name: (hits, misses)
            for name, (hits, misses) in self._cache_counters.items()
        }

    # ------------------------------------------------------------------
    # One fixed-point sweep
    # ------------------------------------------------------------------

    def tighten_smax(
        self, bounds: Dict[FlowPortKey, TrajectoryPathBound]
    ) -> Tuple[Dict[FlowPortKey, float], float]:
        """One descending update of Smax.

        Returns ``(tightened entries, largest tightening in us)`` —
        ``({}, 0.0)`` means the fixed point is stable.

        A frame of ``v`` arrives in the queue of port ``p_k`` at most
        ``R_v(prefix through p_{k-1}) + latency(p_k owner)`` after its
        release; taking the min with the previous value keeps the map a
        sound upper bound throughout.
        """
        updates: Dict[FlowPortKey, float] = {}
        max_delta = 0.0
        for (vl_name, pid), prefix in self._prefixes.items():
            if len(prefix) < 2:
                continue
            upstream = prefix[-2]
            candidate = (
                bounds[(vl_name, upstream)].total_us
                + self.network.node(pid[0]).technological_latency_us
            )
            delta = self._smax[(vl_name, pid)] - candidate
            if delta > _EPS:
                self._smax[(vl_name, pid)] = candidate
                updates[(vl_name, pid)] = candidate
                if delta > max_delta:
                    max_delta = delta
        return updates, max_delta

    def _sweep(self) -> Dict[FlowPortKey, TrajectoryPathBound]:
        return self.sweep_vls(list(self.network.virtual_links))

    def sweep_vls(
        self, vl_names: List[str]
    ) -> Dict[FlowPortKey, TrajectoryPathBound]:
        """Walk the given VLs' trees once with the current ``Smax`` map.

        The prefix bounds of different VLs are independent within one
        sweep, so any subset of VLs may be swept on its own.
        """
        if not self._prepared:
            raise RuntimeError("prepare() must run before sweep_vls()")
        bounds: Dict[FlowPortKey, TrajectoryPathBound] = {}
        progress = self._obs.progress
        memo_counters = self._cache_counters["sweep_memo"]
        # the candidate-event memo persists across sweeps on purpose:
        # its keys are the exact fold floats ``(C, T, offset, horizon)``
        # so a stale entry is unreachable, and most offsets survive a
        # tightening round unchanged (only ports whose Smax moved shift
        # them) — later sweeps hit where they used to rebuild.
        # port packs and Smax slices, by contrast, MUST be dropped:
        # Smax tightened since the last sweep, and a stale pack would
        # alias two different walk inputs onto one memo key
        self._port_packs.clear()
        self._port_smax.clear()
        self._port_smax_np.clear()
        for index, vl_name in enumerate(vl_names):
            if progress:
                progress.update("trajectory.sweep", index, len(vl_names))
            # cross-sweep memo: a walk reads only its tree ports' Smax
            # slices beyond sweep-invariant structure, so an unchanged
            # packed slice sequence proves the previous sweep's bounds
            # replay bit for bit
            memo_key = b"".join(
                self._port_pack(port) for port in self._walk_tree_ports[vl_name]
            )
            memo = self._sweep_memo.get(vl_name)
            if memo is not None and memo[0] == memo_key:
                memo_counters[0] += 1
                bounds.update(memo[1])
                continue
            memo_counters[1] += 1
            local: Dict[FlowPortKey, TrajectoryPathBound] = {}
            self._walk_tree(vl_name, local)
            self._sweep_memo[vl_name] = (memo_key, local)
            bounds.update(local)
        if progress:
            progress.update("trajectory.sweep", len(vl_names), len(vl_names))
        return bounds

    def _competitor_entry(
        self, vl_name: str, other: str, port: PortId
    ) -> Tuple[float, float, float]:
        """``(C, T, A)`` of a competitor first met (or re-met) at ``port``."""
        other_vl = self.network.vl(other)
        offset = self._smax[(other, port)] - self._smin[(vl_name, port)]
        if self.serialization_mode == "safe":
            # Catch-up correction: a frame of `other` released *after*
            # the studied packet can still reach this queue first
            # whenever the studied flow's worst transit here (Smax_i)
            # exceeds the competitor's best (Smin_j).  The historical
            # Martin & Minet alignment misses those frames when
            # Smax_i + Smin_i > Smax_j + Smin_j, which is the
            # random_network(589) soundness violation.
            offset = max(
                offset, self._smax[(vl_name, port)] - self._smin[(other, port)]
            )
        return (
            other_vl.s_max_bits / self._port_rate[port],
            other_vl.bag_us,
            offset,
        )

    def _root_horizon(self, root: PortId) -> float:
        """Source busy-period bound, memoized per root port.

        Every flow of an ES output port is sourced at that ES, so all
        arrival offsets are zero and the bound is shared by every VL of
        the port and every sweep.
        """
        hits_misses = self._cache_counters["horizon"]
        cached = self._horizon_cache.get(root)
        if cached is not None:
            hits_misses[0] += 1
            return cached
        hits_misses[1] += 1
        rate = self._port_rate[root]
        horizon = busy_period_bound(
            [
                (self.network.vl(name).s_max_bits / rate, self.network.vl(name).bag_us, 0.0)
                for name in self._port_vls[root]
            ]
        )
        self._horizon_cache[root] = horizon
        return horizon

    def _discover_meetings(
        self, port: PortId, parent: Optional[PortId], metview: "np.ndarray"
    ) -> Tuple:
        """Which flows join the studied path at ``port``, and their credit.

        ``added`` are flows met for the first time.  ``readded`` are
        flows already counted upstream that *diverged from the studied
        path and meet it again* here — possible on meshed topologies,
        where a competitor's frames can overtake the studied packet
        off-path and delay it a second time.  The Martin & Minet tree
        formulation counts every competitor exactly once (sound on
        trees, where a frame ahead in a FIFO queue stays ahead for the
        whole shared segment); ``safe`` mode charges every re-meeting as
        an *additional* fresh meeting, while the historical ``paper``
        and ``windowed`` reproduction modes keep the counted-once
        treatment and therefore remain optimistic on such
        configurations.  The serialization gain is computed from first
        meetings only, to match the historical credit exactly (it is
        zero in safe mode anyway).

        ``metview`` is the walk's membership bitmap over global VL
        indices: the studied flow and every flow met so far.  Re-met
        flows are already marked, so the bitmap needs no re-meeting
        marks.  Every unmet member joins here, so the added set is one
        vectorized bitmap gather; only already-met members need the
        per-member rejoin test.  The serialization-gain floats replay
        the reference walk's expression operation for operation: group
        insertion follows the added order, members fold with
        ``math.fsum``.

        The result depends only on the port path walked from ``parent``
        back to the root (the bitmap at a node is the union of the path
        ports' member sets, whichever member is the studied VL), so the
        walk keys it in the shared :attr:`_meet_tree` rather than per
        VL.

        Returns ``(n_added, added, readded, gain, vec)`` with
        ``added``/``readded`` as positions into the port's member tuple;
        for batches wide enough for :func:`_batch_fold`, ``vec``
        carries the pre-sliced numpy columns ``(positions, vl indices,
        C, T, Smin)``.
        """
        members, _mc, _mt, _mg, _mup, _msmin, _mpos = self._port_tab[port]
        mc_np, mt_np, mg_np, msmin_np, mup_id = self._port_np[port]
        prefixes = self._prefixes
        mask = metview[mg_np] != 0
        added_np = (~mask).nonzero()[0]
        n_added = int(added_np.size)

        # re-meetings: an already-met member that does not cross the
        # port we arrived from left the path and rejoins here.  The
        # studied flow itself crosses the parent by construction, so it
        # drops out of the candidate set with the bitmap test.
        readded: Tuple[int, ...] = ()
        if parent is not None and n_added < len(members) - 1:
            crosses = self._crosses_cache.get((port, parent))
            if crosses is None:
                crosses = np.array(
                    [(m, parent) in prefixes for m in members], dtype=bool
                )
                self._crosses_cache[(port, parent)] = crosses
            re_np = (mask & ~crosses).nonzero()[0]
            if re_np.size:
                readded = tuple(re_np.tolist())

        mode = self.serialization_mode
        port_gain = 0.0
        if mode != "safe" and n_added:
            # serialization credit over first meetings, grouped by the
            # competitors' upstream port.  `math.fsum` is the exact
            # (correctly rounded) sum and `max` is order-free, so the
            # segment order here cannot drift from the reference's
            # insertion-ordered dict walk.
            uid = mup_id[added_np]
            valid = (uid >= 0).nonzero()[0]
            if valid.size >= 2:
                order = valid[np.argsort(uid[valid], kind="stable")]
                u_sorted = uid[order]
                c_sorted = mc_np[added_np[order]]
                cuts = np.flatnonzero(np.diff(u_sorted)) + 1
                starts = [0, *cuts.tolist()]
                ends = [*cuts.tolist(), int(u_sorted.size)]
                spans = []
                for s, e in zip(starts, ends):
                    if e - s >= 2:
                        group = c_sorted[s:e].tolist()
                        spans.append(math.fsum(group) - max(group))
                if spans:
                    port_gain = math.fsum(spans) if mode == "paper" else max(spans)
        vec = None
        if n_added >= _VEC_MIN:
            vec = (
                added_np,
                mg_np[added_np],
                mc_np[added_np],
                mt_np[added_np],
                msmin_np[added_np],
            )
        return n_added, tuple(added_np.tolist()), readded, port_gain, vec

    def _walk_tree(
        self, vl_name: str, bounds: Dict[FlowPortKey, TrajectoryPathBound]
    ) -> None:
        """DFS one VL's tree, maintaining the interference state.

        State carried down the recursion (and rolled back on return):
        the met bitmap over VL indices, the base workload
        ``sum_j N_j(0) C_j`` over the flows met so far (the studied
        flow included, with ``A = 0``), and the candidate jump events
        ``(t, C)`` inside the source busy period.

        Every float is the one the plain dict-based walk (the test
        oracle) computes, by the same expression in the same order: the
        base workload grows by sequential ``+=`` of the memoized
        per-flow bases in add order (own flow, root members, then each
        port's added/re-added members in sorted-member order) and
        shrinks on backtrack by ``-=`` of the *same stored floats* in
        the same order (never by restoring a saved value — float
        addition does not cancel exactly).  Competitor contracts come
        from the parallel per-port arrays, and the meeting structure is
        replayed from the shared per-path index tuples of
        :attr:`_meet_tree` after the first walk of each distinct port
        path.
        """
        network = self.network
        vl = network.vl(vl_name)
        root, children = self._trees[vl_name]
        safe = self.serialization_mode == "safe"
        self_g = self._vl_index[vl_name]
        smin = self._smin
        port_tab = self._port_tab
        port_lat = self._port_lat
        port_max_c = self._port_max_c
        event_cache = self._event_cache
        event_counters = self._cache_counters["events"]
        memo_enabled = self._event_memo_enabled
        meet_tree = self._meet_tree
        meeting_counters = self._cache_counters["meetings"]
        maximize = self._maximize
        discover = self._discover_meetings
        smax_slice = self._smax_slice
        smax_np = self._smax_np
        port_pack = self._port_pack

        horizon = self._root_horizon(root)
        met = bytearray(self._n_vls)
        met[self_g] = 1
        # zero-copy numpy view over the bitmap: scalar paths poke the
        # bytearray, batch paths gather/scatter through the view
        metview = np.frombuffer(met, dtype=np.uint8)

        base_workload = 0.0
        events: List[Tuple[float, float]] = []

        def fold(c: float, period: float, offset: float) -> Tuple[float, int]:
            """Add one flow's base and events; return them for rollback."""
            nonlocal base_workload
            if memo_enabled:
                key = (c, period, offset, horizon)
                cached = event_cache.get(key)
                if cached is None:
                    event_counters[1] += 1
                    cached = _flow_events(c, period, offset, horizon)
                    event_cache[key] = cached
                else:
                    event_counters[0] += 1
            else:
                cached = _flow_events(c, period, offset, horizon)
            base, flow_events = cached
            base_workload += base
            events.extend(flow_events)
            return base, len(flow_events)

        def fold_events(c: float, period: float, offset: float) -> int:
            """Events-only fold for flows whose base came from a batch."""
            if memo_enabled:
                key = (c, period, offset, horizon)
                cached = event_cache.get(key)
                if cached is None:
                    event_counters[1] += 1
                    cached = _flow_events(c, period, offset, horizon)
                    event_cache[key] = cached
                else:
                    event_counters[0] += 1
            else:
                cached = _flow_events(c, period, offset, horizon)
            flow_events = cached[1]
            events.extend(flow_events)
            return len(flow_events)

        # ---- root-level folds (own flow, then the root port's other
        # members in sorted-member order) -----------------------------
        own_c = vl.s_max_bits / self._port_rate[root]
        fold(own_c, vl.bag_us, 0.0)
        _members, mc, mt, mg, _mup, msmin, mpos = port_tab[root]
        smax_arr = self._smax_slice(root)
        smin_self = smin[(vl_name, root)]
        n_root = 0
        if safe:
            smax_self = smax_arr[mpos[vl_name]]
            for index, g in enumerate(mg):
                if g == self_g:
                    continue
                first = smax_arr[index] - smin_self
                second = smax_self - msmin[index]
                fold(mc[index], mt[index], first if first >= second else second)
                met[g] = 1
                n_root += 1
        else:
            for index, g in enumerate(mg):
                if g == self_g:
                    continue
                fold(mc[index], mt[index], smax_arr[index] - smin_self)
                met[g] = 1
                n_root += 1

        # ---- recursive descent ---------------------------------------
        def visit(
            port: PortId,
            node: list,
            parent: Optional[PortId],
            depth: int,
            transitions: float,
            latencies: float,
            gain: float,
            n_met: int,
        ) -> None:
            nonlocal base_workload
            latencies += port_lat[port]
            if depth > 0:
                transitions += port_max_c[port]

            n_added = 0
            added_idx: Tuple[int, ...] = ()
            mg_port: Tuple[int, ...] = ()
            vec = None
            folded_negs = None
            removed: List[float] = []
            added_events = 0
            if depth > 0:
                meetings = node[0]
                if meetings is None:
                    meeting_counters[1] += 1
                    meetings = discover(port, parent, metview)
                    node[0] = meetings
                else:
                    meeting_counters[0] += 1
                n_added, added_idx, readded_idx, port_gain, vec = meetings
                if n_added or (safe and readded_idx):
                    _m, mc, mt, _mg, _mu, msmin, mpos = port_tab[port]
                    mg_port = _mg
                    smax_arr = smax_slice(port)
                    smin_self = smin[(vl_name, port)]
                    smax_self = smax_arr[mpos[vl_name]] if safe else 0.0
                    if vec is not None:
                        # wide batch: bases elementwise, events (rare)
                        # through the exact scalar path.  The node fold
                        # cache replays both across sweeps while the
                        # inputs (Smin_i, Smax_i, the port's packed
                        # Smax slice) are unchanged.
                        pos_a, gidx_a, c_a, t_a, ms_a = vec
                        fkey = (smin_self, smax_self, port_pack(port))
                        cached_fold = node[2].get(fkey)
                        if cached_fold is None:
                            offs = smax_np(port)[pos_a] - smin_self
                            if safe:
                                alt = smax_self - ms_a
                                offs = np.where(offs >= alt, offs, alt)
                            batch_bases, maybe = _batch_fold(
                                c_a, t_a, offs, horizon
                            )
                            folded = tuple(batch_bases.tolist())
                            folded_negs = tuple((-batch_bases).tolist())
                            base_workload = _replay_add(
                                base_workload, folded
                            )
                            event_start = len(events)
                            for pos in maybe.tolist():
                                added_events += fold_events(
                                    float(c_a[pos]),
                                    float(t_a[pos]),
                                    float(offs[pos]),
                                )
                            node[2][fkey] = (
                                folded,
                                folded_negs,
                                tuple(events[event_start:]),
                            )
                        else:
                            folded, folded_negs, batch_events = cached_fold
                            base_workload = _replay_add(
                                base_workload, folded
                            )
                            events.extend(batch_events)
                            added_events = len(batch_events)
                        metview[gidx_a] = 1
                    elif safe:
                        for index in added_idx:
                            first = smax_arr[index] - smin_self
                            second = smax_self - msmin[index]
                            base, n_events = fold(
                                mc[index],
                                mt[index],
                                first if first >= second else second,
                            )
                            removed.append(base)
                            added_events += n_events
                            met[mg_port[index]] = 1
                    else:
                        for index in added_idx:
                            base, n_events = fold(
                                mc[index], mt[index], smax_arr[index] - smin_self
                            )
                            removed.append(base)
                            added_events += n_events
                            met[mg_port[index]] = 1
                    if safe:
                        # re-met competitors charge again (see
                        # `_discover_meetings`); they are already marked
                        for index in readded_idx:
                            first = smax_arr[index] - smin_self
                            second = smax_self - msmin[index]
                            base, n_events = fold(
                                mc[index],
                                mt[index],
                                first if first >= second else second,
                            )
                            removed.append(base)
                            added_events += n_events
                if safe:
                    n_met += len(readded_idx)
                gain += port_gain
                n_met += n_added

            constant = transitions + latencies - gain
            best, best_t, best_w, n_cand = maximize(
                base_workload, events, constant
            )
            bounds[(vl_name, port)] = TrajectoryPathBound(
                vl_name=vl_name,
                path_index=-1,  # prefix record; path index filled by analyze()
                node_path=(),
                port_ids=(port,),
                total_us=best,
                critical_instant_us=best_t,
                busy_period_us=horizon,
                workload_us=best_w,
                transition_us=transitions,
                latency_us=latencies,
                serialization_gain_us=gain,
                n_competitors=n_met,
                n_candidates=n_cand,
            )

            kids = node[1]
            for child in children.get(port, ()):
                child_node = kids.get(child)
                if child_node is None:
                    child_node = [None, {}, {}]
                    kids[child] = child_node
                visit(
                    child, child_node, port, depth + 1,
                    transitions, latencies, gain, n_met,
                )

            # rollback in add order, subtracting the stored floats
            # (batch bases were added first, then any readded scalars)
            if folded_negs is not None:
                base_workload = _replay_add(base_workload, folded_negs)
            for base in removed:
                base_workload -= base
            if added_events:
                del events[-added_events:]
            if vec is not None:
                metview[vec[1]] = 0
            else:
                for index in added_idx:
                    met[mg_port[index]] = 0

        root_node = meet_tree.get(root)
        if root_node is None:
            root_node = [None, {}, {}]
            meet_tree[root] = root_node
        visit(root, root_node, None, 0, 0.0, 0.0, 0.0, n_root)

    @staticmethod
    def _maximize(
        base_workload: float,
        events: List[Tuple[float, float]],
        constant: float,
    ) -> Tuple[float, float, float, int]:
        """Maximize ``W(t) + constant - t`` over the candidate instants.

        ``W(0) = base_workload``; each event ``(t, C)`` raises the
        workload by ``C`` at instant ``t``.  Between events the
        objective strictly decreases, so only ``t = 0`` and the event
        instants need evaluation.  Returns ``(best value, argmax t,
        workload at argmax, number of candidates evaluated)``.

        The scan groups the sorted events within ``_EPS`` and folds
        each group with ``+=``, exactly like the plain scan of the test
        oracle.  At each group boundary it additionally knows the total
        mass ``S`` of the unconsumed events: for any later candidate
        ``t' >= t_next`` the plain scan can compute at most

            ``value' <= workload + S + constant - t_next + slack``

        where ``slack`` bounds the accumulated floating-point error of
        both scans (see docs/PERFORMANCE.md for the derivation).  Once
        that ceiling cannot clear the incumbent's update threshold
        ``best + _EPS``, no later candidate can win and the scan stops.
        The returned ``(value, t, workload)`` triple is therefore
        bit-identical to the plain scan; only ``n_candidates`` may be
        smaller.
        """
        best_value = base_workload + constant
        best_t = 0.0
        best_workload = base_workload
        n_candidates = 1
        if not events:
            return best_value, best_t, best_workload, n_candidates

        ordered = sorted(events)
        n = len(ordered)
        # suffix event mass: remaining[i] = sum of C over ordered[i:]
        remaining = [0.0] * n
        acc = 0.0
        for index in range(n - 1, -1, -1):
            # repro-lint: allow[REPRO102] pruning ceiling only; rounding absorbed by `slack`, never a bound value
            acc += ordered[index][1]
            remaining[index] = acc
        # slack: 4 (n + 4) u M with u = 2^-53 and M a magnitude bound
        # on every partial result of either scan — conservative by more
        # than 2x against the standard sequential-summation error bound
        magnitude = base_workload + acc + abs(constant) + ordered[-1][0]
        slack = (4.0 * (n + 4)) * 2.0 ** -53 * magnitude

        workload = base_workload
        idx = 0
        while idx < n:
            t = ordered[idx][0]
            if (
                workload + remaining[idx] + constant - t + slack
                <= best_value + _EPS
            ):
                break  # every later candidate is dominated
            while idx < n and ordered[idx][0] <= t + _EPS:
                workload += ordered[idx][1]
                idx += 1
            n_candidates += 1
            value = workload + constant - t
            if value > best_value + _EPS:
                best_value = value
                best_t = t
                best_workload = workload
        return best_value, best_t, best_workload, n_candidates


def analyze_trajectory(
    network: Network,
    serialization: str = DEFAULT_SERIALIZATION,
    refine_smax: bool = True,
    max_refinements: int = 8,
    collect_stats: bool = False,
    progress=None,
    incremental: bool = False,
    cache=None,
    explain: bool = False,
    nc_result: Optional[NetworkCalculusResult] = None,
) -> TrajectoryResult:
    """One-shot convenience wrapper around :class:`TrajectoryAnalyzer`."""
    return TrajectoryAnalyzer(
        network,
        serialization=serialization,
        refine_smax=refine_smax,
        max_refinements=max_refinements,
        collect_stats=collect_stats,
        progress=progress,
        incremental=incremental,
        cache=cache,
        explain=explain,
        nc_result=nc_result,
    ).analyze()
