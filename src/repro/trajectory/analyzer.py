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
maintaining the base workload and the candidate jump events
incrementally (with rollback on backtrack), so the cost per tree port
is proportional to the *new* competitors met there rather than to the
whole competitor set — this is what keeps the ~1000-VL industrial
configuration tractable in seconds.  The walk reads flat per-port
competitor tables (parallel ``(C, T, Smin, Smax)`` arrays over each
port's sorted members) instead of dict walks; the meeting structure is
resolved once per port path into member *indices*, and each VL's walk
once into a flat plan; each tree port folds its joining competitors in
one batch, a batch whose offset bounds prove one frame each without a
loop (:func:`_one_frame`), and each VL's source port, where every
offset is 0.0, once for all sweeps; a walk whose folds are those of its
last walk replays that walk's bounds, so only VLs whose folds moved are
re-walked; and the candidate scan prunes provably dominated instants
(:meth:`TrajectoryAnalyzer._maximize`).

None of this changes a float: every bound replays the operation
sequence of the plain dict-based walk, which is kept as a test oracle
in ``tests/trajectory/reference_kernel.py``.  ``scripts/kernel_gate.py``
diffs the two bit for bit on every ``make check``; only
``n_candidates`` may be smaller here (see ``docs/PERFORMANCE.md`` for
the dominance proof).
"""

from __future__ import annotations

import math
import operator
import struct
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult
from repro.network.port import PortId
from repro.network.topology import Network
from repro.obs.costmodel import CostLedger, record_trajectory_sweep
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv
from repro.trajectory.busy_period import busy_period_bound, interference_count
from repro.trajectory.results import PrefixBound, TrajectoryPathBound, TrajectoryResult
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

#: smallest per-port competitor batch whose exact fold its meet-tree
#: node caches across sweeps (`_exact_fold`); narrower batches fold
#: afresh.  Both compute the same floats, so the threshold is a tuning
#: knob, not a semantics switch
_VEC_MIN = 16

#: boundary tolerance of the `interference_count` fast path (one part
#: in 2^50 of the quotient — 8x the worst-case division error)
_BOUNDARY_TOL = 2.0 ** -50

#: the fold of a tree port where no batch folds
_NO_FOLD: Tuple = ((), ())


def _batch_fold(
    c: Sequence[float],
    period: Sequence[float],
    offset: Sequence[float],
    horizon: float,
) -> Tuple[Tuple[float, ...], List[int]]:
    """Base workloads and event screen of one batch of competitors.

    ``bases[i]`` is bit-identical to
    ``interference_count(0.0, offset[i], period[i]) * c[i]``: the loop
    inlines that function's fast path (the same IEEE-754 operations),
    and an element near a period boundary falls back to the exact
    counter itself.  An offset of exactly zero (``-0.0`` included),
    which every flow has at its source port, counts one frame:
    ``1 * c == c``.

    ``maybe`` lists the positions whose first counter jump
    ``fl((offset // period + 1) * period - offset)`` — the exact float
    `_flow_events` tests first, ``period`` itself at a zero offset —
    lands inside the busy period.  Only those flows can contribute
    candidate events; callers fold them through the exact
    `_flow_events` path.  On avionics-shaped configurations (BAG orders
    of magnitude above the busy period) the list is almost always empty.
    """
    bases: List[float] = []
    maybe: List[int] = []
    append = bases.append
    floor = math.floor
    for index, (ci, ti, ai) in enumerate(zip(c, period, offset)):
        if ai == 0.0:
            append(ci)
            if ti < horizon:
                maybe.append(index)
            continue
        if ai > 0.0:
            quotient = ai / ti
            k = floor(quotient)
            fraction = quotient - k
            tolerance = (quotient + 1.0) * _BOUNDARY_TOL
            if tolerance < fraction < 1.0 - tolerance:
                # the floor is exact here, so `ai // ti == k` and the
                # screen below reduces to `(k + 1) * ti - ai`
                k += 1
                append(k * ci)
                if k * ti - ai < horizon:
                    maybe.append(index)
                continue
            append(interference_count(0.0, ai, ti) * ci)
        else:
            append(0.0 * ci)
        if (ai // ti + 1.0) * ti - ai < horizon:
            maybe.append(index)
    return tuple(bases), maybe


def _one_frame(lo: float, hi: float, period_min: float, horizon: float) -> bool:
    """Whether `_batch_fold` counts one frame and flags no position for
    every competitor with offset in ``[lo, hi]`` and period at least
    ``period_min``, under ``horizon``.

    Then the fold is the batch's ``C`` column bit for bit: an offset in
    ``[0, T)`` counts ``1 * C == C`` on every branch of `_batch_fold`,
    whose first-jump screen then reads ``fl(T - A)`` (``T`` at a zero
    offset), and ``fl(T - A) >= fl(period_min - hi)`` because rounding
    is monotone (the proof is in docs/PERFORMANCE.md).
    """
    return lo >= 0.0 and hi < period_min and period_min - hi >= horizon


def _picker(indices: Tuple[int, ...]) -> Callable[[Sequence], Tuple]:
    """``seq -> tuple of seq[i] for i in indices``, in one C call.

    Reads the members' met flags from the walk's bitmap and a fold
    batch's columns from a port's parallel tuples.
    """
    if len(indices) == 1:
        only = indices[0]
        return lambda seq: (seq[only],)
    return operator.itemgetter(*indices)


def pack_floats(values: Sequence[float]) -> bytes:
    """Lossless binary encoding of a float sequence (one C call).

    Used for the per-sweep ``Smax`` slices that key the node fold
    caches, where packing must stay far cheaper than the fold itself.
    """
    return struct.pack(f"<{len(values)}d", *values)


def _replay_add(value: float, terms) -> float:
    """``(((value + t0) + t1) + ...)`` — the exact sequential chain.

    This *is* the reference walk's accumulation: a ``+=`` chain over
    the per-flow bases in add order.  The rollback subtracts the same
    floats in the same order, as the reference does.
    """
    for term in terms:
        value += term
    return value


def _flow_events(
    c: float, period: float, offset: float, horizon: float
) -> Tuple[float, Tuple[Tuple[float, float], ...]]:
    """One flow's base workload and candidate jump events ``(t, C)``.

    The walk takes the events of the flows `_batch_fold` flags; the
    test oracle and the provenance replay take both.
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
        approach" of the paper's Fig. 4), by name.  ``"safe"`` (the
        default, :data:`~repro.trajectory.serialization.DEFAULT_SERIALIZATION`)
        runs the provably sound plain analysis; ``"windowed"`` applies
        one credit per port (the reconstruction matching the published
        evaluation); ``"paper"`` applies the literal per-group credit
        (both are optimistic in corner cases — see
        :mod:`repro.trajectory.serialization`).  Any other value, a bool
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
        # explain=True recording: the Smax map the final sweep ran with
        # and that sweep's complete prefix-bound dictionary
        self._explain_smax: Optional[Dict[FlowPortKey, float]] = None
        self._explain_bounds: Optional[Dict[FlowPortKey, PrefixBound]] = None

    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Seed ``Smax`` and precompute sweep-invariant state.

        The seed comes from the constructor's ``nc_result`` when it is
        the default seed, else from a Network Calculus run of its own.
        That NC run is the configuration gate: it runs
        :func:`~repro.network.preflight.check_network` and the port
        toposort, so an unstable, cyclic or non-tree network raises
        here (or, for ``nc_result``, already did in the caller).
        Idempotent: the first call wins.
        """
        if self._prepared:
            return
        network = self.network
        obs = self._obs
        nc_seed = self._nc_seed
        if nc_seed is None:
            with obs.tracer.span("trajectory.nc_seed"):
                nc_seed = analyze_network_calculus(
                    network,
                    grouping=True,
                    incremental=self.incremental,
                    cache=self._cache,
                )
        self._smax: Dict[FlowPortKey, float] = seed_smax_from_netcalc(network, nc_seed)
        with obs.tracer.span("trajectory.precompute"):
            self._smin = compute_smin(network)
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

        bounds: Dict[FlowPortKey, PrefixBound] = {}
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
        self, bounds: Dict[FlowPortKey, PrefixBound], sweeps: int
    ) -> TrajectoryResult:
        """Per-path result from one converged sweep's prefix bounds.

        A path's ports are the routing table's interned prefix of its
        last port: on a tree, the one prefix that ends there.
        """
        result = TrajectoryResult(
            serialization=self.serialization_mode, refinement_iterations=sweeps
        )
        prefixes = self._prefixes
        for vl_name, path_index, node_path in self.network.flow_paths():
            key = (vl_name, (node_path[-2], node_path[-1]))
            detail = bounds[key]
            result.paths[(vl_name, path_index)] = TrajectoryPathBound(
                vl_name=vl_name,
                path_index=path_index,
                node_path=node_path,
                port_ids=prefixes[key],
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

        Each used port gets one tuple of parallel tuples, indexed by the
        position of each member in the port's sorted member tuple:

        ``(members, C, T, vl_index, upstream, Smin, position)``

        ``C`` is built with the exact expression the reference walk
        evaluates per meeting (``vl.s_max_bits / rate``), so every float
        read from these tables is bit-identical to the dict walk.  Link
        rates and node latencies are read once per port, and each VL's
        frame size and BAG once per VL.  ``Smax`` is the only
        sweep-varying input; its per-port slices are rebuilt lazily
        each sweep (:meth:`_smax_slice`).  Membership, trees and
        upstream ports come from the network's
        :class:`~repro.network.topology.RoutingTable`.
        """
        network = self.network
        table = network.routing_table()
        vl_order = sorted(network.virtual_links)
        self._vl_index: Dict[str, int] = {
            name: index for index, name in enumerate(vl_order)
        }
        self._n_vls = len(vl_order)
        frame_bits = {name: vl.s_max_bits for name, vl in network.virtual_links.items()}
        bags = {name: vl.bag_us for name, vl in network.virtual_links.items()}
        # sorted flow tuple per port: a deterministic iteration order
        # regardless of process hash seed (frozenset order is not)
        self._port_vls: Dict[PortId, Tuple[str, ...]] = table.members
        self._port_rate: Dict[PortId, float] = {
            pid: network.link_rate(*pid) for pid in self._port_vls
        }
        # owner-node technological latency per port (hot in every visit)
        self._port_lat: Dict[PortId, float] = {
            pid: network.node(pid[0]).technological_latency_us
            for pid in self._port_vls
        }
        # per-VL multicast tree: root port (each VL's first table key)
        # and children adjacency
        self._trees: Dict[str, Tuple[PortId, Dict[PortId, Tuple[PortId, ...]]]] = {}
        for (vl_name, pid), targets in table.next_ports.items():
            tree = self._trees.get(vl_name)
            if tree is None:
                tree = self._trees[vl_name] = (pid, {})
            if targets:
                tree[1][pid] = targets
        # upstream port of each VL at each of its tree ports
        self._upstream: Dict[FlowPortKey, Optional[PortId]] = {
            key: prefix[-2] if len(prefix) > 1 else None
            for key, prefix in self._prefixes.items()
        }
        # per-port tuples, plus a reader that gathers the members' met
        # flags from the walk's bitmap in one call (`_discover_meetings`)
        # and the largest frame transmission time crossing each port
        # (the Delta term)
        self._port_tab: Dict[PortId, Tuple] = {}
        self._port_flags: Dict[PortId, Callable[[bytearray], Tuple[int, ...]]] = {}
        self._port_max_c: Dict[PortId, float] = {}
        upstream = self._upstream
        smin = self._smin
        vl_index = self._vl_index
        for pid, members in self._port_vls.items():
            rate = self._port_rate[pid]
            c_column = tuple([frame_bits[m] / rate for m in members])
            tab = (
                members,
                c_column,
                tuple([bags[m] for m in members]),
                tuple([vl_index[m] for m in members]),
                tuple([upstream[(m, pid)] for m in members]),
                tuple([smin[(m, pid)] for m in members]),
                {m: index for index, m in enumerate(members)},
            )
            self._port_tab[pid] = tab
            self._port_flags[pid] = _picker(tab[3])
            self._port_max_c[pid] = max(c_column)

        # ---- memo tiers ----------------------------------------------
        # the source busy period only involves flows sourced at the root
        # ES port, all with zero arrival offset, so it is one number per
        # root port shared by every VL of that port and every sweep
        self._horizon_cache: Dict[PortId, float] = {}
        # (port, parent) -> positions of the members that do not cross
        # parent (the re-meeting candidates of `_discover_meetings`)
        self._crosses_cache: Dict[Tuple[PortId, PortId], Tuple[int, ...]] = {}
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
        # each VL's walk below its source port, resolved on its first
        # sweep: vl -> (steps, fold sites) (`_plan`)
        self._plans: Dict[str, Tuple[Tuple, Tuple]] = {}
        # cross-sweep walk memo: vl -> (folds, bounds); a walk whose
        # folds are those of its last walk replays its bounds
        self._sweep_memo: Dict[str, Tuple[List, Dict]] = {}
        self._cache_counters: Dict[str, List[int]] = {
            "horizon": [0, 0],
            "meetings": [0, 0],
            "sweep_memo": [0, 0],
        }
        # each VL's walk state at its source port (`_root_state`)
        self._roots: Dict[str, Tuple] = {}
        root_flags: Dict[PortId, bytearray] = {}
        for name in vl_order:
            self._roots[name] = self._root_state(name, root_flags)

    def _root_state(self, vl_name: str, root_flags: Dict[PortId, bytearray]) -> Tuple:
        """One VL's walk state after its source port, for every sweep.

        At a VL's source port every member's ``Smax`` and ``Smin`` are
        ``math.fsum([]) == 0.0`` (the seed's empty prefix sum, which
        :meth:`tighten_smax` never revisits), so every arrival offset
        there is exactly 0.0 in every mode and sweep, and each member
        folds one frame.  The fold runs once, in the reference walk's
        order (the studied flow, then the other members in sorted
        order).  Returns ``(root, horizon, base workload, events, met
        flags, root prefix bound)``; ``root_flags`` shares one met
        bitmap (every member of the port marked) per source port.
        """
        root = self._trees[vl_name][0]
        members, mc, mt, mg, _mup, _msmin, mpos = self._port_tab[root]
        own = mpos[vl_name]
        pick = _picker((own, *(index for index in range(len(members)) if index != own)))
        c_a, t_a = pick(mc), pick(mt)
        horizon = self._root_horizon(root)
        folded, maybe = _batch_fold(c_a, t_a, (0.0,) * len(c_a), horizon)
        events: List[Tuple[float, float]] = []
        for pos in maybe:
            events.extend(_flow_events(c_a[pos], t_a[pos], 0.0, horizon)[1])
        base_workload = _replay_add(0.0, folded)
        met = root_flags.get(root)
        if met is None:
            met = root_flags[root] = bytearray(self._n_vls)
            for g in mg:
                met[g] = 1
        latencies = 0.0 + self._port_lat[root]
        best, best_t, best_w, n_cand = self._maximize(
            base_workload, events, 0.0 + latencies - 0.0
        )
        bound = PrefixBound(
            best, best_t, horizon, best_w, 0.0, latencies, 0.0, len(members) - 1, n_cand
        )
        return root, horizon, base_workload, tuple(events), met, bound

    def _smax_slice(self, port: PortId) -> List[float]:
        """This sweep's ``Smax`` values of one port's members, in order."""
        arr = self._port_smax.get(port)
        if arr is None:
            smax = self._smax
            arr = [smax[(m, port)] for m in self._port_vls[port]]
            self._port_smax[port] = arr
        return arr

    def _port_pack(self, port: PortId) -> bytes:
        """This sweep's packed ``Smax`` slice of one port's members."""
        pack = self._port_packs.get(port)
        if pack is None:
            pack = self._port_packs[port] = pack_floats(self._smax_slice(port))
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
        self, bounds: Dict[FlowPortKey, PrefixBound]
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
        smax = self._smax
        port_lat = self._port_lat
        for key, upstream in self._upstream.items():
            if upstream is None:
                continue
            vl_name, pid = key
            candidate = bounds[(vl_name, upstream)].total_us + port_lat[pid]
            delta = smax[key] - candidate
            if delta > _EPS:
                smax[key] = candidate
                updates[key] = candidate
                if delta > max_delta:
                    max_delta = delta
        return updates, max_delta

    def _sweep(self) -> Dict[FlowPortKey, PrefixBound]:
        return self.sweep_vls(list(self.network.virtual_links))

    def sweep_vls(
        self, vl_names: List[str]
    ) -> Dict[FlowPortKey, PrefixBound]:
        """Walk the given VLs' trees once with the current ``Smax`` map.

        The prefix bounds of different VLs are independent within one
        sweep, so any subset of VLs may be swept on its own.
        """
        if not self._prepared:
            raise RuntimeError("prepare() must run before sweep_vls()")
        bounds: Dict[FlowPortKey, PrefixBound] = {}
        progress = self._obs.progress
        memo_counters = self._cache_counters["sweep_memo"]
        plans = self._plans
        sweep_memo = self._sweep_memo
        # port packs and Smax slices MUST be dropped: Smax tightened
        # since the last sweep, and a stale slice would fold the old map
        self._port_packs.clear()
        self._port_smax.clear()
        for index, vl_name in enumerate(vl_names):
            if progress:
                progress.update("trajectory.sweep", index, len(vl_names))
            if vl_name not in plans:
                plans[vl_name] = self._plan(vl_name)
            # cross-sweep memo: beyond sweep-invariant structure a walk
            # reads only its folds, so folds equal to its last walk's
            # prove that walk's bounds replay bit for bit
            folds = self._folds(vl_name)
            memo = sweep_memo.get(vl_name)
            if memo is not None and memo[0] == folds:
                memo_counters[0] += 1
                bounds.update(memo[1])
                continue
            memo_counters[1] += 1
            local: Dict[FlowPortKey, PrefixBound] = {}
            self._walk_tree(vl_name, folds, local)
            sweep_memo[vl_name] = (folds, local)
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
        _members, mc, mt = self._port_tab[root][:3]
        horizon = busy_period_bound([(c, period, 0.0) for c, period in zip(mc, mt)])
        self._horizon_cache[root] = horizon
        return horizon

    def _discover_meetings(
        self, port: PortId, parent: Optional[PortId], met: bytearray
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

        ``met`` is the walk's membership bitmap over global VL indices:
        the studied flow and every flow met so far.  Re-met flows are
        already marked, so the bitmap needs no re-meeting marks.  Every
        unmet member joins here, so the added set is one scan of the
        members' flags; only already-met members need the rejoin test.
        The serialization-gain floats replay the reference walk's
        expression operation for operation: members fold with
        ``math.fsum`` per upstream port, and ``math.fsum`` and ``max``
        are order-free, so the grouping order cannot drift from the
        reference's insertion-ordered dict walk.

        The result depends only on the port path walked from ``parent``
        back to the root (the bitmap at a node is the union of the path
        ports' member sets, whichever member is the studied VL), so the
        walk keys it in the shared :attr:`_meet_tree` rather than per
        VL.

        Returns ``(n_added, added, readded, gain, vec, joined)`` with
        ``added``/``readded`` as positions into the port's member tuple
        and ``joined`` the added members' global VL indices (the bitmap
        marks the walk sets).  ``vec`` is the port's one
        :func:`_batch_fold` batch, ``(pick, C, T, Smin, min T, min Smin,
        max Smin, one-frame fold)``: the getter of the positions that
        fold here (the added ones, then in ``safe`` mode the re-added
        ones), their columns, the ranges :func:`_one_frame` bounds the
        offsets with, and the fold ``(C, ())`` it proves; None when no
        flow folds here.
        """
        members, mc, mt, mg, mup, msmin, _mpos = self._port_tab[port]
        flags = self._port_flags[port](met)
        added = tuple(compress(range(len(flags)), map(operator.not_, flags)))
        n_added = len(added)

        # re-meetings: an already-met member that does not cross the
        # port we arrived from left the path and rejoins here.  The
        # studied flow itself crosses the parent by construction, so it
        # never is a candidate.
        readded: Tuple[int, ...] = ()
        if parent is not None and n_added < len(members) - 1:
            leavers = self._crosses_cache.get((port, parent))
            if leavers is None:
                prefixes = self._prefixes
                leavers = tuple(
                    index
                    for index, m in enumerate(members)
                    if (m, parent) not in prefixes
                )
                self._crosses_cache[(port, parent)] = leavers
            readded = tuple(index for index in leavers if flags[index])

        mode = self.serialization_mode
        port_gain = 0.0
        if mode != "safe" and n_added >= 2:
            # serialization credit over first meetings, grouped by the
            # competitors' upstream port
            groups: Dict[PortId, List[float]] = {}
            for index in added:
                upstream = mup[index]
                if upstream is not None:
                    group = groups.get(upstream)
                    if group is None:
                        groups[upstream] = [mc[index]]
                    else:
                        group.append(mc[index])
            spans = [
                math.fsum(group) - max(group)
                for group in groups.values()
                if len(group) >= 2
            ]
            if spans:
                port_gain = math.fsum(spans) if mode == "paper" else max(spans)
        batch = added + readded if mode == "safe" else added
        vec = None
        if batch:
            pick = _picker(batch)
            c_a, t_a, ms_a = pick(mc), pick(mt), pick(msmin)
            vec = (pick, c_a, t_a, ms_a, min(t_a), min(ms_a), max(ms_a), (c_a, ()))
        joined = tuple(mg[index] for index in added)
        return n_added, added, readded, port_gain, vec, joined

    def _plan(self, vl_name: str) -> Tuple[Tuple, Tuple]:
        """One VL's walk below its source port, resolved once.

        A DFS of the VL's tree carries the met bitmap (rolled back on
        backtrack) down to each port, so that :meth:`_discover_meetings`
        fills each :attr:`_meet_tree` node the first time any walk
        reaches it.  Returns ``(steps, sites)`` in DFS preorder:

        * ``steps``: per tree port, ``(port, pops, folds, transitions,
          latencies, gain, n_met, constant)`` — how many ports of the
          current path the walk leaves before this one, whether a batch
          folds here, and the prefix's sweep-invariant terms, each the
          float the recursive walk computes by the same chain of ``+=``
          down the path;
        * ``sites``: per port whose batch folds, ``(port, (vl, port),
          Smin_i, vec, node fold cache)`` (:meth:`_folds`).
        """
        root, _horizon, _workload, _events, root_met, root_bound = self._roots[vl_name]
        children = self._trees[vl_name][1]
        smin = self._smin
        port_lat = self._port_lat
        port_max_c = self._port_max_c
        meeting_counters = self._cache_counters["meetings"]
        discover = self._discover_meetings
        root_node = self._meet_tree.get(root)
        if root_node is None:
            root_node = self._meet_tree[root] = [None, {}, {}]
        met = bytearray(root_met)
        # the VL indices each port of the current path marked in `met`
        path_joins: List[Tuple[int, ...]] = []
        steps: List[Tuple] = []
        sites: List[Tuple] = []
        stack = [
            (child, root, root_node, 1, 0.0, root_bound.latency_us, 0.0,
             root_bound.n_competitors)
            for child in reversed(children.get(root, ()))
        ]
        while stack:
            port, parent, parent_node, depth, transitions, latencies, gain, n_met = (
                stack.pop()
            )
            pops = len(path_joins) - depth + 1
            for _ in range(pops):
                for g in path_joins.pop():
                    met[g] = 0
            kids = parent_node[1]
            node = kids.get(port)
            if node is None:
                node = kids[port] = [None, {}, {}]
            meetings = node[0]
            if meetings is None:
                meeting_counters[1] += 1
                meetings = node[0] = discover(port, parent, met)
            else:
                meeting_counters[0] += 1
            _n_added, _added, _readded, port_gain, vec, joined = meetings
            for g in joined:
                met[g] = 1
            path_joins.append(joined)
            latencies += port_lat[port]
            transitions += port_max_c[port]
            if vec is not None:
                n_met += len(vec[1])
                key = (vl_name, port)
                sites.append((port, key, smin[key], vec, node[2]))
            gain += port_gain
            steps.append(
                (port, pops, vec is not None, transitions, latencies, gain, n_met,
                 transitions + latencies - gain)
            )
            stack.extend(
                (child, port, node, depth + 1, transitions, latencies, gain, n_met)
                for child in reversed(children.get(port, ()))
            )
        return tuple(steps), tuple(sites)

    def _folds(self, vl_name: str) -> List[Tuple]:
        """This sweep's fold at each of the VL's fold sites, in walk order.

        A fold is ``(bases, events)``: what the port's joining batch
        adds to the studied packet's workload (one base per competitor,
        in batch order) and its candidate jump events.  Each batch's
        offsets are bounded without a loop, from the batch's ``Smax``
        range this sweep and, in ``safe`` mode, its ``Smin`` range: both
        offset terms are float subtractions, and rounding is monotone.
        When :func:`_one_frame` accepts the bounds, the fold is the
        batch's ``(C, ())``, the same object every sweep; otherwise
        :meth:`_exact_fold` folds it.
        """
        horizon = self._roots[vl_name][1]
        safe = self.serialization_mode == "safe"
        smax = self._smax
        smax_slice = self._smax_slice
        one_frame = _one_frame
        folds: List[Tuple] = []
        append = folds.append
        for port, key, smin_self, vec, fold_cache in self._plans[vl_name][1]:
            pick, _c, _t, _ms, period_min, smin_lo, smin_hi, one_frame_fold = vec
            smax_b = pick(smax_slice(port))
            lo = min(smax_b) - smin_self
            hi = max(smax_b) - smin_self
            smax_self = 0.0
            if safe:
                # catch-up offsets Smax_i - Smin_j
                smax_self = smax[key]
                catch_up = smax_self - smin_hi
                if catch_up > lo:
                    lo = catch_up
                catch_up = smax_self - smin_lo
                if catch_up > hi:
                    hi = catch_up
            if one_frame(lo, hi, period_min, horizon):
                append(one_frame_fold)
            else:
                append(self._exact_fold(port, vec, smin_self, smax_self, horizon, fold_cache))
        return folds

    def _exact_fold(
        self,
        port: PortId,
        vec: Tuple,
        smin_self: float,
        smax_self: float,
        horizon: float,
        fold_cache: Dict,
    ) -> Tuple[Tuple[float, ...], Tuple[Tuple[float, float], ...]]:
        """One batch's fold through :func:`_batch_fold` and `_flow_events`.

        A batch of at least ``_VEC_MIN`` competitors caches its fold in
        its meet-tree node keyed by its only other inputs,
        ``(Smin_i, Smax_i, packed port Smax)``, and replays it across
        sweeps.
        """
        pick, c_a, t_a, ms_a = vec[:4]
        fkey = None
        if len(c_a) >= _VEC_MIN:
            fkey = (smin_self, smax_self, self._port_pack(port))
            cached = fold_cache.get(fkey)
            if cached is not None:
                return cached
        smax_b = pick(self._smax_slice(port))
        if self.serialization_mode == "safe":
            offs = []
            for smax_j, smin_j in zip(smax_b, ms_a):
                first = smax_j - smin_self
                second = smax_self - smin_j
                offs.append(first if first >= second else second)
        else:
            offs = [smax_j - smin_self for smax_j in smax_b]
        folded, maybe = _batch_fold(c_a, t_a, offs, horizon)
        events: List[Tuple[float, float]] = []
        for pos in maybe:
            events.extend(_flow_events(c_a[pos], t_a[pos], offs[pos], horizon)[1])
        fold = (folded, tuple(events))
        if fkey is not None:
            fold_cache[fkey] = fold
        return fold

    def _walk_tree(
        self,
        vl_name: str,
        folds: List[Tuple],
        bounds: Dict[FlowPortKey, PrefixBound],
    ) -> None:
        """Accumulate one VL's folds down its tree and bound each prefix.

        One loop over the VL's :meth:`_plan` steps, maintaining the
        interference state of the current path: the base workload
        ``sum_j N_j(0) C_j`` over the flows met so far (the studied flow
        included, with ``A = 0``) and the candidate jump events ``(t, C)``
        inside the source busy period.  The walk starts from the VL's
        source-port state (:meth:`_root_state`) and takes each fold
        site's fold from ``folds`` (:meth:`_folds`), in order.

        Every float is the one the plain dict-based walk (the test
        oracle) computes, by the same expression in the same order: the
        base workload grows by sequential ``+=`` of the per-flow bases
        in add order (own flow, root members, then each port's
        added/re-added members in sorted-member order) and shrinks, when
        the walk leaves a port, by ``-=`` of the *same stored floats* in
        the same order (never by restoring a saved value — float
        addition does not cancel exactly).
        """
        root, horizon, base_workload, root_events, _met, root_bound = self._roots[vl_name]
        maximize = self._maximize
        events: List[Tuple[float, float]] = list(root_events)
        bounds[(vl_name, root)] = root_bound
        next_fold = iter(folds).__next__
        # the fold of each port on the current path, `_NO_FOLD` where
        # no batch folds
        path: List[Tuple] = []
        for port, pops, has_fold, transitions, latencies, gain, n_met, constant in (
            self._plans[vl_name][0]
        ):
            for _ in range(pops):
                folded, batch_events = path.pop()
                # rollback in add order, subtracting the stored floats
                for term in folded:
                    base_workload -= term
                if batch_events:
                    del events[-len(batch_events):]
            if has_fold:
                fold = next_fold()
                folded, batch_events = fold
                base_workload = _replay_add(base_workload, folded)
                events.extend(batch_events)
                path.append(fold)
            else:
                path.append(_NO_FOLD)
            best, best_t, best_w, n_cand = maximize(base_workload, events, constant)
            bounds[(vl_name, port)] = PrefixBound(
                best, best_t, horizon, best_w, transitions, latencies, gain, n_met, n_cand
            )

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
