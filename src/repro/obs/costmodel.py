"""Deterministic cost attribution: the :class:`CostLedger`.

Wall-clock timers answer "how long did it take *here, today*"; they
cannot gate a speedup PR, because the same algorithm jitters across
machines and runs.  The cost ledger instead counts the analysis's own
work units — candidate evaluations, competitor folds, curve-knot
operations — *derived from the result structures themselves*
(:class:`~repro.trajectory.results.PrefixBound` carries
``n_candidates`` / ``n_competitors`` per tree port,
:class:`~repro.netcalc.results.PortAnalysis` carries ``n_flows`` /
``n_groups``).  Because the bounds are bit-identical across
``PYTHONHASHSEED`` and cold/warm caches, so are the counters: "did the
algorithm do less work" becomes an exact equality check
(``scripts/bench_gate.py``), not a ±30% wall-time judgement.

The ledger has four sections:

``work``
    Global integer totals (``candidate_evaluations``,
    ``competitor_folds``, ``flow_folds``, ``curve_knot_operations``,
    ``sweeps``, ``paths_bound``, ...).
``ports``
    The same counters attributed per output port (``"src->dst"``
    labels) — the substrate of ``afdx profile``'s hot-port report.
``sweeps``
    The trajectory fixed point's per-sweep cost curve.
``cache``
    Hit/miss tallies per cache namespace, **including an explicit
    entry when a whole result is served from cache** — cache effects
    are visible, never silently absent.  This section legitimately
    differs between cold and warm runs, so
    :func:`deterministic_section` excludes it.

Everything here is integers and dict bookkeeping: no clocks, no float
accumulation, no hash-order iteration.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "COST_SCHEMA_VERSION",
    "NONDETERMINISTIC_SECTIONS",
    "CostLedger",
    "port_label",
    "record_trajectory_sweep",
    "netcalc_cost_ledger",
    "trajectory_result_work",
    "deterministic_section",
    "work_summary",
]

#: Bumped whenever the ledger's JSON shape changes incompatibly.
COST_SCHEMA_VERSION = 2


def port_label(port_id: Sequence[str]) -> str:
    """A stable ``"src->dst"`` label for a ``(node, node)`` port id."""
    return "->".join(str(part) for part in port_id)


class CostLedger:
    """Per-analyzer deterministic work counters (see module docstring)."""

    __slots__ = ("analyzer", "work", "ports", "sweeps", "cache")

    def __init__(self, analyzer: str) -> None:
        self.analyzer = analyzer
        self.work: Dict[str, int] = {}
        self.ports: Dict[str, Dict[str, int]] = {}
        self.sweeps: List[Dict[str, int]] = []
        self.cache: Dict[str, Dict[str, int]] = {}

    # -- recording -----------------------------------------------------

    def add_work(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the global counter ``name``."""
        self.work[name] = self.work.get(name, 0) + int(amount)

    def add_port_work(self, label: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` of port ``label``."""
        counters = self.ports.setdefault(label, {})
        counters[name] = counters.get(name, 0) + int(amount)

    def add_sweep(self, **counters: int) -> None:
        """Append one entry to the per-sweep cost curve."""
        entry = {"sweep": len(self.sweeps) + 1}
        for name in sorted(counters):
            entry[name] = int(counters[name])
        self.sweeps.append(entry)

    def record_cache(self, name: str, hits: int, misses: int) -> None:
        """Record one cache namespace's hit/miss tally (accumulating)."""
        slot = self.cache.setdefault(name, {"hits": 0, "misses": 0})
        slot["hits"] += int(hits)
        slot["misses"] += int(misses)

    # -- reading -------------------------------------------------------

    def hot_ports(
        self, counter: str, top: int = 10
    ) -> List[Tuple[str, Dict[str, int]]]:
        """The ``top`` ports by ``counter``, largest first (label ties
        broken lexicographically so the ranking is reproducible)."""
        ranked = sorted(
            self.ports.items(), key=lambda item: (-item[1].get(counter, 0), item[0])
        )
        return [(label, dict(counters)) for label, counters in ranked[: max(top, 0)]]

    def to_dict(self) -> Dict[str, object]:
        """The JSON form (all sections, keys sorted — stable bytes)."""
        return {
            "cost_schema": COST_SCHEMA_VERSION,
            "analyzer": self.analyzer,
            "work": {name: self.work[name] for name in sorted(self.work)},
            "ports": {
                label: {k: counters[k] for k in sorted(counters)}
                for label, counters in sorted(self.ports.items())
            },
            "sweeps": [dict(entry) for entry in self.sweeps],
            "cache": {
                name: dict(self.cache[name]) for name in sorted(self.cache)
            },
        }

    def snapshot(self) -> "CostLedger":
        """An independent copy with an *empty* cache section.

        The bound cache's memory layer stores objects by reference, so
        the ledger persisted alongside a result must not alias the live
        one (later ``record_cache`` calls would leak into the cached
        copy) and must not bake in the recording run's cache tallies (a
        warm run records its own).
        """
        copy = CostLedger(self.analyzer)
        copy.work = dict(self.work)
        copy.ports = {label: dict(c) for label, c in self.ports.items()}
        copy.sweeps = [dict(entry) for entry in self.sweeps]
        return copy

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CostLedger":
        """Rebuild a ledger from :meth:`to_dict` output."""
        ledger = cls(str(payload.get("analyzer", "")))
        for name, value in dict(payload.get("work", {})).items():
            ledger.work[str(name)] = int(value)
        for label, counters in dict(payload.get("ports", {})).items():
            ledger.ports[str(label)] = {
                str(k): int(v) for k, v in dict(counters).items()
            }
        for entry in list(payload.get("sweeps", [])):
            ledger.sweeps.append({str(k): int(v) for k, v in dict(entry).items()})
        for name, tally in dict(payload.get("cache", {})).items():
            ledger.cache[str(name)] = {
                "hits": int(dict(tally).get("hits", 0)),
                "misses": int(dict(tally).get("misses", 0)),
            }
        return ledger


def record_trajectory_sweep(
    ledger: CostLedger,
    bounds: Mapping[Tuple[str, Sequence[str]], object],
    smax_updates: int = 0,
) -> None:
    """Fold one trajectory sweep's prefix bounds into the ledger.

    ``bounds`` is the sweep's ``(vl_name, port) -> PrefixBound`` map
    (``sweep_vls()`` output).  The counters are summed per port first
    and each port is labelled once: integer sums do not depend on their
    order, and :meth:`CostLedger.to_dict` sorts the labels.
    """
    per_port: Dict[Sequence[str], List[int]] = {}
    for (_vl_name, port), bound in bounds.items():
        sums = per_port.get(port)
        if sums is None:
            per_port[port] = [bound.n_candidates, bound.n_competitors]
        else:
            sums[0] += bound.n_candidates
            sums[1] += bound.n_competitors
    candidates = 0
    competitors = 0
    for port, (port_candidates, port_competitors) in per_port.items():
        candidates += port_candidates
        competitors += port_competitors
        label = port_label(port)
        ledger.add_port_work(label, "candidate_evaluations", port_candidates)
        ledger.add_port_work(label, "competitor_folds", port_competitors)
    ledger.add_work("sweeps", 1)
    ledger.add_work("tree_ports_visited", len(bounds))
    ledger.add_work("candidate_evaluations", candidates)
    ledger.add_work("competitor_folds", competitors)
    ledger.add_sweep(
        candidate_evaluations=candidates,
        competitor_folds=competitors,
        tree_ports_visited=len(bounds),
        smax_updates=smax_updates,
    )


def netcalc_cost_ledger(result) -> CostLedger:
    """The Network Calculus ledger, derived from a finished result.

    Purely a function of the :class:`NetworkCalculusResult` — which is
    bit-identical across jobs, hash seeds and cache states — so the
    ledger needs no in-loop instrumentation and is automatically exact
    even for cache-served results.  Per port: one *flow fold* per flow
    aggregated into the port's arrival curve, and ``n_groups + 1``
    *curve-knot operations* (one concave segment per input-link group
    plus the service-curve intersection).
    """
    ledger = CostLedger("network_calculus")
    flow_folds = 0
    knot_ops = 0
    for port_id, analysis in sorted(result.ports.items()):
        label = port_label(port_id)
        port_knots = analysis.n_groups + 1
        ledger.add_port_work(label, "flow_folds", analysis.n_flows)
        ledger.add_port_work(label, "curve_knot_operations", port_knots)
        flow_folds += analysis.n_flows
        knot_ops += port_knots
    ledger.add_work("ports_analyzed", len(result.ports))
    ledger.add_work("flow_folds", flow_folds)
    ledger.add_work("curve_knot_operations", knot_ops)
    ledger.add_work("paths_bound", len(result.paths))
    return ledger


def trajectory_result_work(result) -> Dict[str, int]:
    """Deterministic work totals derivable from a finished trajectory
    result alone (no in-loop instrumentation required).

    The per-sweep / per-tree-port attribution needs the live sweep
    bounds, but the final path bounds still carry each path's
    last-port candidate and competitor counts — enough for the
    benchmark scripts to embed an exact "did the algorithm do less
    work" signature without rerunning instrumented.
    """
    candidates = 0
    competitors = 0
    for _key, bound in sorted(result.paths.items()):
        candidates += bound.n_candidates
        competitors += bound.n_competitors
    return {
        "sweeps": int(result.refinement_iterations),
        "paths_bound": len(result.paths),
        "path_candidate_evaluations": candidates,
        "path_competitor_folds": competitors,
    }


#: ledger sections that legitimately differ across runs of one input
NONDETERMINISTIC_SECTIONS = ("cache",)


def deterministic_section(cost: Mapping[str, object]) -> Dict[str, object]:
    """A ledger dict minus its ``cache`` section.

    What remains is the byte-identity contract: equal across
    ``PYTHONHASHSEED`` values and cold vs warm caches.
    """
    return {
        key: value
        for key, value in cost.items()
        if key not in NONDETERMINISTIC_SECTIONS
    }


def work_summary(
    analyzers: Mapping[str, Optional[Mapping[str, object]]]
) -> Dict[str, Dict[str, int]]:
    """Per-analyzer ``work`` totals from a ``stats`` dict collection.

    The compact form benchmark records embed (``BENCH_*.json``) and
    ``scripts/bench_gate.py`` compares exactly.
    """
    summary: Dict[str, Dict[str, int]] = {}
    for name in sorted(analyzers):
        stats = analyzers[name]
        if not stats:
            continue
        cost = stats.get("cost")
        if isinstance(cost, Mapping):
            work = cost.get("work")
            if isinstance(work, Mapping):
                summary[name] = {str(k): int(work[k]) for k in sorted(work)}
    return summary
