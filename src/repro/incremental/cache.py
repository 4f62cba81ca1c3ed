"""The persistent bound cache: in-memory LRU plus optional disk layer.

A :class:`BoundCache` maps content-addressed fingerprints
(:mod:`repro.incremental.fingerprint`) to previously computed whole
analyses, namespaced by what they are:

* ``"nc.result"`` / ``"traj.result"`` — a whole analysis keyed by the
  network fingerprint plus the analyzer parameters, so re-analyzing a
  configuration the cache has already seen (an identical what-if
  re-query, a warm ``--cache-dir``) costs one fingerprint plus one
  lookup;
* ``"traj.cost"`` — the deterministic sections of the trajectory's
  :class:`~repro.obs.costmodel.CostLedger`, stored next to
  ``"traj.result"`` so a warm hit reports the same work counters as
  the cold run that produced it.

Finer tiers (per port, per walk, per meeting-tree node) are not
cached: one edit of a realistic configuration moves almost every
bound, so they rarely hit and cost more to write than to recompute.

Cached results are stored without their ``stats`` snapshot (counters
are run-specific observability, not bounds) and returned as shallow
copies so callers can attach fresh stats without mutating the cache.

Because a fingerprint covers *every* input of the cached computation
bit for bit, a hit is exactly equivalent to recomputation — the
incremental engine's equivalence gate (``scripts/check.sh``) asserts
this on randomized edit sequences.

The in-memory layer is a plain LRU (``OrderedDict``); the optional
disk layer (``cache_dir``) persists entries as one JSON file per
fingerprint under ``cache_dir/v<CACHE_VERSION>/`` so independent
processes — ``afdx whatif`` invocations, ``afdx batch-sweep`` workers,
a warm CI run — share results.  Floats survive the JSON round trip
exactly (``repr`` is shortest-round-trip in Python 3), which the disk
tests assert.  Writes go through a temp-file + ``os.replace`` so
concurrent writers can only ever publish complete entries; a write
that fails removes its temp file.  A fingerprint covers a
computation's inputs, not the code that computed it;
:data:`CACHE_VERSION` covers the code, so once it is bumped the
entries older code wrote are misses.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.netcalc.results import NetworkCalculusResult, PathBound, PortAnalysis
from repro.obs.costmodel import CostLedger
from repro.trajectory.results import TrajectoryPathBound, TrajectoryResult

__all__ = ["CACHE_VERSION", "BoundCache", "default_cache"]

#: Version of the analysis semantics behind the disk entries.  Bump it
#: with any change that alters the value a fingerprint should map to
#: (a soundness fix, a new serialization rule): entries written under
#: another version live in another directory and are never read.
CACHE_VERSION = 1

#: Default in-memory entry capacity.  Each entry is one whole result
#: (or its cost ledger), so this caps the count of analyzed
#: configurations held in memory, not their bytes.
DEFAULT_MAX_ENTRIES = 65536


class BoundCache:
    """Content-addressed store for whole analysis results.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity (least recently used entries are
        evicted first; the disk layer, when configured, keeps them).
    cache_dir:
        Optional directory for cross-process persistence.  Created on
        first write.  Safe to share between concurrent processes.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
            "evictions": 0,
            "invalidations": 0,
            "stores": 0,
        }
        #: the key :meth:`get` last served, and whether from disk
        self._last_hit: Optional[Tuple[Tuple[str, str], bool]] = None

    # ------------------------------------------------------------------

    def get(self, namespace: str, fingerprint: str) -> Optional[object]:
        """The cached value, or None.  Disk entries are promoted to memory."""
        key = (namespace, fingerprint)
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self._entries.move_to_end(key)
            self._counters["hits"] += 1
            self._last_hit = (key, False)
            return value
        value = self._disk_get(namespace, fingerprint)
        if value is not None:
            self._counters["hits"] += 1
            self._counters["disk_hits"] += 1
            self._remember(key, value)
            self._last_hit = (key, True)
            return value
        self._counters["misses"] += 1
        return None

    def reject(self, namespace: str, fingerprint: str) -> None:
        """Count the hit :meth:`get` just served for this entry as a miss.

        For a caller that finds the value stale (its path keys differ
        from the network's) and recomputes and overwrites it.  The
        entry leaves the memory layer; a later :meth:`put` replaces the
        disk file.
        """
        key = (namespace, fingerprint)
        if self._last_hit is None or self._last_hit[0] != key:
            return
        if self._last_hit[1]:
            self._counters["disk_hits"] -= 1
        self._last_hit = None
        self._entries.pop(key, None)
        self._counters["hits"] -= 1
        self._counters["misses"] += 1

    def put(self, namespace: str, fingerprint: str, value: object) -> None:
        """Store a freshly computed value (memory, then disk if configured)."""
        self._counters["stores"] += 1
        self._remember((namespace, fingerprint), value)
        if self.cache_dir is not None:
            self._disk_put(namespace, fingerprint, value)

    def invalidate(self, namespace: str, fingerprint: str) -> bool:
        """Drop one entry from memory and disk; True when it existed.

        Content-addressed entries never go *stale* (a changed input
        changes the fingerprint), so this exists for operational
        hygiene — e.g. evicting entries produced by a code revision
        whose results should no longer be trusted.
        """
        key = (namespace, fingerprint)
        existed = self._entries.pop(key, None) is not None
        path = self._entry_path(namespace, fingerprint)
        if path is not None and path.exists():
            try:
                path.unlink()
                existed = True
            except OSError:
                pass
        if existed:
            self._counters["invalidations"] += 1
        return existed

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits / misses / evictions / invalidations..."""
        return dict(self._counters)

    @property
    def hit_rate(self) -> float:
        total = self._counters["hits"] + self._counters["misses"]
        return self._counters["hits"] / total if total else 0.0

    # ------------------------------------------------------------------
    # In-memory LRU
    # ------------------------------------------------------------------

    def _remember(self, key: Tuple[str, str], value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._counters["evictions"] += 1

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------

    def _entry_path(self, namespace: str, fingerprint: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        # two-level fan-out keeps directories small on big sweeps
        return (
            self.cache_dir
            / f"v{CACHE_VERSION}"
            / namespace
            / fingerprint[:2]
            / f"{fingerprint}.json"
        )

    def _disk_get(self, namespace: str, fingerprint: str) -> Optional[object]:
        path = self._entry_path(namespace, fingerprint)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # torn or corrupt entry: treat as a miss
        try:
            return _decode(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def _disk_put(self, namespace: str, fingerprint: str, value: object) -> None:
        path = self._entry_path(namespace, fingerprint)
        assert path is not None
        # encoded before any file exists: a value the codec rejects
        # leaves nothing behind.  json.dumps runs the C encoder;
        # json.dump into a file runs the pure-Python one.
        text = json.dumps(_encode(value))
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            # persistence is best-effort; memory layer already has it
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


# ----------------------------------------------------------------------
# JSON codec for the cacheable value types
# ----------------------------------------------------------------------


def _encode_port_analysis(value: PortAnalysis) -> Dict[str, object]:
    return {
        "port_id": list(value.port_id),
        "delay_us": value.delay_us,
        "backlog_bits": value.backlog_bits,
        "utilization": value.utilization,
        "n_flows": value.n_flows,
        "n_groups": value.n_groups,
    }


def _decode_port_analysis(entry: Dict[str, object]) -> PortAnalysis:
    return PortAnalysis(
        port_id=tuple(entry["port_id"]),
        delay_us=entry["delay_us"],
        backlog_bits=entry["backlog_bits"],
        utilization=entry["utilization"],
        n_flows=entry["n_flows"],
        n_groups=entry["n_groups"],
    )


def _encode_trajectory_bound(bound: TrajectoryPathBound) -> Dict[str, object]:
    return {
        "vl_name": bound.vl_name,
        "path_index": bound.path_index,
        "node_path": list(bound.node_path),
        "port_ids": [list(p) for p in bound.port_ids],
        "total_us": bound.total_us,
        "critical_instant_us": bound.critical_instant_us,
        "busy_period_us": bound.busy_period_us,
        "workload_us": bound.workload_us,
        "transition_us": bound.transition_us,
        "latency_us": bound.latency_us,
        "serialization_gain_us": bound.serialization_gain_us,
        "n_competitors": bound.n_competitors,
        "n_candidates": bound.n_candidates,
    }


def _decode_trajectory_bound(entry: Dict[str, object]) -> TrajectoryPathBound:
    return TrajectoryPathBound(
        vl_name=entry["vl_name"],
        path_index=entry["path_index"],
        node_path=tuple(entry["node_path"]),
        port_ids=tuple(tuple(p) for p in entry["port_ids"]),
        total_us=entry["total_us"],
        critical_instant_us=entry["critical_instant_us"],
        busy_period_us=entry["busy_period_us"],
        workload_us=entry["workload_us"],
        transition_us=entry["transition_us"],
        latency_us=entry["latency_us"],
        serialization_gain_us=entry["serialization_gain_us"],
        n_competitors=entry["n_competitors"],
        n_candidates=entry["n_candidates"],
    )


def _encode(value: object) -> Dict[str, object]:
    if isinstance(value, NetworkCalculusResult):
        return {
            "kind": "nc_result",
            "grouping": value.grouping,
            "ports": [_encode_port_analysis(p) for _, p in sorted(value.ports.items())],
            "paths": [
                {
                    "vl_name": b.vl_name,
                    "path_index": b.path_index,
                    "node_path": list(b.node_path),
                    "port_ids": [list(p) for p in b.port_ids],
                    "per_port_delay_us": list(b.per_port_delay_us),
                    "total_us": b.total_us,
                }
                for _, b in sorted(value.paths.items())
            ],
        }
    if isinstance(value, TrajectoryResult):
        return {
            "kind": "traj_result",
            "serialization": value.serialization,
            "refinement_iterations": value.refinement_iterations,
            "paths": [
                _encode_trajectory_bound(b) for _, b in sorted(value.paths.items())
            ],
        }
    if isinstance(value, CostLedger):
        return {"kind": "cost_ledger", "cost": value.to_dict()}
    raise TypeError(f"BoundCache cannot persist values of type {type(value)!r}")


def _decode(payload: Dict[str, object]) -> object:
    kind = payload["kind"]
    if kind == "nc_result":
        result = NetworkCalculusResult(grouping=payload["grouping"])
        for entry in payload["ports"]:
            analysis = _decode_port_analysis(entry)
            result.ports[analysis.port_id] = analysis
        for entry in payload["paths"]:
            bound = PathBound(
                vl_name=entry["vl_name"],
                path_index=entry["path_index"],
                node_path=tuple(entry["node_path"]),
                port_ids=tuple(tuple(p) for p in entry["port_ids"]),
                per_port_delay_us=tuple(entry["per_port_delay_us"]),
                total_us=entry["total_us"],
            )
            result.paths[(bound.vl_name, bound.path_index)] = bound
        return result
    if kind == "traj_result":
        result = TrajectoryResult(
            serialization=payload["serialization"],
            refinement_iterations=payload["refinement_iterations"],
        )
        for entry in payload["paths"]:
            bound = _decode_trajectory_bound(entry)
            result.paths[(bound.vl_name, bound.path_index)] = bound
        return result
    if kind == "cost_ledger":
        return CostLedger.from_dict(payload["cost"])
    raise ValueError(f"unknown cache entry kind {kind!r}")


_DEFAULT: Optional[BoundCache] = None


def default_cache() -> BoundCache:
    """The process-wide cache behind ``incremental=True`` analyzers."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BoundCache()
    return _DEFAULT
