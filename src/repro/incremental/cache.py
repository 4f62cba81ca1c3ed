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
a warm CI run — share results.  A result entry stores each float once,
in one column of little-endian doubles (``struct``, then base64), and
rows of names, indices, node paths and counts; port ids and a Network
Calculus path's delays follow from those.  The directory is outside
input, so entries are plain JSON, and one that is absent, torn or
malformed in any way is a miss.  Writes go through a temp-file +
``os.replace`` so concurrent writers can only ever publish complete
entries; a write that fails removes its temp file.  A fingerprint
covers a computation's inputs, not the code that computed it;
:data:`CACHE_VERSION` covers the code and the entry layout, so once it
is bumped the entries older code wrote are misses.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import operator
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.netcalc.results import NetworkCalculusResult, PortAnalysis, path_bound
from repro.network.port import PortId
from repro.obs.costmodel import CostLedger
from repro.trajectory.results import TrajectoryPathBound, TrajectoryResult

__all__ = ["CACHE_VERSION", "BoundCache", "default_cache"]

#: Version of the analysis semantics and entry layout behind the disk
#: entries.  Bump it with any change that alters the value a
#: fingerprint should map to (a soundness fix, a new serialization
#: rule) or the bytes that store it: entries written under another
#: version live in another directory and are never read.  The bounds
#: it stands for are pinned in ``tests/incremental/test_pinned_runs.py``.
CACHE_VERSION = 3

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
        self._counters: Dict[str, int] = dict.fromkeys(
            ("hits", "misses", "disk_hits", "evictions", "invalidations", "stores"), 0
        )
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
        version = self.cache_dir / f"v{CACHE_VERSION}"
        return version / namespace / fingerprint[:2] / f"{fingerprint}.json"

    def _disk_get(self, namespace: str, fingerprint: str) -> Optional[object]:
        path = self._entry_path(namespace, fingerprint)
        if path is None:
            return None
        try:
            return _decode(json.loads(path.read_bytes()))
        except (OSError, RecursionError, *_MALFORMED):
            return None  # absent, torn or malformed entry: a miss

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
# Entry codec: one JSON document per value, floats packed in one column
# ----------------------------------------------------------------------

#: what decoding a malformed entry of any shape raises (ArithmeticError:
#: a path total that overflows ``math.fsum``, a count that is ``inf``)
_MALFORMED = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError)
#: each path row, and the floats each row stores, in constructor order
_NC_PATH_ROW = operator.attrgetter("vl_name", "path_index", "node_path")
_PORT_FLOATS = operator.attrgetter("delay_us", "backlog_bits", "utilization")
_TRAJ_PATH_ROW = operator.attrgetter(
    "vl_name", "path_index", "node_path", "n_competitors", "n_candidates"
)
_TRAJ_FLOATS = operator.attrgetter(
    "total_us", "critical_instant_us", "busy_period_us", "workload_us",
    "transition_us", "latency_us", "serialization_gain_us",
)


def _pack(values: List[float]) -> str:
    """Little-endian IEEE-754 doubles, base64: every bit survives."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _unpack(text: str, rows: int, width: int) -> List[Tuple[float, ...]]:
    """The ``width`` float columns of a table of ``rows`` rows."""
    data = base64.b64decode(text, validate=True)
    if len(data) != 8 * rows * width:
        raise ValueError("the float column does not match the rows")
    floats = struct.unpack(f"<{rows * width}d", data)
    return [floats[i::width] for i in range(width)]


def _checked(values: list, *types: type) -> list:
    """``values``, if each has exactly its JSON type, else TypeError."""
    if tuple(map(type, values)) != types:
        raise TypeError("malformed cache entry")
    return values


def _columns(rows: list, *types: type) -> List[tuple]:
    """A list of rows' columns, every cell checked against its column's type."""
    if type(rows) is not list or set(map(len, rows)) - {len(types)}:
        raise TypeError("malformed cache entry table")
    columns = list(zip(*rows)) or [()] * len(types)
    for column, kind in zip(columns, types):
        if set(map(type, column)) - {kind}:
            raise TypeError("malformed cache entry cell")
    return columns


def _paths(nodes: Tuple[list, ...]) -> Tuple[list, list]:
    """The node paths of a column of node-name lists, and their ports."""
    if set(map(type, itertools.chain.from_iterable(nodes))) - {str}:
        raise TypeError("malformed node name")
    node_paths = list(map(tuple, nodes))
    return node_paths, [tuple(zip(path, path[1:])) for path in node_paths]


def _encode(value: object) -> Dict[str, object]:
    if isinstance(value, NetworkCalculusResult):
        ports = [value.ports[port_id] for port_id in sorted(value.ports)]
        return {
            "kind": "nc_result",
            "grouping": value.grouping,
            "ports": [[*p.port_id, p.n_flows, p.n_groups] for p in ports],
            "paths": list(map(_NC_PATH_ROW, value.path_bounds())),
            "floats": _pack([x for p in ports for x in _PORT_FLOATS(p)]),
        }
    if isinstance(value, TrajectoryResult):
        bounds = value.path_bounds()
        return {
            "kind": "traj_result",
            "serialization": value.serialization,
            "refinement_iterations": value.refinement_iterations,
            "paths": list(map(_TRAJ_PATH_ROW, bounds)),
            "floats": _pack([x for b in bounds for x in _TRAJ_FLOATS(b)]),
        }
    if isinstance(value, CostLedger):
        return {"kind": "cost_ledger", "cost": value.to_dict()}
    raise TypeError(f"BoundCache cannot persist values of type {type(value)!r}")


def _decode(payload: Dict[str, object]) -> object:
    """The value :func:`_encode` wrote; a malformed entry raises one of
    :data:`_MALFORMED`."""
    kind = payload["kind"]
    if kind == "nc_result":
        (grouping,) = _checked([payload["grouping"]], bool)
        srcs, dsts, n_flows, n_groups = _columns(payload["ports"], str, str, int, int)
        delays, backlogs, loads = _unpack(payload["floats"], len(srcs), 3)
        port_ids = list(zip(srcs, dsts))
        ports = map(PortAnalysis, port_ids, delays, backlogs, loads, n_flows, n_groups)
        names, indices, nodes = _columns(payload["paths"], str, int, list)
        port_delay = dict(zip(port_ids, delays))
        paths = map(path_bound, names, indices, *_paths(nodes), itertools.repeat(port_delay))
        return NetworkCalculusResult(
            grouping=grouping,
            ports=dict(zip(port_ids, ports)),
            paths=dict(zip(zip(names, indices), paths)),
        )
    if kind == "traj_result":
        serialization, iterations = _checked(
            [payload["serialization"], payload["refinement_iterations"]], str, int
        )
        names, indices, nodes, competitors, candidates = _columns(
            payload["paths"], str, int, list, int, int
        )
        bounds = map(
            TrajectoryPathBound, names, indices, *_paths(nodes),
            *_unpack(payload["floats"], len(names), 7), competitors, candidates,
        )
        return TrajectoryResult(
            serialization=serialization,
            refinement_iterations=iterations,
            paths=dict(zip(zip(names, indices), bounds)),
        )
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
