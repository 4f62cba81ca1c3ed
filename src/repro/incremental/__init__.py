"""Incremental re-analysis: dirty-set propagation + persistent bound cache.

Public API:

* :class:`~repro.incremental.delta.DeltaAnalyzer` — apply edits to a
  configuration and recompute only the affected region;
* :mod:`~repro.incremental.edits` — the edit model and the
  ``afdx whatif`` edit-script parser;
* :class:`~repro.incremental.cache.BoundCache` — the content-addressed
  LRU + disk cache shared by ``incremental=True`` analyzers;
* :mod:`~repro.incremental.fingerprint` — the dependency digests.

Every name is exported lazily (PEP 562).  ``delta`` imports the
analyzers, which themselves use this package's ``fingerprint`` and
``cache`` modules; lazy exports keep that import graph acyclic and
let an uncached analysis load ``fingerprint`` alone.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AddVL",
    "BoundCache",
    "BoundChange",
    "DeltaAnalyzer",
    "DeltaResult",
    "Edit",
    "EditImpact",
    "RemoveVL",
    "ResizeVL",
    "RetimeVL",
    "RerouteVL",
    "apply_edits",
    "default_cache",
    "dirty_closure",
    "dirty_vls",
    "load_edit_script",
    "network_fingerprint",
    "parse_edit_script",
    "stable_digest",
    "vl_fingerprint",
]

_EXPORTS = {
    "repro.incremental.cache": ("BoundCache", "default_cache"),
    "repro.incremental.delta": (
        "BoundChange",
        "DeltaAnalyzer",
        "DeltaResult",
        "dirty_closure",
        "dirty_vls",
    ),
    "repro.incremental.edits": (
        "AddVL",
        "Edit",
        "EditImpact",
        "RemoveVL",
        "ResizeVL",
        "RetimeVL",
        "RerouteVL",
        "apply_edits",
        "load_edit_script",
        "parse_edit_script",
    ),
    "repro.incremental.fingerprint": (
        "network_fingerprint",
        "stable_digest",
        "vl_fingerprint",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
