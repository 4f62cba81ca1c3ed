"""Incremental re-analysis: dirty-set propagation + persistent bound cache.

Public API:

* :class:`~repro.incremental.delta.DeltaAnalyzer` — apply edits to a
  configuration and recompute only the affected region;
* :mod:`~repro.incremental.edits` — the edit model and the
  ``afdx whatif`` edit-script parser;
* :class:`~repro.incremental.cache.BoundCache` — the content-addressed
  LRU + disk cache shared by ``incremental=True`` analyzers;
* :mod:`~repro.incremental.fingerprint` — the dependency digests.

``delta`` imports the analyzers, which themselves lazily use this
package's cache — so ``DeltaAnalyzer`` & friends are exported via
PEP 562 lazy attributes to keep the import graph acyclic.
"""

from repro.incremental.cache import BoundCache, default_cache
from repro.incremental.edits import (
    AddVL,
    Edit,
    EditImpact,
    RemoveVL,
    ResizeVL,
    RetimeVL,
    RerouteVL,
    apply_edits,
    load_edit_script,
    parse_edit_script,
)
from repro.incremental.fingerprint import (
    network_fingerprint,
    stable_digest,
    vl_fingerprint,
)

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

_DELTA_NAMES = {
    "DeltaAnalyzer",
    "DeltaResult",
    "BoundChange",
    "dirty_closure",
    "dirty_vls",
}


def __getattr__(name: str):
    if name in _DELTA_NAMES:
        from repro.incremental import delta

        return getattr(delta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
