"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules
imports every one of those submodules, and everything they import,
as soon as anything under the package is imported.  ``afdx analyze``
would then load the simulator, the fleet engine and every renderer
it never runs.  :func:`lazy_exports` builds a module ``__getattr__``
that imports a name's defining submodule on first access instead, so
``from repro.obs import CostLedger`` keeps working and costs only
``repro.obs.costmodel``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Callable[[str], object]:
    """The ``__getattr__`` of ``package``, serving ``exports`` lazily.

    ``exports`` maps each defining module to the names it provides.  A
    resolved name is stored on the package, so later lookups are plain
    attribute reads.  Any other name raises :class:`AttributeError`,
    which also lets ``from package import submodule`` fall back to
    importing the submodule.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
