"""Lazy package re-exports: every public name still resolves.

The packages on ``afdx analyze``'s import path re-export through a
PEP 562 ``__getattr__`` (:func:`repro._lazy.lazy_exports`), which
imports a name's defining submodule on first access.
"""

import inspect
from importlib import import_module

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.batch",
    "repro.core",
    "repro.incremental",
    "repro.lint",
    "repro.netcalc",
    "repro.network",
    "repro.obs",
    "repro.trajectory",
)

#: Names a package defines itself rather than re-exports.
#: ``afdx`` resolves the run-history directory on every command, and
#: must not load the history store to do so.
EAGER = {"repro": {"__version__"}, "repro.obs": {"resolve_history_dir"}}

PUBLIC_NAMES = [
    pytest.param(package, name, id=f"{package}.{name}")
    for package in LAZY_PACKAGES
    for name in import_module(package).__all__
    if name not in EAGER.get(package, ())
]

EAGER_NAMES = [
    pytest.param(package, name, id=f"{package}.{name}")
    for package, names in sorted(EAGER.items())
    for name in sorted(names)
]


@pytest.mark.parametrize("package, name", PUBLIC_NAMES)
def test_name_resolves_to_its_defining_submodule(package, name):
    pkg = import_module(package)
    owners = [module for module, names in pkg._EXPORTS.items() if name in names]
    assert len(owners) == 1, f"{name} has owners {owners}"
    module = owners[0]
    assert module.startswith(package + ".")
    value = getattr(pkg, name)
    assert value is getattr(import_module(module), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module


@pytest.mark.parametrize("package, name", EAGER_NAMES)
def test_eager_name_is_defined_by_the_package(package, name):
    pkg = import_module(package)
    assert name in vars(pkg)
    assert all(name not in names for names in pkg._EXPORTS.values())
    value = getattr(pkg, name)
    if inspect.isfunction(value):
        assert value.__module__ == package


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_and_unknown_names(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(import_module(package).__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(import_module(package), "no_such_name")


def test_submodules_import_through_a_lazy_package():
    from repro.incremental import cache, delta

    assert cache.BoundCache is import_module("repro.incremental").BoundCache
    assert delta.DeltaAnalyzer is import_module("repro.incremental").DeltaAnalyzer
