"""Packaging: ``repro`` runs on the Python standard library alone.

A third-party import only shows up as an ``ImportError`` on a clean
install, and only once a command reaches it (``import repro.cli``
alone loads no analyzer).  This test walks every import statement
under ``src/repro`` (function-local ones included) and requires each
top-level module to be ``repro`` itself or part of the standard
library; ``pyproject.toml`` accordingly declares no runtime
dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _third_party_imports():
    """``{top-level module: first file importing it}`` outside the stdlib."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_package_imports_only_the_standard_library():
    assert _third_party_imports() == {}


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
