"""Packaging: every third-party module ``repro`` imports is declared.

Every ``afdx`` command that analyzes a configuration loads the
trajectory kernel, which imports numpy at module level; an undeclared
runtime dependency only shows up as an ``ImportError`` on a clean
install, and only once a command reaches that import (``import
repro.cli`` alone loads no analyzer).  This test walks every import
statement under ``src/repro`` (function-local ones included) and checks
each non-stdlib top-level module against ``[project] dependencies`` in
``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

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


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }
    imported = _third_party_imports()
    assert "numpy" in imported  # the walk sees the trajectory kernel's import
    undeclared = {
        module: where
        for module, where in imported.items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"
