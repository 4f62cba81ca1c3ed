"""The shipped examples and quickstarts run.

Each ``examples/*.py`` runs in a fresh interpreter, the way a reader
runs it; the quickstart code blocks of README.md and of the ``repro``
package docstring run in-process.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Arguments that keep an example small enough for tier-1.
ARGS = {"industrial_certification.py": ["60"]}


def test_every_example_is_collected():
    assert [path.name for path in EXAMPLES] == [
        "buffer_dimensioning.py",
        "industrial_certification.py",
        "parameter_sweep.py",
        "quickstart.py",
        "simulation_validation.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _readme_quickstart() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _docstring_quickstart() -> str:
    block = repro.__doc__.split("Quickstart::", 1)[1]
    return textwrap.dedent(block)


@pytest.mark.parametrize(
    "source",
    [_readme_quickstart, _docstring_quickstart],
    ids=["readme", "package-docstring"],
)
def test_quickstart_runs(source, capsys):
    exec(compile(source(), source.__name__, "exec"), {})
    assert "Trajectory/WCNC" in capsys.readouterr().out
