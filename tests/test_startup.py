"""The ``afdx`` start-up budget, checked in a fresh interpreter.

pytest runs every test in one process, and earlier tests import most
of ``repro``, so an in-process test can see neither a module that
should not have loaded nor a function-local import that is missing.
Each case here starts a new interpreter, runs the code under test and
reads ``sys.modules`` at the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIG2 = ROOT / "examples" / "configs" / "fig2.json"

#: What ``afdx analyze CONFIG`` (no cache, no stats flag, no run
#: history, no ``--jitter``) does not run, and so must not import.  The
#: configuration verifier runs on every load and uses the linter's
#: ``Finding`` class (``repro.lint.findings``), but the code linter
#: itself stays out.  The package imports no third-party module
#: (``tests/test_dependencies.py``), numpy included.
NOT_LOADED_BY_ANALYZE = (
    "multiprocessing",
    "numpy",
    "repro.batch",
    "repro.configs",
    "repro.core.jitter",
    "repro.core.reporting",
    "repro.experiments",
    "repro.explain",
    "repro.incremental",
    "repro.lint.baseline",
    "repro.lint.dataflow",
    "repro.lint.engine",
    "repro.lint.rules",
    "repro.network.builder",
    "repro.obs.history",
    "repro.obs.hotspots",
    "repro.obs.manifest",
    "repro.obs.prometheus",
    "repro.obs.provenance",
    "repro.obs.telemetry",
    "repro.obs.tracefile",
    "repro.sim",
    "subprocess",
)


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter that imports ``src/repro``.

    The run-history variable is cleared: with it set, every command
    records its run, and loads the history store to do so.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("AFDX_HISTORY_DIR", None)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )


def _loaded_after(code: str) -> set:
    """The modules a new interpreter has loaded once ``code`` ran."""
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = _fresh("-c", f"{code}\n{report}")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_no_analyzer():
    loaded = _loaded_after("import repro.cli")
    assert not loaded & {"numpy", "repro.netcalc.analyzer", "repro.trajectory.analyzer"}


def test_analyze_loads_only_what_it_runs():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['analyze', {str(FIG2)!r}]) == 0\n"
    )
    assert {
        "repro.lint.findings",
        "repro.netcalc.analyzer",
        "repro.network.preflight",
        "repro.trajectory.analyzer",
    } <= loaded
    assert sorted(loaded.intersection(NOT_LOADED_BY_ANALYZE)) == []


def test_whatif_and_corpus_load_no_numpy(tmp_path):
    edits = tmp_path / "edits.json"
    edits.write_text('{"edits": []}')
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['whatif', {str(FIG2)!r}, {str(edits)!r}]) == 0\n"
        "from repro.batch.corpus import CorpusSpec, analyze_corpus\n"
        "assert analyze_corpus(CorpusSpec(configs=3), jobs=1).paths_bound\n"
    )
    assert {"repro.batch.corpus", "repro.trajectory.analyzer"} <= loaded
    assert "numpy" not in loaded


def test_experiment_choices_are_the_registry():
    # the parser spells the ids out; the registry fills only as the
    # drivers are imported, after the parser is built
    proc = _fresh(
        "-c",
        "import argparse, json, sys\n"
        "from repro.cli import build_parser\n"
        "commands = next(a for a in build_parser()._actions\n"
        "                if isinstance(a, argparse._SubParsersAction))\n"
        "ids = next(a for a in commands.choices['experiment']._actions\n"
        "           if a.dest == 'id')\n"
        "loaded_by_parser = 'repro.experiments' in sys.modules\n"
        "from repro.experiments import EXPERIMENTS\n"
        "print(json.dumps([loaded_by_parser, list(ids.choices),\n"
        "                  sorted(EXPERIMENTS)]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded_by_parser, choices, registry = json.loads(proc.stdout.splitlines()[-1])
    assert not loaded_by_parser
    assert choices == registry


def test_serialization_flag_is_the_library_default():
    # the parser offers the library's mode names; building it must not
    # load the trajectory analyzer
    proc = _fresh(
        "-c",
        "import argparse, json, sys\n"
        "from repro.cli import build_parser\n"
        "commands = next(a for a in build_parser()._actions\n"
        "                if isinstance(a, argparse._SubParsersAction))\n"
        "flags = {name: next(a for a in commands.choices[name]._actions\n"
        "                    if a.dest == 'serialization')\n"
        "         for name in ('analyze', 'profile', 'whatif', 'explain')}\n"
        "loaded_by_parser = 'repro.trajectory.analyzer' in sys.modules\n"
        "from repro.trajectory.serialization import (\n"
        "    DEFAULT_SERIALIZATION, SERIALIZATION_MODES)\n"
        "print(json.dumps([loaded_by_parser,\n"
        "    {name: [a.default, list(a.choices)] for name, a in flags.items()},\n"
        "    [DEFAULT_SERIALIZATION, list(SERIALIZATION_MODES)]]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded_by_parser, flags, library = json.loads(proc.stdout.splitlines()[-1])
    assert not loaded_by_parser
    assert flags == {name: library for name in ("analyze", "profile", "whatif", "explain")}


def test_experiment_runs_from_a_fresh_interpreter():
    proc = _fresh("-m", "repro.cli", "experiment", "fig3_4")
    assert proc.returncode == 0, proc.stderr
    assert "fig3_4" in proc.stdout
