"""Shared benchmark record plumbing: schema, git rev, rotation.

Every ``benchmarks/results/BENCH_*.json`` file is a JSON list of
records, oldest first.  :func:`append_record` is the single write
path; it

* stamps each record with ``bench_schema`` (so downstream tooling can
  evolve the shape), an UTC ``timestamp`` and the current ``git_rev``
  (best-effort — absent outside a git checkout), which ties every
  timing and work-counter sample to the code that produced it;
* stamps ``jobs`` (default 1, kept when the record already carries it):
  wall times measured at different worker counts are not comparable,
  so ``scripts/bench_gate.py`` only compares a record against a
  baseline recorded at the same ``jobs``;
* **rotates** the history to the last ``keep`` records, so the files
  stop growing without bound (the pre-schema behaviour appended
  forever).  ``keep`` comes from, in order: the explicit argument, the
  ``AFDX_BENCH_KEEP`` environment variable, the default of 50.

Schema history:

* (unversioned) — timings only, no provenance, unbounded growth;
* 2 — ``bench_schema`` / ``git_rev`` stamps, rotation, and a ``work``
  section of deterministic cost-ledger counters
  (:mod:`repro.obs.costmodel`) that ``scripts/bench_gate.py`` compares
  exactly;
* 3 — a top-level ``jobs`` stamp on every record (same-``jobs``
  baseline comparison in the bench gate).
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent

#: Current record schema (see module docstring for the history).
BENCH_SCHEMA_VERSION = 3

#: Records kept per BENCH_*.json file when no override is given.
DEFAULT_KEEP = 50


def git_rev(repo: Path = REPO) -> Optional[str]:
    """The short git revision of ``repo``, or None (best-effort)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S+0000")


def resolve_keep(keep: Optional[int] = None) -> int:
    """The rotation depth: argument > AFDX_BENCH_KEEP > default."""
    if keep is None:
        try:
            keep = int(os.environ.get("AFDX_BENCH_KEEP", DEFAULT_KEEP))
        except ValueError:
            keep = DEFAULT_KEEP
    return max(1, keep)


def load_history(path: Path) -> List[Dict[str, object]]:
    """The record list at ``path`` ([] for missing/corrupt files)."""
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except ValueError:
        return []
    return history if isinstance(history, list) else []


def record_history(
    command: str,
    *,
    config: Optional[Dict[str, object]] = None,
    config_digest: Optional[str] = None,
    bounds_digest: Optional[str] = None,
    work: Optional[Dict[str, Dict[str, int]]] = None,
    execution: Optional[Dict[str, object]] = None,
    options: Optional[Dict[str, object]] = None,
    wall_ms: float = 0.0,
) -> Optional[Dict[str, object]]:
    """Mirror a bench record into the persistent run history.

    No-op unless ``AFDX_HISTORY_DIR`` (or an explicit history root via
    :func:`repro.obs.resolve_history_dir`) is set — bench runs
    then land in the same store ``afdx obs drift`` scans, so a bench
    regression and a CLI-run drift show up in one query.  Best-effort:
    a failed append never fails the benchmark.
    """
    from repro.obs import resolve_history_dir
    from repro.obs.history import (
        RunHistory,
        build_run_record,
        git_revision,
    )

    root = resolve_history_dir(None)
    if root is None:
        return None
    record = build_run_record(
        command=command,
        config=config,
        config_digest=config_digest,
        bounds_digest=bounds_digest,
        work=work,
        execution=execution,
        options=options,
        wall_ms=wall_ms,
        git_rev=git_revision(),
    )
    try:
        RunHistory(root).append(record)
    except (OSError, ValueError):
        return None
    return record


def append_record(
    path: Path, record: Dict[str, object], keep: Optional[int] = None
) -> Dict[str, object]:
    """Stamp ``record``, append it to ``path``, rotate, and write.

    Returns the stamped record.  Explicit ``bench_schema`` /
    ``timestamp`` / ``git_rev`` keys in ``record`` win over the stamps
    (tests pin them for reproducibility).
    """
    stamped: Dict[str, object] = {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "timestamp": utc_timestamp(),
        "git_rev": git_rev(),
        "jobs": 1,
    }
    stamped.update(record)
    history = load_history(path)
    history.append(stamped)
    history = history[-resolve_keep(keep):]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return stamped
