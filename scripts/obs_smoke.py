#!/usr/bin/env python
"""Smoke test of the fleet run observatory on the paper's Figure 1.

Runs ``afdx analyze examples/configs/fig1.json`` into a temporary
``--history-dir`` several times — twice at different (simulated) git
revisions via ``AFDX_GIT_REV``, once more served whole from a warm
``--cache-dir`` — and asserts the observatory's core contracts:

* every run appends exactly one schema-versioned record to the
  append-only history, and ``afdx obs list`` / ``show`` / ``diff``
  exit 0 over them;
* ``afdx obs diff`` of the two revisions reports identical bounds
  digests and identical work counters;
* ``afdx obs drift`` over the whole history gives a **clean** verdict
  (same config digest, same bounds bytes, across revs and cache
  states);
* the records' deterministic view (everything outside the volatile
  shell: run id, timestamps, git rev, wall times, cache hits,
  execution shape) is **byte-identical** across all runs — the history
  analogue of the cost ledger's bit-identity contract;
* an injected record with a flipped bounds digest at the same config
  digest makes ``afdx obs drift`` report a drift and exit non-zero.

Exit 0 on success; raises (non-zero exit) on the first violation.

Usage::

    make obs-smoke
    python scripts/obs_smoke.py [--config PATH]
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import main as afdx  # noqa: E402
from repro.obs.history import (  # noqa: E402
    HISTORY_SCHEMA_VERSION,
    RunHistory,
    build_run_record,
    deterministic_view,
)

DEFAULT_CONFIG = REPO / "examples" / "configs" / "fig1.json"


def _afdx(argv, git_rev=None):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    previous = os.environ.get("AFDX_GIT_REV")
    if git_rev is not None:
        os.environ["AFDX_GIT_REV"] = git_rev
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = afdx(argv)
    finally:
        if git_rev is not None:
            if previous is None:
                os.environ.pop("AFDX_GIT_REV", None)
            else:
                os.environ["AFDX_GIT_REV"] = previous
    return code, buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="afdx-obs-smoke-") as tmp:
        hist = ["--history-dir", tmp]
        cache_dir = Path(tmp) / "cache"

        for tag, shape in (("rev-a", "cold"), ("rev-b", "cold"), ("rev-b", "warm")):
            if shape == "cold":
                shutil.rmtree(cache_dir, ignore_errors=True)
            code, _ = _afdx(
                ["analyze", str(args.config), "--cache-dir", str(cache_dir)] + hist,
                git_rev=tag,
            )
            assert code == 0, f"afdx analyze exited {code} ({tag}, {shape} cache)"

        history = RunHistory(tmp)
        records = history.records()
        assert len(records) == 3, f"expected 3 history records, got {len(records)}"
        assert all(
            r.get("history_schema") == HISTORY_SCHEMA_VERSION for r in records
        ), "record missing the history schema stamp"

        views = [
            json.dumps(deterministic_view(r), sort_keys=True) for r in records
        ]
        assert views[0] == views[1] == views[2], (
            "deterministic view differs across revs / cache states"
        )
        assert records[2]["cache"] != records[1]["cache"], (
            "the warm run was not served from the cache"
        )

        run_a, run_b = records[0]["run_id"], records[1]["run_id"]

        code, out = _afdx(["obs", "list"] + hist)
        assert code == 0 and run_a in out, f"obs list failed (exit {code})"

        code, out = _afdx(["obs", "show", run_a] + hist)
        assert code == 0 and records[0]["bounds_digest"] in out, (
            f"obs show failed (exit {code})"
        )

        code, out = _afdx(["obs", "diff", run_a, run_b] + hist)
        assert code == 0, f"obs diff exited {code}"
        assert "bounds: identical" in out, f"obs diff saw drift:\n{out}"
        assert "work counters identical" in out, f"work drifted:\n{out}"

        code, out = _afdx(["obs", "drift", "--strict"] + hist)
        assert code == 0, f"obs drift exited {code} on a clean history:\n{out}"
        assert "verdict: clean" in out, f"unexpected drift verdict:\n{out}"

        # inject a flipped-bounds record at the same config digest: the
        # exact soundness regression the drift query exists to catch
        history.append(
            build_run_record(
                command="analyze",
                config_digest=records[0]["config_digest"],
                bounds_digest="0" * 64,
                work=records[0]["work"],
                options=records[0]["options"],
                git_rev="rev-evil",
            )
        )
        code, out = _afdx(["obs", "drift"] + hist)
        assert code != 0, "obs drift missed an injected bounds change"
        assert "verdict: drift" in out, f"expected drift verdict:\n{out}"

    print(
        f"obs-smoke OK: {args.config.name} -> 3 runs recorded; "
        f"list/show/diff clean; drift verdict clean across revs and "
        f"cold/warm cache; injected bounds change detected"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
