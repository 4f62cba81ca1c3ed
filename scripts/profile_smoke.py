#!/usr/bin/env python
"""Smoke test of the performance observatory on the paper's Figure 1.

Runs ``afdx profile examples/configs/fig1.json`` twice (JSON report +
``--trace``) and asserts the observatory's core contracts:

* both trace files are valid Chrome-trace documents
  (:func:`repro.obs.tracefile.validate_chrome_trace` accepts them and
  they contain at least one complete-event span);
* the report's ``deterministic`` section — work counters, hot ports,
  sweep cost curve — is **byte-identical** across the two runs (the
  bit-identity contract of the cost ledger);
* a run served whole from a warm ``--cache-dir`` reproduces the same
  deterministic section (the ledger is cache-invariant).

Exit 0 on success; raises (non-zero exit) on the first violation.

Usage::

    make profile-smoke
    python scripts/profile_smoke.py [--config PATH]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import main as afdx  # noqa: E402
from repro.obs.tracefile import load_chrome_trace  # noqa: E402

DEFAULT_CONFIG = REPO / "examples" / "configs" / "fig1.json"


def _profile(config: Path, out_dir: Path, tag: str, *extra: str) -> dict:
    """One ``afdx profile`` run; returns the parsed JSON report."""
    report_path = out_dir / f"report_{tag}.json"
    trace_path = out_dir / f"trace_{tag}.json"
    code = afdx(
        [
            "profile",
            str(config),
            "--format",
            "json",
            "--output",
            str(report_path),
            "--trace",
            str(trace_path),
            *extra,
        ]
    )
    assert code == 0, f"afdx profile exited {code} ({tag})"

    doc = load_chrome_trace(trace_path)  # validates or raises
    spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    assert spans, f"trace {trace_path.name} has no complete events"

    return json.loads(report_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="afdx-profile-smoke-") as tmp:
        out_dir = Path(tmp)
        first = _profile(args.config, out_dir, "run1")
        cache = ("--cache-dir", str(out_dir / "cache"))
        second = _profile(args.config, out_dir, "cold", *cache)
        warm = _profile(args.config, out_dir, "warm", *cache)

    assert first.get("profile_schema") == 2, "unexpected profile schema"
    assert first["deterministic"]["hot_ports"], "no hot ports in the report"

    canon = [
        json.dumps(report["deterministic"], sort_keys=True)
        for report in (first, second, warm)
    ]
    assert canon[0] == canon[1], (
        "deterministic section differs between two identical runs"
    )
    assert warm["cache"] != second["cache"], "the warm run missed the cache"
    assert canon[0] == canon[2], (
        "deterministic section differs between cold and warm cache"
    )

    n_ports = len(first["deterministic"]["hot_ports"])
    n_sweeps = len(first["deterministic"]["sweep_cost_curve"])
    print(
        f"profile-smoke OK: {args.config.name} -> {n_ports} hot port(s), "
        f"{n_sweeps} sweep(s); deterministic section byte-identical "
        f"across plain/cold-cache/warm-cache runs; traces valid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
