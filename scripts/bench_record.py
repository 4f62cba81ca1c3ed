"""Run one perfbench workload and append its result to ``BENCH_perfbench.json``.

Usage (from the root of a checkout)::

    python scripts/bench_record.py --workload whatif-120 --seed 61
    python scripts/bench_record.py --workload corpus-200 --seed 61 \\
        --checkout ../other-checkout

Runs ``perfbench/run.py`` of ``--checkout`` (default: this checkout)
for one workload and seed, for the ``run_seconds`` its
``BENCHMARK.json`` fixes, echoes its output, and appends its last line
— the JSON result — to the ``BENCH_perfbench.json`` list at the root of
this checkout.  Each row is stamped with the workload, seed, seconds and
trace flag, the host's ``cpu_count``, the worker count the workload
uses (``jobs``: the ``JOBS`` constant of the perfbench module that runs
it, else 1), the measured checkout's git revision, whether its tree had
uncommitted changes (``dirty``) and ``code``: the digest of its
``src/`` and ``perfbench/`` sources that perfbench keys its run
history on, so a row names the code it measured.  A run whose last line
is not a JSON result appends nothing and exits non-zero.  Compare rows
only with rows of the same host, ``cpu_count`` and workload.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"


def _git(checkout: Path, *args: str) -> str:
    """``git <args>`` in ``checkout``; empty when it is not a git checkout."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return ""
    return done.stdout.strip()


def _perfbench(checkout: Path):
    """The checkout's ``perfbench/run.py`` as a module, with the paths its
    workload modules import from."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    spec = importlib.util.spec_from_file_location("run", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    perfbench = _perfbench(checkout)
    code = perfbench._code_digest(checkout / "src", checkout / "perfbench")
    done = subprocess.run(
        [
            sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", f"{seconds:g}", "--trace", str(args.trace),
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        print("bench_record: perfbench printed no JSON result", file=sys.stderr)
        return done.returncode or 1

    workload = perfbench._workloads()[args.workload]
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "jobs": workload.__globals__.get("JOBS", 1),
        "git_rev": _git(checkout, "rev-parse", "--short", "HEAD") or None,
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "code": code,
        **result,
    }
    rows = json.loads(RECORD.read_text()) if RECORD.exists() else []
    rows.append(row)
    RECORD.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"bench_record: row {len(rows)} appended to {RECORD.name}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
