"""Run one perfbench workload and append its result to ``BENCH_perfbench.json``.

Usage (from the root of a checkout)::

    python scripts/bench_record.py --workload whatif-120 --seed 61
    python scripts/bench_record.py --workload corpus-200 --seed 61 \\
        --checkout ../other-checkout
    python scripts/bench_record.py --workload afdx-1000

Runs ``perfbench/run.py`` of ``--checkout`` (default: this checkout)
for one workload and seed, for the ``run_seconds`` its
``BENCHMARK.json`` fixes, echoes its output, and appends its last line
— the JSON result — to the ``BENCH_perfbench.json`` list at the root of
this checkout.

``afdx-1000`` is timed here, not by perfbench: ``afdx analyze CONFIG
--top 1`` in a fresh interpreter on the measured checkout's default
1000-VL industrial config (``afdx generate industrial --vls 1000``),
run after one untimed warm-up for ``run_seconds``, each run bracketed
by perfbench's ``reference_s()`` calls and normalised with its
``normalised_ms``.  Its row reports ``op_norm_ms.p50`` (and the raw
``op_ms.p50``); a run that exits non-zero counts as failed.  The seed
picks nothing there and is optional.  Each row is stamped with the workload, seed, seconds and
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
#: the workload this script times itself (see the module docstring)
AFDX_1000 = "afdx-1000"


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


def _afdx_1000(checkout: Path, seconds: float) -> dict:
    """Time ``afdx analyze --top 1`` on the checkout's 1000-VL config for
    ``seconds``; the result in perfbench's JSON shape."""
    from harness import median, normalised_ms, reference_s, warm_reference

    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0"}
    afdx = [sys.executable, "-m", "repro.cli"]
    walls, normalised = [], []
    failed = 0
    with tempfile.TemporaryDirectory(prefix="afdx-1000-") as work:
        config = str(Path(work) / "industrial-1000.json")

        def run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [*afdx, *args], cwd=work, env=env, capture_output=True, text=True
            )

        generated = run("generate", "industrial", "--vls", "1000", "-o", config)
        if generated.returncode:
            sys.stderr.write(generated.stderr)
            return {}
        command = ("analyze", config, "--top", "1")
        run(*command)
        warm_reference()
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            before = reference_s()
            began = time.perf_counter()
            done = run(*command)
            wall = time.perf_counter() - began
            after = reference_s()
            if done.returncode:
                failed += 1
                sys.stderr.write(done.stderr[-300:])
            walls.append(1000.0 * wall)
            normalised.append(normalised_ms(wall, before, after))
    print(
        f"afdx-1000: {len(walls)} runs, op_ms.p50 {median(walls):.1f} ms, "
        f"op_norm_ms.p50 {median(normalised):.1f} ms, {failed} failed"
    )
    return {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {
            "op_norm_ms.p50": {"value": median(normalised), "unit": "ms"},
            "op_ms.p50": {"value": median(walls), "unit": "ms"},
        },
    }


def _run_perfbench(checkout: Path, args, seconds: float) -> tuple:
    """``(result, exit code)`` of one perfbench run; result None when it
    printed no JSON result."""
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
    return (result if isinstance(result, dict) else None), done.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    own = args.workload == AFDX_1000
    if args.seed is None and not own:
        parser.error(f"--seed is required for {args.workload}")
    if args.trace and own:
        parser.error(f"{AFDX_1000} has no traced run")

    checkout = args.checkout.resolve()
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    perfbench = _perfbench(checkout)
    code = perfbench._code_digest(checkout / "src", checkout / "perfbench")
    if own:
        result = _afdx_1000(checkout, seconds)
        if not result:
            print("bench_record: afdx generate failed", file=sys.stderr)
            return 1
        returncode, jobs = (0 if result["correct"] else 1), 1
    else:
        result, returncode = _run_perfbench(checkout, args, seconds)
        if result is None:
            print("bench_record: perfbench printed no JSON result", file=sys.stderr)
            return returncode or 1
        jobs = perfbench._workloads()[args.workload].__globals__.get("JOBS", 1)

    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "git_rev": _git(checkout, "rev-parse", "--short", "HEAD") or None,
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "code": code,
        **result,
    }
    rows = json.loads(RECORD.read_text()) if RECORD.exists() else []
    rows.append(row)
    RECORD.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"bench_record: row {len(rows)} appended to {RECORD.name}")
    return returncode


if __name__ == "__main__":
    sys.exit(main())
