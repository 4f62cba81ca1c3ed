"""The repository benchmark: one command, three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analyze-64 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload and adds the per-layer decomposition. Metric names and
units come from ``BENCHMARK.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-64", "corpus-200", "whatif-120")
#: ``PYTHONHASHSEED`` every run, and every process it starts, uses.
HASH_SEED = "0"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _code_digest(*roots: Path) -> str:
    """Hash of the program's and the benchmark's sources: 'the same code'."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _workloads() -> Dict[str, Callable]:
    import analyze
    import corpus
    import whatif

    return {
        "analyze-64": lambda ctx: analyze.run(ctx, 64),
        "corpus-200": corpus.run,
        "whatif-120": whatif.run,
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing, and with it the layout of every dict and set,
        # is randomised per process, which moves in-process timings by
        # several per cent from run to run; run with one fixed hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    from harness import Context, RecordBook, stop_children, warm_reference

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    (work / "tmp").mkdir()
    tempfile.tempdir = str(work / "tmp")
    # child processes inherit these; the run-history store lives outside
    # the checkout, so it stays off
    os.environ.pop("AFDX_HISTORY_DIR", None)
    os.environ["PYTHONPATH"] = str(src)
    os.environ["TMPDIR"] = str(work / "tmp")
    ctx = Context(work=work, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    try:
        warm_reference()
        outcome = _workloads()[args.workload](ctx)
    except Exception:  # a crashed workload prints its traceback and no result
        traceback.print_exc()
        return 1
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)

    key = f"{args.workload}|seed={args.seed}|code={_code_digest(src, ROOT / 'perfbench')}"
    drift = RecordBook(state / "records.json").reconcile(key, outcome.record)
    outcome.problems.extend(drift)

    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in values and not args.trace:
            outcome.problems.append(f"workload reported no {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("\n".join(outcome.report))
    print(f"  {'error_rate':<44}{outcome.failed / max(outcome.attempted, 1):>14.4f} ratio"
          f"  (n={outcome.attempted})")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<44}{metric['value']:>14.4f} {metric['unit']}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
