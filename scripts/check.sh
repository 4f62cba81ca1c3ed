#!/bin/sh
# Tier-1 gate: the full test suite plus a bytecode compile of src/.
# Usage: scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

if [ -n "${PYTHONPATH:-}" ]; then
    PYTHONPATH="src:$PYTHONPATH"
else
    PYTHONPATH="src"
fi
export PYTHONPATH

echo "== compileall src =="
python -m compileall -q src

echo "== repro.lint (dataflow engine, zero unwaived findings in src/repro) =="
python -m repro.lint --engine dataflow src/repro

echo "== repro.lint dataflow baseline (src + benchmarks + scripts + perfbench; new findings fail) =="
python -m repro.lint --engine dataflow --baseline lint_baseline.json \
    src/repro benchmarks scripts perfbench

echo "== afdx lint (config verifier over shipped examples) =="
python -m repro.cli lint examples/configs/*.json --no-utilization-table

echo "== pytest (tier-1) =="
python -m pytest -x -q

echo "== batch --jobs equivalence (jobs=1 sequential vs pooled) =="
python -m pytest -x -q \
    tests/batch/test_batch_analyzer.py::TestJobsOne \
    tests/batch/test_batch_analyzer.py::TestBitIdenticalFig2

echo "== incremental equivalence (30-edit replay vs cold, jobs=2, warm cache dir) =="
python scripts/incremental_gate.py

echo "== kernel equivalence (fast vs reference, bit-identical across jobs + cache) =="
python scripts/kernel_gate.py

echo "== fleet equivalence (one warm pool across all scenarios at --jobs 4, no leaked workers) =="
python scripts/kernel_gate.py --jobs 4 --warm-pool

echo "== profile smoke (afdx profile on fig1; traces valid; ledger byte-identical) =="
python scripts/profile_smoke.py

echo "== obs smoke (run history across revs + --jobs; obs list/show/diff; clean drift) =="
python scripts/obs_smoke.py

echo "== bench-regression gate (advisory; ±30% wall, exact work counters) =="
python scripts/bench_gate.py

echo "check OK"
