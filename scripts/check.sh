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
# the bytecode goes to a temporary prefix, not into src/**/__pycache__:
# a tree left with compiled files imports faster than a fresh clone
pycache=$(mktemp -d)
trap 'rm -rf "$pycache"' EXIT
PYTHONPYCACHEPREFIX="$pycache" python -m compileall -q src

echo "== repro.lint (dataflow engine, zero unwaived findings in src/repro) =="
python -m repro.lint --engine dataflow src/repro

echo "== repro.lint dataflow baseline (src + benchmarks + scripts + perfbench + examples + NC and trajectory test oracles; new findings fail) =="
python -m repro.lint --engine dataflow --baseline lint_baseline.json \
    src/repro benchmarks scripts perfbench examples \
    tests/trajectory/reference_kernel.py tests/netcalc/reference_analyzer.py

echo "== afdx lint (config verifier over shipped examples) =="
python -m repro.cli lint examples/configs/*.json --no-utilization-table

echo "== pytest (tier-1) =="
python -m pytest -x -q

echo "== CLI start-up budget (fresh interpreter) =="
python -m pytest -x -q tests/test_startup.py

echo "== incremental equivalence (30-edit replay vs cold, warm cache dir) =="
python scripts/incremental_gate.py

echo "== kernel equivalence (NC and trajectory kernels vs their test oracles, bit-identical; trajectory across cold/warm cache) =="
python scripts/kernel_gate.py

echo "== profile smoke (afdx profile on fig1; traces valid; ledger byte-identical) =="
python scripts/profile_smoke.py

echo "== obs smoke (run history across revs + cold/warm cache; obs list/show/diff; clean drift) =="
python scripts/obs_smoke.py

echo "== bench-regression gate (advisory; ±30% wall, exact work counters) =="
python scripts/bench_gate.py

echo "check OK"
