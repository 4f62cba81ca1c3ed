"""``analyze-64``: the ``afdx analyze`` CLI, end to end.

One client in a closed loop runs ``afdx analyze CONFIG --top 1`` as a
subprocess at the default ``--jobs 1`` with no cache, on a seeded
industrial configuration, until the measured window closes.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from typing import List

from harness import (
    Context,
    Deadline,
    Outcome,
    median,
    peak_rss_mb,
    repeat_setup,
    timed,
    timed_normalised,
)
from layers import cold_analysis, trace_analysis, work_counts

from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.core.combined import build_comparison
from repro.core.comparison import summarize
from repro.network.serialization import network_from_json, network_to_json
from repro.obs.history import analysis_bounds_digest

#: ``python -c`` probes per import measurement.
IMPORT_PROBES = 5
#: Seconds spent repeating the traced in-process layer decomposition.
TRACE_BUDGET_S = 5.0


def _table_problem(stdout: str, combined) -> str:
    """Why the CLI table disagrees with ``combined``, or '' when it agrees.

    Compared at the printed precision: the row's three bounds to 0.1 us,
    the row being a largest combined bound, and the Table I summary.
    """
    lines = stdout.splitlines()
    if "" not in lines:
        return "CLI output has no table"
    blank = lines.index("")
    rows = lines[1:blank]
    if len(rows) != 1:
        return f"CLI printed {len(rows)} rows for --top 1"
    flow, printed = rows[0][:24].strip(), rows[0][24:].split()
    matches = [p for p in combined.paths.values() if p.flow == flow]
    if not matches:
        return f"CLI row {flow!r} names no analysed path"
    path = matches[0]
    expected = [
        f"{path.network_calculus_us:.1f}",
        f"{path.trajectory_us:.1f}",
        f"{path.best_us:.1f}",
    ]
    if printed != expected:
        return f"CLI bounds {printed} for {flow} differ from in-process {expected}"
    top = max(p.best_us for p in combined.paths.values())
    if printed[2] != f"{top:.1f}":
        return f"CLI top row {flow} is not a largest combined bound"
    table = summarize(combined.paths.values()).as_table()
    if "\n".join(lines[blank + 1:]) != table:
        return "CLI Table I summary differs from in-process summary"
    return ""


def run(ctx: Context, n_vls: int) -> Outcome:
    outcome = Outcome()
    config = str(ctx.work / "config.json")

    def build():
        network = industrial_network(IndustrialConfigSpec(seed=ctx.seed, n_virtual_links=n_vls))
        network_to_json(network, config)
        return network

    _, setup, setup_norm = repeat_setup(build)

    walls: List[float] = []
    normalised: List[float] = []
    outputs: List[str] = []
    deadline = Deadline(ctx.seconds)
    while not deadline.expired():
        proc, wall, wall_ms = timed_normalised(
            lambda: subprocess.run(
                [sys.executable, "-m", "repro.cli", "analyze", config, "--top", "1"],
                capture_output=True,
                text=True,
                cwd=str(ctx.work),
                check=False,
            )
        )
        walls.append(wall)
        normalised.append(wall_ms)
        outputs.append(proc.stdout if proc.returncode == 0 else "")
        if proc.returncode != 0:
            outcome.problems.append(f"afdx analyze exited {proc.returncode}: {proc.stderr[-300:]}")
    rss = peak_rss_mb(children=True)

    if ctx.trace:
        traced = trace_analysis(config, TRACE_BUDGET_S)
        outcome.check(not traced.problems, "; ".join(traced.problems))
        nc, trajectory, combined = traced.nc, traced.trajectory, traced.combined
    else:
        network = network_from_json(config)
        nc, trajectory = cold_analysis(network)
        combined = build_comparison(nc, trajectory)

    for stdout in outputs:
        problem = _table_problem(stdout, combined) if stdout else "afdx analyze failed"
        outcome.check(not problem, problem)
    outcome.record = {
        "bounds_digest": analysis_bounds_digest(nc, trajectory),
        "work": work_counts(nc, trajectory),
        "cli_stdout_sha256": sorted(
            {hashlib.sha256(out.encode()).hexdigest() for out in outputs if out}
        ),
    }

    repeats = normalised[1:] or normalised
    outcome.timing("setup_s", setup, "s")
    outcome.timing("setup_norm_s", setup_norm, "s")
    outcome.timing("analyze_s", walls, "s")
    outcome.timing("analyze_norm_ms", normalised, "ms")
    outcome.timing("analyze_repeat_norm_ms", repeats, "ms")
    outcome.line("peak_rss_mb (afdx process)", rss, "MB")
    outcome.metrics = {
        "setup_s": median(setup_norm),
        "op_norm_ms.p50": median(normalised),
        "repeat_norm_ms.p50": median(repeats),
        "peak_rss_mb": rss,
    }
    if not ctx.trace:
        return outcome

    bare: List[float] = []
    importing: List[float] = []
    for _ in range(IMPORT_PROBES):
        bare.append(timed(lambda: _probe(ctx, "pass"))[1])
        importing.append(timed(lambda: _probe(ctx, "import repro.cli"))[1])
    interpreter, with_import = median(bare), median(importing)
    layers = dict(traced.layers)
    layers["cli.interpreter_s"] = interpreter
    layers["cli.import_s"] = with_import - interpreter
    # what the subprocess spends beyond start-up, imports and the analysis
    layers["cli.residual_s"] = median(walls) - with_import - traced.untraced_op_s
    layers["bench.trace_overhead_pct"] = (
        100.0 * (traced.op_s - traced.untraced_op_s) / traced.untraced_op_s
    )
    outcome.report.append(
        f"  in-process op: traced {traced.op_s:.4f} s, untraced {traced.untraced_op_s:.4f} s"
    )
    outcome.layers = layers
    return outcome


def _probe(ctx: Context, code: str) -> None:
    subprocess.run([sys.executable, "-c", code], cwd=str(ctx.work), check=True)

