"""Command-line interface: ``afdx`` (or ``python -m repro.cli``).

Subcommands
-----------

``afdx analyze CONFIG.json``
    Compute WCNC / Trajectory / combined bounds for every VL path of a
    configuration file and print them with aggregate statistics.
``afdx generate {fig1,fig2,industrial,random} -o CONFIG.json``
    Write one of the bundled configurations to disk.
``afdx simulate CONFIG.json``
    Run the frame-level simulator and compare observed delays with the
    analytic bounds.
``afdx experiment {table1,fig3_4,fig5,fig6,fig7,fig8,fig9}``
    Regenerate one of the paper's tables/figures.
``afdx batch-sweep``
    Soundness fuzzing: analyze + simulate many seeded random
    configurations in parallel and report any path whose observed
    delay exceeds a claimed bound (see ``docs/BATCH.md``).
``afdx whatif CONFIG.json EDITS.json``
    What-if analysis: apply an edit script (add / remove / retime /
    resize / re-route VLs), report the dirty region it can affect and
    re-analyze, printing the paths whose bounds changed (see
    ``docs/INCREMENTAL.md``).
``afdx explain CONFIG.json``
    Bound provenance: decompose every path's WCNC and Trajectory bound
    into named additive terms (conservation-checked bit for bit) and
    attribute the per-path gap between the methods to its dominant
    mechanism (see ``docs/OBSERVABILITY.md``).
``afdx lint CONFIG.json [CONFIG.json ...]``
    Report every finding of the configuration verifier
    (:mod:`repro.network.preflight`) without running any analysis: the
    theory preconditions (feed-forward routing, port stability) and the
    ARINC-664 admission rules (BAG, frame sizes, routes, multicast
    trees, ES wiring).  Every finding carries a stable ``CFG1xx`` rule
    id (see ``docs/LINT.md``); errors exit 3.

Every command that reads a configuration file verifies it with the
same rules on load (:func:`_load_config`): warnings go to stderr, and
an error fails with a one-line diagnostic naming its rule (exit 3, or
4 when stability is the only violated rule) before any analysis runs.

A command that analyzes one configuration runs in one process.
``batch-sweep`` accepts ``--jobs N`` to fan its many configurations
across N worker processes (``repro.batch``); results are
bit-identical to the sequential ``--jobs 1`` default.  ``analyze``,
``profile``, ``batch-sweep``, ``whatif`` and ``explain`` accept
``--cache-dir DIR`` to persist the content-addressed bound cache
across invocations.

Observability (every subcommand)
--------------------------------

All subcommands share the observability flag group — registered once
in :func:`_obs_parent` so a new subcommand cannot ship without it
(``tests/test_cli.py`` enforces this over :data:`OBS_FLAG_DESTS`):

``--log-level LEVEL``
    Enable the ``repro`` logger hierarchy on stderr.
``--metrics-json PATH``
    Collect analyzer stats and write a run manifest (see
    ``docs/OBSERVABILITY.md`` for the schema).
``--metrics-prom PATH``
    Write the run's counters/gauges/timers as a Prometheus textfile
    (node-exporter textfile collector format).
``--progress``
    Live per-phase progress on stderr for long industrial runs.
``--profile PATH``
    Dump cProfile stats of the whole command (top cumulative functions
    land in the run manifest).
``--trace PATH``
    Serialize the recorded phase spans as Chrome-trace JSON for
    ``chrome://tracing`` / Perfetto; an existing file at PATH is
    merged under fresh process lanes (cold/warm cache comparisons).

The ``profile`` subcommand is the deterministic complement of
``--profile``: it runs both analyzers with stats collection forced on
and prints hot-spot reports from the cost ledger
(:mod:`repro.obs.costmodel`) instead of wall-clock samples.

Exit codes
----------

0 success · 1 command-level failure (bound violations, ``lint
--strict`` warnings) · 2 usage error (argparse) · 3 configuration error
(any verifier error but stability, including cyclic routing) ·
4 unstable network (stability is the only violated rule: no finite
bound) · 5 other analysis error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional

from repro.errors import (
    AnalysisError,
    ConfigurationError,
    CyclicRoutingError,
    UnstableNetworkError,
)
from repro.obs import configure as configure_logging
from repro.obs import resolve_history_dir
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ProgressHook
from repro.trajectory.serialization import DEFAULT_SERIALIZATION, SERIALIZATION_MODES

__all__ = [
    "main",
    "build_parser",
    "OBS_FLAG_DESTS",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_CONFIG_ERROR",
    "EXIT_UNSTABLE",
    "EXIT_ANALYSIS_ERROR",
]

EXIT_OK = 0
EXIT_FAILURE = 1
# argparse itself exits with 2 on usage errors
EXIT_CONFIG_ERROR = 3
EXIT_UNSTABLE = 4
EXIT_ANALYSIS_ERROR = 5

#: argparse dests of the shared observability flag group.  Every
#: subcommand inherits them through :func:`_obs_parent`, and
#: ``tests/test_cli.py`` asserts the invariant over all subparsers.
OBS_FLAG_DESTS = (
    "log_level",
    "metrics_json",
    "metrics_prom",
    "progress",
    "profile",
    "trace",
    "history_dir",
)

#: argparse dests that describe *how* a run executed (worker count,
#: cache placement) rather than *what* it analyzed.
#: They land in the run-history record's volatile ``execution``
#: section, never its deterministic ``options`` core — the core must be
#: byte-stable across ``--jobs`` and cache states.
_EXECUTION_ARGS = frozenset(("jobs", "cache_dir"))

#: ``afdx experiment`` ids, equal to ``sorted(repro.experiments.EXPERIMENTS)``
#: (``tests/test_startup.py`` pins the two).  Spelled out because the
#: registry fills only as the drivers are imported, and building the
#: parser must not import them.
_EXPERIMENT_IDS = (
    "fig3_4", "fig5", "fig6", "fig7", "fig8", "fig9", "optimism", "table1",
)


def _bounded(convert, minimum, strict=False, maximum=None):
    """An argparse type: a finite number ``>= minimum`` (``>`` when
    ``strict``), and ``<= maximum`` when given.

    Checking the range at parse time makes a bad value a usage error
    (exit 2) instead of a traceback or a silently wrong run later, such
    as ``--top -1`` dropping the last row or ``--jobs -1`` reaching
    :func:`repro.batch.pool.resolve_jobs`.
    """
    expected = f"{'>' if strict else '>='} {minimum}"
    if maximum is not None:
        expected += f" and <= {maximum}"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if (
            (isinstance(value, float) and not math.isfinite(value))
            or (value <= minimum if strict else value < minimum)
            or (maximum is not None and value > maximum)
        ):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text}")
        return value

    return parse


#: ``--jobs`` (0 = all cores), ``--top`` and ``--limit`` (0 = all rows)
_count = _bounded(int, 0)
_positive_int = _bounded(int, 1)
_duration_ms = _bounded(float, 0, strict=True)


def _obs_parent() -> argparse.ArgumentParser:
    """The shared observability flag group, as an argparse parent.

    Registered in exactly one place so a new subcommand cannot ship
    without the standard flags: pass ``parents=[_obs_parent()]`` (as
    every ``sub.add_parser`` call in :func:`build_parser` does) and the
    whole group comes along.
    """
    obs = argparse.ArgumentParser(add_help=False)
    group = obs.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable repro.* logging on stderr (DEBUG, INFO, WARNING...)",
    )
    group.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="collect run statistics and write a JSON run manifest",
    )
    group.add_argument(
        "--metrics-prom",
        default=None,
        metavar="PATH",
        help="write run metrics as a Prometheus textfile "
        "(node-exporter textfile collector format)",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="print per-phase progress to stderr during long runs",
    )
    group.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="dump cProfile stats to PATH (top cumulative functions are "
        "recorded in the --metrics-json manifest)",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write recorded phase spans as Chrome-trace JSON "
        "(chrome://tracing / Perfetto); an existing trace file is "
        "merged, so warm/cold runs land in one timeline",
    )
    group.add_argument(
        "--history-dir",
        default=None,
        metavar="DIR",
        help="append a run record (config + bounds digests, work "
        "counters, wall time, git rev) to the persistent run history "
        "in DIR (or set AFDX_HISTORY_DIR); query it with 'afdx obs'",
    )
    return obs


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    """The flags behind :class:`~repro.core.combined.AnalysisOptions`
    (see :func:`_analysis_options`)."""
    parser.add_argument(
        "--no-grouping", action="store_true", help="disable NC grouping"
    )
    parser.add_argument(
        "--serialization",
        choices=SERIALIZATION_MODES,
        default=DEFAULT_SERIALIZATION,
        help=f"Trajectory serialization mode (default: {DEFAULT_SERIALIZATION})",
    )


def _analysis_options(args: argparse.Namespace):
    """The :class:`~repro.core.combined.AnalysisOptions` a command's
    flags ask for (:func:`_add_analysis_flags`)."""
    from repro.core.combined import AnalysisOptions

    return AnalysisOptions(
        grouping=not args.no_grouping, serialization=args.serialization
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``afdx`` argument parser (exposed for testing)."""
    obs = _obs_parent()

    parser = argparse.ArgumentParser(
        prog="afdx",
        description="Worst-case end-to-end delay analysis of AFDX networks "
        "(Network Calculus + Trajectory approach, DATE 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", parents=[obs], help="compute delay bounds for a configuration"
    )
    analyze.add_argument("config", help="configuration JSON file")
    _add_analysis_flags(analyze)
    analyze.add_argument(
        "--top", type=_count, default=0,
        help="print only the N largest combined bounds (0 = all)",
    )
    analyze.add_argument(
        "--jitter", action="store_true",
        help="also print the per-path jitter bound (bound - uncontended floor)",
    )
    analyze.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the content-addressed bound cache in DIR "
        "(bit-identical results, a repeat run reuses the cached results)",
    )

    profile_cmd = sub.add_parser(
        "profile",
        parents=[obs],
        help="run both analyzers and print deterministic hot-spot reports",
    )
    profile_cmd.add_argument("config", help="configuration JSON file")
    profile_cmd.add_argument(
        "--top", type=_count, default=10, metavar="K",
        help="rows per hot-port table (default: 10)",
    )
    profile_cmd.add_argument(
        "--busy-share", type=_bounded(float, 0, maximum=100), default=5.0,
        metavar="PCT",
        help="report paths whose busy-period share of the total exceeds "
        "PCT%% (default: 5)",
    )
    profile_cmd.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report rendering (default: text)",
    )
    profile_cmd.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    _add_analysis_flags(profile_cmd)
    profile_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the content-addressed bound cache in DIR "
        "(cache hits appear as explicit ledger entries)",
    )

    generate = sub.add_parser(
        "generate", parents=[obs], help="write a bundled configuration"
    )
    generate.add_argument(
        "kind", choices=["fig1", "fig2", "industrial", "random"],
        help="which configuration to generate",
    )
    generate.add_argument("-o", "--output", required=True, help="output JSON path")
    generate.add_argument("--seed", type=int, default=2010, help="generator seed")
    generate.add_argument(
        "--vls", type=_positive_int, default=1000,
        help="VL count (industrial/random)",
    )

    simulate_cmd = sub.add_parser(
        "simulate", parents=[obs], help="simulate a configuration"
    )
    simulate_cmd.add_argument("config", help="configuration JSON file")
    simulate_cmd.add_argument("--duration-ms", type=_duration_ms, default=100.0)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument(
        "--random-offsets",
        action="store_true",
        help="desynchronize VL first releases (default: synchronized)",
    )

    report = sub.add_parser(
        "report", parents=[obs], help="full certification-style report"
    )
    report.add_argument("config", help="configuration JSON file")
    report.add_argument("-o", "--output", default=None, help="write to a file")
    report.add_argument(
        "--top", type=_count, default=10, help="critical paths to detail"
    )

    experiment = sub.add_parser(
        "experiment", parents=[obs], help="regenerate a paper table/figure"
    )
    experiment.add_argument("id", choices=_EXPERIMENT_IDS, help="experiment id")
    experiment.add_argument(
        "--vls", type=_positive_int, default=None,
        help="override the industrial configuration's VL count (faster runs)",
    )
    experiment.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the artefact as CSV",
    )

    sweep = sub.add_parser(
        "batch-sweep", parents=[obs],
        help="fuzz many seeded random configurations for bound soundness",
    )
    sweep.add_argument(
        "--configs", type=_positive_int, default=50, metavar="N",
        help="number of seeded random configurations (default 50)",
    )
    sweep.add_argument(
        "--base-seed", type=int, default=0, metavar="SEED",
        help="first topology seed; configs use SEED..SEED+N-1",
    )
    sweep.add_argument("--switches", type=_positive_int, default=3, metavar="N")
    sweep.add_argument(
        "--end-systems", type=_bounded(int, 2), default=6, metavar="N"
    )
    sweep.add_argument("--vls", type=_positive_int, default=6, metavar="N")
    sweep.add_argument(
        "--scenarios", type=_positive_int, default=2, metavar="N",
        help="traffic scenarios simulated per configuration (default 2)",
    )
    sweep.add_argument(
        "--duration-ms", type=_duration_ms, default=5.0,
        help="simulated time per scenario in ms (default 5)",
    )
    sweep.add_argument(
        "--jobs", type=_count, default=1, metavar="N",
        help="worker processes (1 = sequential, 0 = all cores)",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="share the content-addressed bound cache across sweeps "
        "(and with the other incremental commands)",
    )

    whatif = sub.add_parser(
        "whatif", parents=[obs],
        help="apply an edit script, report its dirty region and re-analyze",
    )
    whatif.add_argument("config", help="configuration JSON file")
    whatif.add_argument(
        "edits",
        help='edit-script JSON file ({"edits": [{"op": "retime", ...}, ...]})',
    )
    _add_analysis_flags(whatif)
    whatif.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the bound cache in DIR so repeated what-ifs on the "
        "same base configuration skip the cold run's recomputation",
    )

    explain = sub.add_parser(
        "explain", parents=[obs],
        help="decompose every bound into additive terms and attribute "
        "the per-path gap between the two methods",
    )
    explain.add_argument("config", help="configuration JSON file")
    explain.add_argument(
        "--vl", default=None, metavar="NAME",
        help="detail only the paths of this VL",
    )
    explain.add_argument(
        "--path", type=int, default=None, metavar="K",
        help="detail only path index K (usually with --vl)",
    )
    explain.add_argument(
        "--format", choices=["text", "json", "html"], default="text",
        help="output format (default: text)",
    )
    explain.add_argument(
        "--top", type=_count, default=0, metavar="N",
        help="detail only the N paths with the largest |gap| "
        "(the summary always covers every path)",
    )
    _add_analysis_flags(explain)
    explain.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the bound cache in DIR (provenance is always "
        "recomputed, never served stale; output is byte-identical)",
    )
    explain.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )

    lint = sub.add_parser(
        "lint", parents=[obs],
        help="report every finding of the configuration verifier: theory "
        "preconditions and ARINC-664 admission rules (no analysis run)",
    )
    lint.add_argument(
        "configs", nargs="+", metavar="CONFIG",
        help="configuration JSON file(s)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 when only warnings are found (default: warnings pass)",
    )
    lint.add_argument(
        "--max-utilization", type=_bounded(float, 0, strict=True, maximum=1),
        default=1.0, metavar="U",
        help="stability threshold for CFG102 (default 1.0, the theoretical "
        "limit; admission control may verify a stricter value)",
    )
    lint.add_argument(
        "--no-utilization-table", action="store_true",
        help="suppress the CFG110 per-port utilization info entries",
    )

    obs_cmd = sub.add_parser(
        "obs", parents=[obs],
        help="query the persistent run history "
        "(--history-dir / AFDX_HISTORY_DIR)",
    )
    obs_cmd.add_argument(
        "action", choices=["list", "show", "diff", "drift"],
        help="list recent runs; show full records; diff two runs' "
        "bounds digests and work counters; drift-scan for bounds "
        "changes at fixed config digests across git revs",
    )
    obs_cmd.add_argument(
        "run_ids", nargs="*", metavar="RUN_ID",
        help="run ids (unique prefixes accepted): show takes one or "
        "more, diff exactly two",
    )
    obs_cmd.add_argument(
        "--limit", type=_count, default=20, metavar="N",
        help="newest N records for list (default 20, 0 = all)",
    )
    obs_cmd.add_argument(
        "--command", default=None, metavar="CMD", dest="filter_command",
        help="only consider records of this subcommand",
    )
    obs_cmd.add_argument(
        "--config-digest", default=None, metavar="HEX",
        help="only consider records whose configuration digest starts "
        "with HEX",
    )
    obs_cmd.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )
    obs_cmd.add_argument(
        "--strict", action="store_true",
        help="drift: also exit 1 on more-work counter trends "
        "(advisory by default)",
    )

    return parser


def _print_progress(phase: str, done: int, total: int) -> None:
    """Default ``--progress`` sink: one updating line per phase on stderr."""
    end = "\n" if done >= total else ""
    print(f"\r{phase}: {done}/{total}", end=end, file=sys.stderr, flush=True)


class _RunContext:
    """Per-invocation observability state shared with the subcommands.

    Collects the command-level metrics registry, the progress hook and
    the manifest sections (``config`` / ``analyzers`` / ``bounds``)
    the dispatched command fills in; :func:`main` assembles and writes
    the manifest after the command returns.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.metrics_path: Optional[str] = getattr(args, "metrics_json", None)
        self.prom_path: Optional[str] = getattr(args, "metrics_prom", None)
        self.trace_path: Optional[str] = getattr(args, "trace", None)
        #: run-history target (flag > AFDX_HISTORY_DIR > off); queries
        #: (``afdx obs``) read it but never record themselves
        self.history_dir = resolve_history_dir(
            getattr(args, "history_dir", None)
        )
        self.record_history = (
            self.history_dir is not None and args.command != "obs"
        )
        # a recorded run needs the same stats the manifest needs (work
        # counters, config identity), so recording implies collection
        self.collect = (
            self.metrics_path is not None
            or self.prom_path is not None
            or self.trace_path is not None
            or self.record_history
        )
        self.metrics = MetricsRegistry(enabled=self.collect)
        self.progress = (
            ProgressHook(_print_progress) if getattr(args, "progress", False) else None
        )
        self.config: Optional[Dict[str, object]] = None
        self.analyzers: Dict[str, Dict[str, object]] = {}
        self.bounds: Optional[Dict[str, object]] = None
        self.config_digest: Optional[str] = None
        self.bounds_digest: Optional[str] = None
        self.fleet: Optional[Dict[str, object]] = None

    def set_config(self, network, source: Optional[str] = None) -> None:
        """Record the configuration identity for the manifest."""
        if not self.collect:
            return
        from repro.obs.manifest import network_identity

        self.config = network_identity(network)
        if source is not None:
            self.config["source"] = str(source)
        if self.record_history:
            from repro.incremental.fingerprint import network_fingerprint

            self.config_digest = network_fingerprint(network)

    def record_analysis(self, netcalc, trajectory, comparison=None) -> None:
        """Record one analysis for the manifest and the run history.

        Keeps both analyzers' stats, the bounds summary of
        ``comparison`` (an :class:`~repro.core.results.AnalysisResult`,
        when the command built one) and the lossless per-path bounds
        digest that ``afdx obs drift`` compares.
        """
        if not self.collect:
            return
        self.analyzers = {"network_calculus": netcalc.stats, "trajectory": trajectory.stats}
        if comparison is not None:
            from repro.obs.manifest import bound_summary

            self.bounds = bound_summary(comparison)
        if self.record_history:
            from repro.obs.history import analysis_bounds_digest

            self.bounds_digest = analysis_bounds_digest(netcalc, trajectory)


#: argparse attributes that are not analyzer/command options.
#: Derived from OBS_FLAG_DESTS so a flag added to the shared group is
#: automatically excluded from the manifest's ``options`` section.
_NON_OPTION_ARGS = frozenset(("command",) + OBS_FLAG_DESTS)


def _manifest_options(args: argparse.Namespace) -> Dict[str, object]:
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_OPTION_ARGS
    }


def _history_options(args: argparse.Namespace) -> Dict[str, object]:
    """Manifest options minus execution shape.

    The run-history record splits a deterministic core from a volatile
    shell; ``jobs``/``cache_dir`` only change *how* bounds are
    computed, never their bytes, so they live in the record's
    ``execution`` section instead of here.
    """
    return {
        key: value
        for key, value in _manifest_options(args).items()
        if key not in _EXECUTION_ARGS
    }


def _history_execution(args: argparse.Namespace) -> Dict[str, object]:
    return {
        key: vars(args)[key]
        for key in sorted(_EXECUTION_ARGS)
        if key in vars(args)
    }


def _verify_config(path: str, verifier=None):
    """The :class:`~repro.network.preflight.ConfigReport` of
    configuration file ``path``: the JSON is parsed once, and the
    network is built once, by the verifier's stage 2.

    Raises :class:`ConfigurationError` when the file cannot be read or
    is not JSON.
    """
    from repro.network.preflight import ConfigVerifier
    from repro.network.serialization import read_config

    if verifier is None:
        verifier = ConfigVerifier(utilization_table=False)
    return verifier.verify_dict(read_config(path), source=path)


def _load_config(args: argparse.Namespace, ctx: _RunContext):
    """The network of ``args.config``, judged by every verifier rule.

    The one loader of every command that analyzes a configuration file.
    Warnings go to stderr.  An error raises naming its rule, which
    :func:`main` turns into exit 4 when stability (CFG102) is the only
    violated rule and exit 3 otherwise.
    """
    report = _verify_config(args.config)
    if report.network is not None:
        # a rejected but constructible config keeps its identity in the
        # manifest and the run history
        ctx.set_config(report.network, source=args.config)
    for finding in report.warnings:
        print(f"afdx: warning: {finding.rule_id}: {finding.message}", file=sys.stderr)
    report.raise_on_error()
    return report.network


def _bound_cache(args: argparse.Namespace):
    """The ``--cache-dir`` bound cache, or None without the flag."""
    if args.cache_dir is None:
        return None
    from repro.incremental.cache import BoundCache

    return BoundCache(cache_dir=args.cache_dir)


def _cmd_analyze(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.core.combined import analyze_network

    network = _load_config(args, ctx)
    result = analyze_network(
        network,
        _analysis_options(args),
        cache=_bound_cache(args),
        collect_stats=ctx.collect,
        progress=ctx.progress,
    )
    ctx.record_analysis(result.netcalc, result.trajectory, result)
    jitters = None
    if args.jitter:
        from repro.core.jitter import jitter_bounds

        jitters = jitter_bounds(network, result)
    paths = result.path_list()
    paths.sort(key=lambda p: -p.best_us)
    if args.top:
        paths = paths[: args.top]
    header = f"{'VL path':<24}{'WCNC (us)':>12}{'Traj (us)':>12}{'best (us)':>12}"
    if jitters is not None:
        header += f"{'jitter (us)':>13}"
    print(header)
    for path in paths:
        line = (
            f"{path.flow:<24}{path.network_calculus_us:>12.1f}"
            f"{path.trajectory_us:>12.1f}{path.best_us:>12.1f}"
        )
        if jitters is not None:
            line += f"{jitters[(path.vl_name, path.path_index)].jitter_us:>13.1f}"
        print(line)
    print()
    print(result.stats.as_table())
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, ctx: _RunContext) -> int:
    """``afdx profile``: deterministic hot-spot reports for one config.

    Stats collection is forced on — the profile *is* the stats
    consumer — independent of the ``--metrics-json`` / ``--trace``
    flags, which additionally persist what was collected.
    """
    import json
    from pathlib import Path

    from repro.core.combined import analyze_network
    from repro.obs import build_profile_report, render_profile_report
    from repro.obs.manifest import network_identity

    network = _load_config(args, ctx)
    result = analyze_network(
        network,
        _analysis_options(args),
        cache=_bound_cache(args),
        collect_stats=True,
        progress=ctx.progress,
    )
    ctx.record_analysis(result.netcalc, result.trajectory, result)
    report = build_profile_report(
        result.netcalc,
        result.trajectory,
        top=args.top,
        busy_share_pct=args.busy_share,
        config=network_identity(network),
    )
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_profile_report(report)
    if args.output is not None:
        Path(args.output).write_text(text + "\n")
        print(f"(profile report written to {args.output})", file=sys.stderr)
    else:
        print(text)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.configs import (
        IndustrialConfigSpec,
        fig1_network,
        fig2_network,
        industrial_network,
        random_network,
    )
    from repro.network.serialization import network_to_json

    if args.kind == "fig1":
        network = fig1_network()
    elif args.kind == "fig2":
        network = fig2_network()
    elif args.kind == "industrial":
        network = industrial_network(
            IndustrialConfigSpec(seed=args.seed, n_virtual_links=args.vls)
        )
    else:
        network = random_network(args.seed, n_virtual_links=min(args.vls, 50))
    ctx.set_config(network)
    network_to_json(network, args.output)
    print(f"wrote {network!r} to {args.output}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.core.combined import AnalysisOptions, run_analyses
    from repro.sim.scenarios import TrafficScenario, simulate

    network = _load_config(args, ctx)
    # the simulator checks the claimed-sound bounds only
    nc, trajectory = run_analyses(
        network,
        AnalysisOptions(serialization="safe"),
        collect_stats=ctx.collect,
        progress=ctx.progress,
    )
    ctx.record_analysis(nc, trajectory)
    scenario = TrafficScenario(
        duration_ms=args.duration_ms,
        synchronized=not args.random_offsets,
        seed=args.seed,
    )
    observed = simulate(network, scenario, metrics=ctx.metrics)
    print(
        f"{'VL path':<24}{'observed max':>14}{'Traj(safe)':>12}{'WCNC':>12}{'margin':>10}"
    )
    violations = 0
    for key in sorted(observed.paths):
        stats = observed.paths[key]
        bound = min(trajectory.paths[key].total_us, nc.paths[key].total_us)
        margin = bound - stats.max_us
        violations += margin < -1e-6
        print(
            f"{key[0] + '[' + str(key[1]) + ']':<24}{stats.max_us:>14.1f}"
            f"{trajectory.paths[key].total_us:>12.1f}"
            f"{nc.paths[key].total_us:>12.1f}{margin:>10.1f}"
        )
    print(f"\n{observed.duration_us / 1000:.0f} ms simulated, {violations} bound violations")
    return EXIT_FAILURE if violations else EXIT_OK


def _cmd_experiment(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.configs.industrial import IndustrialConfigSpec
    from repro.experiments import run_experiment

    kwargs = {}
    if args.vls is not None and args.id in ("table1", "fig5", "fig6"):
        kwargs["spec"] = IndustrialConfigSpec(n_virtual_links=args.vls)
    result = run_experiment(args.id, metrics=ctx.metrics, **kwargs)
    print(result.render())
    if args.csv:
        from pathlib import Path

        Path(args.csv).write_text(result.to_csv())
        print(f"(csv written to {args.csv})")
    return EXIT_OK


def _cmd_batch_sweep(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.batch.sweep import SweepSpec, batch_sweep

    spec = SweepSpec(
        configs=args.configs,
        base_seed=args.base_seed,
        n_switches=args.switches,
        n_end_systems=args.end_systems,
        n_virtual_links=args.vls,
        scenarios_per_config=args.scenarios,
        duration_ms=args.duration_ms,
        cache_dir=args.cache_dir,
    )
    if ctx.record_history:
        # the sweep's identity is its seeded spec; cache_dir is
        # execution shape (bit-identical results either way) and must
        # not split drift groups
        import dataclasses
        import hashlib

        identity = dataclasses.replace(spec, cache_dir=None)
        ctx.config_digest = hashlib.sha256(repr(identity).encode()).hexdigest()
    report = batch_sweep(
        spec, jobs=args.jobs, collect_stats=ctx.collect, progress=ctx.progress
    )
    print(report.render())
    if ctx.collect and report.stats is not None:
        ctx.analyzers = {"batch_sweep": report.stats}
    if isinstance(report.stats, dict):
        ctx.fleet = report.stats.get("fleet")
    return EXIT_FAILURE if report.violations else EXIT_OK


def _fmt_bound(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def _cmd_whatif(args: argparse.Namespace, ctx: _RunContext) -> int:
    from repro.incremental import DeltaAnalyzer
    from repro.incremental.edits import load_edit_script

    network = _load_config(args, ctx)
    edits = load_edit_script(args.edits)
    if ctx.config_digest is not None:
        # a whatif run's identity is (base config, edit script): fold
        # the edit bytes into the digest so two whatifs with different
        # edits never land in the same drift group
        import hashlib
        from pathlib import Path as _Path

        digest = hashlib.sha256(ctx.config_digest.encode())
        digest.update(_Path(args.edits).read_bytes())
        ctx.config_digest = digest.hexdigest()
    engine = DeltaAnalyzer(
        network,
        _analysis_options(args),
        cache_dir=args.cache_dir,
        collect_stats=ctx.collect,
        progress=ctx.progress,
    )
    engine.analyze_base()
    delta = engine.apply(edits)
    ctx.record_analysis(delta.netcalc, delta.trajectory)
    stats = delta.stats
    print(
        f"whatif: {len(edits)} edit(s), "
        f"dirty {stats['n_dirty_ports']}/{stats['n_ports']} ports, "
        f"{stats['n_dirty_vls']}/{stats['n_vls']} VLs, "
        f"{len(delta.changed)} path bound(s) changed"
    )
    if delta.changed:
        print(
            f"{'VL path':<24}{'kind':<9}"
            f"{'WCNC (us)':>24}{'Traj (us)':>24}"
        )
        for key, change in delta.changed.items():
            flow = f"{key[0]}[{key[1]}]"
            nc = f"{_fmt_bound(change.nc_before_us)} -> {_fmt_bound(change.nc_after_us)}"
            tr = (
                f"{_fmt_bound(change.trajectory_before_us)} -> "
                f"{_fmt_bound(change.trajectory_after_us)}"
            )
            print(f"{flow:<24}{change.kind:<9}{nc:>24}{tr:>24}")
    if ctx.collect:
        ctx.metrics.gauge("whatif.dirty_ports", stats["n_dirty_ports"])
        ctx.metrics.gauge("whatif.dirty_vls", stats["n_dirty_vls"])
        ctx.metrics.gauge("whatif.changed_paths", len(delta.changed))
        ctx.metrics.gauge("whatif.cache_entries", stats["cache_entries"])
        for name, value in stats["cache"].items():
            ctx.metrics.counter(f"whatif.cache_{name}", value)
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace, ctx: _RunContext) -> int:
    from pathlib import Path

    from repro.explain import explain_network, render_explanation

    network = _load_config(args, ctx)
    explanation = explain_network(
        network,
        _analysis_options(args),
        cache_dir=args.cache_dir,
        collect_stats=ctx.collect,
        progress=ctx.progress,
    )
    ctx.record_analysis(
        explanation.netcalc, explanation.trajectory, explanation.comparison
    )
    text = render_explanation(
        explanation,
        fmt=args.format,
        vl=args.vl,
        path=args.path,
        top=args.top,
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"explanation written to {args.output}")
    else:
        print(text, end="")
    summary = explanation.summary
    if ctx.collect:
        ctx.metrics.gauge("explain.paths", summary.n_paths)
        ctx.metrics.gauge("explain.nc_wins", summary.nc_wins)
        ctx.metrics.gauge("explain.trajectory_wins", summary.trajectory_wins)
        ctx.metrics.gauge("explain.ties", summary.ties)
        ctx.metrics.gauge(
            "explain.conservation_failures", summary.conservation_failures
        )
        ctx.metrics.gauge(
            "explain.max_abs_residual_us", summary.max_abs_residual_us
        )
    return EXIT_OK if summary.conservation_failures == 0 else EXIT_FAILURE


def _cmd_lint(args: argparse.Namespace, ctx: _RunContext) -> int:
    import json

    from repro.network.preflight import ConfigVerifier

    verifier = ConfigVerifier(
        max_utilization=args.max_utilization,
        utilization_table=not args.no_utilization_table,
    )
    reports = []
    unreadable: List[str] = []
    for config in args.configs:
        try:
            reports.append(_verify_config(config, verifier))
        except ConfigurationError as exc:
            unreadable.append(str(exc))

    n_errors = sum(len(r.errors) for r in reports) + len(unreadable)
    n_warnings = sum(len(r.warnings) for r in reports)
    if ctx.collect:
        ctx.metrics.gauge("lint.configs", len(args.configs))
        ctx.metrics.gauge("lint.errors", n_errors)
        ctx.metrics.gauge("lint.warnings", n_warnings)

    if args.format == "json":
        payload = {
            "configs": [r.to_dict() for r in reports],
            "unreadable": unreadable,
            "summary": {
                "configs": len(args.configs),
                "errors": n_errors,
                "warnings": n_warnings,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for message in unreadable:
            print(f"ERROR: {message}")
        for report in reports:
            for finding in report.findings:
                print(finding.render())
            status = "OK" if report.ok else "INVALID"
            worst = max(report.port_utilization.values(), default=0.0)
            print(
                f"{report.source}: {status} "
                f"({len(report.errors)} error(s), {len(report.warnings)} "
                f"warning(s), max port utilization {worst:.3f})"
            )
    if n_errors:
        return EXIT_CONFIG_ERROR
    if n_warnings and args.strict:
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_report(args: argparse.Namespace, ctx: _RunContext) -> int:
    from pathlib import Path

    from repro.core.combined import analyze_network
    from repro.core.reporting import certification_report

    network = _load_config(args, ctx)
    result = analyze_network(network, collect_stats=ctx.collect, progress=ctx.progress)
    ctx.record_analysis(result.netcalc, result.trajectory, result)
    text = certification_report(network, result, top_paths=args.top)
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _resolve_run(history, run_id: str):
    """One history record by (prefix of) run id, or an error message."""
    try:
        record = history.get(run_id)
    except ValueError as exc:
        return None, str(exc)
    if record is None:
        return None, f"no run {run_id!r} in history"
    return record, None


def _cmd_obs(args: argparse.Namespace, ctx: _RunContext) -> int:
    """``afdx obs``: query the persistent run history."""
    import json

    from repro.obs.history import (
        RunHistory,
        diff_runs,
        drift_report,
        render_drift_report,
        render_run,
        render_run_diff,
        render_run_line,
    )

    if ctx.history_dir is None:
        print(
            "afdx: error: no run history directory "
            "(pass --history-dir DIR or set AFDX_HISTORY_DIR)",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR
    history = RunHistory(ctx.history_dir)
    records = history.records()
    if args.filter_command:
        records = [
            r for r in records if r.get("command") == args.filter_command
        ]
    if args.config_digest:
        records = [
            r
            for r in records
            if str(r.get("config_digest", "")).startswith(args.config_digest)
        ]

    if args.action == "list":
        shown = records[-args.limit :] if args.limit > 0 else records
        if args.format == "json":
            print(json.dumps(shown, indent=2, sort_keys=True))
        else:
            for record in shown:
                print(render_run_line(record))
            print(
                f"{len(shown)} of {len(records)} record(s) "
                f"in {ctx.history_dir}"
            )
        return EXIT_OK

    if args.action == "show":
        if not args.run_ids:
            print(
                "afdx: error: obs show needs at least one RUN_ID",
                file=sys.stderr,
            )
            return EXIT_CONFIG_ERROR
        resolved = []
        for run_id in args.run_ids:
            record, problem = _resolve_run(history, run_id)
            if problem is not None:
                print(f"afdx: error: {problem}", file=sys.stderr)
                return EXIT_FAILURE
            resolved.append(record)
        if args.format == "json":
            payload = resolved[0] if len(resolved) == 1 else resolved
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for record in resolved:
                print(render_run(record))
        return EXIT_OK

    if args.action == "diff":
        if len(args.run_ids) != 2:
            print(
                "afdx: error: obs diff needs exactly two RUN_IDs",
                file=sys.stderr,
            )
            return EXIT_CONFIG_ERROR
        pair = []
        for run_id in args.run_ids:
            record, problem = _resolve_run(history, run_id)
            if problem is not None:
                print(f"afdx: error: {problem}", file=sys.stderr)
                return EXIT_FAILURE
            pair.append(record)
        diff = diff_runs(pair[0], pair[1])
        if args.format == "json":
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_run_diff(diff))
        return EXIT_OK

    # drift: the soundness tripwire — bounds digests at a fixed config
    # digest must be identical across git revs, jobs and cache states
    report = drift_report(records)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_drift_report(report))
    if report["drifts"]:
        return EXIT_FAILURE
    if args.strict and report["more_work"]:
        return EXIT_FAILURE
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
    "batch-sweep": _cmd_batch_sweep,
    "whatif": _cmd_whatif,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
}


def _dump_profile(profiler, path: str) -> Dict[str, object]:
    """Write cProfile stats to ``path``; return the manifest summary."""
    import pstats

    profiler.dump_stats(path)
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, _) in stats.stats.items():
        entries.append((cumtime, tottime, ncalls, f"{filename}:{line}({func})"))
    entries.sort(key=lambda entry: (-entry[0], entry[3]))
    return {
        "stats_path": str(path),
        "total_calls": int(stats.total_calls),
        "total_time_s": round(stats.total_tt, 6),
        "top_cumulative": [
            {
                "function": name,
                "ncalls": int(ncalls),
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
            for cumtime, tottime, ncalls, name in entries[:25]
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``afdx`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            parser.error(str(exc))
    ctx = _RunContext(args)
    status, error, code = "ok", None, EXIT_OK
    profile_path = getattr(args, "profile", None)
    profile_summary: Optional[Dict[str, object]] = None
    try:
        with ctx.metrics.timer("cli.total"):
            if profile_path is not None:
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
                try:
                    code = _COMMANDS[args.command](args, ctx)
                finally:
                    profiler.disable()
                    profile_summary = _dump_profile(profiler, profile_path)
                    print(f"(profile written to {profile_path})", file=sys.stderr)
            else:
                code = _COMMANDS[args.command](args, ctx)
    except ConfigurationError as exc:
        status, error, code = "error", str(exc), EXIT_CONFIG_ERROR
    except CyclicRoutingError as exc:
        # cyclic routing is a property of the configuration, not an
        # analysis failure: exit like any other configuration error
        status, error, code = "error", str(exc), EXIT_CONFIG_ERROR
    except UnstableNetworkError as exc:
        status, error, code = "error", str(exc), EXIT_UNSTABLE
    except AnalysisError as exc:
        status, error, code = "error", str(exc), EXIT_ANALYSIS_ERROR
    if error is not None:
        print(f"afdx: error: {error}", file=sys.stderr)
    if ctx.metrics_path is not None:
        from repro.obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            command=args.command,
            options=_manifest_options(args),
            config=ctx.config,
            analyzers=ctx.analyzers,
            bounds=ctx.bounds,
            metrics=ctx.metrics.to_dict(),
            status=status,
            error=error,
            profile=profile_summary,
        )
        try:
            write_manifest(manifest, ctx.metrics_path)
        except OSError as exc:
            print(f"afdx: error: cannot write manifest: {exc}", file=sys.stderr)
            return code if code != EXIT_OK else EXIT_FAILURE
        print(f"(run manifest written to {ctx.metrics_path})", file=sys.stderr)
    if ctx.prom_path is not None:
        from repro.obs import registry_samples, write_prometheus

        samples = registry_samples(
            ctx.metrics.to_dict(), labels={"command": args.command}
        )
        for name, stats in sorted(ctx.analyzers.items()):
            if stats:
                samples.extend(
                    registry_samples(
                        stats,
                        labels={"command": args.command, "analyzer": name},
                    )
                )
        try:
            write_prometheus(ctx.prom_path, samples)
        except OSError as exc:
            print(
                f"afdx: error: cannot write prometheus file: {exc}",
                file=sys.stderr,
            )
            return code if code != EXIT_OK else EXIT_FAILURE
        print(
            f"(prometheus metrics written to {ctx.prom_path})", file=sys.stderr
        )
    if ctx.trace_path is not None:
        from pathlib import Path

        from repro.obs import (
            build_chrome_trace,
            load_chrome_trace,
            merge_chrome_trace,
            write_chrome_trace,
        )

        try:
            target = Path(ctx.trace_path)
            base = load_chrome_trace(target) if target.exists() else None
            run_index = (
                len(base.get("otherData", {}).get("runs", [])) + 1
                if base is not None
                else 1
            )
            doc = build_chrome_trace(
                ctx.analyzers, label=f"run{run_index}:{args.command}"
            )
            if base is not None:
                doc = merge_chrome_trace(base, doc)
            write_chrome_trace(target, doc)
        except (OSError, ValueError) as exc:
            print(f"afdx: error: cannot write trace: {exc}", file=sys.stderr)
            return code if code != EXIT_OK else EXIT_FAILURE
        print(f"(trace written to {ctx.trace_path})", file=sys.stderr)
    if ctx.record_history:
        from repro.obs.costmodel import work_summary
        from repro.obs.history import (
            RunHistory,
            build_run_record,
            cache_summary,
            git_revision,
        )

        timers = ctx.metrics.to_dict().get("timers", {})
        total = timers.get("cli.total", {})
        execution = _history_execution(args)
        if ctx.fleet is not None:
            execution["fleet"] = ctx.fleet
        record = build_run_record(
            command=args.command,
            status=status,
            config=ctx.config,
            config_digest=ctx.config_digest,
            bounds_digest=ctx.bounds_digest,
            work=work_summary(ctx.analyzers),
            cache=cache_summary(ctx.analyzers),
            execution=execution,
            options=_history_options(args),
            wall_ms=float(total.get("total_ms", 0.0)),
            error=error,
            git_rev=git_revision(),
        )
        try:
            history = RunHistory(ctx.history_dir)
            history.append(record)
        except (OSError, ValueError) as exc:
            print(
                f"afdx: error: cannot record run history: {exc}",
                file=sys.stderr,
            )
            return code if code != EXIT_OK else EXIT_FAILURE
        print(
            f"(run {record['run_id']} recorded in history at "
            f"{ctx.history_dir})",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
