"""Observability: structured logging, metrics, tracing, run manifests.

The package is the measurement substrate for both analyzers and the
simulator.  Everything is opt-in and zero-overhead when disabled:

* :mod:`repro.obs.logging` — the ``repro``-namespaced logger hierarchy
  and a :func:`~repro.obs.logging.configure` helper;
* :mod:`repro.obs.metrics` — counters, gauges and nestable
  monotonic-clock timers, exportable to a JSON dict;
* :mod:`repro.obs.trace` — span-based phase tracing plus the
  :class:`~repro.obs.trace.ProgressHook` callback for long runs;
* :mod:`repro.obs.instrument` — the bundle the analyzers thread
  through their hot paths (``collect_stats=True`` turns it on);
* :mod:`repro.obs.manifest` — run-manifest assembly, validation
  against the documented schema, and JSON persistence;
* :mod:`repro.obs.prometheus` — textfile-collector exposition of
  metrics snapshots (the CLI's ``--metrics-prom``);
* :mod:`repro.obs.provenance` — bit-exact additive bound
  decompositions (the substrate of :mod:`repro.explain`);
* :mod:`repro.obs.costmodel` — deterministic work counters (the
  :class:`~repro.obs.costmodel.CostLedger` attached to ``.stats``);
* :mod:`repro.obs.tracefile` — Chrome-trace / Perfetto export of
  recorded spans (the CLI's ``--trace``);
* :mod:`repro.obs.hotspots` — the ``afdx profile`` hot-spot reports;
* :mod:`repro.obs.history` — the persistent append-only run-history
  store (``--history-dir`` / ``AFDX_HISTORY_DIR``) and the
  ``afdx obs`` diff/drift queries over it;
* :mod:`repro.obs.telemetry` — live fleet telemetry: per-configuration
  worker events folded into the upgraded ``--progress`` view.
"""

from repro._lazy import lazy_exports

__all__ = [
    "COST_SCHEMA_VERSION",
    "CostLedger",
    "deterministic_section",
    "netcalc_cost_ledger",
    "port_label",
    "record_trajectory_sweep",
    "trajectory_result_work",
    "work_summary",
    "PROFILE_SCHEMA_VERSION",
    "build_profile_report",
    "render_profile_report",
    "build_chrome_trace",
    "load_chrome_trace",
    "merge_chrome_trace",
    "strip_wall_fields",
    "validate_chrome_trace",
    "write_chrome_trace",
    "configure",
    "get_logger",
    "MetricsRegistry",
    "TimerStats",
    "NULL_REGISTRY",
    "Tracer",
    "Span",
    "NULL_TRACER",
    "ProgressHook",
    "Instrumentation",
    "OFF",
    "MANIFEST_VERSION",
    "build_manifest",
    "network_identity",
    "validate_manifest",
    "write_manifest",
    "registry_samples",
    "render_prometheus",
    "write_prometheus",
    "HISTORY_SCHEMA_VERSION",
    "RunHistory",
    "analysis_bounds_digest",
    "build_run_record",
    "cache_summary",
    "deterministic_view",
    "diff_runs",
    "drift_report",
    "git_revision",
    "resolve_history_dir",
    "validate_run_record",
    "lane_prefix",
    "set_worker_lane",
    "worker_lane",
    "FleetView",
    "TelemetryDrain",
    "fleet_drain",
]

_EXPORTS = {
    "repro.obs.costmodel": (
        "COST_SCHEMA_VERSION",
        "CostLedger",
        "deterministic_section",
        "netcalc_cost_ledger",
        "port_label",
        "record_trajectory_sweep",
        "trajectory_result_work",
        "work_summary",
    ),
    "repro.obs.hotspots": (
        "PROFILE_SCHEMA_VERSION",
        "build_profile_report",
        "render_profile_report",
    ),
    "repro.obs.history": (
        "HISTORY_SCHEMA_VERSION",
        "RunHistory",
        "analysis_bounds_digest",
        "build_run_record",
        "cache_summary",
        "deterministic_view",
        "diff_runs",
        "drift_report",
        "git_revision",
        "resolve_history_dir",
        "validate_run_record",
    ),
    "repro.obs.instrument": ("OFF", "Instrumentation"),
    "repro.obs.logging": (
        "configure",
        "get_logger",
        "lane_prefix",
        "set_worker_lane",
        "worker_lane",
    ),
    "repro.obs.manifest": (
        "MANIFEST_VERSION",
        "build_manifest",
        "network_identity",
        "validate_manifest",
        "write_manifest",
    ),
    "repro.obs.metrics": ("NULL_REGISTRY", "MetricsRegistry", "TimerStats"),
    "repro.obs.prometheus": (
        "registry_samples",
        "render_prometheus",
        "write_prometheus",
    ),
    "repro.obs.telemetry": ("FleetView", "TelemetryDrain", "fleet_drain"),
    "repro.obs.trace": ("NULL_TRACER", "ProgressHook", "Span", "Tracer"),
    "repro.obs.tracefile": (
        "build_chrome_trace",
        "load_chrome_trace",
        "merge_chrome_trace",
        "strip_wall_fields",
        "validate_chrome_trace",
        "write_chrome_trace",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
