"""Chrome-trace export of recorded spans (``--trace PATH``).

Serializes :class:`~repro.obs.trace.Span` trees to the Chrome Trace
Event Format — the JSON dialect ``chrome://tracing`` and Perfetto's
https://ui.perfetto.dev load directly:

* each span becomes a ``"ph": "X"`` (complete) event with ``ts`` /
  ``dur`` in microseconds relative to the tracer origin;
* each analyzer gets its own ``pid`` lane, named via ``"ph": "M"``
  (metadata) events, so Network Calculus and Trajectory stack as
  separate processes in the UI;
* merging appends a later run (e.g. the warm half of a cold/warm
  pair) under fresh ``pid`` lanes, so one file can hold the whole
  experiment.

Timestamps here are wall time by definition; the deterministic work
counters live in :mod:`repro.obs.costmodel`, never in trace files.
:func:`strip_wall_fields` removes the timing fields, leaving the
structural skeleton that *is* reproducible run-to-run — what the
determinism tests and ``scripts/profile_smoke.py`` compare.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "build_chrome_trace",
    "merge_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "strip_wall_fields",
]

#: tid of the coordinator lane in every process.
_MAIN_TID = 1

_VALID_PHASES = frozenset({"X", "M"})


def _span_events(span: Mapping[str, object], pid: int, tid: int) -> List[dict]:
    """One span dict (``Span.to_dict`` shape) to trace events, recursively."""
    attrs = dict(span.get("attrs", {}))
    start_us = round(float(span["start_ms"]) * 1000.0, 1)
    dur_us = round(float(span["duration_ms"]) * 1000.0, 1)
    name = str(span["name"])
    event: Dict[str, object] = {
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "X",
        "ts": start_us,
        "dur": dur_us,
        "pid": pid,
        "tid": tid,
    }
    if attrs:
        event["args"] = {str(key): attrs[key] for key in sorted(attrs)}
    events = [event]
    for child in span.get("children", []):
        events.extend(_span_events(child, pid, tid))
    return events


def _metadata(pid: int, tid: int, kind: str, label: str) -> dict:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": label},
    }


def build_chrome_trace(
    analyzers: Mapping[str, Optional[Mapping[str, object]]],
    label: str = "afdx",
    pid_base: int = 1,
) -> Dict[str, object]:
    """A trace document from per-analyzer ``stats`` dicts.

    ``analyzers`` maps analyzer names to their ``.stats`` exports (the
    ``spans`` key is read); analyzers without stats are skipped.  Each
    analyzer lands in its own ``pid`` lane named ``label:analyzer``.
    """
    events: List[dict] = []
    pid = pid_base
    for name in sorted(analyzers):
        stats = analyzers[name]
        if not stats:
            continue
        events.append(_metadata(pid, 0, "process_name", f"{label}:{name}"))
        events.append(_metadata(pid, _MAIN_TID, "thread_name", "coordinator"))
        for span in stats.get("spans", []):
            events.extend(_span_events(span, pid, _MAIN_TID))
        pid += 1
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "afdx", "runs": [label]},
    }


def merge_chrome_trace(
    base: Mapping[str, object], extra: Mapping[str, object]
) -> Dict[str, object]:
    """``extra`` appended to ``base`` under fresh ``pid`` lanes."""
    validate_chrome_trace(base)
    validate_chrome_trace(extra)
    events = [dict(event) for event in base["traceEvents"]]
    offset = 0
    for event in events:
        offset = max(offset, int(event["pid"]))
    for event in extra["traceEvents"]:
        shifted = dict(event)
        shifted["pid"] = int(shifted["pid"]) + offset
        events.append(shifted)
    runs: List[str] = []
    for doc in (base, extra):
        other = doc.get("otherData", {})
        runs.extend(other.get("runs", []))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "afdx", "runs": runs},
    }


def validate_chrome_trace(doc: object) -> None:
    """Raise ``ValueError`` unless ``doc`` is a loadable Chrome trace.

    Checks the subset of the Trace Event Format this module emits:
    the JSON-object container with a ``traceEvents`` list of ``"X"``
    (complete, with non-negative ``ts`` / ``dur``) and ``"M"``
    (metadata, with an ``args`` object) events carrying integer
    ``pid`` / ``tid`` and a non-empty ``name``.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must carry a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            raise ValueError(f"{where}: event must be an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing event name")
        for key in ("pid", "tid"):
            value = event.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{where}: {key} must be an integer")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{where}: {key} must be a number")
                if value < 0:
                    raise ValueError(f"{where}: {key} must be >= 0")
        else:  # "M"
            if not isinstance(event.get("args"), Mapping):
                raise ValueError(f"{where}: metadata event needs an args object")


def write_chrome_trace(
    path: Union[str, Path], doc: Mapping[str, object]
) -> Path:
    """Validate and atomically write ``doc`` as JSON (tmp + replace).

    Atomic for the same reason the Prometheus textfile is: a trace
    viewer (or a concurrent run about to merge) must never see a
    half-written file.
    """
    validate_chrome_trace(doc)
    target = Path(path)
    payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) or ".", suffix=".tmp", prefix=target.name
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def load_chrome_trace(path: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a trace document written by this module."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    validate_chrome_trace(doc)
    return doc


def strip_wall_fields(doc: Mapping[str, object]) -> Dict[str, object]:
    """A copy of ``doc`` minus every wall-time-derived field.

    Drops ``ts`` / ``dur`` and any ``args`` entry whose key ends in
    ``_ms`` (millisecond readings).  What survives — event names, categories,
    lane structure, deterministic span attributes such as
    ``smax_updates`` — must be byte-identical across reruns of the
    same command, which is exactly what the determinism tests assert.
    """
    events = []
    for event in doc.get("traceEvents", []):
        kept = {
            key: value
            for key, value in event.items()
            if key not in ("ts", "dur")
        }
        args = kept.get("args")
        if isinstance(args, Mapping):
            kept["args"] = {
                key: value
                for key, value in sorted(args.items())
                if not key.endswith("_ms")
            }
        events.append(kept)
    return {"traceEvents": events, "otherData": dict(doc.get("otherData", {}))}
