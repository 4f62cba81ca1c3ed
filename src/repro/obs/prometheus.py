"""Prometheus textfile exposition for metrics snapshots.

Renders one or more :class:`~repro.obs.metrics.MetricsRegistry`
snapshots in the Prometheus text exposition format (version 0.0.4),
suitable for the node-exporter *textfile collector*: point
``--collector.textfile.directory`` at the directory the CLI's
``--metrics-prom PATH`` writes into and every ``afdx`` run's counters
and gauges become scrapeable without running a server.

Conventions
-----------
* every metric name is prefixed ``repro_`` and sanitized to the
  Prometheus grammar (``[a-zA-Z_:][a-zA-Z0-9_:]*``, dots become
  underscores);
* counters get the idiomatic ``_total`` suffix; timers expand into
  ``<name>_ms_count`` / ``_ms_sum`` / ``_ms_min`` / ``_ms_max`` gauges;
* samples carrying the same metric name are grouped under a single
  ``# TYPE`` header, as the format requires, and rendered in sorted
  (name, labels) order so output is deterministic;
* label values are escaped per the exposition spec (backslash, double
  quote, newline);
* the file is written atomically (temp file + :func:`os.replace`) so a
  concurrently scraping collector never reads a half-written file.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PrometheusSample",
    "render_prometheus",
    "write_prometheus",
]

_NAME_PREFIX = "repro_"
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: (name, labels, value, type) — the flat unit of exposition.
PrometheusSample = Tuple[str, Tuple[Tuple[str, str], ...], float, str]


def _metric_name(raw: str, suffix: str = "") -> str:
    name = _INVALID_NAME_CHARS.sub("_", raw)
    if name and name[0].isdigit():
        name = "_" + name
    return f"{_NAME_PREFIX}{name}{suffix}"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # repr() round-trips floats exactly; integers print without ".0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer() and abs(value) < 1e15
    ):
        return str(int(value))
    return repr(float(value))


def registry_samples(
    snapshot: Mapping[str, object],
    labels: Optional[Mapping[str, str]] = None,
) -> List[PrometheusSample]:
    """Flatten one ``MetricsRegistry.to_dict()`` snapshot into samples.

    ``labels`` is attached to every sample (e.g. ``{"command":
    "explain"}`` or ``{"analyzer": "netcalc"}``).
    """
    fixed = tuple(sorted((labels or {}).items()))
    samples: List[PrometheusSample] = []
    for name, value in (snapshot.get("counters") or {}).items():
        samples.append((_metric_name(name, "_total"), fixed, float(value), "counter"))
    for name, value in (snapshot.get("gauges") or {}).items():
        samples.append((_metric_name(name), fixed, float(value), "gauge"))
    for name, stats in (snapshot.get("timers") or {}).items():
        for stat_key in ("count", "total_ms", "min_ms", "max_ms"):
            if stat_key not in stats:
                continue
            suffix = {
                "count": "_ms_count",
                "total_ms": "_ms_sum",
                "min_ms": "_ms_min",
                "max_ms": "_ms_max",
            }[stat_key]
            samples.append(
                (_metric_name(name, suffix), fixed, float(stats[stat_key]), "gauge")
            )
    return samples


def render_prometheus(samples: Sequence[PrometheusSample]) -> str:
    """Render samples in the text exposition format, one family per name.

    Raises :class:`ValueError` if the same metric name is declared with
    two different types (the format forbids it).
    """
    families: Dict[str, Tuple[str, List[PrometheusSample]]] = {}
    for sample in samples:
        name, _labels, _value, kind = sample
        family = families.get(name)
        if family is None:
            families[name] = (kind, [sample])
        else:
            if family[0] != kind:
                raise ValueError(
                    f"metric {name!r} declared both as {family[0]} and {kind}"
                )
            family[1].append(sample)
    lines: List[str] = []
    for name in sorted(families):
        kind, members = families[name]
        lines.append(f"# TYPE {name} {kind}")
        for _name, labels, value, _kind in sorted(
            members, key=lambda s: s[1]
        ):
            lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path, samples: Sequence[PrometheusSample]) -> None:
    """Atomically write rendered samples to ``path`` (textfile collector)."""
    text = render_prometheus(samples)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".prom.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
