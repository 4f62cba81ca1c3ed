"""The ``repro`` logger hierarchy.

Every module logs under a child of the ``repro`` root logger
(``repro.netcalc``, ``repro.trajectory``, ``repro.sim``,
``repro.experiments``, ``repro.cli``), so one :func:`configure` call —
or any standard :mod:`logging` setup done by an embedding application —
controls the whole library.  The library itself never installs handlers
at import time; until :func:`configure` runs, records propagate to
whatever the application configured (or are swallowed by the default
last-resort handler).

Messages follow a light ``event key=value`` structure, built with
:func:`kv`, so grep / awk post-processing stays trivial::

    logger.info("sweep done %s", kv(sweep=2, changed=17, max_delta_us=3.1))
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Union

__all__ = [
    "ROOT_LOGGER_NAME",
    "get_logger",
    "configure",
    "kv",
    "lane_prefix",
    "set_worker_lane",
    "worker_lane",
]

ROOT_LOGGER_NAME = "repro"

#: Format used by :func:`configure`: time, level, logger, message.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
DATE_FORMAT = "%H:%M:%S"

#: Marker attached to handlers installed by :func:`configure`, so
#: repeated calls replace them instead of stacking duplicates.
_HANDLER_MARKER = "_repro_obs_handler"


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("netcalc")`` returns the ``repro.netcalc`` logger;
    the empty string returns the ``repro`` root itself.  Names already
    prefixed with ``repro`` (e.g. ``__name__`` inside this package)
    are used as-is.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure(
    level: Union[int, str] = "INFO", stream: Optional[IO[str]] = None
) -> logging.Logger:
    """Install a stderr handler on the ``repro`` root logger.

    Idempotent: a handler previously installed by this function is
    replaced, so calling with a new level or stream reconfigures
    instead of duplicating output.  Returns the root library logger.
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_MARKER, False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, DATE_FORMAT))
    setattr(handler, _HANDLER_MARKER, True)
    root.addHandler(handler)
    root.setLevel(level)
    # analysis logs are diagnostics, not application events
    root.propagate = False
    return root


#: Worker lane id of *this process* (None on the coordinator).  Set by
#: the pool initializer; matches the fleet telemetry lanes
#: (``repro.batch.pool.LANE_BASE``, 100), so a ``[w101]`` stderr line
#: and a lane-101 telemetry event are the same worker.
_WORKER_LANE: Optional[int] = None

#: The record factory active before the first lane install, so a lane
#: reset (or re-install) never stacks wrappers.
_BASE_RECORD_FACTORY = None


def lane_prefix(lane: int) -> str:
    """The stable textual form of a worker-lane id: ``[w<lane>]``."""
    return f"[w{int(lane)}]"


def worker_lane() -> Optional[int]:
    """This process's worker-lane id (None on the coordinator)."""
    return _WORKER_LANE


def set_worker_lane(lane: Optional[int]) -> None:
    """Tag every ``repro.*`` log record of this process with a lane id.

    Called by the worker-pool initializer in each pool process: from
    then on every record logged under the ``repro`` hierarchy carries a
    ``[w<lane>]`` message prefix, so interleaved stderr from
    ``batch-sweep --jobs N`` runs is attributable to a worker — and
    joinable with the fleet telemetry lanes, which use the same
    numbering.  Installed
    via :func:`logging.setLogRecordFactory` (record creation), so it
    works whether the worker inherited a configured handler (fork) or
    merely propagates records (spawn).  ``None`` uninstalls.
    """
    global _WORKER_LANE, _BASE_RECORD_FACTORY
    _WORKER_LANE = lane
    if _BASE_RECORD_FACTORY is None:
        _BASE_RECORD_FACTORY = logging.getLogRecordFactory()
    base = _BASE_RECORD_FACTORY
    if lane is None:
        logging.setLogRecordFactory(base)
        return
    prefix = lane_prefix(lane)

    def factory(*args, **kwargs):
        record = base(*args, **kwargs)
        in_hierarchy = record.name == ROOT_LOGGER_NAME or record.name.startswith(
            ROOT_LOGGER_NAME + "."
        )
        if in_hierarchy and isinstance(record.msg, str):
            record.msg = f"{prefix} {record.msg}"
        return record

    logging.setLogRecordFactory(factory)


def kv(**fields: object) -> str:
    """Render keyword fields as a stable ``key=value`` string.

    Floats are shortened to 3 decimals; everything else uses ``repr``
    only when it contains whitespace.
    """
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            text = f"{value:.3f}"
        else:
            text = str(value)
            if any(ch.isspace() for ch in text):
                text = repr(text)
        parts.append(f"{key}={text}")
    return " ".join(parts)
