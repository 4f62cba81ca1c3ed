"""Fleet engine: fan-out across configurations.

One configuration is analyzed in one process (the sequential
analyzers); this package spreads *many* configurations across a
:mod:`multiprocessing` pool, with results bit-identical to analyzing
each configuration on its own.  It also provides the ``batch_sweep``
soundness-fuzzing harness that analyzes and simulates many seeded
random configurations hunting for ``simulated > bound`` violations
(the regression class behind the ``random_network(589)`` bug).

Entry points
------------

:func:`batch_sweep`
    Whole-configuration fan-out over seeded ``random_network`` configs,
    each analyzed and simulated, returning a violation report.
:func:`analyze_corpus`
    Fleet throughput: every configuration of a seeded
    :class:`CorpusSpec` analyzed through a (reusable, warm) worker
    pool, with whole results cached when given a ``cache_dir``.
:class:`WorkerPool`
    The pool both use: payload epochs let one warm pool serve
    configuration after configuration.

See ``docs/BATCH.md`` for the design and the cache-sharing model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LANE_BASE",
    "WorkerPool",
    "chunked",
    "worker_emit",
    "worker_lane",
    "SweepSpec",
    "SweepViolation",
    "SweepConfigRecord",
    "SweepReport",
    "batch_sweep",
    "CorpusSpec",
    "CorpusReport",
    "analyze_corpus",
    "corpus_network",
]

_EXPORTS = {
    "repro.batch.corpus": (
        "CorpusReport",
        "CorpusSpec",
        "analyze_corpus",
        "corpus_network",
    ),
    "repro.batch.pool": (
        "LANE_BASE",
        "WorkerPool",
        "chunked",
        "worker_emit",
        "worker_lane",
    ),
    "repro.batch.sweep": (
        "SweepConfigRecord",
        "SweepReport",
        "SweepSpec",
        "SweepViolation",
        "batch_sweep",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
