"""Static-analysis subsystem: the repo's determinism/soundness linter.

The analyses in this repository promise more than "roughly correct
numbers": bounds must be *bit-identical* across ``--jobs N``, across
cold and warm cache runs, and across ``PYTHONHASHSEED`` variation
(see ``docs/INCREMENTAL.md``).  Two shipped bugs broke that promise in
mechanically detectable ways — an insertion-order float-sum leak in
``Network.port_utilization`` and a concavity micro-segment born of
float noise — so this package enforces the hazard classes as lint
rules over the source tree itself:

* float accumulation through builtin ``sum()`` or ``+=`` reduction
  loops instead of :func:`math.fsum` (REPRO101 / REPRO102);
* iteration over ``set``/``frozenset`` values whose order feeds
  results, without a ``sorted()`` (REPRO103);
* the process-global ``random`` module and order-by-``hash()``
  (REPRO104);
* wall-clock reads — ``time.time``, ``datetime.now`` — in analyzer or
  cache code (REPRO105);
* mutable default arguments (REPRO201) and bare ``except:`` (REPRO202);
* malformed or unused inline waivers (REPRO301 / REPRO302).

On top of the syntactic rules sits the whole-program dataflow engine
(:mod:`repro.lint.dataflow`, the CLI default via ``--engine
dataflow``): an interprocedural taint analysis that reports unordered
iteration, wall-clock, RNG and environment reads only when they
*reach* a float fold, digest, artefact emission or ``CostLedger``
counter (REPRO501–REPRO504, with the full ``source → through f() →
sink`` chain in the diagnostic), and a path-sensitive ownership
analysis for SharedMemory/pool lifetimes and fork safety
(REPRO601/REPRO602, superseding the syntactic REPRO401).  Committed
baselines (:mod:`repro.lint.baseline`) ratchet new findings without
blocking on historical ones.

Run it as ``python -m repro.lint src/`` (text or ``--format json``).
A finding is silenced only by an inline waiver **with a reason**::

    total = sum(counts)  # repro-lint: allow[REPRO101] integer counters

The full rule catalogue, waiver syntax and the mapping from each rule
to the determinism contract it protects live in ``docs/LINT.md``.

Every name is exported lazily (PEP 562, :func:`repro._lazy.lazy_exports`):
the configuration verifier (:mod:`repro.network.preflight`), which runs
on every ``afdx`` configuration load, imports :class:`Finding` without
loading the code linter's engine, rules and dataflow analyses.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Finding",
    "Severity",
    "LintResult",
    "ENGINES",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "render_text",
    "render_json",
    "RULES",
    "Rule",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]

_EXPORTS = {
    "repro.lint.baseline": ("apply_baseline", "load_baseline", "write_baseline"),
    "repro.lint.engine": (
        "ENGINES",
        "LintResult",
        "lint_paths",
        "lint_source",
        "lint_sources",
    ),
    "repro.lint.findings": ("Finding", "Severity"),
    "repro.lint.report": ("render_json", "render_text"),
    "repro.lint.rules": ("RULES", "Rule"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
