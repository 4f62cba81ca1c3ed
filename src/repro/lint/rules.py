"""The code-lint rule catalogue and the AST visitor that applies it.

Every rule protects one clause of the repo's determinism/soundness
contract (bounds bit-identical across ``--jobs``, cache state and
``PYTHONHASHSEED``; see ``docs/LINT.md`` for the full mapping):

========  ========  ===========================================================
id        severity  hazard
========  ========  ===========================================================
REPRO101  error     builtin ``sum()`` float accumulation (use ``math.fsum``)
REPRO102  error     ``acc += x`` float reduction loop (use ``math.fsum``)
REPRO103  error     iteration over a set/frozenset without ``sorted()``
REPRO104  error     process-global ``random`` / ordering by ``hash()``
REPRO105  error     wall-clock reads (``time.time``, ``datetime.now``, ...)
REPRO201  error     mutable default argument
REPRO202  warning   bare ``except:``
REPRO301  error     malformed waiver (no reason, or unknown rule id)
REPRO302  warning   unused waiver
REPRO401  error     SharedMemory/Pool acquired without paired cleanup
REPRO501  error     (dataflow) iteration order reaches a float fold
REPRO502  error     (dataflow) nondeterminism reaches a digest/cache key
REPRO503  error     (dataflow) nondeterminism reaches JSON/artefact emission
REPRO504  error     (dataflow) nondeterminism reaches a CostLedger counter
REPRO601  error     (dataflow) resource may escape without release/transfer
REPRO602  error     (dataflow) fork-captured object mutated after the fork
========  ========  ===========================================================

The REPRO1xx–4xx rules are single-statement pattern matchers; the
REPRO5xx/6xx rules come from :mod:`repro.lint.dataflow` and only fire
when a worklist fixpoint proves the hazard reaches a sink (or a
resource escapes).  ``--engine dataflow`` swaps REPRO103/REPRO401 for
their flow-sensitive successors.

The visitor is intentionally heuristic, not a type checker: it
over-approximates (``sum()`` of integer attributes still fires) and
relies on reviewed inline waivers for the remainder — a waiver with a
written reason *is* the review trail the rule exists to force.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectContext, annotation_is_set

__all__ = ["Rule", "RULES", "RULES_BY_ID", "run_rules"]


@dataclass(frozen=True)
class Rule:
    """One catalogue entry: id, severity and what the rule protects."""

    rule_id: str
    severity: Severity
    summary: str
    rationale: str


RULES: List[Rule] = [
    Rule(
        "REPRO101",
        Severity.ERROR,
        "builtin sum() float accumulation; use math.fsum",
        "Sequential float addition is order-sensitive and accumulates "
        "rounding error; math.fsum is exactly rounded and "
        "order-independent, which the bit-identity contract relies on "
        "(the Network.port_utilization leak was this class).",
    ),
    Rule(
        "REPRO102",
        Severity.ERROR,
        "float reduction loop (acc = 0.0; acc += ...); use math.fsum",
        "The += spelling of REPRO101: same order sensitivity, same "
        "rounding drift, harder to spot in review.",
    ),
    Rule(
        "REPRO103",
        Severity.ERROR,
        "iteration over a set/frozenset without sorted()",
        "set/frozenset iteration order depends on insertion history and "
        "PYTHONHASHSEED; any numeric result or output fed from it is "
        "nondeterministic across processes and cache states.",
    ),
    Rule(
        "REPRO104",
        Severity.ERROR,
        "process-global random module or hash()-based ordering",
        "The module-level random functions share one implicitly seeded "
        "generator, and str hash() varies per process; both break "
        "replayability. Use an explicitly seeded random.Random and "
        "stable sort keys.",
    ),
    Rule(
        "REPRO105",
        Severity.ERROR,
        "wall-clock read (time.time, datetime.now, ...)",
        "Wall-clock values leak nondeterminism into analyzer and cache "
        "code paths; durations must use the monotonic "
        "time.perf_counter, and artefacts must not embed timestamps "
        "that break byte-identical reruns.",
    ),
    Rule(
        "REPRO201",
        Severity.ERROR,
        "mutable default argument",
        "A mutable default is shared across calls: state leaks between "
        "analyses and poisons memoized results.",
    ),
    Rule(
        "REPRO202",
        Severity.WARNING,
        "bare except:",
        "Bare except swallows CyclicRoutingError/UnstableNetworkError "
        "and even KeyboardInterrupt, hiding soundness failures instead "
        "of surfacing them through the exit-code contract.",
    ),
    Rule(
        "REPRO301",
        Severity.ERROR,
        "malformed waiver (missing reason or unknown rule id)",
        "A waiver is an audit record; without a reason (or naming a "
        "rule that does not exist) it documents nothing.",
    ),
    Rule(
        "REPRO302",
        Severity.WARNING,
        "unused waiver",
        "A waiver that suppresses nothing outlived its hazard and "
        "will silently excuse a future regression at that line.",
    ),
    Rule(
        "REPRO401",
        Severity.ERROR,
        "SharedMemory/Pool acquired without paired cleanup in the module",
        "A multiprocessing.shared_memory.SharedMemory segment outlives "
        "the process unless some path unlinks it, and a worker Pool "
        "that is never terminated/joined leaks child processes; a "
        "module that creates either must also contain the release "
        "call (route pool acquisition through repro.batch.pool, which "
        "owns the lifecycle).",
    ),
    Rule(
        "REPRO501",
        Severity.ERROR,
        "nondeterministic iteration order reaches a float fold",
        "Set/dict iteration order feeding builtin sum() or a += "
        "reduction makes the result depend on PYTHONHASHSEED and "
        "insertion history.  Unlike REPRO103 this fires only when the "
        "dataflow engine proves the order actually reaches an "
        "order-sensitive fold — sorted() or math.fsum anywhere on the "
        "path clears it.",
    ),
    Rule(
        "REPRO502",
        Severity.ERROR,
        "nondeterministic value reaches a digest / cache key",
        "A cache key or artefact digest built from set order, wall "
        "clock, RNG, hash() salt or the environment differs between "
        "processes: caches silently miss (or worse, collide) and "
        "byte-identity audits fail.  The diagnostic carries the full "
        "source -> through f() -> sink chain.",
    ),
    Rule(
        "REPRO503",
        Severity.ERROR,
        "nondeterministic value reaches JSON/artefact emission",
        "Artefacts are compared byte-for-byte across reruns "
        "(docs/OBSERVABILITY.md); a json.dump/write_text fed from an "
        "unordered iteration or ambient source breaks the replay "
        "contract exactly where it is audited.",
    ),
    Rule(
        "REPRO504",
        Severity.ERROR,
        "nondeterministic value reaches a CostLedger deterministic counter",
        "CostLedger.add_work/add_port_work/add_sweep feed the "
        "deterministic section of ledger snapshots, which must be "
        "bit-identical across --jobs and cache states; the cache "
        "channel is the sanctioned home for nondeterministic "
        "telemetry.",
    ),
    Rule(
        "REPRO601",
        Severity.ERROR,
        "acquired resource may escape without release or transfer",
        "Path-sensitive successor of REPRO401: a SharedMemory segment, "
        "arena or worker pool acquired on some path that can reach the "
        "function exit — or propagate an exception — while still owned "
        "leaks a kernel object.  Release it, return it, hand it to an "
        "owning object or registry, or manage it with 'with'.",
    ),
    Rule(
        "REPRO602",
        Severity.ERROR,
        "object captured by a fork initializer is mutated after the fork",
        "Pool initializer arguments are snapshotted into workers at "
        "fork time; mutating the parent's copy afterwards silently "
        "diverges parent and workers, producing results that depend on "
        "fork timing.  Build the payload completely before the pool.",
    ),
]

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}

#: Legacy rule ids that newer rules supersede.  A waiver naming the
#: old id also covers findings of its successors, so existing
#: ``allow[REPRO401]`` comments keep working under the dataflow engine.
WAIVER_ALIASES: Dict[str, tuple] = {"REPRO401": ("REPRO601", "REPRO602")}

#: Syntactic rules the dataflow engine replaces with flow-sensitive
#: successors (REPRO103 -> REPRO501/502/503/504, REPRO401 -> REPRO601).
SUPERSEDED_BY_DATAFLOW = frozenset({"REPRO103", "REPRO401"})


# ----------------------------------------------------------------------
# Expression classification helpers
# ----------------------------------------------------------------------

#: Module-level functions of ``random`` that use the shared global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "expovariate",
        "betavariate", "normalvariate", "lognormvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "getrandbits", "seed",
    }
)

#: ``module.attr`` pairs that read the wall clock.
_WALL_CLOCK_ATTRS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Wrappers that impose a deterministic order on an unordered iterable.
_ORDERING_WRAPPERS = frozenset({"sorted", "min", "max", "sum", "len", "fsum"})
# note: min/max/len/sum are order-*insensitive* consumers for the
# purposes of REPRO103 (sum's own hazard is REPRO101 and fires anyway).

#: Transparent wrappers: iterating these iterates the wrapped iterable.
_TRANSPARENT_WRAPPERS = frozenset({"enumerate", "reversed", "list", "tuple", "iter"})


def _call_name(node: ast.Call) -> str:
    """Bare callee name of a call (``x.f(...)`` and ``f(...)`` -> ``f``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_int_like(node: ast.AST) -> bool:
    """Heuristic: the expression is obviously integer-valued.

    Covers the idioms ``sum(1 for ...)``, ``sum(len(x) for ...)`` and
    ``sum(a > b for ...)``; anything else is assumed float-capable.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int)  # bool is a subclass of int
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_int_like(node.operand)
    if isinstance(node, ast.Call):
        return _call_name(node) in {"len", "int", "ord", "round"} and not (
            _call_name(node) == "round" and len(node.args) > 1
        )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
    ):
        return _is_int_like(node.left) and _is_int_like(node.right)
    if isinstance(node, ast.IfExp):
        return _is_int_like(node.body) and _is_int_like(node.orelse)
    return False


def _sum_element_expr(node: ast.Call) -> Optional[ast.AST]:
    """The per-element expression of a ``sum(...)`` call, when visible."""
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return arg.elt
    return None


class _ScopeTypes:
    """Name classification within one function (or module) scope."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.set_names: Set[str] = set()
        self.float_zero_names: Dict[str, int] = {}  # name -> init lineno

    # -- set-typed expressions -----------------------------------------

    def is_set_expr(self, node: ast.AST) -> bool:
        """True when ``node`` evaluates to a set/frozenset (heuristic)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in {"set", "frozenset"}:
                return True
            if name in self.project.set_returning:
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra: a | b, a & b, a - b, a ^ b
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or self.is_set_expr(node.orelse)
        return False

    def learn_assignments(self, body: List[ast.stmt]) -> None:
        """Pre-scan a scope body for set-typed and float-zero names.

        Two passes so a name assigned from another set-typed name is
        still recognized (one level of indirection is enough for the
        idioms in this codebase).
        """
        assigns: List[ast.Assign] = [
            stmt
            for stmt in ast.walk(_Block(body))
            if isinstance(stmt, ast.Assign)
        ]
        anns = [
            stmt
            for stmt in ast.walk(_Block(body))
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        for stmt in anns:
            if annotation_is_set(stmt.annotation):
                self.set_names.add(stmt.target.id)
        for _ in range(2):
            for stmt in assigns:
                if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                    continue
                name = stmt.targets[0].id
                if self.is_set_expr(stmt.value):
                    self.set_names.add(name)
        for stmt in assigns:
            if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                continue
            value = stmt.value
            if isinstance(value, ast.Constant) and isinstance(value.value, float):
                self.float_zero_names.setdefault(stmt.targets[0].id, stmt.lineno)


class _Block(ast.AST):
    """Wrapper so ``ast.walk`` can traverse a plain statement list."""

    _fields = ("body",)

    def __init__(self, body: List[ast.stmt]) -> None:
        self.body = body


# ----------------------------------------------------------------------
# The visitor
# ----------------------------------------------------------------------


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass AST walk emitting findings for every code rule."""

    def __init__(self, path: str, project: ProjectContext) -> None:
        self.path = path
        self.project = project
        self.findings: List[Finding] = []
        self._scope = _ScopeTypes(project)
        self._loop_depth = 0
        self._module_refs: Set[str] = set()

    # -- plumbing -------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = RULES_BY_ID[rule_id]
        self.findings.append(
            Finding(
                rule_id=rule_id,
                severity=rule.severity,
                path=self.path,
                line=getattr(node, "lineno", 0),
                column=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def lint_module(self, tree: ast.Module) -> List[Finding]:
        # Module-wide reference pre-scan for REPRO401: any mention of a
        # release call anywhere in the module (an attribute access, a
        # bare name, a method definition) counts as the paired cleanup.
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                self._module_refs.add(node.attr)
            elif isinstance(node, ast.Name):
                self._module_refs.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_refs.add(node.name)
        self._scope.learn_assignments(tree.body)
        self.visit(tree)
        return self.findings

    # -- scopes ---------------------------------------------------------

    def _visit_function(self, node) -> None:
        self._check_mutable_defaults(node)
        outer_scope, outer_depth = self._scope, self._loop_depth
        self._scope = _ScopeTypes(self.project)
        self._loop_depth = 0
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and annotation_is_set(arg.annotation):
                self._scope.set_names.add(arg.arg)
        self._scope.learn_assignments(node.body)
        for stmt in node.body:
            self.visit(stmt)
        self._scope, self._loop_depth = outer_scope, outer_depth

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- REPRO201: mutable defaults ------------------------------------

    def _check_mutable_defaults(self, node) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                          ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and _call_name(default) in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                self._emit(
                    "REPRO201",
                    default,
                    f"function {node.name}() has a mutable default argument; "
                    "default to None and create the object inside",
                )

    # -- REPRO202: bare except -----------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                "REPRO202",
                node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                "hides analysis errors; name the exceptions",
            )
        self.generic_visit(node)

    # -- REPRO101 / REPRO104: calls ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name == "sum":
            element = _sum_element_expr(node)
            if element is None or not _is_int_like(element):
                self._emit(
                    "REPRO101",
                    node,
                    "builtin sum() accumulates floats with order-dependent "
                    "rounding; use math.fsum (or waive if integer-valued)",
                )
        if isinstance(node.func, ast.Name) and name == "hash":
            self._emit(
                "REPRO104",
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "derive ordering/digests from stable keys instead",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
            and node.func.attr in _GLOBAL_RANDOM_FNS
        ):
            self._emit(
                "REPRO104",
                node,
                f"random.{node.func.attr}() uses the process-global RNG; "
                "use an explicitly seeded random.Random instance",
            )
        self._check_resource_lifecycle(node, name)
        self.generic_visit(node)

    # -- REPRO401: resource lifecycle ----------------------------------

    def _check_resource_lifecycle(self, node: ast.Call, name: str) -> None:
        if name == "SharedMemory" and not any(
            "unlink" in ref for ref in self._module_refs
        ):
            self._emit(
                "REPRO401",
                node,
                "SharedMemory segment created but the module never "
                "references unlink(); POSIX segments outlive the process "
                "— unlink it explicitly",
            )
        if name == "Pool" and not (
            self._module_refs & {"terminate", "join", "close"}
        ):
            self._emit(
                "REPRO401",
                node,
                "worker Pool created but the module never references "
                "terminate()/join()/close(); leaked child processes — "
                "use repro.batch.pool.WorkerPool or close explicitly",
            )

    # -- REPRO105: wall clock ------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        base_name = None
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        if base_name is not None and (base_name, node.attr) in _WALL_CLOCK_ATTRS:
            self._emit(
                "REPRO105",
                node,
                f"{base_name}.{node.attr}() reads the wall clock; use the "
                "monotonic time.perf_counter for durations and keep "
                "timestamps out of analyzer/cache/artefact code",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in {"time", "datetime"}:
            for alias in node.names:
                if (node.module.split(".")[-1], alias.name) in _WALL_CLOCK_ATTRS or (
                    node.module == "time" and alias.name in {"time", "time_ns"}
                ):
                    self._emit(
                        "REPRO105",
                        node,
                        f"'from {node.module} import {alias.name}' imports a "
                        "wall-clock reader; use time.perf_counter",
                    )
        self.generic_visit(node)

    # -- REPRO102 / REPRO103: loops ------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node.iter)
        self._loop_depth += 1
        self._check_reduction_loop(node)
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self._check_reduction_loop(node)
        self.generic_visit(node)
        self._loop_depth -= 1

    def _comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_unordered_iteration(gen.iter)
        self.generic_visit(node)

    visit_GeneratorExp = _comprehension
    visit_ListComp = _comprehension
    visit_SetComp = _comprehension
    visit_DictComp = _comprehension

    def _check_unordered_iteration(self, iter_expr: ast.AST) -> None:
        expr = iter_expr
        while isinstance(expr, ast.Call) and _call_name(expr) in _TRANSPARENT_WRAPPERS:
            if not expr.args:
                return
            expr = expr.args[0]
        if isinstance(expr, ast.Call) and _call_name(expr) in _ORDERING_WRAPPERS:
            return
        if self._scope.is_set_expr(expr):
            self._emit(
                "REPRO103",
                iter_expr,
                "iterating a set/frozenset: order varies with insertion "
                "history and PYTHONHASHSEED; wrap in sorted()",
            )

    def _check_reduction_loop(self, loop) -> None:
        for stmt in ast.walk(_Block(loop.body)):
            if (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in self._scope.float_zero_names
                and self._scope.float_zero_names[stmt.target.id] < stmt.lineno
                and not _is_int_like(stmt.value)
            ):
                self._emit(
                    "REPRO102",
                    stmt,
                    f"float reduction loop on {stmt.target.id!r} "
                    "(initialized to a float constant, += in a loop); "
                    "collect terms and use math.fsum",
                )


def run_rules(path: str, tree: ast.Module, project: ProjectContext) -> List[Finding]:
    """Apply every code rule to one parsed module."""
    return _RuleVisitor(path, project).lint_module(tree)
