"""Nondeterminism taint analysis (REPRO501–REPRO504).

A forward worklist fixpoint over the :mod:`.cfg` graph of every
function (and module top level), tracking which local names carry
values derived from ambient nondeterminism:

=========== =========================================================
kind        source
=========== =========================================================
set-order   iterating a set/frozenset (directly, via ``list(s)`` /
            ``iter(s)`` / ``s.pop()``, or via any call the project
            knows returns a set) without a ``sorted()``
dict-order  iterating ``os.environ`` / ``vars()`` / ``__dict__``
wall-clock  ``time.time()``, ``datetime.now()``, …
rng         the process-global ``random`` module
hash        builtin ``hash()``
env         ``os.getenv`` / ``os.environ`` reads
=========== =========================================================

``sorted()``, ``min``/``max``/``len``/``any``/``all`` and
``math.fsum`` erase *order* kinds (their result does not depend on
iteration order); converting to a ``set``/``frozenset`` erases order
too (it is re-introduced only when that set is iterated again).  Value
kinds (wall-clock, rng, hash, env) survive everything.

A finding is emitted only when taint **reaches a sink**:

* REPRO501 — an order-sensitive float fold: builtin ``sum()`` over a
  non-integer element stream, or a ``+=`` float-reduction loop;
* REPRO502 — digest/cache-key construction (``stable_digest``, any
  ``*_digest``/``*_fingerprint`` call, ``hasher.update``);
* REPRO503 — JSON/artefact emission (``json.dump(s)``, ``write_text``);
* REPRO504 — ``CostLedger`` deterministic counters (``add_work``,
  ``add_port_work``, ``add_sweep``) — the byte-identity contract of
  ``docs/OBSERVABILITY.md`` covers exactly these.

Interprocedural flow rides the :mod:`.summaries` fixpoint: parameter
taint entering a callee that sinks it is reported **at the call
site**, with the chain spelling the route (``source → passed to f() →
sink``); taints a callee generates surface at its callers through
``intrinsic_return``.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.dataflow.cfg import CFGNode, build_cfg
from repro.lint.dataflow.domain import (
    EMPTY,
    ORDER_KINDS,
    Taint,
    TaintSet,
    TaintState,
)
from repro.lint.dataflow.summaries import FunctionInfo, SummaryMap
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.rules import (
    RULES_BY_ID,
    _GLOBAL_RANDOM_FNS,
    _ScopeTypes,
    _WALL_CLOCK_ATTRS,
    _call_name,
    _is_int_like,
)

__all__ = ["summarize_function", "report_module", "TAINT_RULE_IDS"]

TAINT_RULE_IDS = ("REPRO501", "REPRO502", "REPRO503", "REPRO504")

#: All kinds that make a sink finding (``param`` is symbolic).
_VALUE_KINDS = frozenset(
    {"set-order", "dict-order", "wall-clock", "rng", "hash", "env"}
)

#: Sink filters keep the symbolic ``param`` kind so summary mode can
#: record "parameter N reaches this sink"; report mode strips it.
_SINKABLE = _VALUE_KINDS | {"param"}
_ORDER_SINKABLE = ORDER_KINDS | {"param"}

#: Wrappers whose output order follows their input order.
_TRANSPARENT = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: Order-erasing consumers: their value is independent of input order.
_ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "len", "any", "all", "fsum"})

#: Known hasher constructors for ``hasher.update`` sink detection.
_HASHER_CTORS = frozenset(
    {"sha1", "sha224", "sha256", "sha384", "sha512", "md5", "blake2b", "blake2s"}
)

#: CostLedger deterministic-section recorders (REPRO504 sinks); the
#: cache channel is explicitly non-deterministic and exempt.
_LEDGER_SINKS = frozenset({"add_work", "add_port_work", "add_sweep"})

_MAX_PASSES = 40

#: ``sink(call_node, rule_id, order_only, desc, taints)``
SinkFn = Callable[[ast.AST, str, bool, str, TaintSet], None]


def _short(path: str) -> str:
    """Trailing two path components — keeps chains readable."""
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-2:]) if len(parts) > 1 else path


def _digest_callee(name: str) -> bool:
    return (
        name == "stable_digest"
        or name.endswith("_digest")
        or name.endswith("_fingerprint")
        or name == "fingerprint"
    )


class _Analysis:
    """One function's (or the module body's) taint fixpoint."""

    def __init__(
        self,
        path: str,
        body: Sequence[ast.stmt],
        project: ProjectContext,
        summaries: SummaryMap,
        sink: Optional[SinkFn],
        params: Sequence[str] = (),
        param_taints: bool = False,
    ) -> None:
        self.path = path
        self.summaries = summaries
        self.sink = sink
        self.scope = _ScopeTypes(project)
        self.scope.learn_assignments(list(body))
        self._learn_summary_sets(body)
        self.params = tuple(params)
        self.param_taints = param_taints
        self.hashers = self._find_hashers(body)
        self.cfg = build_cfg(body)
        self.return_taints: TaintSet = EMPTY
        self.returns_set_value = False

    # -- prescans -------------------------------------------------------

    def _learn_summary_sets(self, body: Sequence[ast.stmt]) -> None:
        """Names assigned from *inferred* set-returning calls.

        ``_ScopeTypes.learn_assignments`` only knows annotation-based
        set returns; the summary fixpoint also infers them from return
        expressions, so fold those into the scope (two passes for one
        level of name-to-name indirection, matching the scope's own
        idiom).
        """
        assigns = [
            stmt
            for outer in body
            for stmt in ast.walk(outer)
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ]
        for _ in range(2):
            for stmt in assigns:
                if self._is_set_expr(stmt.value):
                    self.scope.set_names.add(stmt.targets[0].id)

    @staticmethod
    def _find_hashers(body: Sequence[ast.stmt]) -> frozenset:
        names = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and isinstance(sub.value, ast.Call)
                    and _call_name(sub.value) in _HASHER_CTORS
                ):
                    names.add(sub.targets[0].id)
        return frozenset(names)

    # -- expression evaluation -----------------------------------------

    def _is_set_expr(self, expr: ast.AST) -> bool:
        if self.scope.is_set_expr(expr):
            return True
        return isinstance(expr, ast.Call) and self.summaries.returns_set(
            _call_name(expr)
        )

    def _source(self, kind: str, node: ast.AST, what: str) -> TaintSet:
        origin = f"{what} at {_short(self.path)}:{getattr(node, 'lineno', 0)}"
        return TaintSet([Taint(kind, origin)])

    def eval(self, expr: Optional[ast.AST], state: TaintState) -> TaintSet:
        if expr is None:
            return EMPTY
        if isinstance(expr, ast.Name):
            return state.get(expr.id)
        if isinstance(expr, ast.Constant):
            return EMPTY
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return self._eval_children(expr, state).drop_order()
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.DictComp)):
            return self._eval_comp(expr, state)
        if isinstance(expr, ast.Attribute):
            base = self.eval(expr.value, state)
            if expr.attr == "environ":
                base = base.union(self._source("env", expr, "os.environ read"))
            return base
        if isinstance(expr, ast.Subscript):
            return self.eval(expr.value, state).union(
                self.eval(expr.slice, state)
            )
        return self._eval_children(expr, state)

    def _eval_children(self, expr: ast.AST, state: TaintState) -> TaintSet:
        out = EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                out = out.union(self.eval(value, state))
        return out

    def _eval_comp(self, expr, state: TaintState) -> TaintSet:
        overlay = state.copy()
        iter_taint = EMPTY
        for gen in expr.generators:
            produced = self.iteration_taint(gen.iter, overlay)
            iter_taint = iter_taint.union(produced)
            self._bind_target(gen.target, produced, overlay)
        if isinstance(expr, ast.DictComp):
            element = self.eval(expr.key, overlay).union(
                self.eval(expr.value, overlay)
            )
        else:
            element = self.eval(expr.elt, overlay)
        return iter_taint.union(element)

    def iteration_taint(self, iter_expr: ast.AST, state: TaintState) -> TaintSet:
        """Taint produced by iterating ``iter_expr`` (order sources)."""
        expr = iter_expr
        while isinstance(expr, ast.Call) and _call_name(expr) in _TRANSPARENT:
            if not expr.args:
                return EMPTY
            expr = expr.args[0]
        if isinstance(expr, ast.Call) and _call_name(expr) in _ORDER_SANITIZERS:
            return self.eval(expr, state).drop_order()
        taints = self.eval(expr, state)
        if self._is_set_expr(expr):
            what = "set iteration"
            if isinstance(expr, ast.Call):
                what = f"{_call_name(expr)}() set-typed result iteration"
            taints = taints.union(self._source("set-order", iter_expr, what))
        if isinstance(expr, ast.Attribute) and expr.attr == "environ":
            taints = taints.union(
                self._source("dict-order", iter_expr, "os.environ iteration")
            )
        if isinstance(expr, ast.Call) and _call_name(expr) in {"vars", "globals"}:
            taints = taints.union(
                self._source("dict-order", iter_expr, f"{_call_name(expr)}() iteration")
            )
        return taints

    def _eval_call(self, node: ast.Call, state: TaintState) -> TaintSet:
        name = _call_name(node)
        func = node.func

        # ambient sources ------------------------------------------------
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if base_name is not None and (base_name, func.attr) in _WALL_CLOCK_ATTRS:
                return self._source("wall-clock", node, f"{base_name}.{func.attr}()")
            if base_name == "random" and func.attr in _GLOBAL_RANDOM_FNS:
                return self._source("rng", node, f"random.{func.attr}()")
            if func.attr == "pop" and self._is_set_expr(func.value):
                return self.eval(func.value, state).union(
                    self._source("set-order", node, "set.pop()")
                )
            if func.attr in {"getenv", "getenvb"}:
                return self._source("env", node, f"os.{func.attr}()")
        if isinstance(func, ast.Name):
            if name == "hash":
                return self._source("hash", node, "hash()")
            if name == "getenv":
                return self._source("env", node, "getenv()")

        # sanitizers / shape changers ------------------------------------
        if name in _ORDER_SANITIZERS:
            return self._eval_children(node, state).drop_order()
        if name in {"set", "frozenset"}:
            return self._eval_children(node, state).drop_order()
        if name in _TRANSPARENT:
            # materializing an iterable freezes its (possibly
            # nondeterministic) order into the result
            if node.args:
                return self.iteration_taint(node.args[0], state)
            return EMPTY

        # project summaries ----------------------------------------------
        summary = self.summaries.lookup(name)
        if summary is not None:
            hop = f"through {name}() at {_short(self.path)}:{node.lineno}"
            result = summary.intrinsic_return.extend(hop)
            arg_taints = self._arguments(node, state)
            for index in summary.param_to_return:
                if index in arg_taints:
                    result = result.union(arg_taints[index].extend(hop))
            if self.sink is not None:
                for index, rule_id, order_only, desc in summary.param_sinks:
                    taints = arg_taints.get(index, EMPTY)
                    if order_only and index < len(node.args) and not isinstance(
                        node.args[index], ast.Starred
                    ):
                        # the callee iterates this parameter into an
                        # order-sensitive sink: a set-typed argument is
                        # an order source even when otherwise untainted
                        taints = taints.union(self._order_use(node.args[index]))
                    taints = taints.only(_ORDER_SINKABLE) if order_only else taints
                    if taints:
                        passed = taints.extend(
                            f"passed to {name}() at "
                            f"{_short(self.path)}:{node.lineno}"
                        )
                        self.sink(node, rule_id, order_only, desc, passed)
            return result

        # unknown callee: conservative pass-through of argument taint
        return self._eval_children(node, state)

    def _arguments(self, node: ast.Call, state: TaintState) -> Dict[int, TaintSet]:
        out: Dict[int, TaintSet] = {}
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            taints = self.eval(arg, state)
            if taints:
                out[index] = taints
        return out

    def _order_use(self, arg: ast.AST) -> TaintSet:
        """Set-order taint for a set-typed value whose *iteration order*
        the consumer observes (digest serialization, order-sensitive
        folds in a callee).  An untainted set is deterministic as a
        value but not as a sequence, so the source materializes at the
        point where the order is consumed, not where the set is built."""
        if self._is_set_expr(arg):
            return self._source("set-order", arg, "set iteration")
        return EMPTY

    # -- statement transfer --------------------------------------------

    def _bind_target(
        self, target: ast.AST, taints: TaintSet, state: TaintState
    ) -> None:
        if isinstance(target, ast.Name):
            state.set(target.id, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taints, state)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taints, state)
        # attribute / subscript stores: object fields are not tracked

    def transfer(self, node: CFGNode, state: TaintState) -> TaintState:
        stmt = node.stmt
        if stmt is None:
            return state
        out = state.copy()
        if isinstance(stmt, ast.Assign):
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], (ast.Tuple, ast.List))
                and isinstance(stmt.value, (ast.Tuple, ast.List))
                and len(stmt.targets[0].elts) == len(stmt.value.elts)
            ):
                for t_elt, v_elt in zip(stmt.targets[0].elts, stmt.value.elts):
                    self._bind_target(t_elt, self.eval(v_elt, state), out)
            else:
                taints = self.eval(stmt.value, state)
                for target in stmt.targets:
                    self._bind_target(target, taints, out)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, self.eval(stmt.value, state), out)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            merged = state.get(stmt.target.id).union(self.eval(stmt.value, state))
            out.set(stmt.target.id, merged)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(
                stmt.target, self.iteration_taint(stmt.iter, state), out
            )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars,
                        self.eval(item.context_expr, state),
                        out,
                    )
        return out

    # -- the fixpoint ---------------------------------------------------

    def run(self) -> Dict[int, TaintState]:
        cfg = self.cfg
        order = cfg.rpo()
        entry_state = TaintState()
        if self.param_taints:
            for index, param in enumerate(self.params):
                entry_state.set(
                    param, TaintSet([Taint("param", f"param:{index}")])
                )
        in_states: Dict[int, TaintState] = {cfg.entry: entry_state}
        out_states: Dict[int, TaintState] = {
            cfg.entry: self.transfer(cfg.node(cfg.entry), entry_state)
        }
        for _ in range(_MAX_PASSES):
            changed = False
            for nid in order:
                if nid == cfg.entry:
                    continue
                preds = cfg.preds(nid)
                state = TaintState()
                for pred, _kind in preds:
                    if pred in out_states:
                        state = state.join(out_states[pred])
                if nid == cfg.entry or (not preds and nid == cfg.entry):
                    state = entry_state
                new_out = self.transfer(cfg.node(nid), state)
                old_out = out_states.get(nid)
                if old_out is None or not old_out.same_keys(new_out):
                    changed = True
                in_states[nid] = state
                out_states[nid] = new_out
            if not changed:
                break
        return in_states

    # -- sink pass ------------------------------------------------------

    def check_sinks(self, in_states: Dict[int, TaintState]) -> None:
        """Walk every node's own expressions with its IN state."""
        assert self.sink is not None
        for node in self.cfg.nodes:
            stmt = node.stmt
            if stmt is None or node.label.startswith(
                ("with-exit", "finally", "except-dispatch", "handler")
            ):
                continue
            state = in_states.get(node.nid)
            if state is None:
                state = TaintState()
            for expr in _stmt_exprs(stmt):
                for call in _walk_calls(expr):
                    self._check_call_sinks(call, state)
            if (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in self.scope.float_zero_names
                and not _is_int_like(stmt.value)
            ):
                taints = self.eval(stmt.value, state).only(_ORDER_SINKABLE)
                if taints:
                    self.sink(
                        stmt,
                        "REPRO501",
                        True,
                        f"float reduction loop on {stmt.target.id!r} "
                        f"({_short(self.path)}:{stmt.lineno})",
                        taints,
                    )

    def _check_call_sinks(self, call: ast.Call, state: TaintState) -> None:
        assert self.sink is not None
        name = _call_name(call)
        where = f"{_short(self.path)}:{call.lineno}"
        if isinstance(call.func, ast.Name) and name == "sum":
            element = call.args[0] if call.args else None
            int_like = (
                element is not None
                and isinstance(
                    element, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                )
                and _is_int_like(element.elt)
            )
            if not int_like:
                taints = self._eval_children(call, state).only(_ORDER_SINKABLE)
                if taints:
                    self.sink(
                        call, "REPRO501", True, f"builtin sum() at {where}", taints
                    )
            return
        if _digest_callee(name):
            taints = self._eval_children(call, state)
            for arg in call.args:
                # digesting a set serializes it in iteration order
                taints = taints.union(self._order_use(arg))
            taints = taints.only(_SINKABLE)
            if taints:
                self.sink(
                    call, "REPRO502", False, f"{name}() digest at {where}", taints
                )
            return
        if (
            name == "update"
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self.hashers
        ):
            taints = self._eval_children(call, state)
            for arg in call.args:
                taints = taints.union(self._order_use(arg))
            taints = taints.only(_SINKABLE)
            if taints:
                self.sink(
                    call,
                    "REPRO502",
                    False,
                    f"{call.func.value.id}.update() digest at {where}",
                    taints,
                )
            return
        if name in {"dump", "dumps"} or name == "write_text":
            is_json = isinstance(call.func, ast.Attribute) and (
                isinstance(call.func.value, ast.Name)
                and call.func.value.id == "json"
            )
            if is_json or name == "write_text":
                taints = self._eval_children(call, state)
                for arg in call.args:
                    # emitting a set writes it in iteration order
                    taints = taints.union(self._order_use(arg))
                taints = taints.only(_SINKABLE)
                if taints:
                    self.sink(
                        call,
                        "REPRO503",
                        False,
                        f"{name}() artefact emission at {where}",
                        taints,
                    )
            return
        if name in _LEDGER_SINKS and isinstance(call.func, ast.Attribute):
            taints = self._eval_children(call, state).only(_SINKABLE)
            if taints:
                self.sink(
                    call,
                    "REPRO504",
                    False,
                    f"CostLedger.{name}() deterministic counter at {where}",
                    taints,
                )
            return
        # a project function whose summary records parameter sinks is
        # itself a sink site: evaluating the call dispatches them (the
        # eval path in _eval_call), even when the call is a bare
        # statement rather than an argument of a recognized sink
        summary = self.summaries.lookup(name)
        if summary is not None and summary.param_sinks:
            self.eval(call, state)

    # -- summary extraction ---------------------------------------------

    def collect_returns(self, in_states: Dict[int, TaintState]) -> None:
        for node in self.cfg.nodes:
            stmt = node.stmt
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            state = in_states.get(node.nid) or TaintState()
            self.return_taints = self.return_taints.union(
                self.eval(stmt.value, state)
            )
            if self._is_set_expr(stmt.value):
                self.returns_set_value = True


def _stmt_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated *at* this statement's CFG node."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [e for e in (stmt.test, stmt.msg) if e is not None]
    if isinstance(stmt, ast.Delete):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return []


def _walk_calls(expr: ast.AST) -> List[ast.Call]:
    out = []
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            out.append(sub)
        elif isinstance(sub, (ast.Lambda,)):
            pass  # lambdas' bodies run elsewhere; their calls still walk
    return out


def _seed_scope(analysis: _Analysis, info: FunctionInfo) -> None:
    """Mark set-annotated parameters as set-typed in the scope."""
    args = info.node.args
    from repro.lint.project import annotation_is_set

    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is not None and annotation_is_set(arg.annotation):
            analysis.scope.set_names.add(arg.arg)


def summarize_function(
    info: FunctionInfo,
    summaries: SummaryMap,
    project: ProjectContext,
):
    """One round of summary computation for ``info`` (taint half).

    Returns ``(param_to_return, intrinsic_return, param_sinks,
    returns_set)``; the resource half lives in :mod:`.ownership`.
    """
    param_sinks: List[Tuple[int, str, bool, str]] = []

    def sink(node: ast.AST, rule_id: str, order_only: bool, desc: str,
             taints: TaintSet) -> None:
        for taint in taints:
            if taint.kind == "param":
                index = int(taint.origin.split(":", 1)[1])
                param_sinks.append((index, rule_id, order_only, desc))

    analysis = _Analysis(
        path=info.path,
        body=info.node.body,
        project=project,
        summaries=summaries,
        sink=sink,
        params=info.param_names,
        param_taints=True,
    )
    _seed_scope(analysis, info)
    in_states = analysis.run()
    analysis.check_sinks(in_states)
    analysis.collect_returns(in_states)
    param_to_return = []
    intrinsic = EMPTY
    hop = f"through {info.name}() at {_short(info.path)}:{info.node.lineno}"
    for taint in analysis.return_taints:
        if taint.kind == "param":
            param_to_return.append(int(taint.origin.split(":", 1)[1]))
        else:
            intrinsic = intrinsic.union(TaintSet([taint]))
    return (
        tuple(sorted(set(param_to_return))),
        intrinsic,
        tuple(sorted(set(param_sinks))),
        analysis.returns_set_value,
    )


def _emit(findings: List[Finding], path: str, node: ast.AST, rule_id: str,
          desc: str, taints: TaintSet) -> None:
    taint = taints.first()
    if taint is None:
        return
    rule = RULES_BY_ID[rule_id]
    findings.append(
        Finding(
            rule_id=rule_id,
            severity=rule.severity,
            path=path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            message=(
                f"nondeterministic value reaches {desc} "
                f"[taint: {taint.render_chain()} -> sink]"
            ),
        )
    )


def report_module(
    path: str,
    tree: ast.Module,
    project: ProjectContext,
    summaries: SummaryMap,
) -> List[Finding]:
    """REPRO5xx findings for one module (top level + every function)."""
    findings: List[Finding] = []

    def sink(node: ast.AST, rule_id: str, order_only: bool, desc: str,
             taints: TaintSet) -> None:
        real = taints.without(frozenset({"param"}))
        if real:
            _emit(findings, path, node, rule_id, desc, real)

    def analyze_body(body, params=(), info: Optional[FunctionInfo] = None) -> None:
        analysis = _Analysis(
            path=path,
            body=body,
            project=project,
            summaries=summaries,
            sink=sink,
            params=params,
        )
        if info is not None:
            _seed_scope(analysis, info)
        in_states = analysis.run()
        analysis.check_sinks(in_states)

    analyze_body(tree.body)

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                info = FunctionInfo(path=path, qualname=qual, node=child)
                analyze_body(child.body, info.param_names, info)
                walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(tree, "")
    return findings
