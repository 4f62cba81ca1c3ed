"""Resource ownership and fork-safety analysis (REPRO601, REPRO602).

REPRO601 replaces the syntactic REPRO401 pairing heuristic with a
path-sensitive escape check.  The analysis runs forward over the
:mod:`.cfg` graph mapping each local name to the set of acquire sites
it may hold (``SharedMemory``/``ShmArena``/``WorkerPool``/``Pool``
constructions, plus any project function whose summary says its return
value carries an unreleased resource).  An acquire obligation dies
when the path

* calls a release method on the name (``close``, ``unlink``,
  ``close_and_unlink``, ``terminate``, ``join``, ``shutdown``,
  ``release``),
* passes the bare name to *any* call — ownership transfer; this is
  what keeps a registry hand-off such as ``_register_owned(seg)`` and
  an atexit sweep free of false positives,
* returns it (the caller inherits the obligation via the function's
  ``resource_indices`` summary),
* stores it on an object or into a container, or
* leaves the ``with`` block managing it (the ``with``-exit node is a
  release on both the normal and the exceptional path).

Any obligation still live at the function's ``exit`` or ``raise`` node
is a leak; exception edges carry the state *before* the raising
statement's own bindings, so ``seg = SharedMemory(...)`` raising does
not report ``seg``, while a later statement raising before
``seg.close()`` does — with the escaping line in the diagnostic.

At module top level only the exception path is checked: module globals
are program-lifetime by design (the atexit sweep owns them), but an
import that dies halfway still strands kernel objects.

REPRO602 is the fork-safety check: an object captured by a pool
initializer (``initargs=...`` or a ``WorkerPool`` payload) is
snapshotted into the workers at fork time; mutating it on any path
*after* the pool exists silently diverges parent from workers.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.dataflow.cfg import CFG, CFGNode, build_cfg
from repro.lint.dataflow.summaries import FunctionInfo, SummaryMap
from repro.lint.findings import Finding
from repro.lint.rules import RULES_BY_ID, _call_name

__all__ = [
    "OWNERSHIP_RULE_IDS",
    "report_module",
    "resource_summary",
]

OWNERSHIP_RULE_IDS = ("REPRO601", "REPRO602")

#: Constructors / acquire helpers that create a release obligation.
_ACQUIRE_NAMES = frozenset(
    {"SharedMemory", "ShmArena", "WorkerPool", "Pool", "_attach_untracked"}
)

#: Methods that discharge an obligation on their receiver.
_RELEASE_METHODS = frozenset(
    {"close", "unlink", "close_and_unlink", "terminate", "join",
     "shutdown", "release"}
)

#: Pool constructors whose captured state is fork-snapshotted.
_FORK_POOLS = frozenset({"Pool", "WorkerPool"})

#: In-place mutators for the fork-safety check.
_MUTATORS = frozenset(
    {"append", "extend", "add", "update", "clear", "pop", "popitem",
     "remove", "discard", "insert", "setdefault", "sort", "reverse"}
)

_MAX_PASSES = 40

#: One obligation: ``(acquire_line, callee_name)``.
_Record = Tuple[int, str]
#: Abstract state: name → sorted tuple of obligations it may hold.
_State = Dict[str, Tuple[_Record, ...]]


def _join(a: _State, b: _State) -> _State:
    out = dict(a)
    for name, records in b.items():
        if name in out:
            out[name] = tuple(sorted(set(out[name]) | set(records)))
        else:
            out[name] = records
    return out


def _null_test(test: ast.AST) -> Optional[Tuple[str, str]]:
    """``(name, edge_kind_on_which_name_is_None)`` for null-check tests.

    Recognizes ``if x is None`` (true edge), ``if x is not None``
    (false edge), ``if x:`` (false edge) and ``if not x:`` (true
    edge).  On the None/falsy edge the name cannot hold a live
    resource, so the guard ``if arena is not None: arena.close()``
    discharges the obligation on *both* branches.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, comparator = test.left, test.comparators[0]
        is_none = (
            isinstance(comparator, ast.Constant) and comparator.value is None
        )
        if isinstance(left, ast.Name) and is_none:
            if isinstance(test.ops[0], ast.Is):
                return (left.id, "true")
            if isinstance(test.ops[0], ast.IsNot):
                return (left.id, "false")
    if isinstance(test, ast.Name):
        return (test.id, "false")
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Name)
    ):
        return (test.operand.id, "true")
    return None


def _names_in(expr: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)}


def _stmt_calls(stmt: ast.stmt) -> List[ast.Call]:
    from repro.lint.dataflow.taint import _stmt_exprs

    calls: List[ast.Call] = []
    for expr in _stmt_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                calls.append(sub)
    return calls


class _Ownership:
    """The per-suite must-release fixpoint."""

    def __init__(self, path: str, body: Sequence[ast.stmt],
                 summaries: SummaryMap) -> None:
        self.path = path
        self.summaries = summaries
        self.cfg = build_cfg(body)

    # -- acquire classification ----------------------------------------

    def _acquired(self, expr: ast.AST) -> Optional[Tuple[str, Union[str, Tuple[int, ...]]]]:
        """``(callee, indices)`` if ``expr`` is an acquiring call."""
        if not isinstance(expr, ast.Call):
            return None
        name = _call_name(expr)
        if name in _ACQUIRE_NAMES:
            return (name, "all")
        summary = self.summaries.lookup(name)
        if summary is not None and summary.resource_indices is not None:
            return (name, summary.resource_indices)
        return None

    # -- transfer -------------------------------------------------------

    def transfer(self, node: CFGNode, state: _State) -> Tuple[_State, _State]:
        """Returns ``(out_normal, out_exceptional)``.

        The exceptional state has this statement's kills applied (a
        release that raised still counts as attempted — reporting it
        would double up) but not its acquires (a constructor that
        raised never bound the name).
        """
        label = node.label
        stmt = node.stmt
        if label.startswith("with-exit"):
            out = dict(state)
            for item in stmt.items:  # type: ignore[union-attr]
                if isinstance(item.optional_vars, ast.Name):
                    out.pop(item.optional_vars.id, None)
                if isinstance(item.context_expr, ast.Name):
                    out.pop(item.context_expr.id, None)
            return out, out
        if stmt is None or not isinstance(stmt, ast.stmt):
            return state, state

        out = dict(state)

        # kills: releases and ownership transfers
        for call in _stmt_calls(stmt):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RELEASE_METHODS
                and isinstance(func.value, ast.Name)
            ):
                out.pop(func.value.id, None)
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Name):
                    out.pop(arg.id, None)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            # transfer only when the *handle itself* is returned (bare
            # name or tuple element — the shapes resource_summary
            # propagates to callers); `return len(seg.buf)` is a use,
            # not a transfer
            returned = [stmt.value]
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                returned = list(stmt.value.elts)
            for expr in returned:
                if isinstance(expr, ast.Name):
                    out.pop(expr.id, None)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    # stored into an object/container: transferred
                    for name in _names_in(stmt.value):
                        out.pop(name, None)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)

        exc_out = dict(out)

        # gens and rebinds
        if isinstance(stmt, ast.Assign):
            acquired = self._acquired(stmt.value)
            move = (
                stmt.value.id
                if isinstance(stmt.value, ast.Name) and stmt.value.id in out
                else None
            )
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
                    if acquired is not None:
                        callee, _indices = acquired
                        out[target.id] = ((stmt.lineno, callee),)
                    elif move is not None:
                        out[target.id] = out.get(move, state.get(move, ()))
                elif isinstance(target, (ast.Tuple, ast.List)) and acquired:
                    callee, indices = acquired
                    for index, elt in enumerate(target.elts):
                        if not isinstance(elt, ast.Name):
                            continue
                        out.pop(elt.id, None)
                        if indices == "all" or index in indices:
                            out[elt.id] = ((stmt.lineno, callee),)
            if move is not None and any(
                isinstance(t, ast.Name) for t in stmt.targets
            ):
                out.pop(move, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.pop(stmt.target.id, None)
            if stmt.value is not None and self._acquired(stmt.value):
                callee, _indices = self._acquired(stmt.value)  # type: ignore[misc]
                out[stmt.target.id] = ((stmt.lineno, callee),)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for name in _names_in(stmt.target):
                out.pop(name, None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)) and not label.startswith(
            "with-exit"
        ):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    out.pop(item.optional_vars.id, None)
                    acquired = self._acquired(item.context_expr)
                    if acquired is not None:
                        out[item.optional_vars.id] = (
                            (stmt.lineno, acquired[0]),
                        )

        return out, exc_out

    @staticmethod
    def _refine(pred: CFGNode, kind: str, state: _State) -> _State:
        """Branch-sensitive narrowing along true/false edges."""
        if kind not in ("true", "false") or not isinstance(
            pred.stmt, (ast.If, ast.While)
        ):
            return state
        test = _null_test(pred.stmt.test)
        if test is None:
            return state
        name, none_kind = test
        if kind == none_kind and name in state:
            out = dict(state)
            out.pop(name)
            return out
        return state

    # -- fixpoint -------------------------------------------------------

    def run(self) -> Tuple[Dict[int, _State], Dict[int, _State], Dict[int, _State]]:
        cfg = self.cfg
        order = cfg.rpo()
        in_states: Dict[int, _State] = {cfg.entry: {}}
        out_states: Dict[int, _State] = {}
        exc_states: Dict[int, _State] = {}
        out_states[cfg.entry], exc_states[cfg.entry] = self.transfer(
            cfg.node(cfg.entry), {}
        )
        for _ in range(_MAX_PASSES):
            changed = False
            for nid in order:
                if nid == cfg.entry:
                    continue
                state: _State = {}
                for pred, kind in cfg.preds(nid):
                    source = exc_states if kind == "except" else out_states
                    if pred in source:
                        state = _join(
                            state,
                            self._refine(cfg.node(pred), kind, source[pred]),
                        )
                new_out, new_exc = self.transfer(cfg.node(nid), state)
                if out_states.get(nid) != new_out or exc_states.get(nid) != new_exc:
                    changed = True
                in_states[nid] = state
                out_states[nid] = new_out
                exc_states[nid] = new_exc
            if not changed:
                break
        return in_states, out_states, exc_states


def _leaks_at(
    cfg: CFG,
    target: int,
    out_states: Dict[int, _State],
    exc_states: Dict[int, _State],
) -> Dict[Tuple[str, _Record], int]:
    """Obligations live on an edge into ``target`` → min escaping line."""
    leaks: Dict[Tuple[str, _Record], int] = {}
    for pred, kind in cfg.preds(target):
        source = exc_states if kind == "except" else out_states
        state = source.get(pred)
        if state:
            state = _Ownership._refine(cfg.node(pred), kind, state)
        if not state:
            continue
        line = cfg.node(pred).line
        for name in sorted(state):
            for record in state[name]:
                key = (name, record)
                escape = line if line > 0 else record[0]
                if key not in leaks or escape < leaks[key]:
                    leaks[key] = escape
    return leaks


def _leak_findings(
    path: str,
    ownership: _Ownership,
    out_states: Dict[int, _State],
    exc_states: Dict[int, _State],
    check_exit: bool,
) -> List[Finding]:
    cfg = ownership.cfg
    exit_leaks = (
        _leaks_at(cfg, cfg.exit, out_states, exc_states) if check_exit else {}
    )
    raise_leaks = _leaks_at(cfg, cfg.raise_exit, out_states, exc_states)
    rule = RULES_BY_ID["REPRO601"]
    findings: List[Finding] = []
    for key in sorted(set(exit_leaks) | set(raise_leaks)):
        name, (acquire_line, callee) = key
        if key in exit_leaks:
            how = (
                f"reaches the function exit (line {exit_leaks[key]}) "
                f"without close/unlink/transfer"
            )
            line = exit_leaks[key]
        else:
            how = (
                f"may escape on the exception path from line "
                f"{raise_leaks[key]} before any release"
            )
            line = raise_leaks[key]
        findings.append(
            Finding(
                rule_id="REPRO601",
                severity=rule.severity,
                path=path,
                line=acquire_line,
                column=0,
                message=(
                    f"resource {name!r} acquired from {callee}() at line "
                    f"{acquire_line} {how}"
                ),
            )
        )
        del line
    return findings


# -- fork-safety (REPRO602) ----------------------------------------------


def _captured_names(call: ast.Call) -> Set[str]:
    """Names snapshotted into workers by a pool construction."""
    name = _call_name(call)
    captured: Set[str] = set()
    if name == "Pool":
        for kw in call.keywords:
            if kw.arg == "initargs" and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                for elt in kw.value.elts:
                    if isinstance(elt, ast.Name):
                        captured.add(elt.id)
    elif name == "WorkerPool":
        payload = None
        if len(call.args) > 1:
            payload = call.args[1]
        for kw in call.keywords:
            if kw.arg == "payload":
                payload = kw.value
        if isinstance(payload, ast.Name):
            captured.add(payload.id)
    return captured


def _mutations(stmt: ast.stmt, captured: Set[str]) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    if isinstance(stmt, ast.AugAssign):
        target = stmt.target
        if isinstance(target, ast.Name) and target.id in captured:
            out.append((target.id, stmt.lineno))
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target.value
            if isinstance(base, ast.Name) and base.id in captured:
                out.append((base.id, stmt.lineno))
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                base = target.value
                if isinstance(base, ast.Name) and base.id in captured:
                    out.append((base.id, stmt.lineno))
    for call in _stmt_calls(stmt):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in captured
        ):
            out.append((func.value.id, call.lineno))
    return out


def _fork_findings(path: str, cfg: CFG) -> List[Finding]:
    rule = RULES_BY_ID["REPRO602"]
    findings: List[Finding] = []
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None or not isinstance(stmt, ast.stmt):
            continue
        if node.label.startswith("with-exit"):
            continue
        for call in _stmt_calls(stmt):
            if _call_name(call) not in _FORK_POOLS:
                continue
            captured = _captured_names(call)
            if not captured:
                continue
            # forward reachability from the creation node
            reachable: Set[int] = set()
            stack = [succ for succ, _ in cfg.succs(node.nid)]
            while stack:
                current = stack.pop()
                if current in reachable:
                    continue
                reachable.add(current)
                stack.extend(succ for succ, _ in cfg.succs(current))
            seen: Set[Tuple[str, int]] = set()
            for nid in sorted(reachable):
                later = cfg.node(nid).stmt
                if later is None or not isinstance(later, ast.stmt):
                    continue
                if cfg.node(nid).label.startswith("with-exit"):
                    continue
                for name, line in _mutations(later, captured):
                    if (name, line) in seen:
                        continue
                    seen.add((name, line))
                    findings.append(
                        Finding(
                            rule_id="REPRO602",
                            severity=rule.severity,
                            path=path,
                            line=line,
                            column=0,
                            message=(
                                f"{name!r} is captured by the fork "
                                f"initializer at line {call.lineno} but "
                                f"mutated at line {line} after the fork; "
                                f"workers keep the pre-fork snapshot"
                            ),
                        )
                    )
    return findings


# -- entry points ---------------------------------------------------------


def resource_summary(
    info: FunctionInfo, summaries: SummaryMap
) -> Optional[Union[str, Tuple[int, ...]]]:
    """Which return-value positions carry an unreleased resource."""
    ownership = _Ownership(info.path, info.node.body, summaries)
    in_states, _out, _exc = ownership.run()
    result: Optional[Union[str, Tuple[int, ...]]] = None
    indices: Set[int] = set()
    for node in ownership.cfg.nodes:
        stmt = node.stmt
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        state = in_states.get(node.nid) or {}
        value = stmt.value
        if isinstance(value, ast.Name) and value.id in state:
            result = "all"
        elif isinstance(value, (ast.Tuple, ast.List)):
            for index, elt in enumerate(value.elts):
                if isinstance(elt, ast.Name) and elt.id in state:
                    indices.add(index)
    if result == "all":
        return "all"
    if indices:
        return tuple(sorted(indices))
    return None


def report_module(
    path: str,
    tree: ast.Module,
    summaries: SummaryMap,
) -> List[Finding]:
    """REPRO601/602 findings for one module (top level + functions)."""
    findings: List[Finding] = []

    def analyze(body: Sequence[ast.stmt], check_exit: bool) -> None:
        ownership = _Ownership(path, list(body), summaries)
        _in, out_states, exc_states = ownership.run()
        findings.extend(
            _leak_findings(path, ownership, out_states, exc_states, check_exit)
        )
        findings.extend(_fork_findings(path, ownership.cfg))

    # module top level: exception-path leaks only (globals are
    # program-lifetime; the atexit sweep owns them)
    analyze(tree.body, check_exit=False)

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analyze(child.body, check_exit=True)
                walk(child)
            elif isinstance(child, ast.ClassDef):
                walk(child)

    walk(tree)
    return findings
