"""Bound provenance: additive decompositions with bit-exact conservation.

A :class:`Decomposition` is an auditable ledger for one analyzed VL
path: the reported end-to-end bound split into named additive terms
(service latencies, burst delays, grouping credits, counted-twice
frames, serialization gains...).  Its contract is the **conservation
invariant**::

    math.fsum(term values) == bound    # bit for bit

which every future performance PR can be gated on: if an optimization
changes a bound by even one ulp, the replayed decomposition stops
summing to it and :meth:`Decomposition.check` raises.

Floating-point addition is not associative, so a naive re-grouping of
an analyzer's accumulations would miss the bound by a few ulps.  The
recorders therefore replay every accumulation through **error-free
transformations** (Knuth's two-sum): each rounding error is captured
and appended to the ledger as an explicit ``fp-residual`` micro-term.
The *real-number* sum of the resulting leaves then equals the computed
bound — a representable float — exactly, and because :func:`math.fsum`
is correctly rounded it reproduces that float bit for bit.  The
invariant is provable, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProvenanceError
from repro.network.port import PortId

__all__ = [
    "FP_RESIDUAL",
    "two_sum",
    "ExactAccumulator",
    "closing_residual",
    "Term",
    "Decomposition",
]

#: Label of the rounding-error micro-terms that make ledgers exact.
FP_RESIDUAL = "fp-residual"


def two_sum(a: float, b: float) -> Tuple[float, float]:
    """Error-free transformation of one addition: ``s + e == a + b``.

    ``s`` is the ordinary rounded sum ``fl(a + b)``; ``e`` is the exact
    rounding error, itself representable (Knuth, TAOCP vol. 2, 4.2.2,
    branch-free variant — valid for any two finite doubles).
    """
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


class ExactAccumulator:
    """Replay a left-to-right float accumulation, capturing every error.

    After ``add(x_1) ... add(x_n)``, :attr:`value` equals the plain
    sequential sum ``fl(...fl(fl(0 + x_1) + x_2)... + x_n)`` — the same
    float an analyzer's ``total += x`` loop produced — and
    :attr:`residuals` holds the negated rounding errors, so that the
    *real-number* identity ::

        x_1 + ... + x_n + sum(residuals) == value

    is exact.  Appending the residuals to a ledger as ``fp-residual``
    terms is what makes the conservation invariant bit-exact.
    """

    __slots__ = ("value", "residuals")

    def __init__(self, start: float = 0.0) -> None:
        self.value = start
        self.residuals: List[float] = []

    def add(self, x: float) -> float:
        s, err = two_sum(self.value, x)
        self.value = s
        if err != 0.0:
            self.residuals.append(-err)
        return s


def closing_residual(values: Sequence[float], target: float) -> float:
    """The correction ``r`` with ``math.fsum(list(values) + [r]) == target``.

    Used for *informational* breakdowns (e.g. per-competitor workload
    charges) whose parts were computed independently of the parent
    total: the residual absorbs the mismatch so the children of a term
    still sum to it bit-exactly.  Raises :class:`ProvenanceError` if no
    such float exists (non-finite inputs).
    """
    parts = list(values)
    if not math.isfinite(target) or not all(math.isfinite(p) for p in parts):
        raise ProvenanceError(
            f"cannot close residual over non-finite inputs: "
            f"parts {parts!r}, target {target!r}"
        )
    r = -math.fsum(parts + [-target])
    for _ in range(8):
        got = math.fsum(parts + [r])
        if got == target:
            return r
        correction = target - got
        if not math.isfinite(correction) or correction == 0.0:
            break
        r += correction
    raise ProvenanceError(
        f"cannot close residual: parts sum to {math.fsum(parts)!r}, "
        f"target {target!r}"
    )


@dataclass(frozen=True)
class Term:
    """One additive ledger entry of a bound decomposition.

    Attributes
    ----------
    label:
        Term kind (``"service-latency"``, ``"counted-twice"``,
        ``"fp-residual"``...).  The glossary mapping labels to the
        paper's equations lives in ``docs/OBSERVABILITY.md``.
    value_us:
        Signed contribution to the bound, in microseconds (credits and
        gains are negative).
    hop:
        1-based hop along the path the term belongs to, if any.
    port:
        The output port the term was incurred at, if any.
    group:
        Free-form grouping key — the input link of a competitor charge,
        or the accumulation a residual was captured from.
    detail:
        Human-readable annotation (frame counts, rates...).
    children:
        Informational sub-terms; when present they sum to ``value_us``
        bit-exactly (enforced by :meth:`Decomposition.check`).
    """

    label: str
    value_us: float
    hop: Optional[int] = None
    port: Optional[PortId] = None
    group: Optional[str] = None
    detail: Optional[str] = None
    children: Tuple["Term", ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"label": self.label, "value_us": self.value_us}
        if self.hop is not None:
            out["hop"] = self.hop
        if self.port is not None:
            out["port"] = f"{self.port[0]}->{self.port[1]}"
        if self.group is not None:
            out["group"] = self.group
        if self.detail is not None:
            out["detail"] = self.detail
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


@dataclass(frozen=True)
class Decomposition:
    """The complete additive ledger of one path's delay bound.

    ``terms`` are the top-level leaves; their :func:`math.fsum` equals
    ``bound_us`` bit-exactly (:attr:`conserved` / :meth:`check`).
    ``hop_bounds_us`` records the cumulative bound after each hop —
    per-port partial sums for Network Calculus, prefix trajectory
    bounds for the Trajectory approach — which is what the cross-method
    attribution aligns hop by hop.
    """

    method: str
    vl_name: str
    path_index: int
    node_path: Tuple[str, ...]
    bound_us: float
    terms: Tuple[Term, ...]
    hop_bounds_us: Tuple[float, ...] = ()

    def term_sum_us(self) -> float:
        """Correctly-rounded sum of the ledger (equals the bound)."""
        return math.fsum(term.value_us for term in self.terms)

    @property
    def conserved(self) -> bool:
        """Whether ``sum(terms) == bound`` holds bit-exactly."""
        return self.term_sum_us() == self.bound_us

    @property
    def max_abs_residual_us(self) -> float:
        """Largest ``fp-residual`` magnitude anywhere in the ledger."""
        worst = 0.0
        stack = list(self.terms)
        while stack:
            term = stack.pop()
            if term.label == FP_RESIDUAL:
                worst = max(worst, abs(term.value_us))
            stack.extend(term.children)
        return worst

    def total(self, *labels: str) -> float:
        """Correctly-rounded sum of the terms carrying any of ``labels``."""
        wanted = set(labels)
        return math.fsum(
            term.value_us for term in self.terms if term.label in wanted
        )

    def check(self) -> None:
        """Raise :class:`ProvenanceError` on any conservation violation.

        Verifies the top-level invariant and, for every term carrying
        children, that the children sum to their parent bit-exactly.
        """
        got = self.term_sum_us()
        if got != self.bound_us:
            raise ProvenanceError(
                f"{self.method} decomposition of {self.vl_name}[{self.path_index}] "
                f"violates conservation: terms sum to {got!r}, "
                f"bound is {self.bound_us!r}"
            )
        stack = list(self.terms)
        while stack:
            term = stack.pop()
            if term.children:
                child_sum = math.fsum(c.value_us for c in term.children)
                if child_sum != term.value_us:
                    raise ProvenanceError(
                        f"{self.method} decomposition of "
                        f"{self.vl_name}[{self.path_index}]: children of "
                        f"{term.label!r} sum to {child_sum!r}, "
                        f"term is {term.value_us!r}"
                    )
                stack.extend(term.children)

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "vl_name": self.vl_name,
            "path_index": self.path_index,
            "node_path": list(self.node_path),
            "bound_us": self.bound_us,
            "conserved": self.conserved,
            "hop_bounds_us": list(self.hop_bounds_us),
            "terms": [term.to_dict() for term in self.terms],
        }
