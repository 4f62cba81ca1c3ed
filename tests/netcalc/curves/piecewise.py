"""Piecewise-linear curve representation.

A :class:`PiecewiseCurve` is a wide-sense increasing function
``f : [0, +inf) -> [0, +inf)`` described by a finite list of breakpoints
``(x_k, y_k)`` (with ``x_0 = 0``) joined by straight segments, plus a
``final_slope`` that extends the curve beyond the last breakpoint.

The value *at* ``x = 0`` is ``y_0``: for arrival curves this encodes the
usual right-continuous convention ``alpha(0+) = burst``.  Nothing in the
delay/backlog computations depends on the value at exactly 0, so this
convention is harmless and keeps evaluation total.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = ["PiecewiseCurve"]

_EPS = 1e-9


def _dedupe(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Drop consecutive duplicate x values (keeping the later y)."""
    out: List[Tuple[float, float]] = []
    for x, y in points:
        if out and abs(out[-1][0] - x) <= _EPS:
            out[-1] = (out[-1][0], y)
        else:
            out.append((float(x), float(y)))
    return out


class PiecewiseCurve:
    """A wide-sense increasing piecewise-linear curve on ``[0, +inf)``.

    Parameters
    ----------
    breakpoints:
        Iterable of ``(x, y)`` pairs with strictly increasing ``x`` and
        ``x[0] == 0``.
    final_slope:
        Slope of the curve after the last breakpoint (``>= 0``).

    Instances are immutable; operations return new curves.
    """

    __slots__ = ("_points", "_final_slope", "_knots_cache")

    def __init__(self, breakpoints: Iterable[Tuple[float, float]], final_slope: float):
        points = _dedupe(list(breakpoints))
        if not points:
            raise ValueError("a curve needs at least one breakpoint")
        if abs(points[0][0]) > _EPS:
            raise ValueError(f"first breakpoint must be at x=0, got x={points[0][0]}")
        points[0] = (0.0, points[0][1])
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x1 <= x0:
                raise ValueError(f"breakpoint x values must increase: {x0} -> {x1}")
            if y1 < y0 - _EPS:
                raise ValueError(f"curve must be non-decreasing: f({x0})={y0} > f({x1})={y1}")
        if final_slope < -_EPS:
            raise ValueError(f"final slope must be non-negative, got {final_slope}")
        self._points: Tuple[Tuple[float, float], ...] = tuple(points)
        self._final_slope = max(0.0, float(final_slope))
        self._knots_cache: "Tuple[float, ...] | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def affine(cls, rate: float, burst: float) -> "PiecewiseCurve":
        """The affine (token-bucket) curve ``burst + rate * t``."""
        return cls([(0.0, burst)], rate)

    @classmethod
    def rate_latency(cls, rate: float, latency: float) -> "PiecewiseCurve":
        """The rate-latency service curve ``rate * (t - latency)+``."""
        if latency > 0:
            return cls([(0.0, 0.0), (latency, 0.0)], rate)
        return cls([(0.0, 0.0)], rate)

    @classmethod
    def zero(cls) -> "PiecewiseCurve":
        """The identically-zero curve."""
        return cls([(0.0, 0.0)], 0.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def breakpoints(self) -> Tuple[Tuple[float, float], ...]:
        """The ``(x, y)`` breakpoints, first at ``x = 0``."""
        return self._points

    @property
    def final_slope(self) -> float:
        """Slope beyond the last breakpoint (the long-term rate)."""
        return self._final_slope

    @property
    def burst(self) -> float:
        """Value at ``0+`` (the burst of an arrival curve)."""
        return self._points[0][1]

    def __call__(self, x: float) -> float:
        """Evaluate the curve at ``x`` (``x`` may exceed all breakpoints)."""
        if x < 0:
            raise ValueError(f"curves are defined on [0, +inf), got x={x}")
        points = self._points
        last_x, last_y = points[-1]
        if x >= last_x:
            return last_y + self._final_slope * (x - last_x)
        lo, hi = 0, len(points) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if points[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        x0, y0 = points[lo]
        x1, y1 = points[hi]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def slopes(self) -> List[float]:
        """Per-segment slopes, left to right, ending with ``final_slope``."""
        out: List[float] = []
        for (x0, y0), (x1, y1) in zip(self._points, self._points[1:]):
            out.append((y1 - y0) / (x1 - x0))
        out.append(self._final_slope)
        return out

    def is_concave(self) -> bool:
        """True when segment slopes are non-increasing (arrival-curve shape)."""
        s = self.slopes()
        return all(a >= b - _EPS for a, b in zip(s, s[1:]))

    def is_convex(self) -> bool:
        """True when segment slopes are non-decreasing (service-curve shape)."""
        s = self.slopes()
        return all(a <= b + _EPS for a, b in zip(s, s[1:]))

    def max_slope(self) -> float:
        """Largest segment slope."""
        return max(self.slopes())

    def inverse(self, y: float) -> float:
        """Smallest ``x`` with ``f(x) >= y`` (pseudo-inverse).

        Raises :class:`ValueError` when ``y`` is never reached (flat tail
        below ``y``).
        """
        if y <= self._points[0][1]:
            return 0.0
        for (x0, y0), (x1, y1) in zip(self._points, self._points[1:]):
            if y <= y1 + _EPS:
                if y1 == y0:
                    return x1
                return x0 + (x1 - x0) * (y - y0) / (y1 - y0)
        last_x, last_y = self._points[-1]
        if self._final_slope <= _EPS:
            raise ValueError(f"curve never reaches y={y} (flat tail at {last_y})")
        return last_x + (y - last_y) / self._final_slope

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------

    def knots(self) -> Tuple[float, ...]:
        """The breakpoint x values — ascending by construction, cached.

        Curves are immutable, so the min-plus operations
        (:mod:`tests.netcalc.curves.operations`) treat this as a pre-sorted
        knot list and take linear merges instead of re-sorting set
        unions on every operation.
        """
        if self._knots_cache is None:
            self._knots_cache = tuple(x for x, _ in self._points)
        return self._knots_cache

    def _knots(self) -> List[float]:
        return list(self.knots())

    def equals(self, other: "PiecewiseCurve", tol: float = 1e-6) -> bool:
        """Pointwise equality (checked on the union of breakpoints)."""
        xs = sorted(set(self._knots()) | set(other._knots()))
        horizon = (xs[-1] if xs else 0.0) + 1.0
        xs.append(horizon)
        return all(abs(self(x) - other(x)) <= tol for x in xs) and abs(
            self._final_slope - other._final_slope
        ) <= tol

    def dominates(self, other: "PiecewiseCurve", tol: float = 1e-6) -> bool:
        """True when ``self(x) >= other(x)`` for all ``x``."""
        xs = sorted(set(self._knots()) | set(other._knots()))
        if any(self(x) < other(x) - tol for x in xs):
            return False
        return self._final_slope >= other._final_slope - tol

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in self._points)
        return f"PiecewiseCurve([{pts}], final_slope={self._final_slope:g})"
