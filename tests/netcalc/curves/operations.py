"""Min-plus operations on piecewise-linear curves.

These are the handful of network-calculus operations the AFDX analysis
needs (Le Boudec & Thiran, *Network Calculus*, LNCS 2050):

* :func:`add_curves` / :func:`sum_curves` — aggregation of independent
  flows;
* :func:`min_curves` — pointwise minimum, used by the *grouping*
  technique to cap a group of flows sharing an input link by that
  link's shaping curve;
* :func:`horizontal_deviation` — the FIFO delay bound
  ``h(alpha, beta)``;
* :func:`vertical_deviation` — the backlog (buffer) bound
  ``v(alpha, beta)``;
* :func:`deconvolve` — the output arrival curve
  ``alpha (/) beta`` for a concave ``alpha`` and rate-latency ``beta``.

Unbounded results (long-term arrival rate above the service rate) are
reported as ``math.inf``; callers translate that into
:class:`repro.errors.UnstableNetworkError` with port context.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from tests.netcalc.curves.piecewise import PiecewiseCurve
from tests.netcalc.curves.rate_latency import RateLatency

__all__ = [
    "add_curves",
    "sum_curves",
    "min_curves",
    "horizontal_deviation",
    "vertical_deviation",
    "deconvolve",
]

_EPS = 1e-9


def _merge_knots(a, b) -> List[float]:
    """Sorted union of two ascending knot lists (linear merge).

    Exact duplicates collapse to one entry, matching
    ``sorted(set(a) | set(b))`` bit for bit — the inputs are already
    strictly ascending (curve breakpoints by construction, crossings by
    the segment sweep of :func:`_segment_crossings`), so a linear merge
    replaces the hash + re-sort on the aggregation hot path.
    """
    out: List[float] = []
    i = j = 0
    n_a, n_b = len(a), len(b)
    while i < n_a or j < n_b:
        if j >= n_b or (i < n_a and a[i] < b[j]):
            x = a[i]
            i += 1
        elif i >= n_a or b[j] < a[i]:
            x = b[j]
            j += 1
        else:  # equal: keep one
            x = a[i]
            i += 1
            j += 1
        if not out or x != out[-1]:
            out.append(x)
    return out


def add_curves(f: PiecewiseCurve, g: PiecewiseCurve) -> PiecewiseCurve:
    """Pointwise sum of two curves (aggregate of independent flows)."""
    xs = _merge_knots(f.knots(), g.knots())
    points = [(x, f(x) + g(x)) for x in xs]
    return PiecewiseCurve(points, f.final_slope + g.final_slope)


def sum_curves(curves: Iterable[PiecewiseCurve]) -> PiecewiseCurve:
    """Pointwise sum of any number of curves (zero curve when empty)."""
    total = PiecewiseCurve.zero()
    for c in curves:
        total = add_curves(total, c)
    return total


def _segment_crossings(f: PiecewiseCurve, g: PiecewiseCurve, xs: List[float]) -> List[float]:
    """x values (inside or beyond ``xs``) where ``f - g`` changes sign."""
    crossings: List[float] = []
    for x0, x1 in zip(xs, xs[1:]):
        d0 = f(x0) - g(x0)
        d1 = f(x1) - g(x1)
        if (d0 > _EPS and d1 < -_EPS) or (d0 < -_EPS and d1 > _EPS):
            # both linear on [x0, x1] since xs contains every breakpoint
            t = d0 / (d0 - d1)
            crossings.append(x0 + t * (x1 - x0))
    # possible final crossing beyond the last knot
    last = xs[-1]
    d_last = f(last) - g(last)
    slope_diff = f.final_slope - g.final_slope
    if abs(slope_diff) > _EPS:
        t = -d_last / slope_diff
        if t > _EPS:
            crossings.append(last + t)
    return crossings


def _concave_envelope(points: List[tuple], tail_slope: float) -> List[tuple]:
    """Upper concave hull of sampled points (Andrew monotone chain).

    When the true curve is known to be concave, sampled breakpoints can
    still violate slope monotonicity by floating-point noise: a
    crossing computed by :func:`_segment_crossings` may land within
    ~1e-6 of an existing knot, and the micro-segment between them gets
    a garbage slope (tiny Δy / tiny Δx).  A point participating in a
    slope *increase* lies below the chord of its neighbours, so popping
    it restores concavity while moving the curve by at most the noise
    amplitude.

    Points closer than ``_EPS`` in x are merged first, the way
    :class:`PiecewiseCurve` merges them (earlier x, later y): merging
    them only after the hull could raise a knot and leave the slopes
    increasing again.
    """
    hull: List[tuple] = []
    for x, y in points:
        if hull and x - hull[-1][0] <= _EPS:
            x = hull.pop()[0]
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (x - x1) < (y - y1) * (x1 - x0):  # slope increases at x1
                hull.pop()
            else:
                break
        hull.append((x, y))
    # the tail slope must not exceed the last segment's slope either
    while len(hull) >= 2:
        (x0, y0), (x1, y1) = hull[-2], hull[-1]
        if tail_slope * (x1 - x0) > (y1 - y0):
            hull.pop()
        else:
            break
    return hull


def min_curves(f: PiecewiseCurve, g: PiecewiseCurve) -> PiecewiseCurve:
    """Pointwise minimum of two curves.

    The minimum of two concave curves is concave; this implements the
    grouping technique's ``min(sum of flows, link shaping curve)``.
    For concave inputs the result is snapped to its upper concave hull,
    which discards breakpoints that only exist as floating-point noise
    (see :func:`_concave_envelope`).
    """
    xs = _merge_knots(f.knots(), g.knots())
    xs = _merge_knots(xs, _segment_crossings(f, g, xs))
    points = [(x, min(f(x), g(x))) for x in xs]
    # which curve is lower at infinity decides the final slope
    if f.final_slope < g.final_slope - _EPS:
        tail_slope = f.final_slope
    elif g.final_slope < f.final_slope - _EPS:
        tail_slope = g.final_slope
    else:
        tail_slope = min(f.final_slope, g.final_slope)
    if f.is_concave() and g.is_concave():
        points = _concave_envelope(points, tail_slope)
    return PiecewiseCurve(points, tail_slope)


def _upper_inverse(curve: PiecewiseCurve, y: float) -> float:
    """Largest ``x`` with ``curve(x) <= y`` (right pseudo-inverse).

    For the horizontal deviation the supremum over a segment of arrival
    times is approached at the *right* edge of the service curve's
    level set — e.g. ``sup{x: beta_{R,T}(x) <= 0} = T``, not 0.  Returns
    ``math.inf`` when the curve stays at or below ``y`` forever.
    """
    points = curve.breakpoints
    last_x, last_y = points[-1]
    if y >= last_y - _EPS:
        if curve.final_slope > _EPS:
            return last_x + max(0.0, y - last_y) / curve.final_slope
        return math.inf
    segments = list(zip(points, points[1:]))
    for (x0, y0), (x1, y1) in reversed(segments):
        if y0 <= y + _EPS:
            if y1 - y0 <= _EPS:
                return x1
            return x0 + (min(y, y1) - y0) * (x1 - x0) / (y1 - y0)
    return 0.0


def horizontal_deviation(alpha: PiecewiseCurve, beta: PiecewiseCurve) -> float:
    """Maximum horizontal distance ``h(alpha, beta)``.

    For a FIFO system offering service curve ``beta`` to an aggregate
    with arrival curve ``alpha``, ``h`` bounds the delay of every bit —
    hence of every flow of the aggregate (Le Boudec & Thiran, Thm 1.4.2
    plus the FIFO-aggregate argument used for AFDX certification).

    Returns ``math.inf`` when the arrival rate exceeds the long-term
    service rate.
    """
    if alpha.final_slope > beta.final_slope + _EPS:
        return math.inf
    if alpha.final_slope <= _EPS and alpha(alpha.breakpoints[-1][0]) <= _EPS:
        return 0.0  # no traffic at all: nothing is ever delayed

    candidates = [x for x, _ in alpha.breakpoints]
    # points where alpha reaches a service-curve breakpoint level
    for _, y in beta.breakpoints:
        try:
            candidates.append(alpha.inverse(y))
        except ValueError:
            pass
    horizon = max(
        [x for x, _ in alpha.breakpoints] + [x for x, _ in beta.breakpoints]
    ) + 1.0
    candidates.append(horizon)

    best = 0.0
    for t in candidates:
        if t < 0:
            continue
        crossing = _upper_inverse(beta, alpha(t))
        if math.isinf(crossing):
            return math.inf
        best = max(best, crossing - t)
    return best


def vertical_deviation(alpha: PiecewiseCurve, beta: PiecewiseCurve) -> float:
    """Maximum vertical distance ``v(alpha, beta)`` — the backlog bound.

    Used for switch output-buffer dimensioning (the paper notes the
    certification analysis also scales switch memory with these bounds).
    Returns ``math.inf`` for unstable ports.
    """
    if alpha.final_slope > beta.final_slope + _EPS:
        return math.inf
    xs = _merge_knots(alpha.knots(), beta.knots())
    best = 0.0
    for x in xs:
        best = max(best, alpha(x) - beta(x))
    return best


def deconvolve(alpha: PiecewiseCurve, beta: RateLatency) -> PiecewiseCurve:
    """Min-plus deconvolution ``alpha (/) beta`` for concave ``alpha``.

    The result constrains the *output* of a port with service
    ``beta_{R,T}`` fed by an ``alpha``-constrained aggregate.  For a
    concave ``alpha`` the closed form is::

        (alpha (/) beta)(t) = alpha(t + T)                  for t >= s* - T
                              alpha(s*) - R (s* - T - t)    for t <  s* - T

    where ``s*`` is the abscissa after which all slopes of ``alpha``
    drop to at most ``R``.

    Raises
    ------
    ValueError
        If ``alpha`` is not concave or its long-term rate exceeds the
        service rate (no finite output curve exists).
    """
    if not alpha.is_concave():
        raise ValueError("deconvolve() requires a concave arrival curve")
    rate, latency = beta.rate, beta.latency
    if alpha.final_slope > rate + _EPS:
        raise ValueError(
            f"arrival rate {alpha.final_slope} exceeds service rate {rate}; "
            "the output is unbounded"
        )

    # s* = end of the last segment whose slope exceeds the service rate
    s_star = 0.0
    slopes = alpha.slopes()
    xs = [x for x, _ in alpha.breakpoints]
    for idx, slope in enumerate(slopes[:-1]):
        if slope > rate + _EPS:
            s_star = xs[idx + 1]

    points: List[tuple]
    knee = max(0.0, s_star - latency)
    if knee > _EPS:
        start_value = alpha(s_star) - rate * (s_star - latency)
        points = [(0.0, start_value), (knee, alpha(s_star))]
    else:
        points = [(0.0, alpha(latency))]
    for x in xs:
        t = x - latency
        if t > knee + _EPS:
            points.append((t, alpha(x)))
    return PiecewiseCurve(points, alpha.final_slope)
