"""The Network Calculus port kernel: one FIFO port's bounds from floats.

At every output port the analysis needs one horizontal and one vertical
deviation between the port's rate-latency service curve ``beta_{R,T}``
and its aggregate arrival curve, the sum of one curve per input-link
group, each the group's folded leaky bucket, capped by the link's
shaping curve when grouping applies (paper Sec. II-B).  This module is
the product's only Network Calculus: :func:`port_bounds` computes the
two floats from parallel knot and value lists.  The general min-plus
curve algebra, a piecewise-linear curve class with its operations,
stays in ``tests/netcalc/curves`` as the differential oracle, and the
kernel applies its IEEE-754 operations in the same order:

* each shaped group is ``min_curves`` of two affine curves: the
  crossing of ``_segment_crossings``, the pointwise minimum at ``0``
  and at the crossing, the tail slope, the tail-slope pop of
  ``_concave_envelope`` and the curve's validation and slope clamp;
* the groups are added to the zero curve one after the other, as
  ``sum_curves`` does: ``_merge_knots``, the sum of both curves at
  every merged knot, then the curve class's merge of knots closer
  than ``1e-9`` (earlier ``x``, later ``y``), its non-decreasing check
  and its ``max(0.0, ·)`` slope clamp;
* the delay is ``horizontal_deviation`` against ``beta_{R,T}``, with
  ``_upper_inverse`` in closed form, and the backlog is
  ``vertical_deviation``.

Where the kernel skips an operation it does so because the operation
cannot change a bit on this input: a curve evaluated at one of its own
knots returns that knot's value (the interpolation adds a zero
product, and no value is ever ``-0.0``), and a maximum taken with a
strict ``>`` from ``0.0`` does not depend on the order or the
duplicates of its candidates.  docs/PERFORMANCE.md ("The port kernel")
gives the operation-by-operation argument.  Inputs are non-negative
rates and bursts (``-0.0`` included), as every ingress bucket and every
inflated burst is.

``tests/netcalc/test_kernel.py`` compares the kernel with the curve
algebra by ``float.hex`` under hypothesis, and ``scripts/kernel_gate.py``
diffs the analyzer against the curve-object oracle in
``tests/netcalc/reference_analyzer.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat
from operator import lt, sub
from typing import Iterable, List, Optional, Tuple

__all__ = ["Group", "aggregate_curve", "port_bounds"]

#: the curve algebra's tolerance (its ``_EPS``)
_EPS = 1e-9

#: one input-link group: its folded ``(rate, burst)`` and the shaping
#: ``(link rate, biggest frame)`` that caps it, or ``None`` when uncapped
Group = Tuple[float, float, Optional[Tuple[float, float]]]


def _decreasing_error(xs: List[float], ys: List[float]) -> ValueError:
    """The curve class's error for the first decreasing pair."""
    for k in range(1, len(ys)):
        if ys[k] < ys[k - 1] - _EPS:
            return ValueError(
                f"curve must be non-decreasing: f({xs[k - 1]})={ys[k - 1]} "
                f"> f({xs[k]})={ys[k]}"
            )
    raise AssertionError("no decreasing pair")


def _check_non_decreasing(xs: List[float], ys: List[float]) -> None:
    """The curve class's ``y1 < y0 - 1e-9`` check, in one C-level pass."""
    if any(map(lt, ys[1:], map(sub, ys, repeat(_EPS)))):
        raise _decreasing_error(xs, ys)


def _shaped_group(
    rate: float, burst: float, link_rate: float, frame: float
) -> Tuple[Optional[float], float, float, float]:
    """``min_curves(affine(rate, burst), affine(link_rate, frame))``.

    Returns ``(t, y0, y1, slope)``: the curve is ``y0`` at ``0``, ``y1``
    at the crossing ``t`` and grows by ``slope`` beyond it; ``t`` is
    ``None`` (and ``y1`` unused) when the minimum keeps one knot.
    """
    b1 = float(burst)
    s1 = max(0.0, float(rate))
    b2 = float(frame)
    s2 = max(0.0, float(link_rate))
    # _segment_crossings: both curves have their only knot at 0
    f0 = b1 + s1 * 0.0
    g0 = b2 + s2 * 0.0
    slope_diff = s1 - s2
    t: Optional[float] = None
    if abs(slope_diff) > _EPS:
        ahead = -(f0 - g0) / slope_diff
        if ahead > _EPS:
            t = 0.0 + ahead
    y0 = g0 if g0 < f0 else f0
    if s1 < s2 - _EPS:
        tail = s1
    elif s2 < s1 - _EPS:
        tail = s2
    else:
        tail = s2 if s2 < s1 else s1
    y1 = y0
    if t is not None:
        ft = b1 + s1 * t
        gt = b2 + s2 * t
        y1 = gt if gt < ft else ft
        # _concave_envelope: the tail slope must not exceed the last
        # segment's slope
        if tail * t > y1 - y0:
            t = None
        elif y1 < y0 - _EPS:
            raise _decreasing_error([0.0, t], [y0, y1])
    return t, y0, y1, max(0.0, float(tail))


def _add_affine(
    xs: List[float], ys: List[float], y0: float, slope: float
) -> List[float]:
    """The summed values of ``add_curves(total, affine(slope, y0))``.

    The affine curve's only knot is ``0``, which ``xs`` holds, so the
    knots do not change; at knot ``x`` the affine curve is
    ``y0 + slope * (x - 0.0)``.
    """
    out = [y + (y0 + slope * x) for x, y in zip(xs, ys)]
    _check_non_decreasing(xs, out)
    return out


def _add_two_knots(
    xs: List[float],
    ys: List[float],
    total_slope: float,
    t: float,
    c0: float,
    c1: float,
    slope: float,
) -> Tuple[List[float], List[float]]:
    """``add_curves(total, c)`` for ``c`` with knots ``0`` and ``t``.

    ``c`` is ``c0 + (c1 - c0) * x / t`` before ``t`` and
    ``c1 + slope * (x - t)`` from ``t`` on.  ``t`` joins the knots
    unless ``xs`` holds it exactly (``_merge_knots``); a new knot
    closer than ``1e-9`` to a neighbour merges into it the way
    the curve class merges: the earlier ``x`` stays, with the later
    ``y``.  The other knots are ``1e-9`` or more apart already.
    """
    p = bisect_left(xs, t)
    rise = c1 - c0
    out = [y + (c0 + rise * x / t) for x, y in zip(xs[:p], ys[:p])]
    out += [y + (c1 + slope * (x - t)) for x, y in zip(xs[p:], ys[p:])]
    n = len(xs)
    if p < n and xs[p] == t:
        knots = xs
    else:
        # the total at t: its tail, or the segment that holds t
        if p == n:
            at_t = ys[-1] + total_slope * (t - xs[-1])
        else:
            x0, y0 = xs[p - 1], ys[p - 1]
            at_t = y0 + (ys[p] - y0) * (t - x0) / (xs[p] - x0)
        value = at_t + (c1 + slope * (t - t))
        if t - xs[p - 1] <= _EPS:
            knots = xs
            out[p - 1] = value
        elif p < n and xs[p] - t <= _EPS:
            knots = xs[:]
            knots[p] = t
        else:
            knots = xs[:]
            knots.insert(p, t)
            out.insert(p, value)
    _check_non_decreasing(knots, out)
    return knots, out


def aggregate_curve(groups: Iterable[Group]) -> Tuple[List[float], List[float], float]:
    """``sum_curves`` of the groups' arrival curves, as flat lists.

    Returns the knots (ascending, first ``0.0``), the curve's value at
    each knot and its final slope: the ``breakpoints`` and
    ``final_slope`` of the curve the curve algebra builds.
    """
    xs: List[float] = [0.0]
    ys: List[float] = [0.0]
    total_slope = 0.0
    for group_rate, burst, shaping in groups:
        if shaping is None:
            t, y0, y1, slope = None, float(burst), 0.0, max(0.0, float(group_rate))
        else:
            t, y0, y1, slope = _shaped_group(group_rate, burst, *shaping)
        if t is None:
            ys = _add_affine(xs, ys, y0, slope)
        else:
            xs, ys = _add_two_knots(xs, ys, total_slope, t, y0, y1, slope)
        total_slope = max(0.0, total_slope + slope)
    return xs, ys, total_slope


def port_bounds(
    groups: Iterable[Group], rate: float, latency: float
) -> Tuple[float, float, float]:
    """Delay and backlog bounds of one FIFO port, and its arrival rate.

    Parameters
    ----------
    groups:
        The port's input-link groups in the order ``sum_curves`` adds
        them (sorted group keys).
    rate, latency:
        The port's rate-latency service curve ``beta_{R,T}`` (``R > 0``,
        ``T >= 0``).

    Returns ``(delay, backlog, long_term_rate)``: the
    ``horizontal_deviation`` and ``vertical_deviation`` of the
    :func:`aggregate_curve` against ``beta_{R,T}``, and its final
    slope.  The delay is ``math.inf`` when no finite bound exists (the
    backlog is then ``math.inf`` too); the caller raises with port
    context.
    """
    xs, ys, total_slope = aggregate_curve(groups)
    service_rate = max(0.0, float(rate))
    # beta_{R,T}'s last knot: T, unless the curve class merged it into 0
    knee = float(latency) if latency > _EPS else 0.0
    if total_slope > service_rate + _EPS:
        return math.inf, math.inf, total_slope
    last_x = xs[-1]
    if total_slope <= _EPS and ys[-1] + total_slope * 0.0 <= _EPS:
        return 0.0, _backlog(xs, ys, total_slope, service_rate, knee), total_slope
    if not service_rate > _EPS:
        return math.inf, math.inf, total_slope
    # horizontal_deviation's candidates: alpha's knots (alpha.inverse
    # of beta's zero levels is 0.0, a knot already) and the horizon;
    # _upper_inverse(beta, y) is knee + y / R for every y >= 0
    horizon = max(last_x, knee) + 1.0
    at_horizon = ys[-1] + total_slope * (horizon - last_x)
    delay = 0.0
    for x, y in zip(xs, ys):
        gap = (knee + y / service_rate) - x
        if gap > delay:
            delay = gap
    gap = (knee + at_horizon / service_rate) - horizon
    if gap > delay:
        delay = gap
    return delay, _backlog(xs, ys, total_slope, service_rate, knee), total_slope


def _backlog(
    xs: List[float], ys: List[float], total_slope: float, rate: float, knee: float
) -> float:
    """``vertical_deviation(alpha, beta_{R,T})`` over the merged knots.

    ``beta`` is ``0.0`` before its knee and ``R * (x - knee)`` from it
    on; when the knee is not one of alpha's knots, alpha is evaluated
    there as the curve class's ``__call__`` would.
    """
    backlog = 0.0
    for x, y in zip(xs, ys):
        gap = y - (rate * (x - knee) if x >= knee else 0.0)
        if gap > backlog:
            backlog = gap
    if knee > 0.0:
        p = bisect_left(xs, knee)
        if p == len(xs) or xs[p] != knee:
            if p == len(xs):
                at_knee = ys[-1] + total_slope * (knee - xs[-1])
            else:
                x0, y0 = xs[p - 1], ys[p - 1]
                at_knee = y0 + (ys[p] - y0) * (knee - x0) / (xs[p] - x0)
            gap = at_knee - 0.0
            if gap > backlog:
                backlog = gap
    return backlog
