"""Busy-period bounds and candidate release instants.

A *busy period* of an output port is a maximal interval during which
the port always has a frame to transmit (paper Sec. II-B).  The packet
under study is released inside a busy period of its **first** port (a
release outside one would see an empty source queue and a strictly
easier scenario), so the maximization variable ``t`` of the Trajectory
formula ranges over ``[0, BP)`` where ``BP`` bounds the longest busy
period of the source port.

The workload function ``W(t) - t`` is piecewise decreasing between the
jump instants of the interference counters, so only ``t = 0`` and the
jump instants inside ``[0, BP)`` need to be evaluated.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConvergenceError, UnstableNetworkError

__all__ = ["interference_count", "busy_period_bound", "candidate_instants"]

#: Hard cap on fixed-point iterations (a stable port converges far sooner).
_MAX_ITERATIONS = 10_000


def interference_count(t: float, offset: float, period: float) -> int:
    """Frames of a sporadic ``(C, T)`` flow able to delay a release at ``t``.

    ``(1 + floor((t + A) / T))+`` — the Martin & Minet counter: the
    flow's frames that may reach the shared port no later than the
    packet under study, given the relative arrival offset ``A``.  The
    boundary is inclusive: at ``t + A`` exactly ``k * T`` the ``k``-th
    periodic frame still counts.

    The floor is evaluated *exactly* on the real values of the floats
    (``shifted = fl(t + A)`` is the defined input): away from a period
    boundary the rounded quotient's floor is already exact; near one,
    it is one integer floor division over the floats' exact ratios
    (``float.as_integer_ratio`` is exact for every binary float), a few
    big-integer operations however large the quotient.  A historical
    ``+ 1e-9`` epsilon fudge both over-counted a frame whenever
    ``t + A`` landed just below a multiple of ``T`` (a tightness loss)
    and under-protected once the quotient grew past ``~1e9`` ulps
    (where the division error exceeds 1e-9).
    """
    shifted = t + offset
    if shifted < 0:
        return 0
    quotient = shifted / period
    k = math.floor(quotient)
    # Fast path: division is correctly rounded (error <= 0.5 ulp), so a
    # fractional part safely away from both 0 and 1 proves the floor is
    # already exact.  `quotient - k` is itself exact (Sterbenz).
    fraction = quotient - k
    tolerance = (quotient + 1.0) * 2.0 ** -50
    if tolerance < fraction < 1.0 - tolerance:
        return 1 + k
    # Near a boundary: k = max{j : j * T <= shifted}, in exact integers.
    pn, pd = period.as_integer_ratio()
    sn, sd = shifted.as_integer_ratio()
    return 1 + (sn * pd) // (sd * pn)


def busy_period_bound(
    flows: Iterable[Tuple[float, float, float]],
    max_iterations: int = _MAX_ITERATIONS,
) -> float:
    """Longest busy period of a port serving sporadic flows.

    Parameters
    ----------
    flows:
        Triples ``(C, T, A)`` — transmission time, period (BAG) and
        arrival offset of every flow crossing the port.

    Returns the least fixed point of
    ``b = sum_j count_j(b) * C_j`` reached by ascending iteration.

    Raises
    ------
    UnstableNetworkError
        If the port utilization is >= 1 (no finite busy period).
    ConvergenceError
        If the iteration budget is exhausted (defensive; cannot happen
        for utilization < 1).
    """
    flow_list = list(flows)
    if not flow_list:
        return 0.0
    utilization = math.fsum(c / t for c, t, _ in flow_list)
    if utilization >= 1.0 - 1e-12:
        raise UnstableNetworkError(
            f"port utilization {utilization:.4f} >= 1: busy period is unbounded"
        )
    value = math.fsum(c for c, _, _ in flow_list)
    for _ in range(max_iterations):
        new_value = math.fsum(
            interference_count(value, offset, period) * c
            for c, period, offset in flow_list
        )
        if new_value <= value + 1e-9:
            return max(value, new_value)
        value = new_value
    raise ConvergenceError(
        f"busy-period iteration did not converge within {max_iterations} steps"
    )


def candidate_instants(
    competitors: Dict[str, Tuple[float, float, float]],
    horizon: float,
) -> List[float]:
    """Release instants where the trajectory workload can peak.

    Returns ``0`` plus every jump instant ``k * T_j - A_j`` of every
    competitor counter that falls inside ``(0, horizon)``, sorted and
    deduplicated.

    Every emitted instant is *canonical*: the smallest float ``t`` at
    which :func:`interference_count` has actually jumped to ``1 + k``.
    The raw ``fl(k * T - A)`` rounding can land one ulp to either side
    of that float — early, and the counter has not jumped yet at the
    emitted candidate; late, and two flows whose jump instants coincide
    in exact arithmetic emit floats one ulp apart, evaluating the same
    candidate twice with values that disagree under re-association.
    Nudging to the canonical float fixes both, and makes the exact
    set-based deduplication sufficient.
    """
    instants = {0.0}
    for _c, period, offset in competitors.values():
        k = math.floor(offset / period) + 1
        while True:
            t = k * period - offset
            if t >= horizon:
                break
            if t > 0.0:
                t = _canonical_jump(k, period, offset)
                if 0.0 < t < horizon:
                    instants.add(t)
            k += 1
    return sorted(instants)


def _canonical_jump(k: int, period: float, offset: float) -> float:
    """Smallest float ``t`` at which the counter has reached ``1 + k``.

    The raw ``fl(k * period - offset)`` estimate brackets the true jump
    within a few rounding errors; a float bisection then pins the first
    ``t`` whose (rounded) ``t + offset`` crosses the exact boundary.
    Bisection — not ulp-stepping — because under heavy cancellation
    (``t`` many orders of magnitude below ``offset``) millions of
    consecutive ``t`` floats can share one ``fl(t + offset)`` value.

    Returns ``0.0`` when the jump happens at or before zero (the caller
    only keeps instants strictly inside ``(0, horizon)``).
    """
    target = 1 + k
    t = k * period - offset
    if interference_count(t, offset, period) >= target:
        step = max(math.ulp(t), math.ulp(offset))
        lo = t - step
        while lo > 0.0 and interference_count(lo, offset, period) >= target:
            step *= 2.0
            lo = t - step
        if lo <= 0.0:
            if interference_count(0.0, offset, period) >= target:
                return 0.0
            lo = 0.0
        hi = t
    else:
        step = max(math.ulp(t), math.ulp(t + offset))
        hi = t + step
        while interference_count(hi, offset, period) < target:
            step *= 2.0
            hi = t + step
        lo = t
    # invariant: count(lo) < target <= count(hi); shrink to adjacency
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid <= lo or mid >= hi:
            return hi
        if interference_count(mid, offset, period) >= target:
            hi = mid
        else:
            lo = mid
