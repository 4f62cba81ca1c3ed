"""Leaky-bucket (affine, token-bucket) arrival curves.

An ARINC-664 Virtual Link is admitted into the network under the traffic
contract ``alpha(t) = s_max + (s_max / BAG) * t``: at most one maximal
frame instantaneously, then at most one frame per BAG.  The
:class:`LeakyBucket` dataclass is the analysis-side image of that
contract; bursts grow as the flow crosses ports (see
:mod:`repro.netcalc.analyzer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from tests.netcalc.curves.piecewise import PiecewiseCurve

__all__ = ["LeakyBucket"]


@dataclass(frozen=True)
class LeakyBucket:
    """The affine arrival curve ``burst + rate * t``.

    Attributes
    ----------
    rate:
        Long-term rate in bits per microsecond (``s_max / BAG`` at the
        network ingress).
    burst:
        Instantaneous burst in bits (``s_max`` at the network ingress).
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"leaky-bucket rate must be >= 0, got {self.rate}")
        if self.burst < 0:
            raise ValueError(f"leaky-bucket burst must be >= 0, got {self.burst}")

    def curve(self) -> PiecewiseCurve:
        """This bucket as a general piecewise-linear curve."""
        return PiecewiseCurve.affine(self.rate, self.burst)

    def __call__(self, t: float) -> float:
        """Evaluate ``burst + rate * t``."""
        if t < 0:
            raise ValueError(f"arrival curves are defined on [0, +inf), got t={t}")
        return self.burst + self.rate * t

    def __add__(self, other: "LeakyBucket") -> "LeakyBucket":
        """Aggregate of two independent flows (bursts and rates add)."""
        if not isinstance(other, LeakyBucket):
            return NotImplemented
        return LeakyBucket(rate=self.rate + other.rate, burst=self.burst + other.burst)

    def delayed(self, delay: float) -> "LeakyBucket":
        """Arrival curve after a stage with delay bound ``delay``.

        A flow that is ``(rate, burst)``-constrained at the input of a
        system whose delay is at most ``delay`` is
        ``(rate, burst + rate * delay)``-constrained at its output
        (Le Boudec & Thiran, Thm. 1.4.3 specialised to affine curves).
        This burst inflation is the mechanism by which smaller BAGs
        (larger rates) propagate into larger downstream Network Calculus
        bounds — the effect visible in the paper's Fig. 8.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return LeakyBucket(rate=self.rate, burst=self.burst + self.rate * delay)
