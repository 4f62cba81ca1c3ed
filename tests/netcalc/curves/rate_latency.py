"""Rate-latency service curves.

An AFDX output port stores frames in a FIFO buffer and clocks them onto
a full-duplex link at rate ``R`` after a bounded technological latency
``T`` (switching fabric traversal, 16 us on the switches considered by
the paper).  Such a port offers the service curve
``beta(t) = R * (t - T)+`` to the aggregate of the flows it serves.
"""

from __future__ import annotations

from dataclasses import dataclass

from tests.netcalc.curves.piecewise import PiecewiseCurve

__all__ = ["RateLatency"]


@dataclass(frozen=True)
class RateLatency:
    """The service curve ``rate * (t - latency)+``.

    Attributes
    ----------
    rate:
        Guaranteed service rate in bits per microsecond (the link rate
        for an AFDX output port).
    latency:
        Worst-case dead time in microseconds before service starts.
    """

    rate: float
    latency: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"service rate must be positive, got {self.rate}")
        if self.latency < 0:
            raise ValueError(f"service latency must be >= 0, got {self.latency}")

    def curve(self) -> PiecewiseCurve:
        """This service curve as a general piecewise-linear curve."""
        return PiecewiseCurve.rate_latency(self.rate, self.latency)

    def __call__(self, t: float) -> float:
        """Evaluate ``rate * (t - latency)+``."""
        if t < 0:
            raise ValueError(f"service curves are defined on [0, +inf), got t={t}")
        return self.rate * max(0.0, t - self.latency)

    def convolve(self, other: "RateLatency") -> "RateLatency":
        """Min-plus convolution: the service curve of two ports in series.

        ``beta_{R1,T1} (x) beta_{R2,T2} = beta_{min(R1,R2), T1+T2}``
        (Le Boudec & Thiran, Ch. 1).  Used by the "pay bursts only once"
        end-to-end variant and exercised by the test suite.
        """
        return RateLatency(rate=min(self.rate, other.rate), latency=self.latency + other.latency)
