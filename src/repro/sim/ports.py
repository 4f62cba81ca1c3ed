"""Simulated FIFO output ports.

Each :class:`SimOutputPort` mirrors the AFDX switch architecture of the
paper's Sec. II-A: no input buffering, one FIFO buffer per output port,
frames clocked onto the link at the link rate, one at a time,
non-preemptively.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.frames import Frame

__all__ = ["SimOutputPort"]

#: Callback invoked when a frame's last bit leaves the port:
#: ``(frame, completion_time_us)``.
DeliveryCallback = Callable[[Frame, float], None]


class SimOutputPort:
    """A FIFO queue served at link rate.

    Parameters
    ----------
    simulator:
        The event engine driving this port.
    rate_bits_per_us:
        Link transmission rate.
    on_delivered:
        Called at the instant the frame's transmission completes (the
        frame is then entirely received by the downstream node — AFDX
        switches are store-and-forward).
    """

    def __init__(
        self,
        simulator: Simulator,
        rate_bits_per_us: float,
        on_delivered: DeliveryCallback,
    ):
        if rate_bits_per_us <= 0:
            raise ValueError(f"port rate must be positive, got {rate_bits_per_us}")
        self._sim = simulator
        self._rate = rate_bits_per_us
        self._on_delivered = on_delivered
        self._queue: Deque[Frame] = deque()
        self._transmitting: Optional[Frame] = None
        self._transmission_started = 0.0
        self._peak_backlog_bits = 0.0
        self._busy_bits = 0.0
        self._arrived_bits = 0.0

    # ------------------------------------------------------------------

    @property
    def backlog_bits(self) -> float:
        """Bits currently buffered, fluid convention.

        Arrived minus served bits, with the frame on the wire counted
        pro rata — the convention of the Network Calculus backlog bound
        this quantity is validated against.
        """
        served = self._busy_bits
        if self._transmitting is not None:
            served += (self._sim.now - self._transmission_started) * self._rate
        return max(0.0, self._arrived_bits - served)

    @property
    def peak_backlog_bits(self) -> float:
        """Largest backlog observed so far (buffer-dimensioning witness)."""
        return self._peak_backlog_bits

    @property
    def transmitted_bits(self) -> float:
        """Total bits fully transmitted so far."""
        return self._busy_bits

    def utilization(self) -> float:
        """Fraction of elapsed time the port spent transmitting."""
        if self._sim.now <= 0:
            return 0.0
        return self._busy_bits / self._rate / self._sim.now

    # ------------------------------------------------------------------

    def enqueue(self, frame: Frame) -> None:
        """Accept a frame into the buffer; start transmitting if idle."""
        self._queue.append(frame)
        self._arrived_bits += frame.size_bits
        self._peak_backlog_bits = max(self._peak_backlog_bits, self.backlog_bits)
        if self._transmitting is None:
            self._start_next()

    def _start_next(self) -> None:
        frame = self._queue.popleft()
        self._transmitting = frame
        self._transmission_started = self._sim.now
        duration = frame.size_bits / self._rate
        self._sim.schedule_in(duration, self._finish)

    def _finish(self) -> None:
        frame = self._transmitting
        assert frame is not None, "transmission completed on an idle port"
        self._transmitting = None
        self._busy_bits += frame.size_bits
        self._on_delivered(frame, self._sim.now)
        if self._queue:
            self._start_next()
