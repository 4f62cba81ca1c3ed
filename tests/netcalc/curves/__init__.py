"""Min-plus (network calculus) curve algebra: the Network Calculus oracle.

This package implements the small fragment of min-plus calculus needed
for deterministic AFDX delay analysis.  The product computes every
bound with the flat-float port kernel (:mod:`repro.netcalc.kernel`);
this general implementation is its differential oracle, which
``tests/netcalc/test_kernel.py`` and ``scripts/kernel_gate.py`` compare
with it by ``float.hex``:

* :class:`PiecewiseCurve` — wide-sense increasing piecewise-linear
  curves, the common representation for arrival and service curves;
* :class:`LeakyBucket` — affine arrival curves ``b + r t`` (ARINC-664
  traffic contracts: burst ``s_max``, rate ``s_max / BAG``);
* :class:`RateLatency` — service curves ``R (t - T)+`` (output port at
  link rate ``R`` with technological latency ``T``);
* the operations of :mod:`tests.netcalc.curves.operations` — sum, pointwise
  minimum, min-plus convolution of service curves, deconvolution,
  horizontal deviation (delay bound) and vertical deviation (backlog
  bound).

All times are microseconds and all data quantities bits, per
:mod:`repro.units`.
"""

from tests.netcalc.curves.piecewise import PiecewiseCurve
from tests.netcalc.curves.leaky_bucket import LeakyBucket
from tests.netcalc.curves.rate_latency import RateLatency
from tests.netcalc.curves.operations import (
    add_curves,
    deconvolve,
    horizontal_deviation,
    min_curves,
    sum_curves,
    vertical_deviation,
)

__all__ = [
    "PiecewiseCurve",
    "LeakyBucket",
    "RateLatency",
    "add_curves",
    "sum_curves",
    "min_curves",
    "horizontal_deviation",
    "vertical_deviation",
    "deconvolve",
]
