#!/usr/bin/env python
"""Switch buffer dimensioning from Network Calculus backlog bounds.

The paper notes (Sec. II-B) that the certification analysis "gives also
intermediate information on latency time in switch output ports, which
permits to scale the switch memory buffers and avoid buffer overflows".
This example reproduces that workflow on the Fig. 1 configuration:

* compute the per-port backlog (vertical-deviation) bounds,
* compare them with the peak buffer occupancy observed by simulation
  under the synchronized worst-case scenario,
* print the resulting FIFO sizing recommendation per output port.

Run with:  python examples/buffer_dimensioning.py
"""

import math

from repro.configs import fig1_network
from repro.netcalc import analyze_network_calculus
from repro.sim import TrafficScenario, simulate


def main():
    network = fig1_network()
    print(f"dimensioning buffers for {network!r}\n")

    nc = analyze_network_calculus(network, grouping=True)
    observed = simulate(network, TrafficScenario(duration_ms=200, synchronized=True))

    header = (
        f"{'output port':<14}{'flows':>6}{'backlog bound':>16}"
        f"{'observed peak':>16}{'headroom':>10}"
    )
    print(header)
    print("-" * len(header))
    bound_sizes = []
    for port_id in sorted(nc.ports):
        analysis = nc.ports[port_id]
        if network.node(port_id[0]).is_end_system:
            continue  # ES buffers are host memory; size switch ports only
        peak = observed.peak_backlog_bits.get(port_id, 0.0)
        bound_bytes = analysis.backlog_bits / 8
        bound_sizes.append(bound_bytes)
        ratio = peak / analysis.backlog_bits if analysis.backlog_bits else 0.0
        print(
            f"{port_id[0] + '->' + port_id[1]:<14}{analysis.n_flows:>6}"
            f"{bound_bytes:>13.0f} B{peak / 8:>13.0f} B{100 * (1 - ratio):>9.0f}%"
        )

    print(
        f"\ntotal switch buffer budget: {math.fsum(bound_sizes) / 1024:.1f} KiB "
        "(provisioning each FIFO at its bound guarantees zero frame loss)"
    )
    print(
        "observed peaks come from a synchronized saturated scenario; "
        "the analytic bound always dominates them."
    )


if __name__ == "__main__":
    main()
