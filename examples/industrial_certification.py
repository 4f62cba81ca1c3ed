#!/usr/bin/env python
"""Certification-style analysis of an industrial-scale configuration.

Mirrors the workflow behind the paper's Table I: generate the
industrial-scale configuration (~1000 VLs, >6000 paths, 8 switches,
>100 end systems), validate it against the ARINC-664 rules, bound every
VL path with both methods, and report:

* the Table I benefit statistics,
* the ten most critical VL paths (largest combined bound),
* per-switch-count breakdown of the bounds,
* the network-wide buffer budget from the Network Calculus backlog
  bounds (the paper notes the same analysis sizes switch memory).

Run with:  python examples/industrial_certification.py [n_vls]
(default 1000 — pass e.g. 200 for a quick run)
"""

import math
import sys
from collections import defaultdict

from repro.configs import IndustrialConfigSpec, industrial_network
from repro.core import AnalysisOptions, analyze_network
from repro.network.validation import validate_network


def main():
    n_vls = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    spec = IndustrialConfigSpec(n_virtual_links=n_vls)
    network = industrial_network(spec)
    print(f"generated {network!r}")

    report = validate_network(network)
    worst_util = max(report.port_utilization.values())
    print(f"validation: {'OK' if report.ok else 'INVALID'}, "
          f"max port utilization {worst_util:.3f}\n")

    # the paper's Table I credit, by name: it stays put if the default moves
    result = analyze_network(network, AnalysisOptions(serialization="windowed"))
    print(result.stats.as_table())

    print("\nten most critical VL paths (combined bound):")
    ranked = sorted(result.paths.values(), key=lambda p: -p.best_us)[:10]
    for path in ranked:
        print(
            f"  {path.flow:<14} {' -> '.join(path.node_path):<44} "
            f"{path.best_us:>9.1f} us"
        )

    by_hops = defaultdict(list)
    for path in result.paths.values():
        by_hops[len(path.node_path) - 2].append(path.best_us)
    print("\ncombined bound by number of crossed switches:")
    for hops in sorted(by_hops):
        values = by_hops[hops]
        print(
            f"  {hops} switch(es): {len(values):>5} paths, "
            f"mean {math.fsum(values) / len(values):>8.1f} us, "
            f"max {max(values):>8.1f} us"
        )

    nc = result.netcalc
    print(
        f"\nswitch buffer budget (sum of per-port NC backlog bounds): "
        f"{nc.total_buffer_bits() / 8 / 1024:.1f} KiB across {len(nc.ports)} output ports"
    )


if __name__ == "__main__":
    main()
