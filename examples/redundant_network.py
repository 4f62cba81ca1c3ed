#!/usr/bin/env python
"""Dual-network redundancy and mixed-priority analysis.

The paper's industrial platform uses *two redundant AFDX sub-networks*:
each frame is transmitted on networks A and B, and the receiver's
Redundancy Management (RM) delivers the first valid copy.  This example

* builds network A (the Fig. 1 configuration) and derives its network-B
  twin with `duplicate_network`,
* degrades network B (slower switches, as after a partial failure or a
  heterogeneous retrofit) to make the combination non-trivial,
* bounds every VL path on both networks with the combined approach and
  merges the results into the three redundancy figures: first-copy
  delay, loss-of-one-network delay, and the RM skew window,
* promotes two VLs to ARINC-664 high priority and shows what static
  priority queueing buys them (`repro.netcalc.priority`).

Run with:  python examples/redundant_network.py
"""

from repro.configs import fig1_network
from repro.core import analyze_network
from repro.netcalc import analyze_network_calculus, analyze_static_priority
from repro.network import Switch, combine_redundant, duplicate_network


def build_degraded_twin(network):
    """Network B with slower (24 us) switch fabrics."""
    twin = duplicate_network(network, suffix="_B")
    degraded = duplicate_network(network, suffix="_B")
    # rebuild with higher latency switches
    slow = type(twin)(rate_bits_per_us=twin.default_rate, name="fig1_B_slow")
    for name in sorted(twin.nodes):
        node = twin.nodes[name]
        if node.is_switch:
            slow.add_node(Switch(name=name, technological_latency_us=24.0))
        else:
            slow.add_node(node)
    for a, b, rate in twin.links():
        slow.add_link(a, b, rate_bits_per_us=rate)
    for name in sorted(twin.virtual_links):
        slow.add_virtual_link(twin.virtual_links[name])
    del degraded
    return slow


def main():
    network_a = fig1_network()
    network_b = build_degraded_twin(network_a)
    print(f"network A: {network_a!r}")
    print(f"network B: {network_b!r} (degraded: 24 us switch latency)\n")

    bounds_a = {k: p.best_us for k, p in analyze_network(network_a).paths.items()}
    bounds_b = {k: p.best_us for k, p in analyze_network(network_b).paths.items()}
    merged = combine_redundant(network_a, network_b, bounds_a, bounds_b)

    header = (
        f"{'VL path':<10}{'A bound':>10}{'B bound':>10}"
        f"{'first copy':>12}{'any copy':>10}{'RM skew':>10}"
    )
    print(header)
    print("-" * len(header))
    for key in sorted(merged):
        r = merged[key]
        print(
            f"{r.vl_name + '[' + str(r.path_index) + ']':<10}"
            f"{r.bound_a_us:>10.1f}{r.bound_b_us:>10.1f}"
            f"{r.first_copy_us:>12.1f}{r.any_copy_us:>10.1f}{r.skew_us:>10.1f}"
        )

    worst_skew = max(r.skew_us for r in merged.values())
    print(f"\nRM skew window must cover {worst_skew:.0f} us on this pair.\n")

    # ---- static priority study on network A --------------------------
    prioritized = network_a.copy()
    for name in ("v1", "v5"):  # latency-critical flows
        prioritized.replace_virtual_link(prioritized.vl(name).with_priority(1))

    fifo = analyze_network_calculus(prioritized)
    spq = analyze_static_priority(prioritized)
    print("static priority queueing (v1 and v5 promoted to high):")
    print(f"{'VL':<6}{'class':>6}{'FIFO bound':>12}{'SPQ bound':>12}{'delta':>9}")
    for name in sorted(prioritized.virtual_links):
        level = "high" if prioritized.vl(name).priority else "low"
        f, s = fifo.bound_us(name), spq.bound_us(name)
        print(f"{name:<6}{level:>6}{f:>12.1f}{s:>12.1f}{s - f:>+9.1f}")
    print(
        "\nhigh-priority flows tighten sharply; low-priority flows pay a "
        "bounded penalty\n(leftover service + one blocking frame), exactly "
        "the SPQ trade-off studied in the\nfollow-up AFDX literature."
    )


if __name__ == "__main__":
    main()
