#!/usr/bin/env python
"""Quickstart: build a small AFDX network and bound its delays.

Builds the paper's Fig. 2 sample configuration from scratch with the
public API (five emitting end systems, three switches, five Virtual
Links), runs both worst-case analyses and prints per-path bounds — the
same numbers as Sec. II-B of the paper.

Run with:  python examples/quickstart.py
"""

from repro import NetworkBuilder
from repro.core import analyze_network


def build_network():
    """The paper's Fig. 2 configuration, assembled by hand."""
    builder = (
        NetworkBuilder(name="quickstart", switch_latency_us=16.0)
        .switches("S1", "S2", "S3")
        .end_systems("e1", "e2", "e3", "e4", "e5", "e6", "e7")
        .link("e1", "S1")
        .link("e2", "S1")
        .link("e3", "S2")
        .link("e4", "S2")
        .link("e5", "S2")
        .link("S1", "S3")
        .link("S2", "S3")
        .link("S3", "e6")
        .link("S3", "e7")
    )
    # all VLs: BAG 4 ms, frames of 500 B (40 us at 100 Mb/s)
    for index, source in enumerate(["e1", "e2", "e3", "e4", "e5"], start=1):
        builder.virtual_link(
            f"v{index}",
            source=source,
            destinations=["e7" if index == 5 else "e6"],
            bag_ms=4,
            s_max_bytes=500,
        )
    return builder.build()


def main():
    network = build_network()
    print(f"analyzing {network!r}\n")

    result = analyze_network(network)
    header = f"{'VL path':<10}{'route':<24}{'WCNC':>10}{'Traj':>10}{'best':>10}"
    print(header)
    print("-" * len(header))
    for path in result.path_list():
        route = " -> ".join(path.node_path)
        print(
            f"{path.flow:<10}{route:<24}{path.network_calculus_us:>10.1f}"
            f"{path.trajectory_us:>10.1f}{path.best_us:>10.1f}"
        )

    print()
    print(result.stats.as_table())
    print(
        "\nEvery bound is in microseconds, measured from frame release at "
        "the source ES\nto complete reception at the destination ES."
    )


if __name__ == "__main__":
    main()
