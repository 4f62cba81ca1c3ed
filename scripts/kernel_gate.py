"""Kernel-equivalence gate (run by ``scripts/check.sh``).

Two product kernels, two test oracles.  Part one is Network Calculus:
the product propagation reads the network's routing table, folds each
input-link group into one ``(rate, burst)`` pair and bounds every port
with the flat-float port kernel (docs/PERFORMANCE.md, "Network
Calculus"); its ground truth is the per-flow curve-object propagation
in ``tests/netcalc/reference_analyzer.py``.  On every scenario below
plus the 64-VL industrial configurations of seeds 1-8, the 300-VL
configuration and nine configurations of ``CorpusSpec(base_seed=701)``,
with grouping on and off and at 0 and 20 bytes of frame overhead,
every port's
``delay_us``, ``backlog_bits``, ``utilization``, ``n_flows`` and
``n_groups`` and every path's ``total_us`` must equal the oracle's
**exactly**.  The trajectory oracle below takes its ``Smax`` seed
from the product NC, so only this part sees an NC float move.

Part two is the trajectory analyzer, which ships one sweep kernel (flat per-port
competitor tables, batched busy-period folds, shared-subpath
memoization and a proven candidate-dominance prune — see
docs/PERFORMANCE.md).  Its ground truth is the test oracle in
``tests/trajectory/reference_kernel.py``: the straight transcription of
the paper's per-candidate walk.  The contract is Zippo & Stea's:
*faster, not looser*.  This gate enforces it bit for bit:

1. On every scenario below, every product execution shape (a plain
   run, a cold-cache run and a warm-cache run) yields per-path bounds
   equal to the oracle's **exactly** — every float field and the
   competitor count; only ``n_candidates`` may be *smaller* (the
   dominance prune skips candidates it proves cannot win).
2. The product is self-consistent across execution shapes: the plain
   run and the cold and warm incremental cache runs all yield
   byte-identical deterministic :class:`CostLedger` sections.
3. Product and oracle ledger sections agree after the
   candidate-evaluation counters (the only prune-dependent numbers)
   are dropped.
4. Both fold paths face the oracle: in each serialization mode, over
   its scenarios, the one-frame screen (``_one_frame``) accepts at
   least one tree-port batch and declines at least one, which then
   folds exactly (``_batch_fold``).

Any violation prints the offending scenario and exits non-zero.
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.batch.corpus import CorpusSpec, corpus_network  # noqa: E402
from repro.configs import fig1_network, fig2_network  # noqa: E402
from repro.configs.industrial import (  # noqa: E402
    IndustrialConfigSpec,
    industrial_network,
)
from repro.configs.random_topology import random_network  # noqa: E402
from repro.incremental.cache import BoundCache  # noqa: E402
from repro.netcalc.analyzer import analyze_network_calculus  # noqa: E402
from repro.obs.costmodel import deterministic_section  # noqa: E402
from repro.trajectory import analyzer as trajectory_kernel  # noqa: E402
from repro.trajectory.analyzer import analyze_trajectory  # noqa: E402
from tests.netcalc.reference_analyzer import (  # noqa: E402
    ReferenceNetworkCalculusAnalyzer,
)
from tests.trajectory.reference_kernel import (  # noqa: E402
    ReferenceTrajectoryAnalyzer,
)

_FLOAT_FIELDS = (
    "total_us",
    "critical_instant_us",
    "busy_period_us",
    "workload_us",
    "transition_us",
    "latency_us",
    "serialization_gain_us",
)


def _scenarios():
    yield "fig1/paper", fig1_network(), "paper"
    yield "fig1/windowed", fig1_network(), "windowed"
    yield "fig1/safe", fig1_network(), "safe"
    yield "fig2/paper", fig2_network(), "paper"
    yield "fig2/windowed", fig2_network(), "windowed"
    yield "fig2/safe", fig2_network(), "safe"
    yield (
        "random-589/safe",
        random_network(589, n_switches=3, n_end_systems=6, n_virtual_links=6),
        "safe",
    )
    # negative offsets: the one-frame screen declines batches here,
    # which fig1 and fig2 never make it do in `paper` mode
    yield (
        "random-589/paper",
        random_network(589, n_switches=3, n_end_systems=6, n_virtual_links=6),
        "paper",
    )
    yield (
        "random-7/windowed",
        random_network(7, n_switches=3, n_end_systems=8, n_virtual_links=8),
        "windowed",
    )
    yield (
        "industrial-120/windowed",
        industrial_network(IndustrialConfigSpec(n_virtual_links=120)),
        "windowed",
    )
    # wide safe-mode batches, cold and warm: the `max(offset, alt)`
    # branch of the batch fold runs on both, and only on the 120-VL
    # config does `alt` ever win
    yield (
        "industrial-64-seed7/safe",
        industrial_network(IndustrialConfigSpec(seed=7, n_virtual_links=64)),
        "safe",
    )
    yield (
        "industrial-120/safe",
        industrial_network(IndustrialConfigSpec(n_virtual_links=120)),
        "safe",
    )


_NC_PORT_FIELDS = ("delay_us", "backlog_bits", "utilization", "n_flows", "n_groups")


#: configs of ``CorpusSpec(base_seed=701)`` the NC part diffs: the base,
#: then edited configs spread over the corpus
_NC_CORPUS_SAMPLE = (0, 1, 2, 10, 11, 57, 99, 150, 199)


def _nc_networks():
    """Every scenario's network once, the 64-VL configs of seeds 1-8,
    the 300-VL config and a sample of one seeded corpus."""
    seen = set()
    for scenario, network, _mode in _scenarios():
        name = scenario.split("/")[0]
        if name not in seen:
            seen.add(name)
            yield name, network
    for seed in range(1, 9):
        name = f"industrial-64-seed{seed}"
        if name not in seen:
            seen.add(name)
            yield name, industrial_network(
                IndustrialConfigSpec(seed=seed, n_virtual_links=64)
            )
    yield "industrial-300", industrial_network(IndustrialConfigSpec(n_virtual_links=300))
    spec = CorpusSpec(base_seed=701)
    for index in _NC_CORPUS_SAMPLE:
        yield f"corpus-701-{index}", corpus_network(spec, index)


def _check_netcalc():
    for name, network in _nc_networks():
        for grouping in (True, False):
            for overhead in (0.0, 20.0):
                scenario = f"{name}/nc-grouping-{'on' if grouping else 'off'}-{overhead:g}B"
                reference = ReferenceNetworkCalculusAnalyzer(
                    network, grouping=grouping, frame_overhead_bytes=overhead
                ).analyze()
                product = analyze_network_calculus(
                    network, grouping=grouping, frame_overhead_bytes=overhead
                )
                if set(reference.ports) != set(product.ports):
                    _fail(scenario, "port sets differ")
                for port_id, ref in reference.ports.items():
                    got = product.ports[port_id]
                    for field in _NC_PORT_FIELDS:
                        if getattr(ref, field) != getattr(got, field):
                            _fail(
                                scenario,
                                f"port {port_id} {field} "
                                f"{getattr(ref, field)!r} != {getattr(got, field)!r}",
                            )
                if set(reference.paths) != set(product.paths):
                    _fail(scenario, "path key sets differ")
                for key, ref in reference.paths.items():
                    if ref.total_us != product.paths[key].total_us:
                        _fail(
                            scenario,
                            f"{key} total_us {ref.total_us!r} != "
                            f"{product.paths[key].total_us!r}",
                        )
        print(
            f"  {name}: NC ports and paths bit-identical to the oracle "
            "(grouping on/off, 0/20 B overhead)"
        )


def _fail(scenario, message):
    print(f"kernel gate FAILED on {scenario}: {message}")
    sys.exit(1)


def _check_paths(scenario, label, reference, candidate):
    if set(reference.paths) != set(candidate.paths):
        _fail(scenario, f"{label}: path key sets differ")
    for key in reference.paths:
        ref, fast = reference.paths[key], candidate.paths[key]
        for field in _FLOAT_FIELDS:
            if getattr(ref, field) != getattr(fast, field):
                _fail(
                    scenario,
                    f"{label}: {key} {field} "
                    f"{getattr(ref, field)!r} != {getattr(fast, field)!r}",
                )
        if ref.n_competitors != fast.n_competitors:
            _fail(scenario, f"{label}: {key} n_competitors differ")
        if fast.n_candidates > ref.n_candidates:
            _fail(
                scenario,
                f"{label}: {key} product evaluated more candidates "
                f"({fast.n_candidates} > {ref.n_candidates}) — the prune "
                "must only ever skip work",
            )


def _scrub_candidates(value):
    """Recursively drop every candidate-evaluation counter."""
    if isinstance(value, dict):
        return {
            key: _scrub_candidates(entry)
            for key, entry in value.items()
            if "candidate" not in key
        }
    if isinstance(value, list):
        return [_scrub_candidates(entry) for entry in value]
    return value


def _ledger_section(result):
    assert result.stats is not None, "collect_stats run lost its ledger"
    return deterministic_section(result.stats["cost"])


def main():
    _check_netcalc()
    one_frame = trajectory_kernel._one_frame
    # `_one_frame` verdicts per mode; the product reads the module
    # global on every call, so a wrapper sees each tree-port batch
    screened = {}
    for scenario, network, mode in _scenarios():
        verdicts = screened.setdefault(mode, Counter())

        def counted(lo, hi, period_min, horizon, verdicts=verdicts):
            verdict = one_frame(lo, hi, period_min, horizon)
            verdicts[verdict] += 1
            return verdict

        trajectory_kernel._one_frame = counted
        reference = ReferenceTrajectoryAnalyzer(
            network, serialization=mode, collect_stats=True
        ).analyze()

        product = analyze_trajectory(network, serialization=mode, collect_stats=True)
        _check_paths(scenario, "plain run vs oracle", reference, product)

        with tempfile.TemporaryDirectory(prefix="afdx-kernel-gate-") as cache:
            cold = analyze_trajectory(
                network, serialization=mode, collect_stats=True,
                cache=BoundCache(cache_dir=cache),
            )
            _check_paths(scenario, "cold cache vs oracle", reference, cold)
            warm = analyze_trajectory(
                network, serialization=mode, collect_stats=True,
                cache=BoundCache(cache_dir=cache),
            )
            _check_paths(scenario, "warm cache vs oracle", reference, warm)

        # deterministic ledger sections: byte-identical across every
        # product execution shape...
        section = _ledger_section(product)
        for label, result in (("cold cache", cold), ("warm cache", warm)):
            if _ledger_section(result) != section:
                _fail(scenario, f"ledger section drifted under {label}")
        # ...and equal to the oracle's once the prune-dependent
        # candidate counters are dropped
        if _scrub_candidates(section) != _scrub_candidates(
            _ledger_section(reference)
        ):
            _fail(scenario, "product and oracle ledger sections differ "
                            "beyond candidate evaluations")

        pruned = sum(
            reference.paths[key].n_candidates - product.paths[key].n_candidates
            for key in reference.paths
        )
        print(
            f"  {scenario}: {len(reference.paths)} paths bit-identical to "
            f"the oracle (3 shapes), ledgers agree, {pruned} candidates pruned"
        )
    for mode, verdicts in screened.items():
        print(
            f"  {mode}: {verdicts[True]} batches folded as one frame each, "
            f"{verdicts[False]} folded exactly"
        )
        if not verdicts[True] or not verdicts[False]:
            _fail(f"every {mode} scenario", "a fold path never ran against the oracle")
    print("kernel gate OK")


if __name__ == "__main__":
    main()
