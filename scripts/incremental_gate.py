"""Incremental-equivalence gate (run by ``scripts/check.sh``).

Replays a seeded 30-edit admission scenario on a ``random_network``
and demands that every incremental result is *exactly* — bit for bit —
the result of a cold full analysis of the same configuration:

1. a chained :class:`~repro.incremental.delta.DeltaAnalyzer` with a
   disk-backed cache, compared against cold NC + trajectory per step;
   the garbage collector must be enabled after every ``apply`` (the
   analyses pause it only for their own run), and the session, engine
   dropped, must leave the collector no cyclic garbage to free;
2. the final configuration through NC and a trajectory run seeded
   from it, sharing the (now warm) ``--cache-dir``: both must be
   served whole from the cache, with zero misses (the seeded
   trajectory run must still probe its whole result);
3. a fresh engine on the same directory replaying the whole scenario
   warm (the interactive "reopen the tool" path), again with zero
   misses: every configuration of the replay was analyzed before, so
   the whole-result tier alone must serve it.

Any mismatch prints the offending step and exits non-zero.
"""

import gc
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.configs.random_topology import random_network  # noqa: E402
from repro.incremental import DeltaAnalyzer  # noqa: E402
from repro.incremental.cache import BoundCache  # noqa: E402
from repro.incremental.edits import (  # noqa: E402
    AddVL,
    RemoveVL,
    RerouteVL,
    ResizeVL,
    RetimeVL,
)
from repro.netcalc.analyzer import analyze_network_calculus  # noqa: E402
from repro.trajectory.analyzer import analyze_trajectory  # noqa: E402

SEED = 30  # network + edit stream; change only with the scenario
N_EDITS = 30


def _random_edit(rng, network, removed):
    """One valid, load-non-increasing edit against the current network."""
    live = sorted(network.virtual_links)
    ops = ["retime", "retime", "resize", "reroute"]  # retime dominates
    if removed:
        ops.append("add")
    if len(live) > 3:
        ops.append("remove")
    op = rng.choice(ops)
    if op == "add":
        name = rng.choice(sorted(removed))
        return AddVL(vl=removed.pop(name))
    name = rng.choice(live)
    vl = network.vl(name)
    if op == "remove":
        removed[name] = vl
        return RemoveVL(name=name)
    if op == "resize":
        return ResizeVL(name=name, s_max_bytes=max(64, vl.s_max_bytes // 2))
    if op == "reroute":
        return RerouteVL(name=name, paths=vl.paths[:1])
    return RetimeVL(name=name, bag_ms=min(vl.bag_ms * 2, 1024.0))


def _expect(step, label, incremental, cold):
    if incremental != cold:
        print(f"incremental gate FAILED at {step}: {label} diverged from cold run")
        sys.exit(1)


def _expect_no_misses(label, cache):
    misses = cache.stats()["misses"]
    if misses:
        print(f"incremental gate FAILED: {label} missed the warm cache {misses} time(s)")
        sys.exit(1)


def _chained_session(cache_dir):
    """The chained session, each step diffed against cold runs; returns
    the final network and the edits."""
    network = random_network(SEED, n_switches=3, n_end_systems=6, n_virtual_links=10)
    rng = random.Random(SEED)
    engine = DeltaAnalyzer(network, cache_dir=cache_dir)
    engine.analyze_base()
    removed = {}
    edits = []
    for step in range(1, N_EDITS + 1):
        edit = _random_edit(rng, engine.network, removed)
        edits.append(edit)
        delta = engine.apply([edit])
        if not gc.isenabled():
            print(f"incremental gate FAILED at edit #{step}: "
                  "apply left the garbage collector disabled")
            sys.exit(1)
        cold_nc = analyze_network_calculus(engine.network)
        cold_tr = analyze_trajectory(engine.network)
        _expect(f"edit #{step} ({type(edit).__name__})", "NC ports",
                delta.netcalc.ports, cold_nc.ports)
        _expect(f"edit #{step} ({type(edit).__name__})", "NC paths",
                delta.netcalc.paths, cold_nc.paths)
        _expect(f"edit #{step} ({type(edit).__name__})", "trajectory paths",
                delta.trajectory.paths, cold_tr.paths)
    return engine.network, edits


def _cyclic_garbage(call):
    """``call()``'s result, and the objects the cyclic collector found
    unreachable while it ran and in a full collection after it."""
    freed = [0]

    def count(phase, info):
        if phase == "stop":
            freed[0] += info["collected"]

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = call()
        gc.collect()
    finally:
        gc.callbacks.remove(count)
    return result, freed[0]


def _run(cache_dir):
    (final, edits), garbage = _cyclic_garbage(lambda: _chained_session(cache_dir))
    if garbage:
        print(f"incremental gate FAILED: the chained session left {garbage} "
              "objects of cyclic garbage")
        sys.exit(1)
    print(f"  {N_EDITS} incremental steps bit-identical to cold analysis; "
          "collector enabled after every apply, no cyclic garbage")

    cold_nc = analyze_network_calculus(final)
    cold_tr = analyze_trajectory(final)

    # the final configuration through the warm cache directory, as
    # `afdx analyze --cache-dir` runs it: served whole (the trajectory
    # run is seeded from the NC result and still counts as
    # self-seeded), so it records no miss and reports one result hit
    # per analysis in its ledgers
    label = "analyze over the warm cache dir"
    cache = BoundCache(cache_dir=cache_dir)
    nc = analyze_network_calculus(final, collect_stats=True, cache=cache)
    tr = analyze_trajectory(final, collect_stats=True, cache=cache, nc_result=nc)
    _expect(label, "NC paths", nc.paths, cold_nc.paths)
    _expect(label, "trajectory paths", tr.paths, cold_tr.paths)
    _expect_no_misses(label, cache)
    for name, result in (("NC", nc), ("trajectory", tr)):
        _expect(label, f"{name} ledger cache section",
                result.stats["cost"]["cache"],
                {"result": {"hits": 1, "misses": 0}})
    print("  final configuration over the warm cache dir bit-identical; "
          "served whole with no miss")

    # a fresh engine replays the whole scenario from disk
    warm = DeltaAnalyzer(
        random_network(SEED, n_switches=3, n_end_systems=6, n_virtual_links=10),
        cache_dir=cache_dir,
    )
    warm.analyze_base()
    for step, edit in enumerate(edits, 1):
        delta = warm.apply([edit])
        if step == len(edits):
            _expect("warm replay (final)", "NC paths", delta.netcalc.paths, cold_nc.paths)
            _expect("warm replay (final)", "trajectory paths",
                    delta.trajectory.paths, cold_tr.paths)
    totals = warm.cache.stats()
    if totals["disk_hits"] == 0:
        print("incremental gate FAILED: warm replay never touched the disk cache")
        sys.exit(1)
    _expect_no_misses("warm replay", warm.cache)
    print(f"  warm replay bit-identical ({totals['disk_hits']} disk hits, no miss)")


def main():
    with tempfile.TemporaryDirectory(prefix="afdx-gate-") as cache_dir:
        _run(cache_dir)
    print("incremental gate OK")


if __name__ == "__main__":
    main()
