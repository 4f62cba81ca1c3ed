"""``whatif-120``: an interactive what-if session with a disk cache.

One client in a closed loop runs sessions on the 120-VL industrial
config until the measured window closes. A session opens a
``DeltaAnalyzer`` on a fresh ``cache_dir`` (set-up), applies a stream
of single edits through ``DeltaAnalyzer.apply`` (pass 1: cache writes),
then three times opens a new ``DeltaAnalyzer`` on the same directory
and replays the stream (pass 2, the "reopen the tool" path: cache reads).
Every session does the same work.

The configuration is the generator's own seed and does not vary with
``--seed``, which picks the edits' targets: 120-VL configs of different
generator seeds differ by up to 1.8x in per-edit cost, which would
swamp any change under test.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    Context,
    Deadline,
    Outcome,
    median,
    normalised_ms,
    peak_rss_mb,
    ratio,
    reference_median_s,
    timed,
    timed_normalised,
)
from layers import cold_analysis, trace_analysis, work_counts

from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.incremental import DeltaAnalyzer
from repro.incremental.cache import BoundCache
from repro.incremental.delta import dirty_closure
from repro.incremental.edits import AddVL, RemoveVL, RerouteVL, ResizeVL, RetimeVL, apply_edits
from repro.network.serialization import network_to_json
from repro.network.virtual_link import STANDARD_BAGS_MS
from repro.obs.history import analysis_bounds_digest

#: The edited configuration: 120 VLs, the industrial generator's default seed.
CONFIG = IndustrialConfigSpec(n_virtual_links=120)
#: The kinds of edit in one session's stream, in order: three times the
#: admission-control mix, each kind once and retime, the main repair
#: move, twice. Each add re-admits the VL removed before it into a
#: network changed since, so no edit returns to a configuration the
#: cache has already seen. A fixed mix keeps sessions of different
#: seeds comparable; eighteen targets keep the seed's choice of targets
#: from moving the median (twelve left a 0.10-0.14 spread across seeds).
EDIT_KINDS = ("remove", "retime", "resize", "reroute", "add", "retime") * 3
#: Times pass 2 reopens the cache directory and replays the stream.
REOPENS = 3
#: Fewest set-ups one run times (extra set-ups run if fewer sessions fit).
MIN_SETUPS = 3
#: Seconds spent repeating the traced base-config layer decomposition.
TRACE_BUDGET_S = 3.0


#: Which VLs each kind of edit may target, so that every edit changes something.
ELIGIBLE = {
    "remove": lambda vl: True,
    "retime": lambda vl: vl.bag_ms < STANDARD_BAGS_MS[-1],
    "resize": lambda vl: vl.s_max_bytes // 2 >= vl.s_min_bytes,
    "reroute": lambda vl: len(vl.paths) > 1,
}


def edit_stream(network, seed: int) -> List:
    """The session's edits: kinds in ``EDIT_KINDS`` order, targets drawn from
    ``seed`` against the configuration as the earlier edits left it."""
    rng = random.Random(seed)
    removed = None
    edits = []
    for kind in EDIT_KINDS:
        if kind == "add":
            edit = AddVL(vl=removed)
        else:
            name = rng.choice(
                [n for n in sorted(network.virtual_links) if ELIGIBLE[kind](network.vl(n))]
            )
            vl = network.vl(name)
            if kind == "remove":
                removed = vl
                edit = RemoveVL(name=name)
            elif kind == "retime":
                edit = RetimeVL(name=name, bag_ms=vl.bag_ms * 2)
            elif kind == "resize":
                edit = ResizeVL(name=name, s_max_bytes=vl.s_max_bytes // 2)
            else:
                edit = RerouteVL(name=name, paths=vl.paths[:1])
        network, _impact = apply_edits(network, [edit])
        edits.append(edit)
    return edits


class TimedBoundCache(BoundCache):
    """A ``BoundCache`` that times every ``get`` and ``put`` call."""

    def __init__(self, cache_dir: Path) -> None:
        super().__init__(cache_dir=cache_dir)
        self.get_s: List[float] = []
        self.put_s: List[float] = []

    def get(self, namespace, fingerprint):
        started = time.perf_counter()
        try:
            return super().get(namespace, fingerprint)
        finally:
            self.get_s.append(time.perf_counter() - started)

    def put(self, namespace, fingerprint, value):
        started = time.perf_counter()
        try:
            super().put(namespace, fingerprint, value)
        finally:
            self.put_s.append(time.perf_counter() - started)

    def drain_ms(self) -> Tuple[float, float]:
        """(get, put) milliseconds since the last drain."""
        spent = (1000.0 * math.fsum(self.get_s), 1000.0 * math.fsum(self.put_s))
        self.get_s.clear()
        self.put_s.clear()
        return spent


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    # a session writes thousands of cache files: flush what earlier runs
    # left for the kernel to write back, so it does not land in this window
    os.sync()
    base = industrial_network(CONFIG)
    edits = edit_stream(base, ctx.seed)
    dirs = (ctx.work / f"cache-{index}" for index in itertools.count())
    setup: List[float] = []
    setup_norm: List[float] = []
    edit_ms: List[float] = []
    edit_norm_ms: List[float] = []
    replay_ms: List[float] = []
    replay_norm_ms: List[float] = []
    reopen_ms: List[float] = []
    digests: List[str] = []
    work: List[Dict[str, int]] = []

    def open_session(cache_dir: Path) -> DeltaAnalyzer:
        engine = DeltaAnalyzer(industrial_network(CONFIG), cache_dir=cache_dir)
        engine.analyze_base()
        return engine

    deadline = Deadline(ctx.seconds)
    session_s = 0.0
    # start a session only while at least half of one still fits the window
    while not setup or deadline.elapsed() + session_s / 2 < ctx.seconds:
        started = deadline.elapsed()
        cache_dir = next(dirs)
        engine, seconds, seconds_ms = timed_normalised(lambda: open_session(cache_dir))
        setup.append(seconds)
        setup_norm.append(seconds_ms / 1000.0)
        for step, edit in enumerate(edits):
            delta, seconds, normalised = timed_normalised(lambda: engine.apply([edit]))
            edit_ms.append(1000.0 * seconds)
            edit_norm_ms.append(normalised)
            digest = analysis_bounds_digest(delta.netcalc, delta.trajectory)
            if len(digests) < len(edits):
                digests.append(digest)
                work.append(work_counts(delta.netcalc, delta.trajectory))
            else:
                outcome.check(digest == digests[step], f"pass-1 bounds of edit {step + 1} vary")
        for _ in range(REOPENS):
            reopened = DeltaAnalyzer(base, cache_dir=cache_dir)
            reopen_ms.append(1000.0 * timed(reopened.analyze_base)[1])
            # replays are too short to bracket one by one: the reference
            # calls bracket the whole pass
            before = reference_median_s()
            replayed = [timed(lambda: reopened.apply([edit])) for edit in edits]
            after = reference_median_s()
            for step, (delta, seconds) in enumerate(replayed):
                replay_ms.append(1000.0 * seconds)
                replay_norm_ms.append(normalised_ms(seconds, before, after))
                outcome.check(
                    analysis_bounds_digest(delta.netcalc, delta.trajectory) == digests[step],
                    f"pass-2 bounds of edit {step + 1} differ from pass 1",
                )
        shutil.rmtree(cache_dir, ignore_errors=True)
        session_s = deadline.elapsed() - started
    rss = peak_rss_mb()
    while len(setup) < MIN_SETUPS:
        cache_dir = next(dirs)
        _, seconds, seconds_ms = timed_normalised(lambda: open_session(cache_dir))
        setup.append(seconds)
        setup_norm.append(seconds_ms / 1000.0)
        shutil.rmtree(cache_dir, ignore_errors=True)
    outcome.record = {"edit_bounds_digests": digests, "edit_work": work}

    outcome.timing("setup_s", setup, "s")
    outcome.timing("setup_norm_s", setup_norm, "s")
    outcome.timing("whatif_edit_ms", edit_ms, "ms")
    outcome.timing("whatif_reopen_base_ms", reopen_ms, "ms")
    outcome.timing("whatif_reopen_ms", replay_ms, "ms")
    outcome.timing("whatif_edit_norm_ms", edit_norm_ms, "ms")
    outcome.timing("whatif_reopen_norm_ms", replay_norm_ms, "ms")
    outcome.line("peak_rss_mb (session process)", rss, "MB")
    outcome.metrics = {
        "setup_s": median(setup_norm),
        "op_norm_ms.p50": median(edit_norm_ms),
        "repeat_norm_ms.p50": median(replay_norm_ms),
        "peak_rss_mb": rss,
    }
    if ctx.trace:
        layers, traced_edit_ms = _traced_session(ctx, outcome, base, edits, digests)
        untraced_edit_ms = median(edit_ms)
        layers["incremental.speedup_vs_cold"] = (
            layers["incremental.cold_ms.p50"] / untraced_edit_ms
        )
        layers["bench.trace_overhead_pct"] = (
            100.0 * (traced_edit_ms - untraced_edit_ms) / untraced_edit_ms
        )
        outcome.layers = layers
    return outcome


def _traced_session(
    ctx: Context, outcome: Outcome, network, edits, digests
) -> Tuple[Dict[str, float], float]:
    """Both passes again with every layer call timed, plus cold re-analysis.

    Returns the layer metrics and the traced pass-1 edit median (ms).
    """
    config = ctx.work / "base.json"
    network_to_json(network, config)
    traced = trace_analysis(str(config), TRACE_BUDGET_S)
    outcome.check(not traced.problems, "; ".join(traced.problems))
    layers = dict(traced.layers)

    cache_dir = ctx.work / "cache-traced"
    cache = TimedBoundCache(cache_dir)
    engine = DeltaAnalyzer(network, cache=cache)
    engine.analyze_base()
    cache.drain_ms()
    before = cache.stats()
    apply_ms, closure_ms, edit_ms, cold_ms, dirty_share = [], [], [], [], []
    get_ms, put_ms = [], []
    for step, (edit, expected) in enumerate(zip(edits, digests), 1):
        (edited, impact), seconds = timed(lambda: apply_edits(engine.network, [edit]))
        apply_ms.append(1000.0 * seconds)
        _, seconds = timed(lambda: dirty_closure(edited, impact.dirty_ports))
        closure_ms.append(1000.0 * seconds)
        delta, seconds = timed(lambda: engine.apply([edit]))
        edit_ms.append(1000.0 * seconds)
        spent = cache.drain_ms()
        get_ms.append(spent[0])
        put_ms.append(spent[1])
        dirty_share.append(len(delta.dirty_vl_names) / len(delta.network.virtual_links))
        (nc, trajectory), seconds = timed(lambda: cold_analysis(delta.network))
        cold_ms.append(1000.0 * seconds)
        outcome.check(
            delta.netcalc.paths == nc.paths and delta.trajectory.paths == trajectory.paths,
            f"incremental bounds of edit {step} differ from a cold analysis",
        )
        outcome.check(
            analysis_bounds_digest(delta.netcalc, delta.trajectory) == expected,
            f"traced bounds of edit {step} differ from the untraced session",
        )
    layers.update(_cache_layers("pass1", before, cache.stats(), len(edits), get_ms, put_ms))

    reopened_cache = TimedBoundCache(cache_dir)
    reopened = DeltaAnalyzer(network, cache=reopened_cache)
    reopened.analyze_base()
    reopened_cache.drain_ms()
    before = reopened_cache.stats()
    get_ms, put_ms = [], []
    for edit in edits:
        reopened.apply([edit])
        spent = reopened_cache.drain_ms()
        get_ms.append(spent[0])
        put_ms.append(spent[1])
    layers.update(
        _cache_layers("pass2", before, reopened_cache.stats(), len(edits), get_ms, put_ms)
    )
    shutil.rmtree(cache_dir, ignore_errors=True)

    layers.update(
        {
            "incremental.edits": len(edits),
            "incremental.apply_edits_ms": median(apply_ms),
            "incremental.dirty_closure_ms": median(closure_ms),
            "incremental.vls": len(network.virtual_links),
            "incremental.dirty_vl_fraction": median(dirty_share),
            "incremental.cold_ms.p50": median(cold_ms),
        }
    )
    return layers, median(edit_ms)


def _cache_layers(tag, before, after, n_edits, get_ms, put_ms) -> Dict[str, float]:
    """Per-pass cache metrics from two ``BoundCache.stats()`` snapshots."""
    diff = {name: after[name] - before.get(name, 0) for name in after}
    lookups = diff["hits"] + diff["misses"]
    return {
        f"incremental.cache_lookups.{tag}": lookups,
        f"incremental.cache_hit_ratio.{tag}": ratio(diff["hits"], lookups),
        f"incremental.disk_hit_ratio.{tag}": ratio(diff["disk_hits"], lookups),
        f"incremental.stores_per_edit.{tag}": ratio(diff["stores"], n_edits),
        f"incremental.cache_get_ms.{tag}": median(get_ms),
        f"incremental.cache_put_ms.{tag}": median(put_ms),
    }
