"""The seeded scenario corpus: determinism and cross-mode identity."""

import multiprocessing

import pytest

from repro.batch import analyze_corpus
from repro.batch.corpus import CorpusSpec, corpus_edits, corpus_network
from repro.batch.pool import WorkerPool

SPEC = CorpusSpec(configs=5, n_virtual_links=8, n_end_systems=4)


class TestCorpusGeneration:
    def test_index_zero_is_the_unedited_base(self):
        assert corpus_edits(SPEC, 0) == []

    def test_edits_are_deterministic(self):
        for index in range(SPEC.configs):
            assert corpus_edits(SPEC, index) == corpus_edits(SPEC, index)

    def test_variants_differ_from_base(self):
        base = corpus_network(SPEC, 0)
        variant = corpus_network(SPEC, 1)
        changed = [
            name
            for name in sorted(base.virtual_links)
            if (base.vl(name).bag_us, base.vl(name).s_max_bytes)
            != (variant.vl(name).bag_us, variant.vl(name).s_max_bytes)
        ]
        assert changed, "variant 1 applied no edit"

    def test_network_regeneration_is_stable(self):
        one = corpus_network(SPEC, 2)
        two = corpus_network(SPEC, 2)
        for name in sorted(one.virtual_links):
            vl, other = one.vl(name), two.vl(name)
            assert (vl.bag_us, vl.s_max_bytes, vl.s_min_bytes) == (
                other.bag_us,
                other.s_max_bytes,
                other.s_min_bytes,
            )


class TestCorpusIdentity:
    def test_all_modes_bit_identical_and_leak_free(self, tmp_path):
        sequential = analyze_corpus(SPEC, jobs=1)
        assert len(sequential.records) == SPEC.configs
        assert sequential.configs_per_s > 0.0

        with WorkerPool(2, None) as pool:
            pooled = analyze_corpus(SPEC, jobs=2, pool=pool)
            primed = analyze_corpus(
                SPEC, jobs=2, pool=pool, cache_dir=str(tmp_path)
            )
            cached = analyze_corpus(
                SPEC, jobs=2, pool=pool, cache_dir=str(tmp_path)
            )

        digests = {
            sequential.digest,
            pooled.digest,
            primed.digest,
            cached.digest,
        }
        assert len(digests) == 1, digests
        assert multiprocessing.active_children() == []

    def test_sequential_cache_matches_uncached(self, tmp_path):
        cold = analyze_corpus(SPEC, jobs=1)
        warm = analyze_corpus(SPEC, jobs=1, cache_dir=str(tmp_path))
        again = analyze_corpus(SPEC, jobs=1, cache_dir=str(tmp_path))
        assert cold.digest == warm.digest == again.digest


class TestCorpusStats:
    def test_collect_stats_exports_metrics(self):
        report = analyze_corpus(SPEC, jobs=1, collect_stats=True)
        assert report.stats["counters"]["batch.corpus.configs"] == SPEC.configs
        assert report.stats["gauges"]["batch.corpus.jobs"] == 1
        assert report.paths_bound == sum(r.n_paths for r in report.records)


class TestFleetTelemetry:
    def test_progress_run_attaches_fleet_snapshot_with_cache_rates(
        self, tmp_path
    ):
        from repro.obs.trace import ProgressHook

        progress = ProgressHook(lambda phase, done, total: None)
        baseline = analyze_corpus(SPEC, jobs=1)
        report = analyze_corpus(
            SPEC, jobs=2, progress=progress, cache_dir=str(tmp_path)
        )
        assert report.digest == baseline.digest  # telemetry never perturbs
        fleet = report.stats["fleet"]
        assert fleet["configs_done"] == SPEC.configs
        assert fleet["configs_total"] == SPEC.configs
        assert sum(fleet["lanes"].values()) == SPEC.configs
        assert all(int(lane) >= 100 for lane in fleet["lanes"])
        # a cold cache dir still produces lookups: misses count too
        assert fleet["cache_hits"] + fleet["cache_misses"] > 0

    def test_borrowed_pool_without_telemetry_stays_silent(self, tmp_path):
        from repro.obs.trace import ProgressHook

        progress = ProgressHook(lambda phase, done, total: None)
        with WorkerPool(2, None) as pool:
            report = analyze_corpus(SPEC, jobs=2, pool=pool, progress=progress)
        # the owner opened no telemetry queue -> no fleet view, no stats
        assert report.stats is None or "fleet" not in report.stats
