"""BatchAnalyzer: parallel results must be bit-identical to sequential.

The batch engine's contract is not "approximately equal" — the worker
decomposition replays the exact floating-point operations of the
sequential analyzers, so every field of every result compares equal
with ``==``, no tolerance.
"""

import json

import pytest

from repro.batch import BatchAnalyzer
from repro.cli import main
from repro.configs import fig2_network, random_network
from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.core.combined import analyze_network
from repro.errors import UnstableNetworkError
from repro.incremental.cache import CACHE_VERSION
from repro.netcalc import analyze_network_calculus
from repro.network import NetworkBuilder
from repro.network.serialization import network_to_json
from repro.obs.costmodel import deterministic_section
from repro.trajectory import analyze_trajectory

JOBS = 4


@pytest.fixture(scope="module")
def industrial():
    return industrial_network(
        IndustrialConfigSpec(n_virtual_links=60, end_systems_per_switch=4)
    )


def unstable_network():
    builder = NetworkBuilder("u").switches("SW").end_systems(
        *(f"e{i}" for i in range(11)), "d"
    )
    for i in range(11):
        builder.link(f"e{i}", "SW")
    builder.link("SW", "d")
    for i in range(11):
        builder.virtual_link(
            f"v{i}", source=f"e{i}", destinations=["d"], bag_ms=1, s_max_bytes=1518
        )
    return builder.build(validate=False)


def marginally_stable_network():
    """Passes validation (utilization < 1) but tips over with overhead.

    ``check_network`` runs on the coordinator, so the unstable-network
    error for this configuration can only originate inside a worker's
    ``analyze_port`` once per-frame wire overhead is added.
    """
    builder = NetworkBuilder("m").switches("SW").end_systems(
        *(f"e{i}" for i in range(8)), "d"
    )
    for i in range(8):
        builder.link(f"e{i}", "SW")
    builder.link("SW", "d")
    for i in range(8):
        builder.virtual_link(
            f"v{i}", source=f"e{i}", destinations=["d"], bag_ms=1, s_max_bytes=1518
        )
    return builder.build()


def assert_nc_identical(seq, par):
    assert list(seq.ports) == list(par.ports)  # same insertion order too
    for port_id in seq.ports:
        assert seq.ports[port_id] == par.ports[port_id], port_id
    assert list(seq.paths) == list(par.paths)
    for key in seq.paths:
        assert seq.paths[key] == par.paths[key], key


def assert_trajectory_identical(seq, par):
    assert seq.refinement_iterations == par.refinement_iterations
    assert seq.serialization == par.serialization
    assert list(seq.paths) == list(par.paths)
    for key in seq.paths:
        assert seq.paths[key] == par.paths[key], key


class TestBitIdenticalFig2:
    @pytest.mark.parametrize("serialization", ["paper", "windowed", "safe"])
    def test_all_three_methods(self, fig2, serialization):
        batch = BatchAnalyzer(fig2, jobs=JOBS, serialization=serialization)
        assert_nc_identical(analyze_network_calculus(fig2), batch.network_calculus())
        assert_trajectory_identical(
            analyze_trajectory(fig2, serialization=serialization), batch.trajectory()
        )
        seq = analyze_network(fig2, serialization=serialization)
        par = batch.combined()
        assert list(seq.paths) == list(par.paths)
        for key in seq.paths:
            assert seq.paths[key] == par.paths[key], key


class TestBitIdenticalIndustrial:
    def test_network_calculus(self, industrial):
        batch = BatchAnalyzer(industrial, jobs=JOBS)
        assert_nc_identical(
            analyze_network_calculus(industrial), batch.network_calculus()
        )

    def test_trajectory(self, industrial):
        batch = BatchAnalyzer(industrial, jobs=JOBS, serialization=True)
        assert_trajectory_identical(
            analyze_trajectory(industrial, serialization=True), batch.trajectory()
        )

    def test_no_grouping_combined(self, industrial):
        batch = BatchAnalyzer(industrial, jobs=2, grouping=False)
        seq = analyze_network(industrial, grouping=False)
        par = batch.combined()
        for key in seq.paths:
            assert seq.paths[key] == par.paths[key], key


class TestJobsOne:
    def test_delegates_to_sequential(self, fig2):
        """jobs=1 is the sequential path, not a one-worker pool."""
        batch = BatchAnalyzer(fig2, jobs=1, serialization="safe")
        assert_trajectory_identical(
            analyze_trajectory(fig2, serialization="safe"), batch.trajectory()
        )

    @pytest.mark.parametrize(
        "build, options, key, method, expected_us",
        [
            (
                fig2_network,
                {"frame_overhead_bytes": 20},
                ("v1", 0),
                "network_calculus_us",
                282.76,
            ),
            (
                lambda: random_network(
                    3, n_switches=4, n_end_systems=10, n_virtual_links=16
                ),
                {"max_refinements": 1},
                ("v12", 0),
                "trajectory_us",
                486.44,
            ),
        ],
        ids=["frame_overhead_bytes", "max_refinements"],
    )
    def test_combined_forwards_every_option(
        self, build, options, key, method, expected_us
    ):
        """combined() honours every option at jobs=1, exactly as with workers."""
        network = build()
        sequential = BatchAnalyzer(network, jobs=1, **options).combined()
        parallel = BatchAnalyzer(network, jobs=2, **options).combined()
        assert getattr(sequential.paths[key], method) == pytest.approx(
            expected_us, abs=0.005
        )
        assert sequential.paths == parallel.paths

    def test_jobs_zero_means_all_cores(self, fig2):
        batch = BatchAnalyzer(fig2, jobs=0)
        assert batch.jobs >= 1


class TestStats:
    def test_worker_metrics_collected(self, fig2):
        batch = BatchAnalyzer(fig2, jobs=2, serialization="safe", collect_stats=True)
        result = batch.trajectory()
        counters = result.stats["counters"]
        gauges = result.stats["gauges"]
        assert counters["batch.trajectory.tasks"] >= 1
        assert counters["trajectory.horizon_cache_misses"] >= 1
        assert gauges["batch.trajectory.jobs"] == 2
        assert 0.0 <= gauges["batch.trajectory.worker_utilization"] <= 1.0
        assert any(span["name"] == "batch.trajectory" for span in result.stats["spans"])


class TestResultCache:
    def test_second_pooled_run_is_served_whole(self, fig2, tmp_path):
        """With workers, the coordinator probes and stores whole results.

        The cold run stores one entry per analysis; a second run on the
        same directory is one hit per analysis, reports the cold run's
        deterministic work counters, and looks up nothing else.
        """
        cold = BatchAnalyzer(fig2, jobs=2, cache_dir=tmp_path, collect_stats=True)
        cold_nc, cold_tr = cold.network_calculus(), cold.trajectory()
        for result in (cold_nc, cold_tr):
            assert result.stats["cost"]["cache"]["result"] == {"hits": 0, "misses": 1}
        assert sorted(entry.name for entry in (tmp_path / f"v{CACHE_VERSION}").iterdir()) == [
            "nc.result",
            "traj.cost",
            "traj.result",
        ]

        warm = BatchAnalyzer(fig2, jobs=2, cache_dir=tmp_path, collect_stats=True)
        nc, tr = warm.network_calculus(), warm.trajectory()
        for result in (nc, tr):
            assert result.stats["cost"]["cache"] == {"result": {"hits": 1, "misses": 0}}
        assert warm.cache.stats()["misses"] == 0
        assert (nc.ports, nc.paths, tr.paths) == (cold_nc.ports, cold_nc.paths, cold_tr.paths)
        assert deterministic_section(tr.stats["cost"]) == deterministic_section(
            cold_tr.stats["cost"]
        )


class TestErrorPropagation:
    def test_unstable_network_raises(self):
        batch = BatchAnalyzer(unstable_network(), jobs=2)
        with pytest.raises(UnstableNetworkError):
            batch.network_calculus()

    def test_worker_raised_instability_propagates(self):
        """An error born inside a worker's analyze_port surfaces intact.

        The 8-flow configuration validates fine on the coordinator; the
        per-frame wire overhead only tips the aggregate rate over the
        link rate inside the workers' port analysis.
        """
        network = marginally_stable_network()
        # sanity: without overhead the parallel analysis succeeds
        BatchAnalyzer(network, jobs=2).network_calculus()
        batch = BatchAnalyzer(network, jobs=2, frame_overhead_bytes=400)
        with pytest.raises(UnstableNetworkError, match="no finite delay bound"):
            batch.network_calculus()

    def test_cli_exit_code_unstable(self, tmp_path, capsys):
        """Batch-mode instability maps to the existing exit 4."""
        config = tmp_path / "unstable.json"
        network_to_json(unstable_network(), config)
        assert main(["analyze", str(config), "--jobs", "2"]) == 4
        assert "overloaded" in capsys.readouterr().err

    def test_cli_exit_code_config_error(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text(json.dumps({"name": "x"}))
        assert main(["analyze", str(config), "--jobs", "2"]) == 3
