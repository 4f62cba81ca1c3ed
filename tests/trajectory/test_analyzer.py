"""Trajectory analyzer end-to-end behaviour."""

import numpy as np
import pytest

from repro.errors import UnstableNetworkError
from repro.network import NetworkBuilder
from repro.trajectory import TrajectoryAnalyzer, analyze_trajectory


class TestLoneFlow:
    @pytest.fixture
    def lone(self):
        return (
            NetworkBuilder("lone")
            .switches("S1", "S2")
            .end_systems("a", "d")
            .link("a", "S1")
            .link("S1", "S2")
            .link("S2", "d")
            .virtual_link(
                "v", source="a", destinations=["d"], bag_ms=4,
                s_max_bytes=500, s_min_bytes=500,
            )
            .build()
        )

    def test_exact_pipeline_delay(self, lone):
        # 3 transmissions of 40 us + 2 switch latencies of 16 us
        result = analyze_trajectory(lone)
        assert result.bound_us("v") == pytest.approx(3 * 40.0 + 2 * 16.0)

    def test_decomposition_adds_up(self, lone):
        path = analyze_trajectory(lone).paths[("v", 0)]
        assert path.total_us == pytest.approx(
            path.workload_us
            + path.transition_us
            + path.latency_us
            - path.serialization_gain_us
            - path.critical_instant_us
        )
        assert path.n_competitors == 0
        assert path.critical_instant_us == 0.0


class TestFig2:
    def test_paper_worked_example(self, fig2):
        enhanced = analyze_trajectory(fig2)
        plain = analyze_trajectory(fig2, serialization="safe")
        # the numbers this library reproduces for the Sec. II-B scenario
        assert plain.bound_us("v1") == pytest.approx(272.0)
        assert enhanced.bound_us("v1") == pytest.approx(232.0)

    def test_symmetry(self, fig2):
        result = analyze_trajectory(fig2)
        assert result.bound_us("v1") == pytest.approx(result.bound_us("v2"))
        assert result.bound_us("v3") == pytest.approx(result.bound_us("v4"))

    def test_workload_counts_all_sharing_flows(self, fig2):
        path = analyze_trajectory(fig2).paths[("v1", 0)]
        assert path.n_competitors == 3  # v2, v3, v4 (v5 exits at e7)

    def test_transition_terms(self, fig2):
        path = analyze_trajectory(fig2).paths[("v1", 0)]
        # two transitions, each bounded by the biggest met frame (40 us)
        assert path.transition_us == pytest.approx(80.0)
        assert path.latency_us == pytest.approx(32.0)

    def test_own_bag_does_not_matter(self, fig2):
        # Fig. 8's flat trajectory: same bound for any BAG of v1
        baseline = analyze_trajectory(fig2).bound_us("v1")
        for bag in (1, 2, 16, 128):
            net = fig2.copy()
            net.replace_virtual_link(net.vl("v1").with_bag_ms(bag))
            assert analyze_trajectory(net).bound_us("v1") == pytest.approx(baseline)

    def test_result_cached(self, fig2):
        analyzer = TrajectoryAnalyzer(fig2)
        assert analyzer.analyze() is analyzer.analyze()


class TestRefinement:
    def test_refinement_never_loosens(self, fig1):
        refined = analyze_trajectory(fig1, refine_smax=True)
        single = analyze_trajectory(fig1, refine_smax=False)
        for key in refined.paths:
            assert refined.paths[key].total_us <= single.paths[key].total_us + 1e-6

    def test_iteration_count_reported(self, fig1):
        refined = analyze_trajectory(fig1, refine_smax=True)
        single = analyze_trajectory(fig1, refine_smax=False)
        assert single.refinement_iterations == 1
        assert refined.refinement_iterations >= 1

    def test_max_refinements_validated(self, fig1):
        with pytest.raises(ValueError):
            TrajectoryAnalyzer(fig1, max_refinements=0)


class TestStability:
    def test_unstable_raises(self):
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
        with pytest.raises(UnstableNetworkError):
            analyze_trajectory(builder.build(validate=False))


class TestMulticast:
    def test_each_path_bounded(self, fig1):
        result = analyze_trajectory(fig1)
        assert ("v6", 0) in result.paths and ("v6", 1) in result.paths

    def test_worst_path_accessor(self, fig1):
        result = analyze_trajectory(fig1)
        assert result.worst_path().total_us == max(
            p.total_us for p in result.paths.values()
        )


class TestMeshReMeeting:
    """A competitor that leaves the studied path and rejoins downstream.

    The Martin & Minet tree formulation counts each competitor once —
    sound on trees, where a frame ahead in a FIFO queue stays ahead for
    the whole shared segment.  On this meshed topology v2 meets v1 at
    (S1, S2), detours via S4 while v1 goes straight to S3, and re-meets
    v1 at (S3, d); its frames can overtake v1 off-path and delay it a
    second time, so ``safe`` mode charges the re-meeting as an
    additional competitor while the reproduction modes keep the
    historical counted-once treatment.
    """

    def test_re_meeting_discovered_at_rejoin_port(self, mesh):
        analyzer = TrajectoryAnalyzer(mesh, serialization="safe")
        analyzer.prepare()
        # walking v1 down to (S2, S3): v2 was met at (S1, S2)
        met = np.zeros(analyzer._n_vls, dtype=np.uint8)
        met[[analyzer._vl_index["v1"], analyzer._vl_index["v2"]]] = 1
        n_added, added, readded, _gain, _vec = analyzer._discover_meetings(
            ("S3", "d"), ("S2", "S3"), met
        )
        members = analyzer._port_vls[("S3", "d")]
        assert [members[index] for index in readded] == ["v2"]
        assert n_added == 0 and added == ()

    def test_safe_charges_one_extra_competitor(self, mesh):
        safe = analyze_trajectory(mesh, serialization="safe")
        paper = analyze_trajectory(mesh, serialization="paper")
        assert paper.paths[("v1", 0)].n_competitors == 1
        assert safe.paths[("v1", 0)].n_competitors == 2
        assert safe.paths[("v1", 0)].total_us > paper.paths[("v1", 0)].total_us

    def test_safe_bound_covers_simulation(self, mesh):
        from repro.sim import TrafficScenario, simulate

        safe = analyze_trajectory(mesh, serialization="safe")
        for seed in range(4):
            observed = simulate(
                mesh,
                TrafficScenario(duration_ms=10, synchronized=(seed % 2 == 0),
                                seed=seed),
            )
            for key, stats in observed.paths.items():
                assert stats.max_us <= safe.paths[key].total_us + 1e-9, key


class TestEventMemoEquivalence:
    """The per-sweep candidate-event memo must not change any bound."""

    def test_memo_off_gives_identical_results(self):
        from repro.configs.random_topology import random_network

        network = random_network(31, n_switches=3, n_end_systems=6,
                                 n_virtual_links=10)
        plain = TrajectoryAnalyzer(network, serialization="safe")
        unmemoized = TrajectoryAnalyzer(network, serialization="safe")
        unmemoized._event_memo_enabled = False  # test hook
        with_memo = plain.analyze()
        without_memo = unmemoized.analyze()
        assert with_memo.paths == without_memo.paths
        assert with_memo.refinement_iterations == without_memo.refinement_iterations
        hits, misses = plain._cache_counters["events"]
        assert hits > 0  # the memo actually engaged on this topology
        assert unmemoized._cache_counters["events"] == [0, 0]
