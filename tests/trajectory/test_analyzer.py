"""Trajectory analyzer end-to-end behaviour."""

import pytest

from repro.errors import ConfigurationError, CyclicRoutingError, UnstableNetworkError
from repro.network import Network, NetworkBuilder, VirtualLink
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
        enhanced = analyze_trajectory(fig2, serialization="windowed")
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


class TestConfigGate:
    """Without ``nc_result`` the analyzer's own NC seed run is the gate.

    Together with ``TestStability::test_unstable_raises`` and
    ``tests/integration/test_tandem_oracle.py::
    test_chain_without_spare_rate_is_unstable`` (unstable networks),
    these pin the errors ``analyze_trajectory`` raises on a network it
    cannot bound.
    """

    def test_cyclic_routing_raises(self):
        # three switches in a triangle with rotating flows: the port
        # graph cycles (S1,S2)->(S2,S3)->(S3,S1)->(S1,S2)
        builder = (
            NetworkBuilder("cyc")
            .switches("S1", "S2", "S3")
            .end_systems("a", "b", "c", "x", "y", "z")
            .link("S1", "S2")
            .link("S2", "S3")
            .link("S3", "S1")
            .link("a", "S1")
            .link("b", "S2")
            .link("c", "S3")
            .link("x", "S2")
            .link("y", "S3")
            .link("z", "S1")
        )
        for name, source, dest, path in (
            ("v1", "a", "y", ["a", "S1", "S2", "S3", "y"]),
            ("v2", "b", "z", ["b", "S2", "S3", "S1", "z"]),
            ("v3", "c", "x", ["c", "S3", "S1", "S2", "x"]),
        ):
            builder.virtual_link(
                name, source=source, destinations=[dest], bag_ms=4,
                s_max_bytes=100, paths=[path],
            )
        with pytest.raises(CyclicRoutingError, match="cycle"):
            analyze_trajectory(builder.build(validate=False))

    def test_non_tree_multicast_raises(self):
        # the two paths fork at S1 and re-join at S3: not a tree
        net = Network()
        for name in ("S1", "S2", "S3"):
            net.add_switch(name)
        for name in ("e1", "e2", "e3"):
            net.add_end_system(name)
        for a, b in (
            ("e1", "S1"), ("S1", "S2"), ("S1", "S3"), ("S2", "e2"),
            ("S2", "S3"), ("S3", "e3"),
        ):
            net.add_link(a, b)
        net.add_virtual_link(
            VirtualLink(
                name="vx",
                source="e1",
                paths=(("e1", "S1", "S2", "S3", "e3"), ("e1", "S1", "S3", "e3")),
                bag_ms=4,
                s_max_bytes=500,
            )
        )
        with pytest.raises(ConfigurationError, match="CFG108"):
            analyze_trajectory(net)


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
        met = bytearray(analyzer._n_vls)
        met[analyzer._vl_index["v1"]] = met[analyzer._vl_index["v2"]] = 1
        n_added, added, readded, _gain, _vec, _joined = analyzer._discover_meetings(
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


class TestSourcePortInvariant:
    """Every offset at a VL's source port is exactly 0.0.

    The walk folds each VL's source port once for every sweep
    (``TrajectoryAnalyzer._root_state``), which is sound only while
    ``Smax`` and ``Smin`` of every source-port entry stay ``+0.0``.
    """

    @pytest.mark.parametrize("mode", ["paper", "windowed", "safe"])
    def test_source_entries_stay_zero_across_tightening(self, fig1, mode):
        analyzer = TrajectoryAnalyzer(fig1, serialization=mode)
        analyzer.prepare()
        prefixes = fig1.routing_table().prefixes
        sources = [key for key, prefix in prefixes.items() if len(prefix) == 1]
        assert len(sources) == len(fig1.virtual_links)

        def assert_zero():
            for key in sources:
                assert analyzer._smax[key].hex() == "0x0.0p+0", key
                assert analyzer._smin[key].hex() == "0x0.0p+0", key

        assert_zero()
        tightened = 0
        for _ in range(analyzer.max_refinements):
            bounds = analyzer.sweep_vls(list(fig1.virtual_links))
            updates, _delta = analyzer.tighten_smax(bounds)
            assert_zero()
            tightened += len(updates)
            if not updates:
                break
        assert tightened  # the fixed point moved other entries


class TestSweepMemo:
    """A sweep replays each walk whose folds are those of its last walk.

    In the counted-once modes a VL's walk reads ``Smax[(i, p)]`` only
    where competitor ``i`` first meets its path, at ``p``; the tests
    move ``Smax`` and check which walks the next sweep reruns, and that
    every bound equals an unmemoized sweep's.
    """

    MODE = "windowed"

    def fresh_sweep(self, network, smax):
        fresh = TrajectoryAnalyzer(network, serialization=self.MODE)
        fresh.prepare()
        fresh._smax.update(smax)
        return fresh.sweep_vls(sorted(network.virtual_links))

    def test_a_tightening_that_moves_no_fold_replays_every_walk(self, fig1):
        analyzer = TrajectoryAnalyzer(fig1, serialization=self.MODE)
        analyzer.prepare()
        names = sorted(fig1.virtual_links)
        first = analyzer.sweep_vls(names)
        updates, _delta = analyzer.tighten_smax(first)
        assert updates
        hits, misses = analyzer.cache_stats()["sweep_memo"]
        second = analyzer.sweep_vls(names)
        assert analyzer.cache_stats()["sweep_memo"] == (hits + len(names), misses)
        assert second == first
        assert second == self.fresh_sweep(fig1, analyzer._smax)

    def test_a_moved_fold_rewalks_that_vl_alone(self, fig1):
        analyzer = TrajectoryAnalyzer(fig1, serialization=self.MODE)
        analyzer.prepare()
        names = sorted(fig1.virtual_links)
        before = analyzer.sweep_vls(names)
        table = fig1.routing_table()
        # (i, p) -> the VLs whose batch at p holds competitor i
        readers = {}
        for (vl_name, port), prefix in sorted(table.prefixes.items()):
            if len(prefix) == 1:
                continue  # a source port folds offsets of 0.0 only
            met_before = set().union(*(table.members[q] for q in prefix[:-1]))
            for other in table.members[port]:
                if other not in met_before:
                    readers.setdefault((other, port), []).append(vl_name)
        key, (reader,) = next(
            (key, vls) for key, vls in sorted(readers.items()) if len(vls) == 1
        )
        # five periods later: the reader counts five more frames of key[0]
        analyzer._smax[key] += 5 * fig1.vl(key[0]).bag_us
        hits, misses = analyzer.cache_stats()["sweep_memo"]
        after = analyzer.sweep_vls(names)
        assert analyzer.cache_stats()["sweep_memo"] == (
            hits + len(names) - 1, misses + 1
        )
        assert {k[0] for k in after if after[k] != before[k]} == {reader}
        assert after == self.fresh_sweep(fig1, analyzer._smax)
