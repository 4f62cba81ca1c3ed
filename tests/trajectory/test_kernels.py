"""Fast-kernel equivalence: bit-identical bounds vs the reference walk.

The ``fast`` trajectory kernel (flat competitor tables, batched folds,
shared-subpath memoization, dominance pruning — docs/PERFORMANCE.md)
promises *exactly* the reference kernel's floats, not merely close
ones.  These tests enforce that promise on randomized topologies under
hypothesis and on a seeded 1000-VL industrial configuration; the
committed-scenario sweep (including ``--jobs`` and incremental-cache
shapes) lives in ``scripts/kernel_gate.py``.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.configs import fig1_network, fig2_network, random_network
from repro.trajectory import analyze_trajectory

FLOAT_FIELDS = (
    "total_us",
    "critical_instant_us",
    "busy_period_us",
    "workload_us",
    "transition_us",
    "latency_us",
    "serialization_gain_us",
)

MODES = ("paper", "windowed", "safe")


def assert_kernels_identical(network, serialization):
    reference = analyze_trajectory(
        network, serialization=serialization, kernel="reference"
    )
    fast = analyze_trajectory(network, serialization=serialization, kernel="fast")
    assert set(reference.paths) == set(fast.paths)
    for key in reference.paths:
        ref, got = reference.paths[key], fast.paths[key]
        for name in FLOAT_FIELDS:
            assert getattr(ref, name) == getattr(got, name), (key, name)
        assert ref.n_competitors == got.n_competitors, key
        # the dominance prune may only ever *skip* candidates
        assert got.n_candidates <= ref.n_candidates, key
    return reference, fast


class TestPaperConfigs:
    @pytest.mark.parametrize("mode", MODES)
    def test_fig1(self, mode):
        assert_kernels_identical(fig1_network(), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_fig2(self, mode):
        assert_kernels_identical(fig2_network(), mode)


class TestRandomConfigs:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(MODES),
    )
    # pin the float-boundary regression seeds so they replay on every
    # clone without a local .hypothesis/ example cache
    @example(seed=589, mode="safe")
    @example(seed=7, mode="windowed")
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_bit_identical(self, seed, mode):
        network = random_network(
            seed, n_switches=3, n_end_systems=8, n_virtual_links=8
        )
        assert_kernels_identical(network, mode)

    def test_refinement_disabled(self):
        """Kernels must also agree on the unrefined single sweep."""
        network = random_network(42, n_virtual_links=8)
        for mode in MODES:
            reference = analyze_trajectory(
                network, serialization=mode, refine_smax=False, kernel="reference"
            )
            fast = analyze_trajectory(
                network, serialization=mode, refine_smax=False, kernel="fast"
            )
            for key in reference.paths:
                assert (
                    reference.paths[key].total_us == fast.paths[key].total_us
                ), (key, mode)


@pytest.mark.slow
class TestAtScale:
    def test_thousand_vl_smoke(self):
        """Seeded 1000-VL industrial configuration, fast kernel.

        Reference-kernel bit-identity at this size is covered (slowly)
        by the benchmark equivalence run; here we assert the fast
        kernel completes with sound-looking bounds for every path, and
        that the ``--jobs 4`` warm-pool execution shape reproduces the
        sequential floats exactly (the fleet engine's contract at the
        scale the paper targets).
        """
        import multiprocessing

        from repro.batch import BatchAnalyzer
        from repro.batch.pool import WorkerPool
        from repro.configs.industrial import (
            IndustrialConfigSpec,
            industrial_network,
        )

        network = industrial_network(IndustrialConfigSpec(n_virtual_links=1000))
        result = analyze_trajectory(network, serialization="windowed", kernel="fast")
        assert len(result.paths) == len(network.flow_paths())
        for key, bound in result.paths.items():
            assert bound.total_us > 0.0, key
            assert bound.busy_period_us >= 0.0, key

        with WorkerPool(4, None) as pool:
            parallel = BatchAnalyzer(
                network, jobs=4, serialization="windowed",
                trajectory_kernel="fast", pool=pool,
            ).trajectory()
        assert set(parallel.paths) == set(result.paths)
        for key in result.paths:
            for name in FLOAT_FIELDS:
                assert getattr(parallel.paths[key], name) == getattr(
                    result.paths[key], name
                ), (key, name)
        assert multiprocessing.active_children() == []
