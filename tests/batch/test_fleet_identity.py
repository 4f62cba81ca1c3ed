"""Execution-shape identity: every shape of a run gives the same bytes.

Every way of running an analysis — cold, or against a cold/warm
incremental cache — must produce per-path bounds *bit-identical* to
the plain run and to the reference walk kept as a test oracle
(``tests/trajectory/reference_kernel.py``), and a deterministic
:class:`CostLedger` section byte-identical to the plain run's.  The
committed-scenario sweep lives in ``scripts/kernel_gate.py``; here the
same contract is exercised on every shape (fig1) and property-tested
on randomized topologies under hypothesis.  Fan-out across
configurations has its own identity test in ``test_corpus.py``.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.configs import fig1_network, random_network
from repro.incremental.cache import BoundCache
from repro.obs.costmodel import deterministic_section
from repro.trajectory.analyzer import analyze_trajectory
from tests.trajectory.reference_kernel import ReferenceTrajectoryAnalyzer

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


def _bounds(result):
    return {
        key: tuple(getattr(bound, name) for name in FLOAT_FIELDS)
        for key, bound in result.paths.items()
    }


def _ledger_bytes(result):
    assert result.stats is not None
    return json.dumps(
        deterministic_section(result.stats["cost"]), sort_keys=True
    ).encode()


def _trajectory(network, mode, **kwargs):
    return analyze_trajectory(
        network, serialization=mode, collect_stats=True, **kwargs
    )


def _reference(network, mode):
    return ReferenceTrajectoryAnalyzer(
        network, serialization=mode, collect_stats=True
    ).analyze()


class TestShapeCrossProduct:
    @pytest.mark.parametrize("baseline", ("fast", "reference"))
    def test_every_shape_bit_identical(self, baseline, tmp_path):
        """Every shape against the plain run, or against the oracle.

        ``fast``: bounds and ledger bytes equal the plain product run.
        ``reference``: bounds equal the test oracle's (its ledger
        differs in the prune-dependent candidate counters, so only the
        bounds are compared).
        """
        network = fig1_network()
        sequential = _trajectory(network, "safe")
        reference = baseline == "reference"
        expected = _reference(network, "safe") if reference else sequential
        bounds, ledger = _bounds(expected), _ledger_bytes(sequential)

        shaped = [("plain", sequential)]
        for label in ("cold cache", "warm cache"):
            cache = BoundCache(cache_dir=str(tmp_path))
            shaped.append((label, _trajectory(network, "safe", cache=cache)))

        for label, result in shaped:
            assert _bounds(result) == bounds, f"{baseline}: bounds drifted under {label}"
            assert _ledger_bytes(result) == ledger, (
                f"ledger section not byte-identical under {label}"
            )


class TestRandomizedShapes:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(MODES),
    )
    @example(seed=589, mode="safe")
    @example(seed=7, mode="windowed")
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_shapes_agree(self, seed, mode):
        network = random_network(
            seed, n_switches=3, n_end_systems=6, n_virtual_links=6
        )
        sequential = _trajectory(network, mode)
        cache = BoundCache()
        cold = _trajectory(network, mode, cache=cache)
        warm = _trajectory(network, mode, cache=cache)
        reference = _reference(network, mode)

        assert warm.stats["cost"]["cache"]["result"] == {"hits": 1, "misses": 0}
        for shaped in (cold, warm):
            assert _bounds(shaped) == _bounds(sequential)
            assert _ledger_bytes(shaped) == _ledger_bytes(sequential)
        # against the oracle: bounds exact (its ledger differs in the
        # prune-dependent candidate counters)
        assert _bounds(reference) == _bounds(sequential)
