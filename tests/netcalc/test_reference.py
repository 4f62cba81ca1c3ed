"""Network Calculus equivalence: bit-identical results vs the per-flow oracle.

The product propagation reads the network's routing table and folds
each input-link group into one affine curve; the oracle in
``tests/netcalc/reference_analyzer.py`` rescans paths and adds one
curve per flow.  Every per-port float and count and every path total
must be equal, not close.  The committed-scenario sweep lives in
``scripts/kernel_gate.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configs import fig1_network, fig2_network, random_network
from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.netcalc import analyze_network_calculus
from tests.netcalc.reference_analyzer import ReferenceNetworkCalculusAnalyzer

VARIANTS = [(True, 0.0), (False, 0.0), (True, 20.0), (False, 20.0)]


def assert_identical(network, grouping, overhead):
    reference = ReferenceNetworkCalculusAnalyzer(
        network, grouping=grouping, frame_overhead_bytes=overhead
    ).analyze()
    product = analyze_network_calculus(
        network, grouping=grouping, frame_overhead_bytes=overhead
    )
    assert list(product.ports) == list(reference.ports)
    for port_id, ref in reference.ports.items():
        got = product.ports[port_id]
        for field in ("delay_us", "backlog_bits", "utilization", "n_flows", "n_groups"):
            assert getattr(got, field) == getattr(ref, field), (port_id, field)
    assert set(product.paths) == set(reference.paths)
    for key, ref in reference.paths.items():
        assert product.paths[key].total_us == ref.total_us, key
        assert product.paths[key].per_port_delay_us == ref.per_port_delay_us, key


@pytest.mark.parametrize("grouping,overhead", VARIANTS)
@pytest.mark.parametrize("build", [fig1_network, fig2_network], ids=["fig1", "fig2"])
def test_paper_configs(build, grouping, overhead):
    assert_identical(build(), grouping, overhead)


@pytest.mark.parametrize("grouping,overhead", VARIANTS)
def test_industrial_64(grouping, overhead):
    network = industrial_network(IndustrialConfigSpec(seed=7, n_virtual_links=64))
    assert_identical(network, grouping, overhead)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_vls=st.integers(min_value=1, max_value=16),
    grouping=st.booleans(),
    overhead=st.sampled_from([0.0, 20.0]),
)
def test_random_networks(seed, n_vls, grouping, overhead):
    network = random_network(seed, n_switches=4, n_end_systems=10, n_virtual_links=n_vls)
    assert_identical(network, grouping, overhead)
