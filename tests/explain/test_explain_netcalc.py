"""Network Calculus provenance: conservation and recording neutrality."""

import math
from dataclasses import replace

import pytest

from repro.errors import ProvenanceError
from repro.explain.netcalc import netcalc_provenance
from repro.netcalc.analyzer import NetworkCalculusAnalyzer, analyze_network_calculus


def assert_all_conserve(result):
    assert result.provenance is not None
    assert set(result.provenance) == set(result.paths)
    for key, decomposition in result.provenance.items():
        decomposition.check()
        assert decomposition.bound_us == result.paths[key].total_us, key


def test_fig2_ledgers_conserve_bit_exactly(fig2):
    assert_all_conserve(analyze_network_calculus(fig2, explain=True))


def test_fig1_ledgers_conserve_bit_exactly(fig1):
    assert_all_conserve(analyze_network_calculus(fig1, explain=True))


def test_explain_off_is_the_default_and_neutral(fig2):
    plain = analyze_network_calculus(fig2)
    explained = analyze_network_calculus(fig2, explain=True)
    assert plain.provenance is None
    for key in plain.paths:
        assert plain.paths[key].total_us == explained.paths[key].total_us


def test_grouping_credit_terms_are_credits(fig2):
    result = analyze_network_calculus(fig2, grouping=True, explain=True)
    saw_credit = False
    for decomposition in result.provenance.values():
        credit = decomposition.total("grouping-credit")
        assert credit <= 0.0
        saw_credit = saw_credit or credit < 0.0
    assert saw_credit  # fig2's shared links make grouping bite somewhere


def test_ungrouped_run_has_no_credit_terms(fig2):
    result = analyze_network_calculus(fig2, grouping=False, explain=True)
    assert_all_conserve(result)
    for decomposition in result.provenance.values():
        assert decomposition.total("grouping-credit") == 0.0


def test_hop_bounds_are_monotone_prefixes(fig2):
    result = analyze_network_calculus(fig2, explain=True)
    for key, decomposition in result.provenance.items():
        hops = decomposition.hop_bounds_us
        assert len(hops) == len(decomposition.node_path) - 1
        assert all(a <= b for a, b in zip(hops, hops[1:]))
        assert hops[-1] == decomposition.bound_us


def test_cache_hits_still_carry_provenance(fig2):
    from repro.incremental.cache import BoundCache

    cache = BoundCache()
    warm = analyze_network_calculus(fig2, incremental=True, cache=cache, explain=True)
    hit = analyze_network_calculus(fig2, incremental=True, cache=cache, explain=True)
    assert_all_conserve(hit)
    assert hit.provenance == warm.provenance


def test_ledger_terms_carry_known_labels(fig2):
    known = {
        "service-latency",
        "ingress-shaping",
        "burst-delay",
        "grouping-credit",
        "fp-residual",
    }
    result = analyze_network_calculus(fig2, explain=True)
    for decomposition in result.provenance.values():
        assert {term.label for term in decomposition.terms} <= known


class TestReplayGuards:
    """The replay recomputes every port delay and path total, so a
    result whose floats are not this network's own (a cache entry that
    decoded to wrong values, say) cannot get a ledger."""

    @staticmethod
    def _analyzed(network):
        analyzer = NetworkCalculusAnalyzer(network)
        return analyzer, analyzer.analyze()

    @pytest.mark.parametrize("port_id", [("e1", "S1"), ("S1", "S3"), ("S3", "e6")])
    def test_a_moved_port_delay_names_the_port(self, fig2, port_id):
        analyzer, result = self._analyzed(fig2)
        analysis = result.ports[port_id]
        result.ports[port_id] = replace(
            analysis, delay_us=math.nextafter(analysis.delay_us, math.inf)
        )
        port = f"{port_id[0]}->{port_id[1]}"
        with pytest.raises(ProvenanceError, match=f"^NC replay of port {port} gives"):
            netcalc_provenance(analyzer, result)

    @pytest.mark.parametrize("key", [("v1", 0), ("v5", 0)])
    def test_a_moved_path_total_names_the_path(self, fig2, key):
        analyzer, result = self._analyzed(fig2)
        path = result.paths[key]
        result.paths[key] = replace(
            path, total_us=math.nextafter(path.total_us, -math.inf)
        )
        with pytest.raises(
            ProvenanceError, match=rf"^NC path replay of {key[0]}\[{key[1]}\] sums"
        ):
            netcalc_provenance(analyzer, result)
