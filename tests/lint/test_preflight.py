"""ConfigVerifier: rule ids per fixture, clean samples, bit-identity.

The bad-configuration fixtures under ``tests/lint/fixtures/`` each
violate exactly one documented precondition; the verifier must name
the documented CFG rule.  The shipped sample configurations and the
paper's configurations must lint clean.  Verifying a clean network
must not change a single computed bound bit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.configs import fig1_network, fig2_network, industrial_network
from repro.configs.industrial import IndustrialConfigSpec
from repro.errors import ConfigurationError
from repro.lint.findings import Severity
from repro.network import NetworkBuilder
from repro.network.preflight import (
    CONFIG_RULES,
    CONFIG_RULES_BY_ID,
    ConfigVerifier,
    check_network,
    find_port_cycle,
)
from repro.network.virtual_link import STANDARD_BAGS_MS

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"

#: fixture -> the error rule id it must trigger
EXPECTED = {
    "cyclic.json": "CFG101",
    "overloaded.json": "CFG102",
    "bad_bag.json": "CFG104",
    "bad_sizes.json": "CFG105",
    "disconnected.json": "CFG106",
    "multicast_not_tree.json": "CFG108",
    "saturated_switch_port.json": "CFG102",
    "priority_class.json": "CFG112",
}


def _verify_fixture(name: str):
    document = json.loads((FIXTURES / name).read_text())
    return ConfigVerifier(utilization_table=False).verify_dict(
        document, source=name
    )


class TestBadFixtures:
    @pytest.mark.parametrize("name,rule_id", sorted(EXPECTED.items()))
    def test_fixture_triggers_documented_rule(self, name, rule_id):
        report = _verify_fixture(name)
        assert not report.ok
        assert rule_id in {f.rule_id for f in report.errors}
        assert CONFIG_RULES_BY_ID[rule_id].severity is Severity.ERROR

    def test_cycle_message_names_the_actual_cycle(self):
        report = _verify_fixture("cyclic.json")
        (finding,) = [f for f in report.errors if f.rule_id == "CFG101"]
        # the concrete cycle, closed (first port repeated at the end)
        assert "S1->S2 -> S2->S3 -> S3->S1 -> S1->S2" in finding.message

    def test_overloaded_is_stability_only(self):
        report = _verify_fixture("overloaded.json")
        assert report.stability_only
        assert not _verify_fixture("cyclic.json").stability_only

    def test_raw_stage_catches_unbuildable_documents(self):
        # s_min > s_max is rejected by the VirtualLink constructor;
        # the raw stage must still produce a structured CFG105 finding
        report = _verify_fixture("bad_sizes.json")
        assert not report.built
        assert report.network is None
        assert "CFG105" in {f.rule_id for f in report.errors}


class TestCleanConfigurations:
    @pytest.mark.parametrize(
        "build", [fig1_network, fig2_network], ids=["fig1", "fig2"]
    )
    def test_paper_configurations_lint_clean(self, build):
        report = ConfigVerifier(utilization_table=False).verify_network(build())
        assert report.ok
        assert report.warnings == []

    def test_industrial_sample_lints_clean(self):
        network = industrial_network(IndustrialConfigSpec(n_virtual_links=64))
        report = ConfigVerifier(utilization_table=False).verify_network(network)
        assert report.ok

    def test_example_configs_lint_clean(self):
        configs = sorted(EXAMPLES.glob("*.json"))
        assert configs, "examples/configs/*.json missing"
        for config in configs:
            document = json.loads(config.read_text())
            report = ConfigVerifier().verify_dict(document, source=config.name)
            assert report.ok, [f.render() for f in report.errors]

    def test_no_cycle_in_fig2(self):
        assert find_port_cycle(fig2_network()) is None

    def test_utilization_table_entries(self):
        report = ConfigVerifier().verify_network(fig2_network())
        infos = [f for f in report.findings if f.rule_id == "CFG110"]
        assert len(infos) == len(report.port_utilization)
        assert all(f.severity is Severity.INFO for f in infos)


class TestVerifierContract:
    def test_catalogue_ids_unique_and_documented(self):
        ids = [rule.rule_id for rule in CONFIG_RULES]
        assert len(ids) == len(set(ids))
        for rule in CONFIG_RULES:
            assert rule.precondition, rule.rule_id

    def test_report_to_dict_is_json_serializable(self):
        report = _verify_fixture("overloaded.json")
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert "CFG102" in payload

    def test_strict_utilization_threshold(self):
        # fig2 peaks at 0.04: a 3% admission threshold must reject it
        report = ConfigVerifier(
            max_utilization=0.03, utilization_table=False
        ).verify_network(fig2_network())
        assert "CFG102" in {f.rule_id for f in report.errors}

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ConfigVerifier(max_utilization=1.5)


class TestPreflightBitIdentity:
    def test_bounds_unchanged_by_preflight(self):
        """The verifier only reads the network it builds: analyzing it,
        as every ``afdx`` command does, gives the bounds of a plain load
        bit for bit."""
        from repro.core.combined import analyze_network
        from repro.network.serialization import network_from_dict

        document = json.loads((EXAMPLES / "fig2.json").read_text())
        report = ConfigVerifier().verify_dict(document)
        assert report.ok
        checked = analyze_network(report.network)
        plain = analyze_network(network_from_dict(document))
        assert checked.paths.keys() == plain.paths.keys()
        for key, path in plain.paths.items():
            assert checked.paths[key].network_calculus_us == path.network_calculus_us
            assert checked.paths[key].trajectory_us == path.trajectory_us


class TestAdmissionRules:
    """CFG104: the ARINC 664 BAG range, checked on built networks too."""

    @staticmethod
    def _network(bag_ms):
        return (
            NetworkBuilder("bags").switches("S1").end_systems("e1", "e2")
            .link("e1", "S1").link("S1", "e2")
            .virtual_link("v1", source="e1", destinations=["e2"],
                          bag_ms=bag_ms, s_max_bytes=500)
            .build()
        )

    def test_standard_bags_pass(self):
        verifier = ConfigVerifier(utilization_table=False)
        for bag in STANDARD_BAGS_MS:
            assert verifier.verify_network(self._network(bag)).findings == []

    def test_nonstandard_bag_is_cfg104(self):
        report = ConfigVerifier().verify_network(self._network(3.0))
        (finding,) = report.errors
        assert finding.rule_id == "CFG104"
        assert "ARINC 664" in finding.message


class TestPriorityClasses:
    """CFG112: both analyzers model FIFO output ports, so the library
    gate refuses a VL at priority 1 on a network built in code too."""

    def test_check_network_refuses_a_code_built_network(self):
        network = fig2_network()
        network.replace_virtual_link(
            dataclasses.replace(network.vl("v4"), priority=1)
        )
        with pytest.raises(ConfigurationError, match="^CFG112: VL 'v4'"):
            check_network(network)
