"""Edit model: pure application, impact seeds, script parsing."""

import pytest

from repro.cli import main
from repro.configs import fig2_network
from repro.configs.random_topology import random_network
from repro.errors import ConfigurationError
from repro.incremental.edits import (
    AddVL,
    RemoveVL,
    ResizeVL,
    RetimeVL,
    RerouteVL,
    apply_edits,
    parse_edit_script,
)
from repro.network import network_to_json


@pytest.fixture()
def network():
    return random_network(3, n_switches=3, n_end_systems=6, n_virtual_links=8)


class TestApplyEdits:
    def test_input_network_is_not_mutated(self, network):
        name = sorted(network.virtual_links)[0]
        before = network.vl(name).bag_ms
        edited, _ = apply_edits(network, [RetimeVL(name=name, bag_ms=before * 2)])
        assert network.vl(name).bag_ms == before
        assert edited.vl(name).bag_ms == before * 2

    def test_retime_impact_covers_path_ports(self, network):
        name = sorted(network.virtual_links)[0]
        vl = network.vl(name)
        _, impact = apply_edits(network, [RetimeVL(name=name, bag_ms=vl.bag_ms * 2)])
        expected = {
            (a, b) for path in vl.paths for a, b in zip(path, path[1:])
        }
        assert impact.dirty_ports == frozenset(expected)
        assert impact.changed_vls == frozenset({name})

    def test_remove_then_readd_round_trips(self, network):
        name = sorted(network.virtual_links)[0]
        vl = network.vl(name)
        removed, _ = apply_edits(network, [RemoveVL(name=name)])
        assert name not in removed.virtual_links
        readded, impact = apply_edits(removed, [AddVL(vl=vl)])
        assert readded.vl(name) == vl
        assert name in impact.changed_vls

    def test_remove_drops_unused_ports_from_impact(self, network):
        # a removed VL's exclusive ports carry no traffic afterwards, so
        # they have no analysis to redo and must not seed the closure
        name = sorted(network.virtual_links)[0]
        edited, impact = apply_edits(network, [RemoveVL(name=name)])
        assert impact.dirty_ports <= frozenset(edited.used_ports())

    def test_resize_and_reroute(self, network):
        name = sorted(network.virtual_links)[0]
        vl = network.vl(name)
        edited, _ = apply_edits(
            network,
            [
                ResizeVL(name=name, s_max_bytes=64),
                RerouteVL(name=name, paths=vl.paths[:1]),
            ],
        )
        assert edited.vl(name).s_max_bytes == 64
        assert edited.vl(name).paths == vl.paths[:1]

    def test_unknown_vl_raises_configuration_error(self, network):
        with pytest.raises(ConfigurationError, match="retime nope"):
            apply_edits(network, [RetimeVL(name="nope", bag_ms=8)])

    def test_duplicate_add_raises(self, network):
        name = sorted(network.virtual_links)[0]
        with pytest.raises(ConfigurationError):
            apply_edits(network, [AddVL(vl=network.vl(name))])


class TestParseEditScript:
    def test_all_ops_parse(self):
        edits = parse_edit_script(
            {
                "edits": [
                    {"op": "retime", "vl": "a", "bag_ms": 8},
                    {"op": "resize", "vl": "b", "s_max_bytes": 300},
                    {"op": "reroute", "vl": "c", "paths": [["e1", "S1", "e2"]]},
                    {"op": "remove", "vl": "d"},
                    {
                        "op": "add",
                        "vl": {
                            "name": "n",
                            "source": "e1",
                            "bag_ms": 16,
                            "s_max_bytes": 200,
                            "paths": [["e1", "S1", "e2"]],
                        },
                    },
                ]
            }
        )
        assert [type(e).__name__ for e in edits] == [
            "RetimeVL",
            "ResizeVL",
            "RerouteVL",
            "RemoveVL",
            "AddVL",
        ]
        assert edits[2].paths == (("e1", "S1", "e2"),)
        assert edits[4].vl.s_min_bytes == 64  # default

    def test_missing_edits_array(self):
        with pytest.raises(ConfigurationError, match="'edits' array"):
            parse_edit_script({})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("null", "edit script must be an object, got None"),
            ("[1, 2]", "edit script must be an object, got [1, 2]"),
            (
                '{"edits": [{"op": "retime", "vl": "v1", "bag_ms": NaN}]}',
                "edit #1: 'bag_ms' must be a finite number",
            ),
            (
                '{"edits": [{"op": "retime", "vl": "v1", "bag_ms": true}]}',
                "edit #1: 'bag_ms' must be a finite number",
            ),
        ],
        ids=["null", "list", "nan-bag", "bool-bag"],
    )
    def test_bad_document_is_a_config_error(self, text, message, tmp_path, capsys):
        """The checks of a configuration file: ``afdx whatif`` exits 3
        with one ``afdx: error:`` line, never a traceback."""
        config, edits = tmp_path / "fig2.json", tmp_path / "edits.json"
        network_to_json(fig2_network(), config)
        edits.write_text(text)
        assert main(["whatif", str(config), str(edits)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("afdx: error: ") and message in line

    def test_unknown_op_reports_position(self):
        with pytest.raises(ConfigurationError, match="edit #1"):
            parse_edit_script({"edits": [{"op": "frobnicate", "vl": "a"}]})

    def test_missing_field_reports_position(self):
        with pytest.raises(ConfigurationError, match="edit #2"):
            parse_edit_script(
                {"edits": [{"op": "remove", "vl": "a"}, {"op": "retime", "vl": "b"}]}
            )
