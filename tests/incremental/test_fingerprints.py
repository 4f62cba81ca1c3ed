"""Fingerprints: stability and sensitivity; the dirty closure's soundness."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.configs import fig1_network, fig2_network
from repro.configs.random_topology import random_network
from repro.incremental import fingerprint
from repro.incremental.delta import dirty_closure
from repro.incremental.edits import RetimeVL, apply_edits
from repro.netcalc.analyzer import analyze_network_calculus
from repro.incremental.fingerprint import (
    network_fingerprint,
    stable_digest,
    vl_fingerprint,
)
from repro.network.serialization import network_from_json
from repro.trajectory.analyzer import pack_floats

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("a", 1.5, ("x", 2)) == stable_digest("a", 1.5, ("x", 2))

    def test_type_sensitive(self):
        # "1.0" the string and 1.0 the float must not collide
        assert stable_digest("1.0") != stable_digest(1.0)

    def test_float_exactness(self):
        assert stable_digest(0.1 + 0.2) != stable_digest(0.3)

    def test_structure_sensitive(self):
        assert stable_digest(("a", "b"), "c") != stable_digest(("a",), ("b", "c"))

    def test_hash_seed_independence(self):
        # digests must agree across interpreters with different hash seeds
        code = (
            "from repro.incremental.fingerprint import stable_digest;"
            "print(stable_digest('x', 1.25, ('y', 3)))"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "12345")
        }
        assert len(outs) == 1

    def test_pack_floats_is_lossless(self):
        values = [0.1 + 0.2, 1e-308, -0.0, 3.5]
        assert pack_floats(values) == pack_floats(list(values))
        assert pack_floats([0.3]) != pack_floats([0.1 + 0.2])


class TestNetworkFingerprints:
    def setup_method(self):
        self.network = random_network(
            11, n_switches=3, n_end_systems=6, n_virtual_links=8
        )

    def test_copy_has_same_fingerprint(self):
        assert network_fingerprint(self.network) == network_fingerprint(
            self.network.copy()
        )

    def test_edit_changes_network_fingerprint(self):
        name = sorted(self.network.virtual_links)[0]
        edited, _ = apply_edits(
            self.network, [RetimeVL(name=name, bag_ms=self.network.vl(name).bag_ms * 2)]
        )
        assert network_fingerprint(edited) != network_fingerprint(self.network)

    def test_vl_fingerprint_sensitivity(self):
        name = sorted(self.network.virtual_links)[0]
        vl = self.network.vl(name)
        assert vl_fingerprint(vl) == vl_fingerprint(vl)
        assert vl_fingerprint(vl.with_bag_ms(vl.bag_ms * 2)) != vl_fingerprint(vl)
        assert vl_fingerprint(vl.with_s_max_bytes(65)) != vl_fingerprint(vl)

    def test_clean_ports_keep_their_analysis(self):
        """Every port outside ``dirty_closure`` is untouched by the edit.

        Cold NC before and after the edit must agree bit for bit on
        each such port's :class:`PortAnalysis` — the closure the
        ``afdx whatif`` report counts never misses a changed port.
        """
        name = sorted(self.network.virtual_links)[0]
        edited, impact = apply_edits(
            self.network, [RetimeVL(name=name, bag_ms=self.network.vl(name).bag_ms * 2)]
        )
        closure = dirty_closure(edited, impact.dirty_ports)
        before = analyze_network_calculus(self.network).ports
        after = analyze_network_calculus(edited).ports
        assert set(before) == set(after)  # same used ports
        clean = set(after) - closure
        assert clean, "the edit dirtied every port; the check would be vacuous"
        for pid in clean:
            assert after[pid] == before[pid], pid


#: manifests, run history and ``afdx obs drift`` key on these bytes
PINNED_NETWORK_FINGERPRINTS = {
    "fig1": "b89fed02e631415626ef18f958f0dd306e4e7b2c48cf454eee5b1563ec43705f",
    "fig2": "6eca296304bcf54411122945bc5be65382a3fdbe51b7aa5812db562f85403404",
    "industrial_small":
        "46d2c671365b4279e1e467498154b7fba27d9ff971310be8cdc71d7815ec5c69",
}


@pytest.mark.parametrize("name", sorted(PINNED_NETWORK_FINGERPRINTS))
def test_network_fingerprint_bytes_are_pinned(name):
    network = {
        "fig1": fig1_network,
        "fig2": fig2_network,
        "industrial_small": lambda: network_from_json(EXAMPLES / "industrial_small.json"),
    }[name]()
    assert network_fingerprint(network) == PINNED_NETWORK_FINGERPRINTS[name]


class TestVlDigestReuse:
    @pytest.fixture
    def digests(self, monkeypatch):
        """The ``stable_digest`` calls made, in order."""
        calls = []

        def counting(*parts):
            calls.append(parts[0])
            return stable_digest(*parts)

        monkeypatch.setattr(fingerprint, "stable_digest", counting)
        return calls

    def test_an_edited_copy_hashes_only_the_edited_vl(self, digests):
        network = random_network(11, n_switches=3, n_end_systems=6, n_virtual_links=8)
        name = sorted(network.virtual_links)[0]
        first = network_fingerprint(network)
        assert digests == ["vl"] * 8 + ["network"]
        edited, _ = apply_edits(
            network, [RetimeVL(name=name, bag_ms=network.vl(name).bag_ms * 2)]
        )
        digests.clear()
        assert network_fingerprint(edited) != first
        assert digests == ["vl", "network"]
        rebuilt = random_network(11, n_switches=3, n_end_systems=6, n_virtual_links=8)
        assert network_fingerprint(rebuilt) == first

    def test_equal_vls_are_told_apart_by_identity(self, digests):
        network = random_network(11, n_switches=3, n_end_systems=6, n_virtual_links=8)
        vl = network.vl(sorted(network.virtual_links)[0])
        twin = dataclasses.replace(vl)
        assert twin == vl and twin is not vl
        assert vl_fingerprint(vl) == vl_fingerprint(vl) == vl_fingerprint(twin)
        assert digests == ["vl", "vl"]
