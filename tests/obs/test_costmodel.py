"""Deterministic cost attribution (repro.obs.costmodel).

The contract under test: the ledger's non-cache sections are a pure
function of the analysis result — byte-identical across
``PYTHONHASHSEED`` values and cold/warm caches — and cache hits appear
as explicit ledger entries rather than silently missing work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.incremental.cache import BoundCache
from repro.netcalc.analyzer import analyze_network_calculus
from repro.obs.costmodel import (
    COST_SCHEMA_VERSION,
    CostLedger,
    deterministic_section,
    netcalc_cost_ledger,
    port_label,
    record_trajectory_sweep,
    trajectory_result_work,
    work_summary,
)
from repro.trajectory.analyzer import analyze_trajectory

REPO = Path(__file__).resolve().parent.parent.parent


def _canon(cost):
    """The byte-identity form of a ledger dict's deterministic part."""
    return json.dumps(deterministic_section(cost), sort_keys=True)


class TestCostLedger:
    def test_add_work_accumulates(self):
        ledger = CostLedger("trajectory")
        ledger.add_work("candidate_evaluations", 3)
        ledger.add_work("candidate_evaluations", 2)
        assert ledger.work == {"candidate_evaluations": 5}

    def test_add_port_work_accumulates_per_label(self):
        ledger = CostLedger("trajectory")
        ledger.add_port_work("a->b", "candidate_evaluations", 2)
        ledger.add_port_work("a->b", "candidate_evaluations", 1)
        ledger.add_port_work("c->d", "candidate_evaluations", 7)
        assert ledger.ports == {
            "a->b": {"candidate_evaluations": 3},
            "c->d": {"candidate_evaluations": 7},
        }

    def test_add_sweep_numbers_entries(self):
        ledger = CostLedger("trajectory")
        ledger.add_sweep(candidate_evaluations=4)
        ledger.add_sweep(candidate_evaluations=2)
        assert [entry["sweep"] for entry in ledger.sweeps] == [1, 2]
        assert ledger.sweeps[0]["candidate_evaluations"] == 4

    def test_record_cache_accumulates(self):
        ledger = CostLedger("trajectory")
        ledger.record_cache("result", 1, 0)
        ledger.record_cache("result", 0, 2)
        assert ledger.cache == {"result": {"hits": 1, "misses": 2}}

    def test_hot_ports_ranked_with_stable_ties(self):
        ledger = CostLedger("trajectory")
        ledger.add_port_work("z->a", "candidate_evaluations", 5)
        ledger.add_port_work("b->c", "candidate_evaluations", 5)
        ledger.add_port_work("a->b", "candidate_evaluations", 9)
        labels = [label for label, _ in ledger.hot_ports("candidate_evaluations")]
        assert labels == ["a->b", "b->c", "z->a"]  # ties break lexicographically
        top1 = ledger.hot_ports("candidate_evaluations", top=1)
        assert [label for label, _ in top1] == ["a->b"]

    def test_to_dict_carries_schema_and_sorted_keys(self):
        ledger = CostLedger("network_calculus")
        ledger.add_work("flow_folds", 2)
        ledger.add_work("curve_knot_operations", 3)
        payload = ledger.to_dict()
        assert payload["cost_schema"] == COST_SCHEMA_VERSION
        assert payload["analyzer"] == "network_calculus"
        assert list(payload["work"]) == sorted(payload["work"])

    def test_snapshot_is_independent_and_cache_free(self):
        ledger = CostLedger("trajectory")
        ledger.add_work("sweeps", 2)
        ledger.add_port_work("a->b", "candidate_evaluations", 4)
        ledger.record_cache("result", 0, 1)
        copy = ledger.snapshot()
        assert copy.cache == {}  # warm runs record their own tallies
        copy.add_work("sweeps", 1)
        copy.ports["a->b"]["candidate_evaluations"] = 99
        assert ledger.work["sweeps"] == 2  # no aliasing
        assert ledger.ports["a->b"]["candidate_evaluations"] == 4

    def test_from_dict_round_trips(self):
        ledger = CostLedger("trajectory")
        ledger.add_work("sweeps", 3)
        ledger.add_port_work("a->b", "competitor_folds", 7)
        ledger.add_sweep(candidate_evaluations=5, smax_updates=1)
        ledger.record_cache("prefix", 2, 4)
        rebuilt = CostLedger.from_dict(ledger.to_dict())
        assert rebuilt.to_dict() == ledger.to_dict()

    def test_port_label(self):
        assert port_label(("SW1", "dest")) == "SW1->dest"

    def test_sweep_counters_are_summed_per_port(self):
        def bound(candidates, competitors):
            return SimpleNamespace(n_candidates=candidates, n_competitors=competitors)

        ledger = CostLedger("trajectory")
        record_trajectory_sweep(
            ledger,
            {
                ("v2", ("S", "d")): bound(5, 6),
                ("v1", ("a", "S")): bound(2, 3),
                ("v2", ("a", "S")): bound(1, 4),
            },
            smax_updates=1,
        )
        assert ledger.ports == {
            "a->S": {"candidate_evaluations": 3, "competitor_folds": 7},
            "S->d": {"candidate_evaluations": 5, "competitor_folds": 6},
        }
        assert ledger.work == {
            "sweeps": 1,
            "tree_ports_visited": 3,
            "candidate_evaluations": 8,
            "competitor_folds": 13,
        }
        assert ledger.sweeps == [
            {
                "sweep": 1,
                "candidate_evaluations": 8,
                "competitor_folds": 13,
                "smax_updates": 1,
                "tree_ports_visited": 3,
            }
        ]


class TestResultDerivedLedgers:
    def test_netcalc_ledger_matches_result_structure(self, fig2):
        result = analyze_network_calculus(fig2)
        ledger = netcalc_cost_ledger(result)
        assert ledger.work["ports_analyzed"] == len(result.ports)
        assert ledger.work["paths_bound"] == len(result.paths)
        assert ledger.work["flow_folds"] == sum(
            port.n_flows for port in result.ports.values()
        )
        assert ledger.work["curve_knot_operations"] == sum(
            port.n_groups + 1 for port in result.ports.values()
        )
        assert set(ledger.ports) == {port_label(pid) for pid in result.ports}

    def test_trajectory_result_work_matches_result(self, fig2):
        result = analyze_trajectory(fig2)
        work = trajectory_result_work(result)
        assert work["sweeps"] == result.refinement_iterations
        assert work["paths_bound"] == len(result.paths)
        assert work["path_candidate_evaluations"] == sum(
            bound.n_candidates for bound in result.paths.values()
        )

    def test_stats_carry_cost_section(self, fig2):
        nc = analyze_network_calculus(fig2, collect_stats=True)
        tr = analyze_trajectory(fig2, collect_stats=True)
        for result, analyzer in ((nc, "network_calculus"), (tr, "trajectory")):
            cost = result.stats["cost"]
            assert cost["cost_schema"] == COST_SCHEMA_VERSION
            assert cost["analyzer"] == analyzer
            assert cost["work"]
        # one cost-curve entry per fixed-point sweep
        assert len(tr.stats["cost"]["sweeps"]) == tr.refinement_iterations
        assert tr.stats["cost"]["sweeps"][-1]["smax_updates"] == 0

    def test_work_summary_extracts_per_analyzer_work(self):
        stats = {
            "trajectory": {"cost": {"work": {"sweeps": 4}}},
            "skipped": None,
            "no_cost": {"counters": {}},
        }
        assert work_summary(stats) == {"trajectory": {"sweeps": 4}}


class TestDeterminism:
    def test_cold_warm_identical_with_explicit_hit(self, fig2):
        cache = BoundCache()
        cold = analyze_trajectory(
            fig2, collect_stats=True, incremental=True, cache=cache
        )
        warm = analyze_trajectory(
            fig2, collect_stats=True, incremental=True, cache=cache
        )
        assert _canon(cold.stats["cost"]) == _canon(warm.stats["cost"])
        assert cold.stats["cost"]["cache"]["result"] == {"hits": 0, "misses": 1}
        assert warm.stats["cost"]["cache"]["result"] == {"hits": 1, "misses": 0}

    def test_hashseed_invariant(self, fig2):
        script = (
            "import json\n"
            "from repro.configs import fig2_network\n"
            "from repro.netcalc.analyzer import analyze_network_calculus\n"
            "from repro.obs.costmodel import deterministic_section\n"
            "from repro.trajectory.analyzer import analyze_trajectory\n"
            "nc = analyze_network_calculus(fig2_network(), collect_stats=True)\n"
            "tr = analyze_trajectory(fig2_network(), collect_stats=True)\n"
            "print(json.dumps({\n"
            "    'nc': deterministic_section(nc.stats['cost']),\n"
            "    'tr': deterministic_section(tr.stats['cost']),\n"
            "}, sort_keys=True))\n"
        )
        outputs = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(REPO / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
