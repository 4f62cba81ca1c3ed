"""Bounds and cost ledgers pinned for fig1, fig2 and industrial_small.

Bounds: a ``--cache-dir`` entry written under one ``CACHE_VERSION`` is
served to every later run of that version, so code that changes a
bound must bump the version.  The bounds of nine runs (three networks,
three serialization modes) are pinned here next to the version they
were computed under: a bound that moves without a bump fails, and a
bump without re-pinning fails too.  A layout-only bump re-pins the same
digests.

Ledgers: the deterministic section of both ``CostLedger``s of the same
nine runs is pinned exactly, in the ``to_dict`` byte order.  Each is
taken from three runs, which must agree byte for byte: a cold run
writing a cache directory, a run served whole from that directory
reopened, and a plain ``collect_stats`` run.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.configs import fig1_network, fig2_network
from repro.core.combined import AnalysisOptions, run_analyses
from repro.incremental.cache import CACHE_VERSION, BoundCache
from repro.network.serialization import network_from_json
from repro.obs.costmodel import deterministic_section
from repro.obs.history import analysis_bounds_digest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"
NETWORKS = {
    "fig1": fig1_network,
    "fig2": fig2_network,
    "industrial_small": lambda: network_from_json(EXAMPLES / "industrial_small.json"),
}
MODES = ("paper", "windowed", "safe")
RUNS = [(name, mode) for name in NETWORKS for mode in MODES]

#: the ``CACHE_VERSION`` the digests below were computed under
PINNED_CACHE_VERSION = 3

#: ``analysis_bounds_digest`` of each run
BOUNDS_DIGESTS = {
    ("fig1", "paper"):
        "1bb28d468d0569fa255071d040852ceee10317f7754c42bc438ff4e2d4e96fa2",
    ("fig1", "windowed"):
        "ed46cf939582fa268e29a6938f63d23acf2232341502abe87c1e078c9c0df0ed",
    ("fig1", "safe"):
        "978c1039d13523249d9609a7641cbd971eed22da45b36037bd383f38d3f0cedd",
    ("fig2", "paper"):
        "31e1c4ee2d5adba30c468a53b59feee1da6ddf5ee88f0dae282b40db1455738a",
    ("fig2", "windowed"):
        "31e1c4ee2d5adba30c468a53b59feee1da6ddf5ee88f0dae282b40db1455738a",
    ("fig2", "safe"):
        "18cc40f00f16cff58855c55722fc277bff52fcc61fc3580eea5359c4c8a64ca7",
    ("industrial_small", "paper"):
        "a7a2bcdeda777d41a291b890d0ac2a8007df57d546158371859f6c73927161ba",
    ("industrial_small", "windowed"):
        "6b9d7406138a2c905d1e013230e90300726dce10cbc58d976d3d095ddbf2e8ee",
    ("industrial_small", "safe"):
        "2ad1e69f3c8245b22462dd8fbd245db4ed31405972092df47e57d65f713f4363",
}

#: Network Calculus ledger of each network (it does not depend on the
#: trajectory mode): sha256 of its deterministic section, and its work
NC_LEDGERS = {
    "fig1": (
        "f365bc9f05a2ea71e1a0341f6d87e17eea2f42487241b67f1f77245503090ea3",
        {"curve_knot_operations": 39, "flow_folds": 41, "paths_bound": 12,
         "ports_analyzed": 14},
    ),
    "fig2": (
        "816f07e548a60d542aa6ce1331901a58cf8ff82aabbab0981842d9358566d33d",
        {"curve_knot_operations": 22, "flow_folds": 15, "paths_bound": 5,
         "ports_analyzed": 9},
    ),
    "industrial_small": (
        "66fb696dc20935f59007ebb3480912832fd10ccfc603fcff4beed876b19aeae7",
        {"curve_knot_operations": 730, "flow_folds": 747, "paths_bound": 413,
         "ports_analyzed": 188},
    ),
}

#: trajectory ledger of each run: sha256 of its deterministic section,
#: and its work
TRAJECTORY_LEDGERS = {
    ("fig1", "paper"): (
        "fd9a7def5660383d52751b8cfcd9496865cbaafc3e490c84521cd720e1aaf0ef",
        {"candidate_evaluations": 82, "competitor_folds": 352, "paths_bound": 12,
         "sweeps": 2, "tree_ports_visited": 82},
    ),
    ("fig1", "windowed"): (
        "fd9a7def5660383d52751b8cfcd9496865cbaafc3e490c84521cd720e1aaf0ef",
        {"candidate_evaluations": 82, "competitor_folds": 352, "paths_bound": 12,
         "sweeps": 2, "tree_ports_visited": 82},
    ),
    ("fig1", "safe"): (
        "bcbc3bdb6d2dcf5307027bb56fa7a0c1872d5c05b263a6a4f5e82cb9fc53dc4c",
        {"candidate_evaluations": 82, "competitor_folds": 352, "paths_bound": 12,
         "sweeps": 2, "tree_ports_visited": 82},
    ),
    ("fig2", "paper"): (
        "fbd71005b7c7a5dd97a2d67367c7ae9597d2a21e74879211be4e4b9119c28ac2",
        {"candidate_evaluations": 30, "competitor_folds": 48, "paths_bound": 5,
         "sweeps": 2, "tree_ports_visited": 30},
    ),
    ("fig2", "windowed"): (
        "fbd71005b7c7a5dd97a2d67367c7ae9597d2a21e74879211be4e4b9119c28ac2",
        {"candidate_evaluations": 30, "competitor_folds": 48, "paths_bound": 5,
         "sweeps": 2, "tree_ports_visited": 30},
    ),
    ("fig2", "safe"): (
        "fbd71005b7c7a5dd97a2d67367c7ae9597d2a21e74879211be4e4b9119c28ac2",
        {"candidate_evaluations": 30, "competitor_folds": 48, "paths_bound": 5,
         "sweeps": 2, "tree_ports_visited": 30},
    ),
    ("industrial_small", "paper"): (
        "6bdcb1080fe8ac411441cda775db12f2f5856a8a0eaf615e0aca26c22c366456",
        {"candidate_evaluations": 2520, "competitor_folds": 14614, "paths_bound": 413,
         "sweeps": 2, "tree_ports_visited": 1494},
    ),
    ("industrial_small", "windowed"): (
        "d7cc94f56c405d7b38bad8acbab21727cefc875834b810dd4aac37bfc0d66994",
        {"candidate_evaluations": 2520, "competitor_folds": 14614, "paths_bound": 413,
         "sweeps": 2, "tree_ports_visited": 1494},
    ),
    ("industrial_small", "safe"): (
        "5901d1f550fc3e50ab7b1b3137a730e8e35b051185bacfb1555d765c127cb36d",
        {"candidate_evaluations": 1494, "competitor_folds": 14674, "paths_bound": 413,
         "sweeps": 2, "tree_ports_visited": 1494},
    ),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``runs(name, mode) -> {shape: (nc, trajectory)}``, each computed once."""
    root = tmp_path_factory.mktemp("pinned-runs")

    @functools.lru_cache(maxsize=None)
    def compute(name, mode):
        options = AnalysisOptions(serialization=mode)
        make = NETWORKS[name]

        def run(cache_dir=None):
            cache = BoundCache(cache_dir=cache_dir) if cache_dir else None
            return run_analyses(make(), options, cache=cache, collect_stats=True)

        cache_dir = root / f"{name}-{mode}"
        return {"cold": run(cache_dir), "reopened": run(cache_dir), "stats": run()}

    return compute


def _section(result):
    """A ledger's deterministic section, as ``to_dict`` orders it."""
    return json.dumps(deterministic_section(result.stats["cost"]))


def test_pins_match_the_cache_version():
    assert CACHE_VERSION == PINNED_CACHE_VERSION, (
        "CACHE_VERSION moved: recompute BOUNDS_DIGESTS under the new version "
        "and pin them with it"
    )


@pytest.mark.parametrize("name,mode", RUNS)
class TestPinnedRuns:
    def test_bounds_match_their_cache_version(self, runs, name, mode):
        digests = {
            shape: analysis_bounds_digest(*results)
            for shape, results in runs(name, mode).items()
        }
        assert set(digests.values()) == {BOUNDS_DIGESTS[(name, mode)]}, (
            f"{name}/{mode} bounds moved under CACHE_VERSION {CACHE_VERSION}: "
            "a bound change must bump it"
        )

    def test_reopened_run_is_served_from_the_cache(self, runs, name, mode):
        nc, trajectory = runs(name, mode)["reopened"]
        assert nc.stats["counters"]["netcalc.result_cache_hit"] == 1
        assert trajectory.stats["counters"]["trajectory.result_cache_hit"] == 1

    def test_ledgers_are_golden_in_every_run_shape(self, runs, name, mode):
        nc_digest, nc_work = NC_LEDGERS[name]
        trajectory_digest, trajectory_work = TRAJECTORY_LEDGERS[(name, mode)]
        for shape, (nc, trajectory) in runs(name, mode).items():
            assert nc.stats["cost"]["work"] == nc_work, shape
            assert trajectory.stats["cost"]["work"] == trajectory_work, shape
            sections = (_section(nc), _section(trajectory))
            digests = tuple(
                hashlib.sha256(section.encode()).hexdigest() for section in sections
            )
            assert digests == (nc_digest, trajectory_digest), shape
