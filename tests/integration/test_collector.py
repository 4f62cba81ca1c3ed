"""An analysis makes no reference cycle and runs with the collector paused.

``run_analyses`` pauses CPython's cyclic garbage collector for the NC
and trajectory runs and resumes it on return or raise, but only if it
was running when the call began.  The pause is safe because a run
leaves no cyclic garbage: what it drops, reference counting frees.
"""

import gc
from pathlib import Path

import pytest

from repro.configs import fig1_network, fig2_network
from repro.core import combined
from repro.core.combined import AnalysisOptions, run_analyses
from repro.errors import UnstableNetworkError
from repro.network.serialization import network_from_json
from repro.trajectory.serialization import SERIALIZATION_MODES

OVERLOADED = Path(__file__).resolve().parents[1] / "lint" / "fixtures" / "overloaded.json"


def cyclic_garbage(network, options):
    """Objects ``gc.collect()`` finds unreachable after one analysis,
    run with the collector disabled around it."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_analyses(network, options)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_state(request):
    """The collector enabled, or disabled, as the caller left it; the
    state before the test is restored after it."""
    before = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(before)


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("mode", SERIALIZATION_MODES)
@pytest.mark.parametrize("build", [fig1_network, fig2_network], ids=["fig1", "fig2"])
def test_an_analysis_leaves_no_cyclic_garbage(build, mode):
    assert cyclic_garbage(build(), AnalysisOptions(serialization=mode)) == 0


def test_an_explained_analysis_leaves_no_cyclic_garbage():
    assert cyclic_garbage(fig1_network(), AnalysisOptions(explain=True)) == 0


def test_both_analyzers_run_paused(caller_state, monkeypatch):
    states = []
    for name in ("analyze_network_calculus", "analyze_trajectory"):
        analyzer = getattr(combined, name)

        def recorded(*args, analyzer=analyzer, **kwargs):
            states.append(gc.isenabled())
            return analyzer(*args, **kwargs)

        monkeypatch.setattr(combined, name, recorded)
    run_analyses(fig2_network())
    assert states == [False, False]
    assert gc.isenabled() is caller_state


def test_a_raise_leaves_the_callers_state(caller_state):
    network = network_from_json(OVERLOADED)
    with pytest.raises(UnstableNetworkError):
        run_analyses(network)
    assert gc.isenabled() is caller_state
