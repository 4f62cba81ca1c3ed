"""Malformed configurations: a documented exit code, never a traceback.

Each example replaces one field of the shipped fig1/fig2 JSON (or the
whole document) with a value of the wrong type or range: null, a bool,
a string, a list, an object, zero, a negative, NaN, +-Infinity or
1e308.  ``json.loads`` accepts NaN and Infinity, so the loader must
reject them itself.  Whatever the edit, the loader returns a network or
raises :class:`ConfigurationError`, the verifier returns a report, and
``afdx analyze`` exits as that report says: 0 when it has no error, 4
when stability (CFG102) is the only violated rule, 3 otherwise.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.network import Network, network_from_dict
from repro.network.preflight import ConfigReport, ConfigVerifier

CONFIGS = Path(__file__).resolve().parents[2] / "examples" / "configs"
DOCUMENTS = {
    name: json.loads((CONFIGS / f"{name}.json").read_text())
    for name in ("fig1", "fig2")
}


def _field_paths(value, prefix=()):
    """JSON paths of every object member and list item under ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


#: ``(config, path)`` targets; the empty path replaces the whole document
TARGETS = [
    (name, path)
    for name, document in sorted(DOCUMENTS.items())
    for path in [(), *_field_paths(document)]
]

BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "4"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "name"]), st.integers(0, 2), max_size=1),
    st.just(0),
    st.sampled_from([-1, -16, -0.5]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308]),
)


def _fig1_index(section, **match):
    entries = DOCUMENTS["fig1"][section]
    return next(
        index
        for index, entry in enumerate(entries)
        if all(entry.get(key) == value for key, value in match.items())
    )


S1 = _fig1_index("nodes", name="S1")
E1 = _fig1_index("nodes", name="e1")
LINK_S1_S3 = _fig1_index("links", a="S1", b="S3")
V1 = _fig1_index("virtual_links", name="v1")

#: the malformed fig1 edits that crashed or slipped through the loader
#: before it checked types, finiteness and magnitude, with the
#: ``afdx lint`` rule that must flag each one
REPROS = [
    (("nodes",), [1], "CFG106"),
    (("nodes", S1, "latency_us"), "x", "CFG106"),
    (("nodes", S1, "latency_us"), -16, "CFG106"),
    (("nodes", S1, "latency_us"), math.nan, "CFG106"),
    (("nodes", E1, "latency_us"), 1e308, "CFG106"),
    (("links", LINK_S1_S3, "rate_mbps"), 0, "CFG106"),
    (("links", LINK_S1_S3, "rate_mbps"), math.inf, "CFG106"),
    (("virtual_links", V1, "name"), 5, "CFG106"),
    ((), [1, 2], "CFG106"),
    (("virtual_links", V1, "bag_ms"), "4", "CFG104"),
    (("virtual_links", V1, "bag_ms"), None, "CFG104"),
    (("virtual_links", V1, "bag_ms"), math.inf, "CFG104"),
    (("virtual_links", V1, "bag_ms"), 1e308, "CFG104"),
    (("virtual_links", V1, "paths"), 5, "CFG106"),
    (("virtual_links",), [], "CFG106"),
]


def _mutated(config, path, value):
    if not path:
        return value
    document = copy.deepcopy(DOCUMENTS[config])
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


def _write(tmp_path, document):
    path = tmp_path / "mutated.json"
    # NaN / Infinity serialize as the non-standard tokens json.loads accepts
    path.write_text(json.dumps(document))
    return str(path)


def _pin_repros(test):
    """``@example`` every known repro, so each replays on every run."""
    for path, value, _rule in REPROS:
        test = example(target=("fig1", path), value=value)(test)
    return test


@given(target=st.sampled_from(TARGETS), value=BAD_VALUES)
@_pin_repros
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_one_bad_field_never_crashes(target, value, tmp_path, capsys):
    config, path = target
    document = _mutated(config, path, value)

    try:
        network = network_from_dict(document)
    except ConfigurationError:
        pass
    else:
        assert isinstance(network, Network)

    report = ConfigVerifier().verify_dict(document)
    assert isinstance(report, ConfigReport)
    verdict = 0 if report.ok else 4 if report.stability_only else 3

    code = main(["analyze", _write(tmp_path, document), "--top", "1"])
    capsys.readouterr()
    assert code == verdict, (target, value, code, [f.render() for f in report.errors])


@pytest.mark.parametrize(
    "path, value, rule", REPROS, ids=[f"{p}={v!r}" for p, v, _ in REPROS]
)
def test_known_malformed_configs_exit_3(path, value, rule, tmp_path, capsys):
    config_path = _write(tmp_path, _mutated("fig1", path, value))

    assert main(["analyze", config_path]) == 3
    err = capsys.readouterr().err
    assert err.count("afdx: error:") == 1, err

    assert main(["lint", config_path, "--no-utilization-table"]) == 3
    out = capsys.readouterr().out
    assert f"{rule} " in out or f"{rule}:" in out, out
