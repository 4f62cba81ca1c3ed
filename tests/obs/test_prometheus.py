"""Prometheus textfile exposition: naming, escaping, grouping, atomicity."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (
    registry_samples,
    render_prometheus,
    write_prometheus,
)


def snapshot():
    registry = MetricsRegistry()
    registry.counter("netcalc.ports_analyzed", 12)
    registry.gauge("explain.max_abs_residual_us", 4.6e-13)
    with registry.timer("trajectory.sweep"):
        pass
    return registry.to_dict()


class TestRegistrySamples:
    def test_counters_get_total_suffix(self):
        samples = registry_samples(snapshot())
        names = {name for name, *_ in samples}
        assert "repro_netcalc_ports_analyzed_total" in names

    def test_timers_expand_into_four_gauges(self):
        samples = registry_samples(snapshot())
        names = {name for name, *_ in samples}
        for suffix in ("_ms_count", "_ms_sum", "_ms_min", "_ms_max"):
            assert f"repro_trajectory_sweep{suffix}" in names

    def test_dots_sanitized_and_prefix_applied(self):
        samples = registry_samples(snapshot())
        for name, *_ in samples:
            assert name.startswith("repro_")
            assert "." not in name

    def test_labels_attached_to_every_sample(self):
        samples = registry_samples(snapshot(), labels={"command": "explain"})
        assert samples
        for _name, labels, *_ in samples:
            assert labels == (("command", "explain"),)


class TestRender:
    def test_one_type_line_per_family(self):
        text = render_prometheus(
            registry_samples(snapshot(), labels={"command": "a"})
            + registry_samples(snapshot(), labels={"command": "b"})
        )
        lines = text.splitlines()
        type_lines = [l for l in lines if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))
        # both label sets appear under the single family header
        assert 'repro_netcalc_ports_analyzed_total{command="a"} 12' in lines
        assert 'repro_netcalc_ports_analyzed_total{command="b"} 12' in lines

    def test_counter_type_declared(self):
        text = render_prometheus(registry_samples(snapshot()))
        assert "# TYPE repro_netcalc_ports_analyzed_total counter" in text

    def test_label_values_escaped(self):
        sample = ("repro_x", (("path", 'a\\b"c\nd'),), 1.0, "gauge")
        text = render_prometheus([sample])
        assert '{path="a\\\\b\\"c\\nd"}' in text
        assert text.count("\n") == 2  # TYPE line + sample line, no raw newline

    def test_type_conflict_rejected(self):
        with pytest.raises(ValueError, match="declared both"):
            render_prometheus(
                [("repro_x", (), 1.0, "counter"), ("repro_x", (), 2.0, "gauge")]
            )

    def test_output_is_sorted_and_newline_terminated(self):
        text = render_prometheus(registry_samples(snapshot()))
        assert text.endswith("\n")
        families = [l.split()[2] for l in text.splitlines() if l.startswith("# TYPE")]
        assert families == sorted(families)

    def test_empty_input_renders_empty(self):
        assert render_prometheus([]) == ""

    def test_float_values_round_trip(self):
        text = render_prometheus(registry_samples(snapshot()))
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_explain_max_abs_residual_us")
        )
        assert float(line.split()[-1]) == 4.6e-13


class TestWrite:
    def test_writes_atomically(self, tmp_path):
        target = tmp_path / "metrics.prom"
        # one sample set: a second snapshot() would re-time the timer
        # block and render different wall-clock digits
        samples = registry_samples(snapshot())
        write_prometheus(target, samples)
        assert target.read_text() == render_prometheus(samples)
        # no temp file left behind
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]

    def test_overwrites_previous_run(self, tmp_path):
        target = tmp_path / "metrics.prom"
        write_prometheus(target, registry_samples(snapshot()))
        write_prometheus(target, [("repro_only", (), 1.0, "gauge")])
        assert target.read_text() == "# TYPE repro_only gauge\nrepro_only 1\n"

