"""Certification report rendering."""

import pytest

from repro.core import analyze_network, certification_report


@pytest.fixture
def report(fig2):
    return certification_report(fig2, analyze_network(fig2), top_paths=3)


def test_header_identifies_configuration(report):
    assert "configuration 'fig2'" in report
    assert "5 VLs / 5 paths" in report


def test_all_paths_listed(report):
    for name in ("v1[0]", "v2[0]", "v3[0]", "v4[0]", "v5[0]"):
        assert name in report


def test_sections_present(report):
    assert "End-to-end delay bounds" in report
    assert "critical paths" in report
    assert "Method comparison" in report
    assert "Output-port dimensioning" in report


def test_top_paths_limited(report):
    section = report.split("Top 3 critical paths")[1].split("Method comparison")[0]
    assert section.count(" via ") == 3


def test_jitter_and_floor_columns(report):
    assert "jitter" in report
    assert "floor" in report


def test_buffer_budget_line(report):
    assert "total switch buffer budget" in report


def test_deterministic(fig2):
    result = analyze_network(fig2)
    assert certification_report(fig2, result) == certification_report(fig2, result)
