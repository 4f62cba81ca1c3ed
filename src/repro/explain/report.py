"""Rendering of bound explanations: text, JSON, HTML.

All three renderers are pure functions of the :class:`Explanation`
(no timestamps, no machine identity, deterministic ordering and float
formatting), so output is byte-identical across cold vs incremental
runs — which the test suite enforces.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, List, Optional, Tuple

from repro.obs.provenance import Decomposition, Term

__all__ = ["render_explanation", "FORMATS"]

FORMATS = ("text", "json", "html")


def _flow(key: Tuple[str, int]) -> str:
    return f"{key[0]}[{key[1]}]"


def _select_keys(explanation, vl: Optional[str], path: Optional[int], top: int):
    keys = sorted(explanation.attributions)
    if vl is not None:
        keys = [key for key in keys if key[0] == vl]
        if not keys:
            from repro.errors import AnalysisError

            raise AnalysisError(f"unknown VL {vl!r} (no analyzed path has it)")
    if path is not None:
        keys = [key for key in keys if key[1] == path]
        if not keys:
            from repro.errors import AnalysisError

            raise AnalysisError(
                f"no analyzed path has index {path}"
                + (f" for VL {vl!r}" if vl is not None else "")
            )
    # most interesting first: largest |gap|, then deterministic key order
    keys.sort(key=lambda key: (-abs(explanation.attributions[key].gap_us), key))
    if top:
        keys = keys[:top]
    return keys


def _term_line(term: Term, indent: str) -> List[str]:
    where = ""
    if term.hop is not None and term.port is not None:
        where = f"hop {term.hop} {term.port[0]}->{term.port[1]}  "
    elif term.port is not None:
        where = f"{term.port[0]}->{term.port[1]}  "
    extra = []
    if term.group is not None:
        extra.append(f"via {term.group}")
    if term.detail is not None:
        extra.append(term.detail)
    suffix = f"   ({'; '.join(extra)})" if extra else ""
    lines = [
        f"{indent}{where}{term.label:<20}{term.value_us:>18.6f}{suffix}"
    ]
    for child in term.children:
        lines.extend(_term_line(child, indent + "  "))
    return lines


def _ledger_lines(decomposition: Decomposition, indent: str) -> List[str]:
    lines: List[str] = []
    for term in decomposition.terms:
        lines.extend(_term_line(term, indent))
    status = "exact" if decomposition.conserved else "VIOLATED"
    lines.append(
        f"{indent}{'sum':<20}{decomposition.term_sum_us():>18.6f}   "
        f"(conservation {status}, bound {decomposition.bound_us:.6f})"
    )
    return lines


def _render_text(explanation, keys) -> str:
    summary = explanation.summary
    lines = [
        f"bound provenance — {explanation.network.name} "
        f"({len(explanation.network.virtual_links)} VLs, "
        f"{summary.n_paths} paths)",
        f"trajectory tighter on {summary.trajectory_wins}, "
        f"network calculus tighter on {summary.nc_wins}, "
        f"ties {summary.ties}",
    ]
    for title, histogram in (
        ("trajectory wins", summary.dominant_on_trajectory_wins),
        ("network-calculus wins", summary.dominant_on_nc_wins),
    ):
        if histogram:
            ranked = ", ".join(f"{name} x{count}" for name, count in histogram)
            lines.append(f"dominant terms where {title}: {ranked}")
    lines.append(
        f"conservation: {2 * summary.n_paths - summary.conservation_failures}"
        f"/{2 * summary.n_paths} ledgers exact "
        f"(max |fp-residual| {summary.max_abs_residual_us:.3e} us)"
    )
    for key in keys:
        attribution = explanation.attributions[key]
        nc = explanation.netcalc.provenance[key]
        trajectory = explanation.trajectory.provenance[key]
        lines.append("")
        lines.append(
            f"== {_flow(key)}  {' -> '.join(attribution.node_path)}"
        )
        lines.append(
            f"  WCNC {attribution.network_calculus_us:.6f} us | "
            f"trajectory {attribution.trajectory_us:.6f} us | "
            f"winner {attribution.winner} "
            f"(gap {attribution.gap_us:+.6f} us)"
        )
        if attribution.dominant_term != "none":
            lines.append(
                f"  dominant term: {attribution.dominant_term} "
                f"({attribution.contribution(attribution.dominant_term):+.6f} us)"
            )
        lines.append(
            f"  {'contribution':<22}{'to gap (us)':>16}"
        )
        for label, value in attribution.contributions:
            lines.append(f"    {label:<20}{value:>16.6f}")
        lines.append(
            f"  {'hop':<4}{'port':<16}{'NC Δ (us)':>14}{'Traj Δ (us)':>14}"
        )
        for hop in attribution.hops:
            lines.append(
                f"  {hop.hop:<4}{hop.port[0] + '->' + hop.port[1]:<16}"
                f"{hop.network_calculus_us:>14.6f}{hop.trajectory_us:>14.6f}"
            )
        lines.append("  network-calculus ledger:")
        lines.extend(_ledger_lines(nc, "    "))
        lines.append("  trajectory ledger:")
        lines.extend(_ledger_lines(trajectory, "    "))
    return "\n".join(lines) + "\n"


def _render_json(explanation, keys) -> str:
    payload: Dict[str, object] = {
        "config": explanation.network.name,
        "summary": explanation.summary.to_dict(),
        "paths": [
            {
                "flow": _flow(key),
                "attribution": explanation.attributions[key].to_dict(),
                "network_calculus": explanation.netcalc.provenance[key].to_dict(),
                "trajectory": explanation.trajectory.provenance[key].to_dict(),
            }
            for key in keys
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _html_ledger(decomposition: Decomposition) -> str:
    rows = []

    def emit(term: Term, depth: int) -> None:
        pad = "&nbsp;" * (4 * depth)
        where = (
            f"{term.port[0]}-&gt;{term.port[1]}" if term.port is not None else ""
        )
        hop = str(term.hop) if term.hop is not None else ""
        note = _html.escape(
            "; ".join(x for x in (term.group, term.detail) if x)
        )
        rows.append(
            f"<tr><td>{pad}{_html.escape(term.label)}</td>"
            f"<td>{hop}</td><td>{where}</td>"
            f"<td class='num'>{term.value_us:.6f}</td>"
            f"<td>{note}</td></tr>"
        )
        for child in term.children:
            emit(child, depth + 1)

    for term in decomposition.terms:
        emit(term, 0)
    status = "exact" if decomposition.conserved else "VIOLATED"
    rows.append(
        f"<tr class='total'><td>sum ({status})</td><td></td><td></td>"
        f"<td class='num'>{decomposition.term_sum_us():.6f}</td><td></td></tr>"
    )
    return (
        "<table><thead><tr><th>term</th><th>hop</th><th>port</th>"
        "<th>us</th><th>notes</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _render_html(explanation, keys) -> str:
    summary = explanation.summary
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>bound provenance — "
        f"{_html.escape(explanation.network.name)}</title>",
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse;margin:0.5em 0}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
        "td.num{text-align:right}tr.total{font-weight:bold}"
        "h2{margin-top:1.5em}</style></head><body>",
        f"<h1>bound provenance — "
        f"{_html.escape(explanation.network.name)}</h1>",
        f"<p>{summary.n_paths} paths: trajectory tighter on "
        f"{summary.trajectory_wins}, network calculus tighter on "
        f"{summary.nc_wins}, ties {summary.ties}.<br>"
        f"conservation: {2 * summary.n_paths - summary.conservation_failures}"
        f"/{2 * summary.n_paths} ledgers exact "
        f"(max |fp-residual| {summary.max_abs_residual_us:.3e} us)</p>",
    ]
    for key in keys:
        attribution = explanation.attributions[key]
        parts.append(
            f"<h2>{_html.escape(_flow(key))} &mdash; "
            f"{_html.escape(' -> '.join(attribution.node_path))}</h2>"
        )
        parts.append(
            f"<p>WCNC {attribution.network_calculus_us:.6f} us, "
            f"trajectory {attribution.trajectory_us:.6f} us, winner "
            f"<b>{_html.escape(attribution.winner)}</b> "
            f"(gap {attribution.gap_us:+.6f} us); dominant term "
            f"<b>{_html.escape(attribution.dominant_term)}</b></p>"
        )
        parts.append(
            "<table><thead><tr><th>contribution</th><th>to gap (us)</th>"
            "</tr></thead><tbody>"
            + "".join(
                f"<tr><td>{_html.escape(label)}</td>"
                f"<td class='num'>{value:+.6f}</td></tr>"
                for label, value in attribution.contributions
            )
            + "</tbody></table>"
        )
        parts.append("<h3>network-calculus ledger</h3>")
        parts.append(_html_ledger(explanation.netcalc.provenance[key]))
        parts.append("<h3>trajectory ledger</h3>")
        parts.append(_html_ledger(explanation.trajectory.provenance[key]))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_explanation(
    explanation,
    fmt: str = "text",
    vl: Optional[str] = None,
    path: Optional[int] = None,
    top: int = 0,
) -> str:
    """Render an :class:`~repro.explain.Explanation` in one format.

    ``vl`` / ``path`` filter the detailed per-path sections (the
    summary always covers every path); ``top`` keeps only the N paths
    with the largest |gap|.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    keys = _select_keys(explanation, vl, path, top)
    if fmt == "json":
        return _render_json(explanation, keys)
    if fmt == "html":
        return _render_html(explanation, keys)
    return _render_text(explanation, keys)
