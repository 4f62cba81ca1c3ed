"""``ConfigVerifier``: the one gate every network configuration passes.

The paper's bounds (both Network Calculus and Trajectory) are only
meaningful on a *well-formed* input: a feed-forward VL routing whose
every output port is stable.  This module is the only code that judges
a configuration against those preconditions — plus the ARINC 664
admission rules — and it turns what would surface as a deep exception
(a non-converging sweep, a ``ZeroDivisionError`` in a service curve)
into a one-line diagnostic with a stable rule id:

========  ========  ============================================================
id        severity  checked precondition
========  ========  ============================================================
CFG101    error     feed-forward routing (no cycle in the output-port graph)
CFG102    error     per-port stability ``sum(s_max / BAG) < C``
CFG103    warning   port utilization above the recommended margin
CFG104    error     BAG is a power of two in the 1..128 ms ARINC range
CFG105    error     frame sizes: ``s_min <= s_max`` within 64..1518 bytes
CFG106    error     route connectivity (every consecutive hop is a real link)
CFG107    error     route shape (no repeated node/port inside one path)
CFG108    error     multicast paths form a tree (fork once, never re-join)
CFG109    error     every end system wired to exactly one switch
CFG110    info      per-port utilization table
CFG111    error     duplicate VL names / duplicate paths within a VL
========  ========  ============================================================

The rules run in two places:

* :meth:`ConfigVerifier.verify_dict` runs all of them on a
  configuration document.  Every ``afdx`` command that reads a
  configuration file runs it once per load: ``afdx lint`` renders the
  report, the other commands exit 3 naming the first error's rule, or
  4 when stability (CFG102) is the only error.
* :func:`check_network` is the library gate.  The analyzers, the
  :class:`~repro.network.builder.NetworkBuilder` and the configuration
  generators run it on every network they are handed, and it raises on
  what a bound depends on: stability (CFG102), multicast trees (CFG108)
  and one link per end system (CFG109).  Cycles are left to the port
  toposort every analyzer runs.  The ARINC admission rules (CFG104,
  CFG105) bind configuration files only, so networks built in code
  (parameter sweeps, what-if edits, generators) may use any positive
  BAG and frame size.

The verifier never changes the network's configuration or computed
bounds; it only marks a network that passed the gate's rules, so
:func:`check_network` does not judge it twice.  A document is checked in two stages so malformed input still
gets structured diagnostics: stage 1 checks the raw JSON document
(frame sizes, BAGs, route hops) without constructing model objects — a
config the :class:`~repro.network.virtual_link.VirtualLink`
constructor would reject still yields its rule id here; stage 2 builds
the :class:`~repro.network.topology.Network` once and runs the
graph-level checks (cycle, stability, multicast trees) on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, UnstableNetworkError
from repro.lint.findings import Finding, Severity
from repro.network.port import PortId
from repro.network.port_graph import port_successors
from repro.network.serialization import network_from_dict
from repro.network.topology import Network
from repro.network.virtual_link import (
    ETHERNET_MAX_FRAME_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    STANDARD_BAGS_MS,
)

__all__ = [
    "CONFIG_RULES",
    "ConfigReport",
    "ConfigVerifier",
    "check_network",
    "find_port_cycle",
]


@dataclass(frozen=True)
class ConfigRule:
    """Catalogue entry of one configuration rule."""

    rule_id: str
    severity: Severity
    summary: str
    precondition: str  # the theory clause the rule protects (docs/LINT.md)


CONFIG_RULES: List[ConfigRule] = [
    ConfigRule(
        "CFG101", Severity.ERROR,
        "VL routing must be feed-forward (acyclic output-port graph)",
        "Both analyses require a feed-forward network: NC propagates "
        "bursts in topological port order, the Trajectory fixed point "
        "needs well-founded Smax prefixes (paper Sec. II; Bondorf et "
        "al. on the feed-forward precondition).",
    ),
    ConfigRule(
        "CFG102", Severity.ERROR,
        "every output port must be stable: sum(s_max/BAG) < C",
        "With aggregate long-term rate >= link rate the busy period "
        "and backlog are unbounded — no finite worst-case delay "
        "exists (stability precondition of both methods; the "
        "trajectory busy-period bound refuses utilization >= 1 for "
        "the same reason).",
    ),
    ConfigRule(
        "CFG103", Severity.WARNING,
        "port utilization above the recommended margin",
        "Certification practice keeps link load well below saturation "
        "(the paper's industrial configuration stays under ~15%); "
        "bounds near utilization 1 are finite but astronomically "
        "pessimistic.",
    ),
    ConfigRule(
        "CFG104", Severity.ERROR,
        "BAG must be a power of two between 1 and 128 ms",
        "ARINC 664 Part 7 admission rule; the paper's configurations "
        "use harmonic BAGs in exactly this range.",
    ),
    ConfigRule(
        "CFG105", Severity.ERROR,
        "frame sizes must satisfy 64 <= s_min <= s_max <= 1518 bytes",
        "Ethernet frame bounds policed at every switch entry (paper "
        "Sec. III-A-2); s_min > s_max would make the Trajectory "
        "competitor offsets Smax - Smin negative.",
    ),
    ConfigRule(
        "CFG106", Severity.ERROR,
        "every consecutive route hop must be a physical link",
        "A disconnected route has no output-port sequence: neither "
        "analysis can map the VL onto queues.",
    ),
    ConfigRule(
        "CFG107", Severity.ERROR,
        "a route must not repeat a node",
        "A repeated node is a routing loop inside one path — frames "
        "would revisit a queue, violating the feed-forward model.",
    ),
    ConfigRule(
        "CFG108", Severity.ERROR,
        "multicast paths of one VL must form a tree",
        "Frames duplicate only where paths fork; a re-join would "
        "deliver two copies through one port and break the grouping "
        "and serialization arguments (unique prefix per node).",
    ),
    ConfigRule(
        "CFG109", Severity.ERROR,
        "every end system connects to exactly one switch port",
        "ARINC 664 wiring rule; the source ES shaper model (one "
        "regulated output port per ES) depends on it.",
    ),
    ConfigRule(
        "CFG110", Severity.INFO,
        "per-port utilization table",
        "Informational: the load the stability margin is judged on.",
    ),
    ConfigRule(
        "CFG111", Severity.ERROR,
        "VL names and per-VL paths must be unique",
        "Duplicate names would silently merge two traffic contracts.",
    ),
]

CONFIG_RULES_BY_ID: Dict[str, ConfigRule] = {r.rule_id: r for r in CONFIG_RULES}

#: Utilization above which CFG103 (warning) fires.
DEFAULT_WARN_UTILIZATION = 0.75

#: the stability limit of :func:`check_network`, the theoretical one
_GATE_MAX_UTILIZATION = 1.0


@dataclass
class ConfigReport:
    """Outcome of verifying one configuration."""

    source: str
    findings: List[Finding] = field(default_factory=list)
    port_utilization: Dict[PortId, float] = field(default_factory=dict)
    #: the network stage 2 ran on (None when the document could not be
    #: built); the CLI analyzes this very object instead of a rebuild
    network: Optional[Network] = None

    @property
    def built(self) -> bool:
        """True when stage 2 ran (the document was constructible)."""
        return self.network is not None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def stability_only(self) -> bool:
        """True when every error is a stability (CFG102) violation.

        Drives the exit-code split: pure stability failures exit 4
        (unstable network), anything structural exits 3 (config error).
        """
        errors = self.errors
        return bool(errors) and all(f.rule_id == "CFG102" for f in errors)

    def raise_on_error(self) -> None:
        """Raise for the first error, naming its rule; no-op when ok.

        Raises
        ------
        UnstableNetworkError
            When stability (CFG102) is the only violated rule.
        ConfigurationError
            For any other error.
        """
        errors = self.errors
        if not errors:
            return
        first = errors[0]
        message = f"{first.rule_id}: {first.message}"
        if len(errors) > 1:
            message += f" (and {len(errors) - 1} more error(s), see afdx lint)"
        if self.stability_only:
            raise UnstableNetworkError(message)
        raise ConfigurationError(message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "built": self.built,
            "findings": [f.to_dict() for f in self.findings],
            "port_utilization": {
                f"{a}->{b}": round(util, 6)
                for (a, b), util in sorted(self.port_utilization.items())
            },
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": sum(
                    1 for f in self.findings if f.severity is Severity.INFO
                ),
            },
        }


def _multicast_paths_form_tree(paths: Tuple[Tuple[str, ...], ...]) -> bool:
    """Check that the paths of one VL only fork (never re-join).

    Equivalent tree condition: for every node appearing in several
    paths, the path *prefix* up to that node is identical in all of
    them — a frame reaches any given node along a single route.
    """
    prefix_by_node: Dict[str, Tuple[str, ...]] = {}
    for path in paths:
        for idx, node in enumerate(path):
            prefix = path[: idx + 1]
            if node in prefix_by_node:
                if prefix_by_node[node] != prefix:
                    return False
            else:
                prefix_by_node[node] = prefix
    return True


def find_port_cycle(network: Network) -> Optional[List[PortId]]:
    """One concrete cycle of the output-port graph, or None.

    Iterative DFS with an explicit stack; neighbors are visited in
    sorted order so the reported cycle is deterministic.
    """
    succ = {pid: sorted(targets) for pid, targets in port_successors(network).items()}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {pid: WHITE for pid in succ}
    parent: Dict[PortId, Optional[PortId]] = {}
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[PortId, int]] = [(root, 0)]
        color[root] = GREY
        parent[root] = None
        while stack:
            node, idx = stack[-1]
            if idx < len(succ[node]):
                stack[-1] = (node, idx + 1)
                child = succ[node][idx]
                if color[child] == GREY:
                    # found: walk parents from node back to child
                    cycle = [node]
                    cursor = node
                    while cursor != child:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
                if color[child] == WHITE:
                    color[child] = GREY
                    parent[child] = node
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


def _fmt_port(pid: PortId) -> str:
    return f"{pid[0]}->{pid[1]}"


class ConfigVerifier:
    """Static verifier for one configuration document or network.

    Parameters
    ----------
    max_utilization:
        Stability threshold for CFG102 (default 1.0 — the theoretical
        limit; admission control may verify against a stricter value).
    warn_utilization:
        CFG103 fires above this (default 0.75).
    utilization_table:
        Emit the CFG110 info entries (default True for ``afdx lint``;
        the configuration loader of the other commands disables them).
    """

    def __init__(
        self,
        max_utilization: float = _GATE_MAX_UTILIZATION,
        warn_utilization: float = DEFAULT_WARN_UTILIZATION,
        utilization_table: bool = True,
    ) -> None:
        if not 0 < max_utilization <= 1.0:
            raise ValueError(
                f"max_utilization must be in (0, 1], got {max_utilization}"
            )
        self.max_utilization = max_utilization
        self.warn_utilization = warn_utilization
        self.utilization_table = utilization_table

    # -- public entry points -------------------------------------------

    def verify_network(self, network: Network, source: str = "<network>") -> ConfigReport:
        """Every stage-2 rule on an already-built :class:`Network`."""
        report = ConfigReport(source=source, network=network)
        self._check_admission(network, report)
        self._check_feed_forward(network, report)
        self._check_bound_preconditions(network, report)
        report.findings.sort(key=lambda f: f.sort_key)
        return report

    def verify_dict(self, document: Dict[str, Any], source: str = "<dict>") -> ConfigReport:
        """Stage-1 raw-document checks, then stage 2 when constructible.

        Never raises on malformed content: structural problems become
        findings, and whatever the loader rejects is a CFG106 error.
        The network stage 2 built is the report's ``network``.
        """
        report = ConfigReport(source=source)
        if isinstance(document, dict):
            self._raw_checks(document, report)
        if not report.errors:
            try:
                network = network_from_dict(document)
            except ConfigurationError as exc:
                report.findings.append(
                    self._finding("CFG106", source, f"configuration rejected: {exc}")
                )
            else:
                return self.verify_network(network, source=source)
        report.findings.sort(key=lambda f: f.sort_key)
        return report

    # -- helpers --------------------------------------------------------

    def _finding(self, rule_id: str, source: str, message: str) -> Finding:
        rule = CONFIG_RULES_BY_ID[rule_id]
        return Finding(
            rule_id=rule_id,
            severity=rule.severity,
            path=source,
            line=0,
            column=0,
            message=message,
        )

    # -- stage 1: raw document -----------------------------------------

    def _raw_checks(self, document: Dict[str, Any], report: ConfigReport) -> None:
        source = report.source
        vls = document.get("virtual_links", [])
        if not isinstance(vls, list):
            report.findings.append(
                self._finding("CFG106", source, "'virtual_links' must be a list")
            )
            return
        links = document.get("links", [])
        link_set = set()
        if isinstance(links, list):
            for link in links:
                if isinstance(link, dict) and "a" in link and "b" in link:
                    link_set.add(frozenset((str(link["a"]), str(link["b"]))))
        seen_names: set = set()
        for vl in vls:
            if not isinstance(vl, dict):
                report.findings.append(
                    self._finding("CFG106", source, "virtual link entry is not an object")
                )
                continue
            name = str(vl.get("name", "?"))
            if name in seen_names:
                report.findings.append(
                    self._finding("CFG111", source, f"duplicate VL name {name!r}")
                )
            seen_names.add(name)
            self._raw_check_bag(vl, name, report)
            self._raw_check_sizes(vl, name, report)
            self._raw_check_paths(vl, name, link_set, report)

    def _raw_check_bag(self, vl: Dict[str, Any], name: str, report: ConfigReport) -> None:
        bag = vl.get("bag_ms")
        if not isinstance(bag, (int, float)) or isinstance(bag, bool):
            report.findings.append(
                self._finding("CFG104", report.source, f"VL {name!r}: BAG {bag!r} is not a number")
            )
            return
        if float(bag) not in [float(b) for b in STANDARD_BAGS_MS]:
            report.findings.append(
                self._finding(
                    "CFG104",
                    report.source,
                    f"VL {name!r}: BAG {bag} ms is not an ARINC 664 value "
                    f"(power of two in {STANDARD_BAGS_MS[0]}..{STANDARD_BAGS_MS[-1]} ms)",
                )
            )

    def _raw_check_sizes(self, vl: Dict[str, Any], name: str, report: ConfigReport) -> None:
        source = report.source
        s_max = vl.get("s_max_bytes")
        s_min = vl.get("s_min_bytes", ETHERNET_MIN_FRAME_BYTES)
        for label, value in (("s_max_bytes", s_max), ("s_min_bytes", s_min)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                report.findings.append(
                    self._finding(
                        "CFG105", source, f"VL {name!r}: {label} {value!r} is not a number"
                    )
                )
                return
        if s_min > s_max:
            report.findings.append(
                self._finding(
                    "CFG105",
                    source,
                    f"VL {name!r}: s_min {s_min} B exceeds s_max {s_max} B",
                )
            )
        if s_min < ETHERNET_MIN_FRAME_BYTES:
            report.findings.append(
                self._finding(
                    "CFG105",
                    source,
                    f"VL {name!r}: s_min {s_min} B is below the Ethernet minimum "
                    f"{ETHERNET_MIN_FRAME_BYTES} B",
                )
            )
        if s_max > ETHERNET_MAX_FRAME_BYTES:
            report.findings.append(
                self._finding(
                    "CFG105",
                    source,
                    f"VL {name!r}: s_max {s_max} B exceeds the Ethernet maximum "
                    f"{ETHERNET_MAX_FRAME_BYTES} B",
                )
            )

    def _raw_check_paths(
        self,
        vl: Dict[str, Any],
        name: str,
        link_set: set,
        report: ConfigReport,
    ) -> None:
        source = report.source
        paths = vl.get("paths", [])
        if not isinstance(paths, list) or not paths:
            report.findings.append(
                self._finding("CFG106", source, f"VL {name!r}: no paths defined")
            )
            return
        seen_paths = set()
        for path in paths:
            if not isinstance(path, list) or len(path) < 2:
                report.findings.append(
                    self._finding(
                        "CFG106",
                        source,
                        f"VL {name!r}: path {path!r} must list source and destination",
                    )
                )
                continue
            hops = tuple(str(h) for h in path)
            if hops in seen_paths:
                report.findings.append(
                    self._finding("CFG111", source, f"VL {name!r}: duplicate path {list(hops)}")
                )
            seen_paths.add(hops)
            if len(set(hops)) != len(hops):
                report.findings.append(
                    self._finding(
                        "CFG107",
                        source,
                        f"VL {name!r}: path {list(hops)} repeats a node "
                        "(routing loop within the path)",
                    )
                )
            for a, b in zip(hops, hops[1:]):
                if link_set and frozenset((a, b)) not in link_set:
                    report.findings.append(
                        self._finding(
                            "CFG106",
                            source,
                            f"VL {name!r}: route hop {a} -> {b} is not a "
                            "physical link (disconnected route)",
                        )
                    )

    # -- stage 2: built network ----------------------------------------

    def _check_admission(self, network: Network, report: ConfigReport) -> None:
        """ARINC 664 BAG (CFG104) and frame-size (CFG105) contracts."""
        for name in sorted(network.virtual_links):
            vl = network.virtual_links[name]
            if float(vl.bag_ms) not in [float(b) for b in STANDARD_BAGS_MS]:
                report.findings.append(
                    self._finding(
                        "CFG104",
                        report.source,
                        f"VL {name!r}: BAG {vl.bag_ms} ms is not an ARINC 664 value "
                        f"(power of two in {STANDARD_BAGS_MS[0]}..{STANDARD_BAGS_MS[-1]} ms)",
                    )
                )
            if vl.s_min_bytes < ETHERNET_MIN_FRAME_BYTES:
                report.findings.append(
                    self._finding(
                        "CFG105",
                        report.source,
                        f"VL {name!r}: s_min {vl.s_min_bytes} B is below the "
                        f"Ethernet minimum {ETHERNET_MIN_FRAME_BYTES} B",
                    )
                )
            if vl.s_max_bytes > ETHERNET_MAX_FRAME_BYTES:
                report.findings.append(
                    self._finding(
                        "CFG105",
                        report.source,
                        f"VL {name!r}: s_max {vl.s_max_bytes} B exceeds the "
                        f"Ethernet maximum {ETHERNET_MAX_FRAME_BYTES} B",
                    )
                )

    def _check_feed_forward(self, network: Network, report: ConfigReport) -> None:
        cycle = find_port_cycle(network)
        if cycle is not None:
            report.findings.append(
                self._finding(
                    "CFG101",
                    report.source,
                    "VL routing is not feed-forward; output-port cycle: "
                    + " -> ".join(_fmt_port(p) for p in cycle),
                )
            )

    def _check_bound_preconditions(self, network: Network, report: ConfigReport) -> None:
        """What a finite bound depends on: the :func:`check_network` rules.

        A pass at the gate's own limit (``max_utilization`` 1.0) is kept
        on the network until its next mutation, so :func:`check_network`
        does not judge the same configuration again; a pass at a
        stricter limit (``afdx lint --max-utilization``) says nothing
        about the gate and is not kept.
        """
        n_findings = len(report.findings)
        for es in network.end_systems():
            degree = len(network.neighbors(es.name))
            if degree != 1:
                report.findings.append(
                    self._finding(
                        "CFG109",
                        report.source,
                        f"end system {es.name!r} has {degree} links; "
                        "ARINC 664 requires exactly one",
                    )
                )
        for name in sorted(network.virtual_links):
            if not _multicast_paths_form_tree(network.virtual_links[name].paths):
                report.findings.append(
                    self._finding(
                        "CFG108",
                        report.source,
                        f"VL {name!r}: multicast paths re-join after forking; "
                        "they must form a tree rooted at the source",
                    )
                )
        for port_id in network.used_ports():
            util = network.port_utilization(port_id)
            report.port_utilization[port_id] = util
            if util >= self.max_utilization:
                report.findings.append(
                    self._finding(
                        "CFG102",
                        report.source,
                        f"output port {_fmt_port(port_id)} is unstable: "
                        f"utilization {util:.4f} >= {self.max_utilization:.4f} "
                        "(sum(s_max/BAG) must stay below the link rate)",
                    )
                )
            elif util > self.warn_utilization:
                report.findings.append(
                    self._finding(
                        "CFG103",
                        report.source,
                        f"output port {_fmt_port(port_id)} utilization "
                        f"{util:.4f} exceeds the recommended margin "
                        f"{self.warn_utilization:.2f}",
                    )
                )
            if self.utilization_table:
                report.findings.append(
                    self._finding(
                        "CFG110",
                        report.source,
                        f"port {_fmt_port(port_id)} utilization {util:.4f} "
                        f"({len(network.vls_at_port(port_id))} VLs)",
                    )
                )
        if self.max_utilization == _GATE_MAX_UTILIZATION and not any(
            finding.severity is Severity.ERROR for finding in report.findings[n_findings:]
        ):
            network._gate_passed = True


#: the verifier behind :func:`check_network`: the theoretical stability
#: limit, no utilization table
_GATE = ConfigVerifier(utilization_table=False)


def check_network(network: Network) -> None:
    """The library gate: raise unless a finite bound can exist.

    Runs the verifier's rules for stability (CFG102), multicast trees
    (CFG108) and one link per end system (CFG109) — not the admission
    rules CFG104/CFG105, which bind configuration files only, and not
    the cycle search, which the analyzers' port toposort performs.

    Returns at once when the network passed these rules since its last
    mutation (a verifier run at the same limit, such as the one
    ``afdx`` loads every configuration file through).

    Raises
    ------
    UnstableNetworkError
        When stability is the only violated rule.
    ConfigurationError
        For any other violation.
    """
    if network._gate_passed:
        return
    report = ConfigReport(source=network.name, network=network)
    _GATE._check_bound_preconditions(network, report)
    report.findings.sort(key=lambda f: f.sort_key)
    report.raise_on_error()
