"""The edit model of the incremental engine.

An :class:`Edit` is one admission-control operation on a configuration:
add / remove / retime (BAG) / resize (frame size) / re-route a Virtual
Link.  Edits are *pure*: :func:`apply_edits` returns a fresh
:class:`~repro.network.topology.Network` (the input is never mutated)
together with the :class:`EditImpact` — the set of output ports whose
analysis inputs the batch of edits touched directly.  The incremental
engine grows that seed into the downstream dirty closure
(:func:`repro.incremental.delta.dirty_closure`) and recomputes only
inside it.

Edit scripts — the ``afdx whatif`` input — are JSON documents::

    {"edits": [
      {"op": "retime",  "vl": "vl0001", "bag_ms": 8},
      {"op": "resize",  "vl": "vl0002", "s_max_bytes": 300},
      {"op": "reroute", "vl": "vl0003", "paths": [["e1", "S1", "e2"]]},
      {"op": "remove",  "vl": "vl0004"},
      {"op": "add",     "vl": {"name": "vl2001", "source": "e1",
                               "bag_ms": 16, "s_max_bytes": 200,
                               "paths": [["e1", "S1", "e2"]]}}
    ]}

Malformed scripts raise :class:`~repro.errors.ConfigurationError`, which
the CLI maps to its configuration exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from repro import units
from repro.errors import ConfigurationError, UnknownNodeError
from repro.network.port import PortId
from repro.network.serialization import _number, _routes, _typed, _virtual_link
from repro.network.topology import Network
from repro.network.virtual_link import VirtualLink

__all__ = [
    "Edit",
    "AddVL",
    "RemoveVL",
    "RetimeVL",
    "ResizeVL",
    "RerouteVL",
    "EditImpact",
    "apply_edits",
    "parse_edit_script",
    "load_edit_script",
]


@dataclass(frozen=True)
class AddVL:
    """Admit a new Virtual Link."""

    vl: VirtualLink

    def describe(self) -> str:
        return f"add {self.vl.name}"


@dataclass(frozen=True)
class RemoveVL:
    """Withdraw a Virtual Link."""

    name: str

    def describe(self) -> str:
        return f"remove {self.name}"


@dataclass(frozen=True)
class RetimeVL:
    """Change a VL's BAG (the admission loop's main repair move)."""

    name: str
    bag_ms: float

    def describe(self) -> str:
        return f"retime {self.name} bag={self.bag_ms}ms"


@dataclass(frozen=True)
class ResizeVL:
    """Change a VL's maximum frame size."""

    name: str
    s_max_bytes: float

    def describe(self) -> str:
        return f"resize {self.name} s_max={self.s_max_bytes}B"


@dataclass(frozen=True)
class RerouteVL:
    """Replace a VL's multicast routing."""

    name: str
    paths: Tuple[Tuple[str, ...], ...]

    def describe(self) -> str:
        return f"reroute {self.name} ({len(self.paths)} paths)"


Edit = Union[AddVL, RemoveVL, RetimeVL, ResizeVL, RerouteVL]


@dataclass(frozen=True)
class EditImpact:
    """What a batch of edits touched directly.

    Attributes
    ----------
    changed_vls:
        Names of VLs added, removed or modified.
    dirty_ports:
        Output ports whose flow membership or some crossing VL's
        contract changed — the seed of the downstream dirty closure.
        Ports of *removed* paths are included only while still used in
        the edited network (an unused port has no analysis to redo).
    """

    changed_vls: FrozenSet[str]
    dirty_ports: FrozenSet[PortId]


def _path_ports(paths: Sequence[Sequence[str]]) -> FrozenSet[PortId]:
    ports = set()
    for path in paths:
        ports.update(zip(path, path[1:]))
    return frozenset(ports)


def apply_edits(network: Network, edits: Sequence[Edit]) -> Tuple[Network, EditImpact]:
    """Apply a batch of edits to a copy of ``network``.

    Raises
    ------
    ConfigurationError
        On contradictory edits (removing an unknown VL, adding a
        duplicate name, editing a VL removed earlier in the batch) —
        wrapped so the CLI reports them as configuration errors.
    """
    edited = network.copy()
    changed: set = set()
    dirty: set = set()
    for edit in edits:
        try:
            dirty |= _apply_one(edited, edit, changed)
        except (UnknownNodeError, ConfigurationError) as exc:
            raise ConfigurationError(f"edit '{edit.describe()}': {exc}") from exc
    # only ports that still carry traffic have an analysis to redo
    used = set(edited.used_ports())
    return edited, EditImpact(
        changed_vls=frozenset(changed), dirty_ports=frozenset(dirty & used)
    )


def _apply_one(network: Network, edit: Edit, changed: set) -> set:
    if isinstance(edit, AddVL):
        network.add_virtual_link(edit.vl)
        changed.add(edit.vl.name)
        return set(_path_ports(edit.vl.paths))
    if isinstance(edit, RemoveVL):
        vl = network.remove_virtual_link(edit.name)
        changed.add(edit.name)
        return set(_path_ports(vl.paths))
    if isinstance(edit, RetimeVL):
        vl = network.vl(edit.name)
        network.replace_virtual_link(vl.with_bag_ms(edit.bag_ms))
        changed.add(edit.name)
        return set(_path_ports(vl.paths))
    if isinstance(edit, ResizeVL):
        vl = network.vl(edit.name)
        network.replace_virtual_link(vl.with_s_max_bytes(edit.s_max_bytes))
        changed.add(edit.name)
        return set(_path_ports(vl.paths))
    if isinstance(edit, RerouteVL):
        vl = network.vl(edit.name)
        network.replace_virtual_link(vl.with_paths(edit.paths))
        changed.add(edit.name)
        return set(_path_ports(vl.paths)) | set(_path_ports(edit.paths))
    raise ConfigurationError(f"unknown edit type {type(edit).__name__}")


# ----------------------------------------------------------------------
# Edit scripts (the `afdx whatif` input)
# ----------------------------------------------------------------------


def parse_edit_script(data: object) -> List[Edit]:
    """Parse a decoded edit-script document into edit objects.

    Fields get the checks of a configuration file
    (:func:`repro.network.serialization.network_from_dict`): a value of
    the wrong JSON type, a non-finite number or a boolean where a
    number belongs raises :class:`ConfigurationError`.
    """
    raw = _typed(
        _typed(data, dict, "edit script").get("edits"),
        list,
        "the edit script's 'edits' array",
    )
    edits: List[Edit] = []
    for index, entry in enumerate(raw):
        what = f"edit #{index + 1}"
        try:
            edits.append(_parse_entry(_typed(entry, dict, what), what))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{what} is malformed: {exc}") from exc
    return edits


def _parse_entry(entry: Dict[str, object], what: str) -> Edit:
    op = entry["op"]
    if op == "add":
        return AddVL(_virtual_link(entry["vl"]))
    name = _typed(entry["vl"], str, f"{what}: 'vl'")
    if op == "remove":
        return RemoveVL(name=name)
    if op == "retime":
        bag_ms = _number(entry["bag_ms"], f"{what}: 'bag_ms'", units.US_PER_MS)
        return RetimeVL(name=name, bag_ms=float(bag_ms))
    if op == "resize":
        s_max = _number(
            entry["s_max_bytes"], f"{what}: 's_max_bytes'", units.BITS_PER_BYTE
        )
        return ResizeVL(name=name, s_max_bytes=float(s_max))
    if op == "reroute":
        return RerouteVL(name=name, paths=_routes(entry["paths"], what))
    raise ValueError(f"unknown op {op!r}")


def load_edit_script(path: Union[str, Path]) -> List[Edit]:
    """Read and parse an edit-script JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read edit script {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    return parse_edit_script(data)
