"""JSON persistence for network configurations.

The on-disk format is a single JSON document::

    {
      "name": "fig2",
      "rate_mbps": 100.0,
      "nodes": [
        {"name": "e1", "kind": "end_system", "latency_us": 0.0},
        {"name": "S1", "kind": "switch", "latency_us": 16.0}
      ],
      "links": [{"a": "e1", "b": "S1", "rate_mbps": 100.0}],
      "virtual_links": [
        {"name": "v1", "source": "e1", "bag_ms": 4.0,
         "s_max_bytes": 500, "s_min_bytes": 64,
         "paths": [["e1", "S1", "S3", "e6"]]}
      ]
    }

Frame sizes are bytes and BAGs milliseconds — the units of the ARINC-664
configuration tables — converted internally per :mod:`repro.units`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from repro import units
from repro.errors import ConfigurationError
from repro.network.node import DEFAULT_SWITCH_LATENCY_US, EndSystem, Switch
from repro.network.topology import Network
from repro.network.virtual_link import VirtualLink

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "network_to_json",
    "network_from_json",
    "read_config",
]


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialize a network to a JSON-compatible dictionary."""
    nodes = []
    for name in sorted(network.nodes):
        node = network.nodes[name]
        nodes.append(
            {
                "name": node.name,
                "kind": "end_system" if node.is_end_system else "switch",
                "latency_us": node.technological_latency_us,
            }
        )
    links = [
        {"a": a, "b": b, "rate_mbps": units.bits_per_us_to_mbps(rate)}
        for a, b, rate in network.links()
    ]
    vls = []
    for name in sorted(network.virtual_links):
        vl = network.virtual_links[name]
        entry = {
            "name": vl.name,
            "source": vl.source,
            "bag_ms": vl.bag_ms,
            "s_max_bytes": vl.s_max_bytes,
            "s_min_bytes": vl.s_min_bytes,
            "paths": [list(p) for p in vl.paths],
        }
        if vl.priority:
            entry["priority"] = vl.priority
        vls.append(entry)
    return {
        "name": network.name,
        "rate_mbps": units.bits_per_us_to_mbps(network.default_rate),
        "nodes": nodes,
        "links": links,
        "virtual_links": vls,
    }


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (a JSON object, list or string)."""
    if not isinstance(value, kind):
        label = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ConfigurationError(f"{what} must be {label}, got {value!r}")
    return value


#: largest magnitude a numeric field may reach in internal units (us,
#: bits, bits/us): past 2^53 doubles stop representing integers exactly,
#: and the analyses' sums and products of such values overflow to
#: infinity (a 1e308 latency makes NC curve arithmetic fail)
_MAX_MAGNITUDE = 2.0 ** 53


def _number(value: Any, what: str, scale: float = 1.0) -> Any:
    """``value`` if it is a JSON number of at most :data:`_MAX_MAGNITUDE`
    once scaled to internal units.  Rejects NaN and Infinity, which
    ``json.loads`` accepts."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value * scale) <= _MAX_MAGNITUDE
    ):
        raise ConfigurationError(
            f"{what} must be a finite number of magnitude at most "
            f"{_MAX_MAGNITUDE / scale:g}, got {value!r}"
        )
    return value


def _routes(value: Any, what: str) -> Tuple[Tuple[str, ...], ...]:
    """A VL's ``paths``: a list of routes, each a list of node names."""
    return tuple(
        tuple(
            _typed(hop, str, f"{what}: route hop")
            for hop in _typed(path, list, f"{what}: path")
        )
        for path in _typed(value, list, f"{what}: 'paths'")
    )


def _virtual_link(entry: Any) -> VirtualLink:
    """One ``virtual_links`` entry (also an ``add`` edit's ``vl``).

    A missing field raises :class:`KeyError` and a value the model
    rejects :class:`ValueError`; callers turn both into
    :class:`ConfigurationError` with their own context.
    """
    _typed(entry, dict, "virtual link entry")
    name = _typed(entry["name"], str, "VL name")
    what = f"VL {name!r}"
    paths = _routes(entry["paths"], what)
    bits = units.BITS_PER_BYTE
    return VirtualLink(
        name=name,
        source=_typed(entry["source"], str, f"{what}: 'source'"),
        paths=paths,
        bag_ms=_number(entry["bag_ms"], f"{what}: 'bag_ms'", units.US_PER_MS),
        s_max_bytes=_number(entry["s_max_bytes"], f"{what}: 's_max_bytes'", bits),
        s_min_bytes=_number(entry.get("s_min_bytes", 64), f"{what}: 's_min_bytes'", bits),
        priority=_number(entry.get("priority", 0), f"{what}: 'priority'"),
    )


def network_from_dict(data: Dict[str, Any]) -> Network:
    """Rebuild a network from :func:`network_to_dict` output.

    Every malformed document raises :class:`ConfigurationError`: a
    missing field, a value of the wrong JSON type, a non-finite number,
    a value the model constructors reject, or no virtual link at all
    (there is nothing to bound).
    """
    try:
        _typed(data, dict, "configuration document")
        network = Network(
            rate_bits_per_us=units.mbps_to_bits_per_us(
                _number(data.get("rate_mbps", 100.0), "'rate_mbps'")
            ),
            name=_typed(data.get("name", "afdx"), str, "configuration name"),
        )
        for node in _typed(data["nodes"], list, "'nodes'"):
            _typed(node, dict, "node entry")
            name = _typed(node["name"], str, "node name")
            kind = node["kind"]
            if kind not in ("end_system", "switch"):
                raise ConfigurationError(f"unknown node kind {kind!r}")
            end_system = kind == "end_system"
            latency = node.get(
                "latency_us", 0.0 if end_system else DEFAULT_SWITCH_LATENCY_US
            )
            network.add_node(
                (EndSystem if end_system else Switch)(
                    name=name,
                    technological_latency_us=_number(latency, f"node {name!r} latency"),
                )
            )
        for link in _typed(data.get("links", []), list, "'links'"):
            _typed(link, dict, "link entry")
            a = _typed(link["a"], str, "link end 'a'")
            b = _typed(link["b"], str, "link end 'b'")
            rate = link.get("rate_mbps")
            if rate is not None:
                rate = units.mbps_to_bits_per_us(_number(rate, f"link {a}-{b} rate"))
            network.add_link(a, b, rate_bits_per_us=rate)
        for vl in _typed(data.get("virtual_links", []), list, "'virtual_links'"):
            network.add_virtual_link(_virtual_link(vl))
        if not network.virtual_links:
            raise ConfigurationError("the configuration defines no virtual link")
    except KeyError as exc:
        raise ConfigurationError(f"missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc
    return network


def network_to_json(network: Network, path: Union[str, Path]) -> None:
    """Write a network configuration to a JSON file."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2) + "\n")


def read_config(path: Union[str, Path]) -> Any:
    """The parsed JSON document of configuration file ``path``.

    Raises :class:`ConfigurationError` for an unreadable file or
    malformed JSON, so the CLI maps both to its configuration exit
    code instead of leaking a traceback.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read configuration {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc


def network_from_json(path: Union[str, Path]) -> Network:
    """Load a network configuration from a JSON file.

    Raises :class:`ConfigurationError` for any file
    :func:`read_config` or :func:`network_from_dict` rejects.
    """
    return network_from_dict(read_config(path))
