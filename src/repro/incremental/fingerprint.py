"""Content-addressed dependency fingerprints for cached bounds.

A cached bound is only reusable when *every* input that influenced it
is bit-identical — otherwise "cache hit" would silently change the
analysis.  Fingerprints therefore canonicalize the exact inputs of each
cacheable computation into a SHA-256 digest:

* floats are encoded with :meth:`float.hex` (lossless round-trip), so
  two values collide only when they are the same IEEE-754 double;
* iteration orders are made explicit (sorted node and VL names), so
  two networks built in different insertion orders hash alike — sound
  because the analyzers order every float reduction by name too.

Digests are stable across processes and ``PYTHONHASHSEED`` values
(nothing here uses Python's randomized ``hash``), which is what lets
``--cache-dir`` share bounds between runs; see
``tests/configs/test_industrial.py`` for the generator-side guarantee.
"""

from __future__ import annotations

import hashlib

from repro.network.topology import Network

__all__ = [
    "stable_digest",
    "vl_fingerprint",
    "network_fingerprint",
]


def stable_digest(*parts: object) -> str:
    """SHA-256 over a canonical encoding of ``parts`` (hex digest).

    Floats are encoded via :meth:`float.hex`; nested tuples/lists
    recurse; everything else uses ``repr``.  The part boundaries are
    delimited so ``("ab", "c")`` and ``("a", "bc")`` differ.
    """
    hasher = hashlib.sha256()
    _fold(hasher, parts)
    return hasher.hexdigest()


def _fold(hasher, value: object) -> None:
    if isinstance(value, float):
        hasher.update(value.hex().encode())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"(")
        for item in value:
            _fold(hasher, item)
            hasher.update(b",")
        hasher.update(b")")
    elif isinstance(value, str):
        hasher.update(b"s")
        hasher.update(value.encode())
    else:
        hasher.update(repr(value).encode())
    hasher.update(b"|")


def vl_fingerprint(vl) -> str:
    """Digest of one Virtual Link's complete traffic contract + routing.

    A :class:`VirtualLink` is frozen, so its digest is kept on it, as a
    network's is: every ``Network.copy()`` shares its VL objects, so a
    one-VL edit of a network hashes one VL.  ``dataclasses.replace``
    builds a new VL, which is hashed afresh.
    """
    digest = vl.__dict__.get("_fingerprint")
    if digest is None:
        digest = stable_digest(
            "vl",
            vl.name,
            vl.source,
            float(vl.bag_ms),
            float(vl.s_max_bytes),
            float(vl.s_min_bytes),
            int(vl.priority),
            tuple(vl.paths),
        )
        object.__setattr__(vl, "_fingerprint", digest)
    return digest


def network_fingerprint(network: Network) -> str:
    """Digest of a whole configuration (topology + every VL contract).

    Two networks with equal fingerprints produce bit-identical results
    under every analyzer in this package — the identity used by run
    manifests and the determinism tests.  Kept on the network until
    its next mutation (``Network._invalidate``), so the analyses of one
    configuration hash it once.
    """
    digest = network._fingerprint
    if digest is None:
        nodes = tuple(
            (name, network.nodes[name].is_end_system,
             float(network.nodes[name].technological_latency_us))
            for name in sorted(network.nodes)
        )
        links = tuple((a, b, float(rate)) for a, b, rate in network.links())
        vls = tuple(
            vl_fingerprint(network.vl(name)) for name in sorted(network.virtual_links)
        )
        digest = stable_digest("network", float(network.default_rate), nodes, links, vls)
        network._fingerprint = digest
    return digest
