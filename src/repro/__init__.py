"""Worst-case end-to-end delay analysis of AFDX avionics networks.

Reproduction of *"Worst-case end-to-end delay analysis of an avionics
AFDX network"* (H. Bauer, J.-L. Scharbarg, C. Fraboul — DATE 2010).

The library provides:

* an ARINC-664 network model (:mod:`repro.network`);
* a Network Calculus analyzer with the grouping technique
  (:mod:`repro.netcalc`);
* a Trajectory-approach analyzer with input-link serialization
  (:mod:`repro.trajectory`);
* the combined per-path best-of-both bound and comparison statistics
  (:mod:`repro.core`);
* a frame-level discrete-event simulator for bound validation
  (:mod:`repro.sim`);
* the paper's configurations plus an industrial-scale synthetic
  generator (:mod:`repro.configs`);
* experiment drivers regenerating every table and figure of the paper
  (:mod:`repro.experiments`).

Quickstart::

    from repro.configs import fig2_network
    from repro.core import analyze_network

    result = analyze_network(fig2_network())
    for path in result.paths:
        print(path.flow, path.network_calculus_us, path.trajectory_us, path.best_us)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "EndSystem",
    "Switch",
    "Network",
    "NetworkBuilder",
    "OutputPort",
    "VirtualLink",
    "network_from_json",
    "network_to_json",
    "analyze_network",
    "compare_methods",
    "__version__",
]

#: Where each name of ``__all__`` is defined; resolved on first access
#: so that ``import repro`` (and ``python -m repro.cli``) loads no
#: analyzer.
_EXPORTS = {
    "repro.network.builder": ("NetworkBuilder",),
    "repro.network.node": ("EndSystem", "Switch"),
    "repro.network.port": ("OutputPort",),
    "repro.network.serialization": ("network_from_json", "network_to_json"),
    "repro.network.topology": ("Network",),
    "repro.network.virtual_link": ("VirtualLink",),
    "repro.core.combined": ("analyze_network",),
    "repro.core.comparison": ("compare_methods",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
