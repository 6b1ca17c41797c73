"""Downstream clients of the points-to analysis.

- :func:`~repro.clients.derefstats.deref_stats` — average points-to set
  size per dereferenced pointer (the paper's Figure 4 metric);
- :func:`~repro.clients.callgraph.build_call_graph` — function-pointer
  aware call graph;
- :func:`~repro.clients.modref.mod_ref` — transitive MOD/REF sets.

The names below are loaded on first use (PEP 562), so importing one
client — as ``python -m repro --compare`` imports ``derefstats`` — does
not import the others.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "may_alias": "alias",
    "may_point_to_same": "alias",
    "refs_overlap": "alias",
    "CallGraph": "callgraph",
    "build_call_graph": "callgraph",
    "DerefSite": "derefstats",
    "DerefStats": "derefstats",
    "deref_stats": "derefstats",
    "call_graph_dot": "export",
    "facts_json": "export",
    "points_to_dot": "export",
    "ModRef": "modref",
    "mod_ref": "modref",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
