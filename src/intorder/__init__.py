"""Interval graphs, interval orders, and unique-orderability certificates.

Importing the package loads none of its modules. Each public name in
`_EXPORTS`, and each module listed there (`intorder.graphs` and the like),
is imported on first use (PEP 562), so a command line process loads only
the modules its command runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "InputError InternalInconsistencyError NotIntervalGraphError",
    "gadgets": "GadgetOutput GadgetSpec all_graphs build_gadget random_interval_graph",
    "graphs": "Graph StrictPartialOrder components graph_from_edges graph_from_jsonable graph_to_jsonable "
              "is_associated parse_edgelist parse_graph_json validate_path",
    "oracle": "OrientationSet enumerate_associated_orders oracle_unique",
    "orderability": "BuriedCertificate BuriedCheck LeveledSet PairGraph UniquenessVerdict "
                    "buried_candidate decide_unique find_buried is_buried order_from_pair_graph "
                    "pair_graph two_orders_from_buried verdict_to_jsonable",
    "recognition": "Obstruction check_triangulated find_asteroidal_triple maximal_cliques recognize "
                   "validate_obstruction",
    "representation": "ClosedRepresentation find_two_plus_two induced_graph normalize_distinguishing "
                      "order_to_representation representation_to_order verify_representation",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # importing a submodule binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
