"""Interval graphs, interval orders, and unique-orderability certificates."""

from .errors import InputError, InternalInconsistencyError, NotIntervalGraphError
from .gadgets import (
    GadgetOutput,
    GadgetSpec,
    all_graphs,
    build_gadget,
    random_interval_graph,
    suffix_minima,
)
from .graphs import (
    Graph,
    StrictPartialOrder,
    complement,
    complete_graph,
    components,
    graph_from_edges,
    graph_from_jsonable,
    graph_to_jsonable,
    incomparability_graph,
    induced_subgraph,
    is_associated,
    is_minimal_path,
    order_from_pairs,
    parse_edgelist,
    parse_graph_json,
    refine_to_minimal,
    universal_vertices,
    validate_path,
)
from .oracle import OrientationSet, enumerate_associated_orders, oracle_unique
from .orderability import (
    BuriedCertificate,
    BuriedCheck,
    LeveledSet,
    PairGraph,
    UniquenessVerdict,
    buried_candidate,
    decide_unique,
    find_buried,
    is_buried,
    order_from_pair_graph,
    pair_graph,
    pair_path,
    two_orders_from_buried,
    verdict_to_jsonable,
)
from .recognition import (
    Obstruction,
    check_triangulated,
    find_asteroidal_triple,
    maximal_cliques,
    recognize,
    validate_obstruction,
)
from .representation import (
    ClosedRepresentation,
    find_two_plus_two,
    induced_graph,
    is_interval_order,
    normalize_distinguishing,
    order_to_representation,
    representation_from_intervals,
    representation_to_order,
    verify_representation,
)

__version__ = "0.1.0"
