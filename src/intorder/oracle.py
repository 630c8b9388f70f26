"""Brute-force ground truth: every partial order associated to a graph.

The associated orders of g are the transitive orientations of its
complement. The search keeps one partial orientation as successor and
predecessor bitsets, takes the least undecided non-adjacent pair u < v and
tries u below v, then v below u. Orienting a below b puts every vertex at
or below a under every vertex at or above b. The branch dies when that
would relate two adjacent vertices; it can neither reverse a pair nor close
a cycle, since the relation is closed and a, b are not yet comparable.
Each branch works on its own copy of the rows, and each leaf is an order,
built and validated once by the `StrictPartialOrder` constructor. The orders
come sorted as their sorted pair lists are. Desk-scale only: the vertex
count is bounded by `max_n`, the orders by `MAX_ORDERS` and, as few orders
can still take a vast search, the branches popped by `MAX_BRANCHES`.
"""

from __future__ import annotations

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, Record, StrictPartialOrder, _neighbours_of

DEFAULT_MAX_N = 12
MAX_ORDERS = 100_000
MAX_BRANCHES = 4 * MAX_ORDERS


class OrientationSet(Record):
    """Every associated order, sorted canonically, with duality classes."""

    orders: tuple[StrictPartialOrder, ...]
    dual_classes: int


def enumerate_associated_orders(g: Graph, max_n: int = DEFAULT_MAX_N) -> OrientationSet:
    if g.n > max_n:
        raise InputError(
            f"enumeration refused for n={g.n} > {max_n}; the oracle is desk-scale only"
        )
    n, masks, everyone = g.n, g.masks, (1 << g.n) - 1
    leaves: list[list[int]] = []
    branches, popped = [([0] * n, [0] * n)], 0
    while branches:
        popped += 1
        if popped > MAX_BRANCHES:
            raise InputError(f"enumeration refused: more than {MAX_BRANCHES} search branches; "
                             "the oracle is desk-scale only")
        succ, pred = branches.pop()
        u, free = next(((u, free) for u, m in enumerate(masks)
                        if (free := everyone & ~(m | succ[u] | pred[u]) >> u + 1 << u + 1)), (0, 0))
        if not free:  # every non-adjacent pair is oriented
            leaves.append(succ)
            if len(leaves) > MAX_ORDERS:
                raise InputError(f"enumeration refused: more than {MAX_ORDERS} associated orders; "
                                 "the oracle is desk-scale only")
            continue
        v = (free & -free).bit_length() - 1
        for a, b in ((v, u), (u, v)):  # popped last first: u below v, then v below u
            below, above = pred[a] | 1 << a, succ[b] | 1 << b
            if not _neighbours_of(masks, below) & above:
                branches.append((
                    [s | above if below >> x & 1 else s for x, s in enumerate(succ)],
                    [p | below if above >> y & 1 else p for y, p in enumerate(pred)],
                ))
    orders = sorted(
        (StrictPartialOrder(n, succ) for succ in leaves),
        key=lambda o: bytes(x for pair in o.pairs() for x in pair),
    )
    return OrientationSet(orders=tuple(orders), dual_classes=len({min(o.succ, o.pred) for o in orders}))


def oracle_unique(g: Graph) -> bool:
    """True iff the associated orders form a single duality class."""
    enumeration = enumerate_associated_orders(g)
    if not enumeration.orders:
        raise InternalInconsistencyError(
            "no associated order exists; impossible for an interval graph"
        )
    return enumeration.dual_classes == 1
