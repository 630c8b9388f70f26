"""Brute-force ground truth: every partial order associated to a graph.

Backtracks over orientations of the complement's edges, closing
transitively after each choice and pruning on antisymmetry violations or
on any forced comparability between adjacent vertices. Desk-scale only;
the vertex bound is enforced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, StrictPartialOrder, complement

DEFAULT_MAX_N = 12


@dataclass
class OrientationSet:
    """Every associated order, sorted canonically, with duality classes."""

    orders: tuple[StrictPartialOrder, ...]
    dual_classes: int


def enumerate_associated_orders(g: Graph, max_n: int = DEFAULT_MAX_N) -> OrientationSet:
    if g.n > max_n:
        raise InputError(
            f"enumeration refused for n={g.n} > {max_n}; the oracle is desk-scale only"
        )
    masks = g.masks
    non_edges = sorted(complement(g).edges)
    rel: set[tuple[int, int]] = set()
    pred: list[set[int]] = [set() for _ in range(g.n)]
    succ: list[set[int]] = [set() for _ in range(g.n)]
    results: set[frozenset[tuple[int, int]]] = set()

    def try_orient(a: int, b: int, trail: list[tuple[int, int]]) -> bool:
        queue = deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            if (x, y) in rel:
                continue
            if x == y or (y, x) in rel:
                return False
            if masks[x] >> y & 1:  # adjacent vertices must stay incomparable
                return False
            rel.add((x, y))
            pred[y].add(x)
            succ[x].add(y)
            trail.append((x, y))
            for w in pred[x]:
                queue.append((w, y))
            for z in succ[y]:
                queue.append((x, z))
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for x, y in reversed(trail):
            rel.discard((x, y))
            pred[y].discard(x)
            succ[x].discard(y)

    def next_undecided() -> tuple[int, int] | None:
        for u, v in non_edges:
            if (u, v) not in rel and (v, u) not in rel:
                return (u, v)
        return None

    def backtrack() -> None:
        choice = next_undecided()
        if choice is None:
            results.add(frozenset(rel))
            return
        u, v = choice
        for a, b in ((u, v), (v, u)):
            trail: list[tuple[int, int]] = []
            if try_orient(a, b, trail):
                backtrack()
            undo(trail)

    backtrack()

    ordered = sorted(results, key=lambda fs: sorted(fs))
    orders = tuple(StrictPartialOrder(g.n, fs) for fs in ordered)
    class_keys = set()
    for fs in ordered:
        forward = tuple(sorted(fs))
        backward = tuple(sorted((v, u) for u, v in fs))
        class_keys.add(min(forward, backward))
    return OrientationSet(orders=orders, dual_classes=len(class_keys))


def oracle_unique(g: Graph, max_n: int = DEFAULT_MAX_N) -> bool:
    """True iff the associated orders form a single duality class."""
    enumeration = enumerate_associated_orders(g, max_n=max_n)
    if not enumeration.orders:
        raise InternalInconsistencyError(
            "no associated order exists; impossible for an interval graph"
        )
    return enumeration.dual_classes == 1
