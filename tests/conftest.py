"""Shared graph constructors, the graph, order and representation helpers
that only tests use (`representation_from_intervals` among them, which
gives Fraction endpoints), the oracles `pair_path` and `suffix_minima` that
the library's faster paths are compared against, and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from intorder import (ClosedRepresentation, Graph, InputError, PairGraph, StrictPartialOrder,
                      find_two_plus_two, graph_from_edges, validate_path)
from intorder.graphs import VertexPair, _is_index, _neighbours_of, bit_indices


def complete_graph(n: int) -> Graph:
    everyone = (1 << n) - 1
    return Graph._from_rows([everyone ^ 1 << v for v in range(n)])


def complement(g: Graph) -> Graph:
    everyone = (1 << g.n) - 1
    return Graph._from_rows([everyone & ~(m | 1 << u) for u, m in enumerate(g.masks)], g.labels)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on the given vertices, reindexed densely in sorted order."""
    kept = sorted(g._vertex(v) for v in set(vertices))
    index = {v: i for i, v in enumerate(kept)}
    inside = sum(1 << v for v in kept)
    rows = [sum(1 << index[w] for w in bit_indices(g.masks[v] & inside)) for v in kept]
    labels = tuple(g.labels[v] for v in kept) if g.labels is not None else None
    return Graph._from_rows(rows, labels)


def universal_vertices(g: Graph) -> set[int]:
    """Vertices adjacent to every other vertex."""
    return {v for v, m in enumerate(g.masks) if (m | 1 << v).bit_count() == g.n}


def neighbors(g: Graph, v: int) -> frozenset[int]:
    return frozenset(bit_indices(g.masks[g._vertex(v)]))


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    return frozenset(bit_indices(g.masks[g._vertex(v)] | 1 << v))


def is_minimal_path(g: Graph, path) -> bool:
    """True when each vertex's closed row meets the path in just itself and
    its path neighbours; reflexivity makes repeated vertices fail."""
    p = validate_path(g, path)
    on_path = sum(1 << v for v in set(p))
    return on_path.bit_count() == len(p) and all(
        (g.masks[v] | 1 << v) & on_path == sum(1 << w for w in p[max(i - 1, 0) : i + 2])
        for i, v in enumerate(p)
    )


def refine_to_minimal(g: Graph, path) -> list[int]:
    """Shortcut a path to a minimal path with the same endpoints, in one
    forward pass: from p[i], jump to the last position meeting its closed row."""
    p = validate_path(g, path)
    last = {v: j for j, v in enumerate(p)}
    on_walk = sum(1 << v for v in last)
    out, i = [p[0]], 0
    while i < len(p) - 1:
        i = max(last[v] for v in bit_indices((g.masks[p[i]] | 1 << p[i]) & on_walk))
        if p[i] != out[-1]:
            out.append(p[i])
    return out


def order_from_pairs(n: int, pairs) -> StrictPartialOrder:
    """Transitively close the given pairs (Warshall's algorithm on successor
    rows) and validate the result, naming the least vertex on a cycle."""
    succ = [0] * n
    for u, v in pairs:
        if not (_is_index(u) and _is_index(v)):
            raise InputError(f"pair ({u!r}, {v!r}) is not a pair of integers")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"pair ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"pair ({u}, {u}) violates irreflexivity")
        succ[u] |= 1 << v
    for k in range(n):
        for u in range(n):
            if succ[u] >> k & 1:
                succ[u] |= succ[k]
    for s in range(n):
        if succ[s] >> s & 1:
            raise InputError(f"pairs contain a cycle through vertex {s}")
    return StrictPartialOrder(n, succ)


def order_on(n: int, rel) -> StrictPartialOrder:
    """The order on 0..n-1 whose pairs are `rel`, each (u, v) with both
    in range, folded into successor rows as given: nothing is closed, so
    the constructor sees every flaw of the relation."""
    succ = [0] * n
    for u, v in rel:
        succ[u] |= 1 << v
    return StrictPartialOrder(n, succ)


def comparable(o: StrictPartialOrder, u: int, v: int) -> bool:
    return o.less(u, v) or o.less(v, u)


def incomparability_graph(o: StrictPartialOrder) -> Graph:
    """Graph whose distinct vertices are adjacent iff order-incomparable."""
    everyone = (1 << o.n) - 1
    return Graph._from_rows([everyone & ~(o.succ[u] | o.pred[u] | 1 << u) for u in range(o.n)])


def is_interval_order(o: StrictPartialOrder) -> bool:
    return find_two_plus_two(o) is None


def intersects(r, u: int, v: int) -> bool:
    return r.left[u] <= r.right[v] and r.left[v] <= r.right[u]


def wholly_before(r, u: int, v: int) -> bool:
    return r.right[u] < r.left[v]


def is_distinguishing(r) -> bool:
    """All 2n endpoints pairwise distinct and every interval nondegenerate."""
    return len(set(r.left + r.right)) == 2 * r.n


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"endpoint {value!r} is not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        num, den = value
        if isinstance(num, int) and isinstance(den, int) and not isinstance(num, bool) and not isinstance(den, bool):
            if den == 0:
                raise InputError("endpoint denominator must be nonzero")
            return Fraction(num, den)
    raise InputError(f"endpoint {value!r} is not an integer or [numerator, denominator] pair")


def representation_from_intervals(intervals: Sequence) -> ClosedRepresentation:
    """Build a representation from (left, right) pairs of ints or rationals."""
    lefts = []
    rights = []
    for pair in intervals:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise InputError(f"interval entry {pair!r} must be a [left, right] pair")
        lefts.append(_as_fraction(pair[0]))
        rights.append(_as_fraction(pair[1]))
    return ClosedRepresentation(len(lefts), tuple(lefts), tuple(rights))


def representation_from_jsonable(obj):
    """The inverse of `representation_to_jsonable`, checked."""
    if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("intervals"), list)):
        raise InputError("representation JSON must be an object with 'n' and an 'intervals' list")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("representation JSON field 'n' must be an integer")
    r = representation_from_intervals(obj["intervals"])
    if r.n != n:
        raise InputError(f"representation lists {r.n} intervals but declares n={n}")
    return r


def linked(pg, ab, cd) -> bool:
    """Pairs are linked when first meets first and second meets second."""
    return pg.base.adjacent(ab[0], cd[0]) and pg.base.adjacent(ab[1], cd[1])


def pair_path(
    pg: PairGraph, ab: VertexPair, cd: VertexPair
) -> list[VertexPair] | None:
    """Lexicographically least shortest linkage path, or None when the two
    pairs lie in different components. Like every path certificate, it is
    read off BFS layers grown back from cd, each a dict of rows as in `rows`:
    a row {c: D} links to the non-adjacent pairs in N[c] x N[D]. The walk
    from (a, b) takes the least c in N[a] whose next row meets N[b], then
    that row's least d in N[b]."""
    closed = [m | 1 << v for v, m in enumerate(pg.base.masks)]
    for p in (ab, cd):
        if not (isinstance(p, tuple) and len(p) == 2 and all(_is_index(v) for v in p)
                and 0 <= min(p) and max(p) < len(closed) and not closed[p[0]] >> p[1] & 1):
            raise InputError(f"pair {p} is not a non-adjacent ordered pair of the graph")
    a, b = ab
    layers = [{cd[0]: 1 << cd[1]}]
    blocked = closed[:]  # the d of each (c, d) that is adjacent or already reached
    blocked[cd[0]] |= 1 << cd[1]
    while not layers[-1].get(a, 0) >> b & 1:
        reach: dict[int, int] = {}
        for c, ds in layers[-1].items():
            near = _neighbours_of(closed, ds)
            for c2 in bit_indices(closed[c]):
                reach[c2] = reach.get(c2, 0) | near
        layers.append({c: fresh for c, ds in reach.items() if (fresh := ds & ~blocked[c])})
        if not layers[-1]:
            return None
        for c, ds in layers[-1].items():
            blocked[c] |= ds
    path = [ab]
    for layer in reversed(layers[:-1]):
        a, b = path[-1]
        c = next(c for c in bit_indices(closed[a]) if layer.get(c, 0) & closed[b])
        ds = layer[c] & closed[b]
        path.append((c, (ds & -ds).bit_length() - 1))
    return path


def suffix_minima(values: Sequence[int], stage: int) -> frozenset[int]:
    """Indices i < stage whose value is below every later value before stage."""
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise InputError("values must be pairwise distinct")
    if not (0 <= stage <= len(vals)):
        raise InputError(f"stage {stage} out of range for {len(vals)} values")
    return frozenset(
        i for i in range(stage) if all(vals[k] > vals[i] for k in range(i + 1, stage))
    )


def single_nonedge4() -> Graph:
    """Four vertices a, b, c, d whose only non-edge is a-c."""
    return graph_from_edges(
        4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)], labels=("a", "b", "c", "d")
    )


def net_graph() -> Graph:
    """Triangle a, b, c with pendant vertices x, y, z; not an interval graph."""
    return graph_from_edges(
        6,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],
        labels=("a", "b", "c", "x", "y", "z"),
    )


def star3() -> Graph:
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])


def p4() -> Graph:
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])


def c4() -> Graph:
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k3() -> Graph:
    return complete_graph(3)


def two_k2() -> Graph:
    return graph_from_edges(4, [(0, 1), (2, 3)])


def empty3() -> Graph:
    return graph_from_edges(3, [])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def random_walk(g: Graph, rng: random.Random, max_steps: int | None = None) -> list[int]:
    """A walk with adjacent distinct consecutive vertices (revisits allowed)."""
    walk = [rng.randrange(g.n)]
    steps = rng.randint(0, max_steps if max_steps is not None else 2 * g.n)
    for _ in range(steps):
        nbrs = sorted(neighbors(g, walk[-1]))
        if not nbrs:
            break
        walk.append(rng.choice(nbrs))
    return walk


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return graph_from_edges(n, sorted(chosen))


@st.composite
def partial_orders(draw, max_n: int = 7):
    """Arbitrary strict partial orders via a random topological layout."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    layout = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    rel: set[tuple[int, int]] = set()
    for i, j in chosen:
        rel.add((layout[i], layout[j]))
    # close transitively; the layout keeps the relation acyclic
    changed = True
    while changed:
        changed = False
        extra = {
            (a, d)
            for a, b in rel
            for c, d in rel
            if b == c and (a, d) not in rel
        }
        if extra:
            rel |= extra
            changed = True
    return order_on(n, rel)
