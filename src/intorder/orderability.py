"""Unique-orderability decisions with machine-checkable certificates.

Three independent criteria are implemented and cross-checked on every
connected non-complete interval graph:

* the pair graph on ordered non-adjacent vertex pairs, where (a, b) and
  (c, d) are linked when a is adjacent to c and b is adjacent to d
  (adjacency taken reflexively); exactly two components means uniquely
  orderable, and the component containing the least pair reads off the
  unique order directly;
* buried subgraphs: a vertex set with a non-adjacent pair inside, disjoint
  from the set of vertices adjacent to all of it, leaving a nonempty
  remainder it has no edges into; finding one yields two genuinely
  different associated orders;
* a brute-force enumeration oracle lives separately in `oracle`.

The first two are read off the neighbourhood sets `Graph.adj` caches. The
pair graph is flood-filled by one-coordinate steps (Golumbic's implication
classes of the complement) plus a diagonal step across each induced
four-cycle. The buried search grows, from each non-adjacent pair, the least
module holding it; that set is buried exactly when its remainder is
nonempty, and if no pair yields one then no buried subgraph exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InternalInconsistencyError, NotIntervalGraphError
from .graphs import (
    Graph,
    StrictPartialOrder,
    components,
    is_associated,
)
from .recognition import Obstruction, recognize
from .representation import representation_to_order

VertexPair = tuple[int, int]


# ---------------------------------------------------------------------------
# Pair graph
# ---------------------------------------------------------------------------

@dataclass
class PairGraph:
    """Ordered non-adjacent pairs with their linkage components.

    `pairs` is sorted lexicographically; `component_of` maps each pair to a
    component id, ids assigned in order of each component's least pair.
    """

    base: Graph
    pairs: tuple[VertexPair, ...]
    component_of: dict[VertexPair, int]
    component_count: int

    def linked(self, ab: VertexPair, cd: VertexPair) -> bool:
        """Pairs are linked when first meets first and second meets second."""
        return self.base.adjacent(ab[0], cd[0]) and self.base.adjacent(ab[1], cd[1])


def pair_graph(g: Graph) -> PairGraph:
    """One flood fill over the pairs in sorted order, so component ids follow
    each component's least pair. From (a, b) it steps to the non-adjacent
    pairs (c, b), c in N(a), and (a, d), d in N(b), and diagonally to
    non-adjacent (c, d) with c, d in N(a) ∩ N(b). Any other link (a, b)–(c, d)
    factors through (c, b) or (a, d) unless c ~ b and a ~ d, and then
    a–c–b–d is an induced four-cycle: the diagonal case. So the components
    are those of the full link relation on every graph."""
    adj = g.adj
    pairs = tuple(
        (a, b) for a in range(g.n) for b in range(g.n) if a != b and b not in adj[a]
    )
    component_of: dict[VertexPair, int] = {}
    count = 0
    for start in pairs:
        if start in component_of:
            continue
        component_of[start] = count
        stack = [start]
        while stack:
            a, b = stack.pop()
            na, nb = adj[a], adj[b]
            common = na & nb
            steps = [(c, b) for c in na - nb] + [(a, d) for d in nb - na]
            for c in common:
                steps.extend((c, d) for d in common - adj[c] if d != c)
            for p in steps:
                if p not in component_of:
                    component_of[p] = count
                    stack.append(p)
        count += 1
    return PairGraph(g, pairs, component_of, count)


def _linked_pairs(g: Graph, ab: VertexPair) -> list[VertexPair]:
    """Pairs linked to `ab`, itself included: non-adjacent pairs in N[a] × N[b]."""
    a, b = ab
    closed_b = g.adj[b] | {b}
    return [(c, d) for c in g.adj[a] | {a} for d in closed_b - g.adj[c] if d != c]


def pair_path(
    pg: PairGraph, ab: VertexPair, cd: VertexPair
) -> list[VertexPair] | None:
    """Lexicographically least shortest linkage path, or None when the two
    pairs lie in different components."""
    for p in (ab, cd):
        if p not in pg.component_of:
            raise InputError(f"pair {p} is not a non-adjacent ordered pair of the graph")
    if pg.component_of[ab] != pg.component_of[cd]:
        return None
    if ab == cd:
        return [ab]
    # distances from the target, then walk forward choosing least neighbors
    dist = {cd: 0}
    frontier = [cd]
    while frontier:
        nxt = []
        for cur in frontier:
            for p in _linked_pairs(pg.base, cur):
                if p not in dist:
                    dist[p] = dist[cur] + 1
                    nxt.append(p)
        frontier = nxt
    path = [ab]
    cur = ab
    while cur != cd:
        cur = min(
            p for p in _linked_pairs(pg.base, cur) if dist.get(p, -1) == dist[cur] - 1
        )
        path.append(cur)
    return path


# ---------------------------------------------------------------------------
# Buried subgraphs
# ---------------------------------------------------------------------------

@dataclass
class LeveledSet:
    """Least fixpoint grown from a non-adjacent pair, with entry stages.

    Stage 0 holds the generating pair; a vertex enters stage s+1 when some
    current member is adjacent to it and another is not. `level` maps each
    member to the first stage containing it.
    """

    v: int
    u: int
    level: dict[int, int]

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.level)


def buried_candidate(g: Graph, v: int, u: int) -> LeveledSet:
    """The least module containing the non-adjacent pair {v, u}, by stages.

    `touched` is the union of the members' neighbourhoods and `common` the
    intersection of their closed ones, so each stage adds
    `touched - common - members`. No member is ever in `common`, so
    intersecting with open neighbourhoods keeps it exact."""
    if not (0 <= v < g.n and 0 <= u < g.n):
        raise InputError(f"vertices ({v}, {u}) out of range")
    if g.adjacent(v, u):
        raise InputError(f"vertices ({v}, {u}) must be distinct and non-adjacent")
    adj = g.adj
    level = {v: 0, u: 0}
    touched = adj[v] | adj[u]
    common = adj[v] & adj[u]
    stage = 0
    while fresh := sorted(touched - common - level.keys()):
        stage += 1
        for w in fresh:
            level[w] = stage
            touched |= adj[w]
            common &= adj[w]
    return LeveledSet(v, u, level)


@dataclass
class BuriedCheck:
    """Outcome of the buried-subgraph definition check on a vertex set."""

    buried: bool
    separators: frozenset[int]
    outside: frozenset[int]
    witness_nonedge: VertexPair | None
    witness_outside: int | None

    def __bool__(self) -> bool:
        return self.buried


def is_buried(g: Graph, vertex_set: Iterable[int]) -> BuriedCheck:
    """Check the three buried-subgraph conditions, returning the computed
    separator set (vertices adjacent to everything in the set, reflexively)
    and the remainder, plus witnesses."""
    members = frozenset(vertex_set)
    for v in members:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range")
    adj = g.adj
    everyone = frozenset(range(g.n))
    separators = everyone.intersection(*(adj[b] | {b} for b in members))
    touched = set().union(*(adj[b] for b in members))
    outside = everyone - members - separators
    witness_nonedge = None
    for a in sorted(members):
        later = [b for b in members - adj[a] if b > a]
        if later:
            witness_nonedge = (a, min(later))
            break
    no_leak = not (touched & outside)
    buried = (
        witness_nonedge is not None
        and not (separators & members)
        and bool(outside)
        and no_leak
    )
    return BuriedCheck(
        buried=buried,
        separators=separators,
        outside=outside,
        witness_nonedge=witness_nonedge,
        witness_outside=min(outside) if outside else None,
    )


@dataclass(frozen=True)
class BuriedCertificate:
    """A buried subgraph plus everything needed to re-validate it."""

    members: frozenset[int]
    separators: frozenset[int]
    outside: frozenset[int]
    witness_nonedge: VertexPair
    witness_outside: int
    pair: VertexPair


def _scan_buried(g: Graph) -> BuriedCertificate | None:
    """Grow a candidate from each non-adjacent pair in lexicographic order;
    the first with a nonempty remainder is buried. An empty scan means no
    buried subgraph exists anywhere in the graph."""
    for v in range(g.n):
        for u in range(v + 1, g.n):
            if g.adjacent(v, u):
                continue
            grown = buried_candidate(g, v, u)
            check = is_buried(g, grown.members)
            if check.outside:
                if not check.buried:
                    raise InternalInconsistencyError(
                        f"candidate grown from ({v}, {u}) has a remainder yet fails the "
                        "buried-subgraph conditions"
                    )
                return BuriedCertificate(
                    members=grown.members,
                    separators=check.separators,
                    outside=check.outside,
                    witness_nonedge=check.witness_nonedge,
                    witness_outside=check.witness_outside,
                    pair=(v, u),
                )
    return None


def find_buried(g: Graph) -> BuriedCertificate | None:
    """Certificate for the lexicographically first buried candidate, or None.

    The contract requires a connected interval graph; both are validated.
    """
    if len(components(g)) != 1:
        raise InputError("find_buried requires a connected graph")
    result = recognize(g)
    if isinstance(result, Obstruction):
        raise NotIntervalGraphError(
            "find_buried requires an interval graph", obstruction=result
        )
    return _scan_buried(g)


# ---------------------------------------------------------------------------
# Building orders from certificates
# ---------------------------------------------------------------------------

def _order_or_bug(n: int, rel: set[VertexPair], context: str) -> StrictPartialOrder:
    try:
        return StrictPartialOrder(n, frozenset(rel))
    except InputError as exc:
        raise InternalInconsistencyError(f"{context}: {exc}") from exc


def two_orders_from_buried(
    g: Graph, cert: BuriedCertificate, base: StrictPartialOrder
) -> tuple[StrictPartialOrder, StrictPartialOrder, tuple[int, int, int]]:
    """Two associated orders that are not duals of each other.

    The first order rearranges `base` so the buried set is convex: every
    member sits exactly where the least member sits relative to outsiders.
    The second order reverses the first inside the buried set only. The
    returned triple (x, y, w) has x before y before w (or w before x before
    y) in the first order while the second swaps x and y, witnessing that
    the orders are neither equal nor dual.
    """
    if not is_associated(g, base):
        raise InputError("base order is not associated to the graph")
    check = is_buried(g, cert.members)
    if not check.buried:
        raise InputError("certificate does not describe a buried subgraph")
    members = cert.members
    anchor = min(members)
    rel1: set[VertexPair] = set()
    for x in range(g.n):
        for y in range(g.n):
            if x == y:
                continue
            x_in, y_in = x in members, y in members
            if x_in == y_in:
                if base.less(x, y):
                    rel1.add((x, y))
            elif x_in:
                if base.less(anchor, y):
                    rel1.add((x, y))
            else:
                if base.less(x, anchor):
                    rel1.add((x, y))
    order1 = _order_or_bug(g.n, rel1, "convexified order is not a partial order")
    if not is_associated(g, order1):
        raise InternalInconsistencyError("convexified order is not associated to the graph")

    rel2 = {
        ((y, x) if (x in members and y in members) else (x, y)) for x, y in rel1
    }
    order2 = _order_or_bug(g.n, rel2, "order reversed inside the buried set is not a partial order")
    if not is_associated(g, order2):
        raise InternalInconsistencyError(
            "order reversed inside the buried set is not associated to the graph"
        )
    if order2 == order1 or order2 == order1.dual():
        raise InternalInconsistencyError(
            "reversing inside the buried set failed to produce a genuinely new order"
        )

    a, b = cert.witness_nonedge
    x, y = (a, b) if order1.less(a, b) else (b, a)
    w = cert.witness_outside
    if not (
        (order1.less(x, y) and order1.less(y, w))
        or (order1.less(w, x) and order1.less(x, y))
    ):
        raise InternalInconsistencyError(
            "remainder witness is not uniformly above or below the buried set"
        )
    return order1, order2, (x, y, w)


def order_from_pair_graph(g: Graph, pg: PairGraph) -> StrictPartialOrder:
    """The unique associated order read off a two-component pair graph:
    orient every pair in the component of the least pair."""
    if pg.component_count != 2:
        raise InputError(
            f"pair graph has {pg.component_count} components; exactly 2 required"
        )
    chosen = pg.component_of[pg.pairs[0]]
    rel = {p for p in pg.pairs if pg.component_of[p] == chosen}
    order = _order_or_bug(g.n, rel, "pair-graph component is not a partial order")
    if not is_associated(g, order):
        raise InternalInconsistencyError("pair-graph order is not associated to the graph")
    return order


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------

@dataclass
class UniquenessVerdict:
    """Outcome of decide_unique, with whichever certificate applies.

    Exactly one of `order` (unique case) or `witness` plus `triple`
    (non-unique case) is present; `buried` accompanies the witness on
    connected inputs. `wq_components` is the pair-graph component count.
    """

    unique: bool
    wq_components: int
    order: StrictPartialOrder | None = None
    witness: tuple[StrictPartialOrder, StrictPartialOrder] | None = None
    triple: tuple[int, int, int] | None = None
    buried: BuriedCertificate | None = None


def _stacked_order(g: Graph, comps: list[set[int]], block_rank: list[int]) -> StrictPartialOrder:
    rel = {
        (x, y)
        for i, ci in enumerate(comps)
        for j, cj in enumerate(comps)
        if block_rank[i] < block_rank[j]
        for x in ci
        for y in cj
    }
    order = _order_or_bug(g.n, rel, "stacked block order is not a partial order")
    if not is_associated(g, order):
        raise InternalInconsistencyError("stacked block order is not associated to the graph")
    return order


def _disconnected_verdict(
    g: Graph, comps: list[set[int]], base: StrictPartialOrder, wq_count: int
) -> UniquenessVerdict:
    block_complete = [
        all(g.adjacent(x, y) for x in comp for y in comp) for comp in comps
    ]
    if len(comps) <= 2 and all(block_complete):
        order = _stacked_order(g, comps, list(range(len(comps))))
        return UniquenessVerdict(unique=True, wq_components=wq_count, order=order)

    incomplete = [i for i, ok in enumerate(block_complete) if not ok]
    if incomplete:
        # reverse the base order inside the first non-complete block
        blk = comps[incomplete[0]]
        rel2 = {
            ((y, x) if (x in blk and y in blk) else (x, y)) for x, y in base.rel
        }
        order2 = _order_or_bug(g.n, rel2, "block-reversed order is not a partial order")
        if not is_associated(g, order2):
            raise InternalInconsistencyError("block-reversed order is not associated to the graph")
        if order2 == base or order2 == base.dual():
            raise InternalInconsistencyError("block reversal failed to produce a new order")
        pairs_in_block = sorted(
            (a, b) for a in blk for b in blk if a < b and not g.adjacent(a, b)
        )
        a, b = pairs_in_block[0]
        x, y = (a, b) if base.less(a, b) else (b, a)
        w = min(v for v in range(g.n) if v not in blk)
        return UniquenessVerdict(
            unique=False,
            wq_components=wq_count,
            witness=(base, order2),
            triple=(x, y, w),
        )

    # three or more blocks, all complete: transpose the first two
    order1 = _stacked_order(g, comps, list(range(len(comps))))
    swapped = [1, 0] + list(range(2, len(comps)))
    order2 = _stacked_order(g, comps, swapped)
    if order2 == order1 or order2 == order1.dual():
        raise InternalInconsistencyError("block transposition failed to produce a new order")
    triple = (min(comps[0]), min(comps[1]), min(comps[2]))
    return UniquenessVerdict(
        unique=False,
        wq_components=wq_count,
        witness=(order1, order2),
        triple=triple,
    )


def decide_unique(g: Graph) -> UniquenessVerdict:
    """Decide unique orderability of an interval graph, with certificates.

    Complete graphs are uniquely orderable by the antichain; disconnected
    graphs are unique exactly when they split into at most two complete
    blocks. On connected non-complete graphs the buried-subgraph search and
    the pair-graph component count must agree (buried exists iff more than
    two components), or an internal error is raised.
    """
    result = recognize(g)
    if isinstance(result, Obstruction):
        raise NotIntervalGraphError("not an interval graph", obstruction=result)
    pg = pair_graph(g)
    comps = components(g)
    if len(comps) > 1:
        base = representation_to_order(result)
        return _disconnected_verdict(g, comps, base, pg.component_count)
    if g.is_complete():
        return UniquenessVerdict(
            unique=True,
            wq_components=pg.component_count,
            order=StrictPartialOrder(g.n, frozenset()),
        )
    cert = _scan_buried(g)
    if (cert is None) != (pg.component_count == 2):
        raise InternalInconsistencyError(
            f"buried-subgraph search ({'none' if cert is None else 'found'}) disagrees "
            f"with pair-graph component count {pg.component_count}"
        )
    if cert is None:
        order = order_from_pair_graph(g, pg)
        return UniquenessVerdict(unique=True, wq_components=pg.component_count, order=order)
    base = representation_to_order(result)
    order1, order2, triple = two_orders_from_buried(g, cert, base)
    return UniquenessVerdict(
        unique=False,
        wq_components=pg.component_count,
        witness=(order1, order2),
        triple=triple,
        buried=cert,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _order_pairs_jsonable(order: StrictPartialOrder, name) -> list:
    return [[name(u), name(v)] for u, v in sorted(order.rel)]


def buried_to_jsonable(cert: BuriedCertificate, label=None) -> dict:
    name = label if label is not None else (lambda v: v)
    return {
        "B": [name(v) for v in sorted(cert.members)],
        "K": [name(v) for v in sorted(cert.separators)],
        "R": [name(v) for v in sorted(cert.outside)],
    }


def verdict_to_jsonable(verdict: UniquenessVerdict, label=None) -> dict:
    name = label if label is not None else (lambda v: v)
    out: dict = {"unique": verdict.unique}
    if verdict.order is not None:
        out["order"] = _order_pairs_jsonable(verdict.order, name)
    if verdict.witness is not None:
        out["witness"] = {
            "order1": _order_pairs_jsonable(verdict.witness[0], name),
            "order2": _order_pairs_jsonable(verdict.witness[1], name),
            "triple": [name(v) for v in verdict.triple],
        }
    if verdict.buried is not None:
        out["buried"] = buried_to_jsonable(verdict.buried, label)
    out["wq_components"] = verdict.wq_components
    return out
