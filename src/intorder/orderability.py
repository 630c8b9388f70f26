"""Unique-orderability decisions with machine-checkable certificates.

Three criteria are implemented and cross-checked on every interval graph,
connected or not:

* the pair graph on ordered non-adjacent vertex pairs, where (a, b) and
  (c, d) are linked when a is adjacent to c and b is adjacent to d
  (adjacency taken reflexively); exactly two components means uniquely
  orderable, and the component containing the least pair orients the
  unique order (a decision counts the components without building it);
* buried subgraphs: a vertex set with a non-adjacent pair inside, disjoint
  from the set of vertices adjacent to all of it, leaving a nonempty
  remainder it has no edges into; finding one yields two genuinely
  different associated orders;
* a brute-force enumeration oracle lives separately in `oracle`.

The first two run on the neighbourhood bitsets, the rows `Graph.masks`. One
flood fill, `_flood`, finds a component: by one-coordinate steps
(Golumbic's implication classes of the complement) plus a diagonal step
across each induced four-cycle, over unvisited pairs kept as one bitset
per row and one per column, recording the component as its rows (one
bitset of second vertices per first vertex). `pair_graph`, the full fill,
floods from every non-adjacent pair, on any graph; it serves `wq`,
selftest and the tests. The decision fills half of it. On an
interval graph the components are the implication classes of the
complement, each inside any transitive orientation of the complement or
inside its reverse (Golumbic 1980, ch. 5), and the verified interval order
is one such orientation. So `_upward_classes` floods over that order's
pairs alone: it meets each class once, and its reversal is the other
component, so the count is twice the number of classes.

The buried search applies to interval input only. By Gallai's theorem a
class's span (the vertices its pairs use, shared with its reversal) is the
least module holding the class's pairs; it is buried exactly when its
remainder V - members - touched (touched being the union of the members'
neighbourhoods) is nonempty. The search reads the classes' spans in order
of their least unordered pair, regrows closures to check them, and stops
at the first span with a remainder: the certificate.

Every order a decision emits comes from the interval order of the
representation `recognize` verified, one endpoint sweep serving both. A
uniquely orderable graph has only that order and its dual: the unique order
is the one in which the least non-adjacent pair ascends. A "not unique"
verdict takes one pass: the matched span is the buried set, checked once by
`is_buried`, and one `_reversal_witness` call reverses the interval order
inside one bitset (that set if connected, else the first non-complete
component or the first two) and takes the disagreement triple from it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .errors import InputError, InternalInconsistencyError, NotIntervalGraphError
from .graphs import (
    Graph,
    Record,
    StrictPartialOrder,
    bit_indices,
    component_masks,
    is_associated,
)
from .recognition import Obstruction, recognize
from .representation import representation_to_order

VertexPair = tuple[int, int]


# ---------------------------------------------------------------------------
# Pair graph
# ---------------------------------------------------------------------------

class PairGraph(Record):
    """Ordered non-adjacent pairs with their linkage components.

    Component ids follow each component's least pair. By id, `rows` holds
    the component's pairs grouped by first vertex, as a dict from each
    first vertex a to the bitset of the b with (a, b) in the component,
    the least pair's first. `pairs`, every pair in sorted order, is read
    off the graph and `component_of`, each pair's id, off the rows, both
    on first use.
    """

    base: Graph
    rows: tuple[dict[int, int], ...]

    @property
    def component_count(self) -> int:
        return len(self.rows)

    @cached_property
    def pairs(self) -> tuple[VertexPair, ...]:
        everyone = (1 << self.base.n) - 1
        return tuple((a, b) for a, m in enumerate(self.base.masks)
                     for b in bit_indices(everyone & ~(m | 1 << a)))

    @cached_property
    def component_of(self) -> dict[VertexPair, int]:
        return {
            (a, b): i
            for i, component in enumerate(self.rows)
            for a, bs in component.items()
            for b in bit_indices(bs)
        }


def _flood(masks: tuple[int, ...], row: list[int], col: list[int],
           a: int, b: int, diagonal: bool) -> dict[int, int]:
    """The component of the unvisited pair (a, b), by one flood fill over
    the unvisited pairs: `row[a]` holds the b and `col[b]` the a of each.
    From (a, b) it steps to the unvisited pairs (c, b), c in N(a), and
    (a, d), d in N(b), and with `diagonal` to unvisited (c, d) with c, d in
    N(a) ∩ N(b): the bits of `cs = masks[a] & col[b]`, of
    `ds = masks[b] & row[a]` and, for each c in `common = masks[a] & masks[b]`,
    of `common & row[c]`. A step clears its whole bitset from the index it
    was read from with one operation; a lowest-bit loop over it then clears
    each pair from the other index, records it and pushes it. Returns the
    component's pairs as one bitset of second vertices per first vertex,
    keyed from a on."""
    row[a] ^= 1 << b
    col[b] ^= 1 << a
    found, stack = {a: 1 << b}, [(a, b)]
    while stack:
        a, b = stack.pop()
        cs = masks[a] & col[b]
        if cs:  # the pairs (c, b)
            col[b] ^= cs
            bit = 1 << b
            while cs:
                low = cs & -cs
                c = low.bit_length() - 1
                row[c] ^= bit
                found[c] = found.get(c, 0) | bit
                stack.append((c, b))
                cs ^= low
        ds = masks[b] & row[a]
        if ds:  # the pairs (a, d)
            row[a] ^= ds
            found[a] |= ds
            bit = 1 << a
            while ds:
                low = ds & -ds
                d = low.bit_length() - 1
                col[d] ^= bit
                stack.append((a, d))
                ds ^= low
        if diagonal:  # the pairs (c, d) across a four-cycle
            common = masks[a] & masks[b]
            for c in bit_indices(common):
                ds = common & row[c]
                if ds:
                    row[c] ^= ds
                    found[c] = found.get(c, 0) | ds
                    for d in bit_indices(ds):
                        col[d] ^= 1 << c
                        stack.append((c, d))
    return found


def pair_graph(g: Graph) -> PairGraph:
    """Every component of the pair graph, each flooded by `_flood` from the
    least unvisited pair, so component ids follow each component's least
    pair. Any link (a, b)–(c, d) other than `_flood`'s steps factors through
    (c, b) or (a, d) unless c ~ b and a ~ d, and then a–c–b–d is an induced
    four-cycle: the diagonal step. So the components are those of the full
    link relation on every graph. A chordal graph has no induced four-cycle,
    so the diagonal step runs only when the cached sweep
    `Graph.chordal_cliques` fails; every interval graph skips it, and after
    `recognize` the sweep is not run again. The unvisited pairs start as
    every non-adjacent ordered pair, in `row` and, by symmetry, `col`."""
    masks = g.masks
    diagonal = g.chordal_cliques is None
    everyone = (1 << g.n) - 1
    row = [everyone & ~(m | 1 << a) for a, m in enumerate(masks)]
    col = row[:]  # non-adjacency is symmetric
    rows: list[dict[int, int]] = []
    for start in range(g.n):
        while row[start]:
            b = (row[start] & -row[start]).bit_length() - 1
            rows.append(_flood(masks, row, col, start, b, diagonal))
    return PairGraph(g, tuple(rows))


def _upward_classes(g: Graph, base: StrictPartialOrder) -> list[dict[int, int]]:
    """The implication classes of an interval graph's complement, each as
    `_flood`'s rows of the pairs that `base`, its interval order, orients
    upward, in order of their least unordered pair.

    `base` is checked associated first, since the fill relies on it: it is
    then a transitive orientation of the complement, holding every class
    or its reversal whole, so the flood runs over its pairs alone, rows
    `base.succ` and columns `base.pred`, with no diagonal step (g is
    chordal). At each x in turn the next class starts at the lowest bit y
    of `row[x] | col[x]` (every lower one is visited), as (x, y) when it
    lies in `row[x]`, else as (y, x)."""
    if not is_associated(g, base):
        raise InternalInconsistencyError("interval order is not associated to the graph")
    masks = g.masks
    row, col = list(base.succ), list(base.pred)
    classes: list[dict[int, int]] = []
    for x in range(g.n):
        while row[x] | col[x]:
            free = row[x] | col[x]
            low = free & -free
            y = low.bit_length() - 1
            classes.append(_flood(masks, row, col, x, y, False) if row[x] & low
                           else _flood(masks, row, col, y, x, False))
    return classes


# ---------------------------------------------------------------------------
# Buried subgraphs
# ---------------------------------------------------------------------------

class LeveledSet(Record):
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


def _closure_stages(masks: tuple[int, ...], v: int, u: int) -> Iterator[tuple[int, int, int]]:
    """The least module holding the non-adjacent pair {v, u}, grown in stages
    on bitsets: yields (w, stage, covered) as each member w joins.

    Stage 0 is {v, u}. `touched` is the union of the joined members'
    neighbourhoods and `common` the intersection of their closed ones, so
    each later stage is `touched & ~common & ~members` as the previous stage
    left them. No member is ever in `common`, so intersecting with open
    neighbourhoods keeps it exact. `covered` is the members, the current
    stage included, together with `touched`; it only grows."""
    members, touched, common = 0, 0, -1  # -1: the all-ones intersection of no sets
    fresh, stage = 1 << v | 1 << u, 0
    while fresh:
        members |= fresh
        for w in bit_indices(fresh):
            touched |= masks[w]
            common &= masks[w]
            yield w, stage, members | touched
        fresh, stage = touched & ~common & ~members, stage + 1


def buried_candidate(g: Graph, v: int, u: int) -> LeveledSet:
    """The least module containing the non-adjacent pair {v, u}, by stages:
    `_closure_stages` run to its fixpoint."""
    if g.adjacent(v, u):  # raises for a vertex out of range
        raise InputError(f"vertices ({v}, {u}) must be distinct and non-adjacent")
    level = {w: stage for w, stage, _ in _closure_stages(g.masks, v, u)}
    return LeveledSet(v, u, level)


class BuriedCheck(Record):
    """Outcome of the buried-subgraph definition check on a vertex set."""

    buried: bool
    separators: frozenset[int]
    outside: frozenset[int]
    witness_nonedge: VertexPair | None
    witness_outside: int | None

    def __bool__(self) -> bool:
        return self.buried


def _least_nonedge(masks: tuple[int, ...], inside: int) -> VertexPair | None:
    """The least non-adjacent pair (a, b), a < b, within the bitset `inside`."""
    for a in bit_indices(inside):
        later = inside & ~masks[a] & ~((2 << a) - 1)
        if later:
            return a, next(bit_indices(later))
    return None


def is_buried(g: Graph, vertex_set: Iterable[int]) -> BuriedCheck:
    """Check the three buried-subgraph conditions, returning the computed
    separator set (vertices adjacent to everything in the set, reflexively)
    and the remainder, plus witnesses."""
    members = frozenset(vertex_set)
    masks = g.masks
    separators = everyone = (1 << g.n) - 1
    inside = touched = 0
    for b in members:
        inside |= 1 << g._vertex(b)
        separators &= masks[b] | 1 << b
        touched |= masks[b]
    outside = everyone & ~inside & ~separators
    witness_nonedge = _least_nonedge(masks, inside)
    buried = (
        witness_nonedge is not None
        and not (separators & inside)
        and bool(outside)
        and not (touched & outside)
    )
    return BuriedCheck(
        buried=buried,
        separators=frozenset(bit_indices(separators)),
        outside=frozenset(bit_indices(outside)),
        witness_nonedge=witness_nonedge,
        witness_outside=next(bit_indices(outside), None),
    )


class BuriedCertificate(Record):
    """A buried subgraph plus everything needed to re-validate it."""

    members: frozenset[int]
    separators: frozenset[int]
    outside: frozenset[int]
    witness_nonedge: VertexPair
    witness_outside: int
    pair: VertexPair


def _buried_from_spans(g: Graph, classes: Iterable[dict[int, int]]) -> BuriedCertificate | None:
    """Certificate for the lexicographically first buried pair of an interval
    graph, read off the implication classes of its complement (see the
    module docstring), or None.

    Each class is given as rows of pairs, as `_upward_classes` gives them,
    in order of their least unordered pair; so is a pair-graph component.
    A class and its reversal are two components with one span, the union
    of the rows, and their least pairs are (a, least bit of row a), a the
    least row, and (b, least row holding b), b the least second. Each of
    the two that ascends has its closure regrown and checked to equal the
    span, which catches classes merged or split too much, and non-chordal
    input, where the diagonal step merges classes. The lesser is the class's
    least unordered pair, where a scan of the components by least pair
    first reaches the class. The first span with a remainder is the
    certificate's members, checked once by `is_buried`."""
    masks = g.masks
    everyone = (1 << g.n) - 1
    for rows in classes:
        span = seconds = 0
        for a, bs in rows.items():
            span |= 1 << a | bs
            seconds |= bs
        first = min(rows)
        least = (seconds & -seconds).bit_length() - 1
        # one of the two ascends: if the first descends, least < first
        starts = sorted(p for p in {
            (first, (rows[first] & -rows[first]).bit_length() - 1),
            (least, min(c for c, ds in rows.items() if ds >> least & 1)),
        } if p[0] < p[1])
        for v, u in starts:
            members = covered = 0
            for w, _, covered in _closure_stages(masks, v, u):
                members |= 1 << w
            if members != span:
                raise InternalInconsistencyError(
                    f"closure grown from ({v}, {u}) differs from the span of its "
                    "pair-graph component"
                )
        if covered == everyone:
            continue
        v, u = starts[0]
        members = frozenset(bit_indices(span))
        check = is_buried(g, members)
        if not check.buried:
            raise InternalInconsistencyError(
                f"candidate grown from ({v}, {u}) has a remainder yet fails the "
                "buried-subgraph conditions"
            )
        return BuriedCertificate(
            members=members,
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
    It is read off the classes the verified interval order orients upward
    (`_upward_classes`, `_buried_from_spans`); the pair graph is not built.
    """
    if len(component_masks(g.masks, (1 << g.n) - 1)) != 1:
        raise InputError("find_buried requires a connected graph")
    result = recognize(g)
    if isinstance(result, Obstruction):
        raise NotIntervalGraphError(
            "find_buried requires an interval graph", obstruction=result
        )
    return _buried_from_spans(g, _upward_classes(g, representation_to_order(result)))


# ---------------------------------------------------------------------------
# Building orders from certificates
# ---------------------------------------------------------------------------

def _associated_order(g: Graph, succ: list[int], what: str) -> StrictPartialOrder:
    """The order with successor rows `succ`, checked to be a strict partial
    order associated to g; anything else is a bug in the construction named
    by `what`."""
    try:
        order = StrictPartialOrder(g.n, succ)
    except InputError as exc:
        raise InternalInconsistencyError(f"{what} is not a partial order: {exc}") from exc
    if not is_associated(g, order):
        raise InternalInconsistencyError(f"{what} is not associated to the graph")
    return order


def _reversal_witness(
    g: Graph, base: StrictPartialOrder, inside: int
) -> tuple[StrictPartialOrder, StrictPartialOrder, tuple[int, int, int]]:
    """Two associated orders that are neither equal nor dual, differing only
    inside the vertex bitset `inside`.

    The first order rearranges `base` so the set is convex: every member
    sits exactly where the least member, the anchor, sits relative to
    outsiders. The second reverses the first inside the set only. In the
    triple (x, y, w), x and y are the least non-adjacent pair inside the
    set, x before y in the first order, and w is the least outsider not
    adjacent to all of the set. The first order has x < y < w or w < x < y;
    the second swaps x and y, so it is neither the first nor its dual.
    """
    anchor = (inside & -inside).bit_length() - 1
    outside = (1 << g.n) - 1 & ~inside
    # a member keeps its successors inside and takes the anchor's outside;
    # an outsider keeps its successors outside and is below all members or none
    succ1 = [
        base.succ[v] & inside | base.succ[anchor] & outside if inside >> v & 1
        else base.succ[v] & outside | (inside if base.succ[v] >> anchor & 1 else 0)
        for v in range(g.n)
    ]
    order1 = _associated_order(g, succ1, "order made convex around the set")
    succ2 = [  # inside the set, a member's successors become its predecessors
        row & outside | order1.pred[v] & inside if inside >> v & 1 else row
        for v, row in enumerate(succ1)
    ]
    order2 = _associated_order(g, succ2, "order reversed inside the set")
    if order2.succ in (order1.succ, order1.pred):
        raise InternalInconsistencyError(
            "reversing inside the set failed to produce a genuinely new order"
        )

    masks = g.masks
    a, b = _least_nonedge(masks, inside)
    x, y = (a, b) if order1.less(a, b) else (b, a)
    w = next(v for v in bit_indices(outside) if masks[v] & inside != inside)
    if not (
        (order1.less(x, y) and order1.less(y, w))
        or (order1.less(w, x) and order1.less(x, y))
    ):
        raise InternalInconsistencyError(
            "outside witness is not uniformly above or below the set"
        )
    return order1, order2, (x, y, w)


def two_orders_from_buried(
    g: Graph, cert: BuriedCertificate, base: StrictPartialOrder
) -> tuple[StrictPartialOrder, StrictPartialOrder, tuple[int, int, int]]:
    """Two associated orders that are not duals of each other: `base` made
    convex around the buried set, and that order reversed inside it (see
    `_reversal_witness`). Only the certificate's members are read; the
    triple (x, y, w) is rebuilt from them, so w is the least vertex of the
    remainder.
    """
    if not is_associated(g, base):
        raise InputError("base order is not associated to the graph")
    if not is_buried(g, cert.members):
        raise InputError("certificate does not describe a buried subgraph")
    return _reversal_witness(g, base, sum(1 << v for v in cert.members))


def order_from_pair_graph(g: Graph, pg: PairGraph) -> StrictPartialOrder:
    """The unique associated order read off a two-component pair graph:
    orient every pair in the component of the least pair, component 0, whose
    rows are the order's successor bitsets."""
    if pg.component_count != 2:
        raise InputError(
            f"pair graph has {pg.component_count} components; exactly 2 required"
        )
    succ = [pg.rows[0].get(a, 0) for a in range(g.n)]
    return _associated_order(g, succ, "pair-graph component")


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------

class UniquenessVerdict(Record):
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


def decide_unique(g: Graph) -> UniquenessVerdict:
    """Decide unique orderability of an interval graph, with certificates.

    The pair graph is not built: its components are the implication
    classes that the interval order `base` of the representation orients
    upward, read by `_upward_classes`, and their reversals, so their count
    is twice the number of classes. The buried-subgraph search over those
    classes and that count must agree, or an internal error is raised: no
    buried subgraph means exactly two components, or none on a complete
    graph; on a disconnected graph both say "unique" exactly when it is two
    complete blocks. Every order is read off `base`, checked once to be
    associated before the classes are read (see the module docstring): the
    unique order is `base` or its dual, and a witness reverses it inside the
    buried set on a connected graph, else inside the first non-complete
    component, or else the first two components (`base` stacks complete
    components by least vertex).
    """
    result = recognize(g)
    if isinstance(result, Obstruction):
        raise NotIntervalGraphError("not an interval graph", obstruction=result)
    base = representation_to_order(result)
    classes = _upward_classes(g, base)
    count = 2 * len(classes)
    nonedge = _least_nonedge(g.masks, (1 << g.n) - 1)
    cert = _buried_from_spans(g, classes)
    if (cert is None) != (count == (0 if nonedge is None else 2)):
        raise InternalInconsistencyError(
            f"buried-subgraph search ({'none' if cert is None else 'found'}) disagrees "
            f"with pair-graph component count {count}"
        )
    if cert is None:
        order = base if nonedge is None or base.less(*nonedge) else base.dual()
        return UniquenessVerdict(unique=True, wq_components=count, order=order)
    comps = component_masks(g.masks, (1 << g.n) - 1)
    inside = sum(1 << v for v in cert.members) if len(comps) == 1 else next(
        (c for c in comps if any(g.masks[v] | 1 << v != c for v in bit_indices(c))),
        comps[0] | comps[1],
    )
    order1, order2, triple = _reversal_witness(g, base, inside)
    return UniquenessVerdict(
        unique=False,
        wq_components=count,
        witness=(order1, order2),
        triple=triple,
        buried=cert if len(comps) == 1 else None,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _order_pairs_jsonable(order: StrictPartialOrder, name) -> list:
    """[name(u), name(v)] for each pair (u, v) of the order, u below v, in
    sorted order, walking each successor row lowest bit first; the text
    output joins the same list."""
    names = [name(v) for v in range(order.n)]
    out = []
    for u, above in enumerate(order.succ):
        first = names[u]
        while above:
            low = above & -above
            out.append([first, names[low.bit_length() - 1]])
            above ^= low
    return out


def buried_to_jsonable(cert: BuriedCertificate, name) -> dict:
    return {
        "B": [name(v) for v in sorted(cert.members)],
        "K": [name(v) for v in sorted(cert.separators)],
        "R": [name(v) for v in sorted(cert.outside)],
    }


def verdict_to_jsonable(verdict: UniquenessVerdict, name) -> dict:
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
        out["buried"] = buried_to_jsonable(verdict.buried, name)
    out["wq_components"] = verdict.wq_components
    return out
