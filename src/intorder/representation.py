"""Closed interval representations over exact rational endpoints.

Every library route gives int endpoints (`recognize` its clique positions,
`normalize_distinguishing` and `order_to_representation` their ranks); only
the gadget's bisection, or a caller, gives ``fractions.Fraction`` ones, and
the two compare, hash and print alike by value. There are no floating-point
comparisons anywhere. Intersection is closed-interval intersection, so a
shared single point counts. Point intervals (left == right) are accepted on
input and split apart by ``normalize_distinguishing``. The algorithms compare
endpoints as ints, `_integer_endpoints`, and read the precedence order,
every "which intervals meet" answer and the distinguishing ranks off one
sort of all 2n endpoints, swept once by `_endpoint_sweep`.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, Record, StrictPartialOrder, _tupled, _vertex_count, bit_indices


class ClosedRepresentation(Record):
    """Closed intervals [left(v), right(v)] for vertices 0..n-1. The one
    constructor checks the count, stores both sides as tuples of one
    endpoint per vertex, each an int (never a bool) or another exact
    rational such as a ``Fraction``, and refuses an empty interval."""

    n: int
    left: tuple[numbers.Rational, ...]
    right: tuple[numbers.Rational, ...]

    def __post_init__(self):
        n = _vertex_count(self.n)
        left = vars(self)["left"] = _tupled(self.left, "left endpoints")
        right = vars(self)["right"] = _tupled(self.right, "right endpoints")
        if len(left) != n or len(right) != n:
            raise InputError("endpoint tuples must have one entry per vertex")
        ends = left + right
        if not set(map(type, ends)) <= {int}:
            for x in ends:
                if isinstance(x, bool) or not isinstance(x, numbers.Rational):
                    raise InputError(f"endpoint {x!r} is not an exact rational")
        for v in range(n):
            if left[v] > right[v]:
                raise InputError(f"interval for vertex {v} is empty: left {left[v]} > right {right[v]}")

    @cached_property
    def _sweep(self) -> tuple[list[int], list[int]]:
        """`_endpoint_sweep(self)`, kept (never mutated) so verification and the order share it."""
        return _endpoint_sweep(self)


def _integer_endpoints(r: ClosedRepresentation) -> list[int]:
    """The 2n endpoints, lefts then rights, as ints that compare exactly as the
    rationals do: int endpoints as given, others times one common denominator."""
    ends = r.left + r.right
    if all(type(x) is int for x in ends):
        return list(ends)
    scale = math.lcm(*(x.denominator for x in ends))
    return [x.numerator * (scale // x.denominator) for x in ends]


def _endpoint_sweep(r: ClosedRepresentation) -> tuple[list[int], list[int]]:
    """For each u, the bitsets `started[u]` of the vertices whose intervals
    start no later than u's ends, and `ended[u]` of those whose intervals
    end before u's starts: one pass over the indices of `_integer_endpoints`
    sorted stably, so that at a tie lefts come first, then lower vertices."""
    n = r.n
    started, ended = [0] * n, [0] * n
    opened = closed = 0
    for i in sorted(range(2 * n), key=_integer_endpoints(r).__getitem__):
        if i < n:
            ended[i] = closed
            opened |= 1 << i
        else:
            started[i - n] = opened
            closed |= 1 << i - n
    return started, ended


def _meeting_masks(r: ClosedRepresentation) -> list[int]:
    """For each u, the bitset of vertices whose intervals meet u's, u included:
    u meets v iff left(v) <= right(u) and right(v) >= left(u), which is one
    row of each list of the cached `_endpoint_sweep`."""
    return [row & ~gone for row, gone in zip(*r._sweep)]


def induced_graph(r: ClosedRepresentation) -> Graph:
    """Graph whose distinct vertices are adjacent iff their intervals meet:
    the rows of `_meeting_masks`, each without its own vertex."""
    rows = [row ^ 1 << u for u, row in enumerate(_meeting_masks(r))]
    return Graph._from_rows(rows)


def verify_representation(g: Graph, r: ClosedRepresentation) -> bool:
    """True iff adjacency in g matches interval intersection exactly: each
    closed neighbourhood `masks[u] | 1 << u` equals its row of
    `_meeting_masks`, read off one endpoint sweep."""
    if g.n != r.n:
        raise InputError(f"vertex count mismatch: graph has {g.n}, representation has {r.n}")
    return all(m | 1 << u == row for u, (m, row) in enumerate(zip(g.masks, _meeting_masks(r))))


def representation_to_order(r: ClosedRepresentation) -> StrictPartialOrder:
    """The order in which u precedes v iff u's interval lies wholly before v's:
    u's successors are the vertices outside its `started` row of the cached
    `_endpoint_sweep`."""
    started, _ = r._sweep
    everyone = (1 << r.n) - 1
    succ = [everyone & ~row for row in started]
    try:
        return StrictPartialOrder(r.n, succ)
    except InputError as exc:  # geometrically impossible
        raise InternalInconsistencyError(
            f"interval precedence failed to be a strict partial order: {exc}"
        ) from exc


def find_two_plus_two(o: StrictPartialOrder) -> tuple[int, int, int, int] | None:
    """A witness (a, b, c, d) with a < b and c < d forming two disjoint
    comparable pairs with no relations across, or None.

    Uses the down-set characterization: such a pattern exists iff two
    predecessor sets `o.pred` are incomparable under inclusion; a and c are
    the least vertices of the two differences.
    """
    for b in range(o.n):
        for d in range(o.n):
            only_b, only_d = o.pred[b] & ~o.pred[d], o.pred[d] & ~o.pred[b]
            if only_b and only_d:
                return (next(bit_indices(only_b)), b, next(bit_indices(only_d)), d)
    return None


def order_to_representation(o: StrictPartialOrder) -> ClosedRepresentation:
    """Intervals whose precedence order is exactly o.

    The distinct predecessor sets of an interval order form a chain under
    inclusion; left(v) is the rank of pred(v) in that chain and right(v) is
    one below the least rank of a down-set containing v (or the chain
    length when no down-set does).
    """
    witness = find_two_plus_two(o)
    if witness is not None:
        a, b, c, d = witness
        raise InputError(
            "not an interval order: "
            f"{a}<{b} and {c}<{d} are disjoint comparable pairs with all cross pairs incomparable"
        )
    chain = sorted(set(o.pred), key=int.bit_count)
    rank = {down: i for i, down in enumerate(chain)}
    lefts = [rank[down] for down in o.pred]
    rights = [next((i - 1 for i, down in enumerate(chain) if down >> v & 1), len(chain)) for v in range(o.n)]
    return ClosedRepresentation(o.n, lefts, rights)


def normalize_distinguishing(r: ClosedRepresentation) -> ClosedRepresentation:
    """Re-rank endpoints to pairwise distinct integers, preserving the graph.

    Ties are broken with all left endpoints before all right endpoints (so
    touching intervals keep intersecting and point intervals become
    nondegenerate), then by vertex index. Strict endpoint comparisons are
    preserved, so the precedence order is preserved as well.
    """
    ends = [0] * (2 * r.n)
    for position, i in enumerate(sorted(range(2 * r.n), key=_integer_endpoints(r).__getitem__)):
        ends[i] = position
    return ClosedRepresentation(r.n, ends[: r.n], ends[r.n :])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _endpoint_to_jsonable(x: numbers.Rational):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def representation_to_jsonable(r: ClosedRepresentation) -> dict:
    return {
        "n": r.n,
        "intervals": [
            [_endpoint_to_jsonable(r.left[v]), _endpoint_to_jsonable(r.right[v])]
            for v in range(r.n)
        ],
    }

