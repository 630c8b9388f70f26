"""Closed interval representations over exact rational endpoints.

Every endpoint is an exact rational, an ``int`` (as `recognize` gives) or a
``fractions.Fraction``, and the two compare, hash and print alike by value;
there are no floating-point comparisons anywhere. Intersection is
closed-interval intersection, so a shared single point counts. Point
intervals (left == right) are accepted on input and split apart by
``normalize_distinguishing``. The algorithms compare endpoints as ints
through one scaling, `_integer_endpoints`, and read both the precedence
order and every "which intervals meet" answer off one sort by left
endpoint, `_left_prefixes`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, StrictPartialOrder, bit_indices


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


@dataclass(frozen=True)
class ClosedRepresentation:
    """Closed intervals [left(v), right(v)] for vertices 0..n-1."""

    n: int
    left: tuple[int | Fraction, ...]
    right: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.left) != self.n or len(self.right) != self.n:
            raise InputError("endpoint tuples must have one entry per vertex")
        for v in range(self.n):
            if self.left[v] > self.right[v]:
                raise InputError(
                    f"interval for vertex {v} is empty: left {self.left[v]} > right {self.right[v]}"
                )

    def intersects(self, u: int, v: int) -> bool:
        return self.left[u] <= self.right[v] and self.left[v] <= self.right[u]

    def wholly_before(self, u: int, v: int) -> bool:
        return self.right[u] < self.left[v]

    def is_distinguishing(self) -> bool:
        """All 2n endpoints pairwise distinct and every interval nondegenerate."""
        values = list(self.left) + list(self.right)
        return len(set(values)) == 2 * self.n


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


def _integer_endpoints(r: ClosedRepresentation) -> tuple[list[int], list[int]]:
    """The left and right endpoints times one common denominator: ints that
    compare exactly as the rationals do."""
    scale = math.lcm(*(x.denominator for x in r.left + r.right))
    return tuple([x.numerator * (scale // x.denominator) for x in ends] for ends in (r.left, r.right))


def _left_prefixes(r: ClosedRepresentation) -> tuple[list[int], list[int], list[int]]:
    """The integer endpoints, and for each u the bitset of vertices whose
    intervals start no later than u's ends: with the vertices sorted once by
    left endpoint, a prefix of that order found by one binary search."""
    left, right = _integer_endpoints(r)
    by_left = sorted(range(r.n), key=left.__getitem__)
    lefts = [left[v] for v in by_left]
    prefix = [0]  # prefix[k]: the first k vertices by left endpoint
    for v in by_left:
        prefix.append(prefix[-1] | 1 << v)
    return left, right, [prefix[bisect_right(lefts, right[u])] for u in range(r.n)]


def _meeting_masks(r: ClosedRepresentation) -> list[int]:
    """For each u, the bitset of vertices whose intervals meet u's, u included.

    u meets v iff left(v) <= right(u) and right(v) >= left(u). The first set
    is u's row of `_left_prefixes` and the second a suffix of the vertices
    sorted by right endpoint, so each row is one AND of two bitsets."""
    left, right, started = _left_prefixes(r)
    by_right = sorted(range(r.n), key=right.__getitem__)
    rights = [right[v] for v in by_right]
    suffix = [0] * (r.n + 1)  # suffix[k]: all but the first k vertices by right endpoint
    for k in range(r.n - 1, -1, -1):
        suffix[k] = suffix[k + 1] | 1 << by_right[k]
    return [started[u] & suffix[bisect_left(rights, left[u])] for u in range(r.n)]


def induced_graph(r: ClosedRepresentation, labels=None) -> Graph:
    """Graph whose distinct vertices are adjacent iff their intervals meet:
    the rows of `_meeting_masks`, each without its own vertex."""
    rows = [row ^ 1 << u for u, row in enumerate(_meeting_masks(r))]
    return Graph._from_rows(rows, tuple(labels) if labels is not None else None)


def verify_representation(g: Graph, r: ClosedRepresentation) -> bool:
    """True iff adjacency in g matches interval intersection exactly: each
    closed neighbourhood `masks[u] | 1 << u` equals its row of
    `_meeting_masks`."""
    if g.n != r.n:
        raise InputError(f"vertex count mismatch: graph has {g.n}, representation has {r.n}")
    return all(m | 1 << u == row for u, (m, row) in enumerate(zip(g.masks, _meeting_masks(r))))


def representation_to_order(r: ClosedRepresentation) -> StrictPartialOrder:
    """The order in which u precedes v iff u's interval lies wholly before v's:
    u's successors are the vertices outside its row of `_left_prefixes`."""
    _, _, started = _left_prefixes(r)
    everyone = (1 << r.n) - 1
    succ = [everyone & ~row for row in started]
    try:
        return StrictPartialOrder._from_succ(r.n, succ)
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


def is_interval_order(o: StrictPartialOrder) -> bool:
    """True iff no two disjoint comparable pairs sit side by side unrelated."""
    return find_two_plus_two(o) is None


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
    m = len(chain)
    lefts = []
    rights = []
    for v in range(o.n):
        lefts.append(Fraction(rank[o.pred[v]]))
        containing = [i for i, down in enumerate(chain) if down >> v & 1]
        rights.append(Fraction(containing[0] - 1 if containing else m))
    return ClosedRepresentation(o.n, tuple(lefts), tuple(rights))


def normalize_distinguishing(r: ClosedRepresentation) -> ClosedRepresentation:
    """Re-rank endpoints to pairwise distinct integers, preserving the graph.

    Ties are broken with all left endpoints before all right endpoints (so
    touching intervals keep intersecting and point intervals become
    nondegenerate), then by vertex index. Strict endpoint comparisons are
    preserved, so the precedence order is preserved as well.
    """
    left, right = _integer_endpoints(r)
    tokens = sorted(
        [(x, 0, v) for v, x in enumerate(left)] + [(x, 1, v) for v, x in enumerate(right)]
    )
    ends: tuple[list, list] = ([None] * r.n, [None] * r.n)
    for position, (_, kind, v) in enumerate(tokens):
        ends[kind][v] = Fraction(position)
    return ClosedRepresentation(r.n, tuple(ends[0]), tuple(ends[1]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _endpoint_to_jsonable(x: int | Fraction):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def representation_to_jsonable(r: ClosedRepresentation) -> dict:
    return {
        "n": r.n,
        "intervals": [
            [_endpoint_to_jsonable(r.left[v]), _endpoint_to_jsonable(r.right[v])]
            for v in range(r.n)
        ],
    }


def representation_from_jsonable(obj) -> ClosedRepresentation:
    if not isinstance(obj, dict):
        raise InputError("representation JSON must be an object")
    try:
        n = obj["n"]
        intervals = obj["intervals"]
    except KeyError as missing:
        raise InputError(f"representation JSON missing key {missing}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("representation JSON field 'n' must be an integer")
    if not isinstance(intervals, list):
        raise InputError("representation JSON field 'intervals' must be a list")
    r = representation_from_intervals(intervals)
    if r.n != n:
        raise InputError(f"representation lists {r.n} intervals but declares n={n}")
    return r
