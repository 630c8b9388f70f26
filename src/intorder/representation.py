"""Closed interval representations over exact rational endpoints.

Every endpoint is a ``fractions.Fraction``; there are no floating-point
comparisons anywhere. Intersection is closed-interval intersection, so a
shared single point counts. Point intervals (left == right) are accepted
on input and split apart by ``normalize_distinguishing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, StrictPartialOrder


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
    left: tuple[Fraction, ...]
    right: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.left) != self.n or len(self.right) != self.n:
            raise InputError("endpoint tuples must have one entry per vertex")
        for v in range(self.n):
            if self.left[v] > self.right[v]:
                raise InputError(
                    f"interval for vertex {v} is empty: left {self.left[v]} > right {self.right[v]}"
                )

    def interval(self, v: int) -> tuple[Fraction, Fraction]:
        return (self.left[v], self.right[v])

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


def induced_graph(r: ClosedRepresentation, labels=None) -> Graph:
    """Graph whose distinct vertices are adjacent iff their intervals meet."""
    edges = frozenset(
        (u, v)
        for u in range(r.n)
        for v in range(u + 1, r.n)
        if r.intersects(u, v)
    )
    return Graph(r.n, edges, tuple(labels) if labels is not None else None)


def verify_representation(g: Graph, r: ClosedRepresentation) -> bool:
    """True iff adjacency in g matches interval intersection exactly."""
    if g.n != r.n:
        raise InputError(f"vertex count mismatch: graph has {g.n}, representation has {r.n}")
    # one common denominator turns every endpoint comparison into an int one
    scale = math.lcm(*(x.denominator for x in r.left + r.right))
    left = [x.numerator * (scale // x.denominator) for x in r.left]
    right = [x.numerator * (scale // x.denominator) for x in r.right]
    for u in range(g.n):
        adj_u, left_u, right_u = g.adj[u], left[u], right[u]
        for v in range(u + 1, g.n):
            if (v in adj_u) != (left_u <= right[v] and left[v] <= right_u):
                return False
    return True


def representation_to_order(r: ClosedRepresentation) -> StrictPartialOrder:
    """The order in which u precedes v iff u's interval lies wholly before v's."""
    rel = frozenset(
        (u, v)
        for u in range(r.n)
        for v in range(r.n)
        if u != v and r.wholly_before(u, v)
    )
    try:
        return StrictPartialOrder(r.n, rel)
    except InputError as exc:  # geometrically impossible
        raise InternalInconsistencyError(
            f"interval precedence failed to be a strict partial order: {exc}"
        ) from exc


def _predecessor_sets(o: StrictPartialOrder) -> list[frozenset[int]]:
    return [
        frozenset(u for u in range(o.n) if o.less(u, v))
        for v in range(o.n)
    ]


def find_two_plus_two(o: StrictPartialOrder) -> tuple[int, int, int, int] | None:
    """A witness (a, b, c, d) with a < b and c < d forming two disjoint
    comparable pairs with no relations across, or None.

    Uses the down-set characterization: such a pattern exists iff two
    predecessor sets are incomparable under inclusion.
    """
    preds = _predecessor_sets(o)
    for b in range(o.n):
        for d in range(o.n):
            pb, pd = preds[b], preds[d]
            if pb <= pd or pd <= pb:
                continue
            a = min(pb - pd)
            c = min(pd - pb)
            return (a, b, c, d)
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
    preds = _predecessor_sets(o)
    chain = sorted(set(preds), key=len)
    rank = {down: i for i, down in enumerate(chain)}
    m = len(chain)
    lefts = []
    rights = []
    for v in range(o.n):
        lefts.append(Fraction(rank[preds[v]]))
        containing = [i for i, down in enumerate(chain) if v in down]
        rights.append(Fraction(containing[0] - 1 if containing else m))
    return ClosedRepresentation(o.n, tuple(lefts), tuple(rights))


def normalize_distinguishing(r: ClosedRepresentation) -> ClosedRepresentation:
    """Re-rank endpoints to pairwise distinct integers, preserving the graph.

    Ties are broken with all left endpoints before all right endpoints (so
    touching intervals keep intersecting and point intervals become
    nondegenerate), then by vertex index. Strict endpoint comparisons are
    preserved, so the precedence order is preserved as well.
    """
    tokens: list[tuple[Fraction, int, int]] = []
    for v in range(r.n):
        tokens.append((r.left[v], 0, v))
        tokens.append((r.right[v], 1, v))
    tokens.sort()
    lefts: list[Fraction | None] = [None] * r.n
    rights: list[Fraction | None] = [None] * r.n
    for position, (_, kind, v) in enumerate(tokens):
        if kind == 0:
            lefts[v] = Fraction(position)
        else:
            rights[v] = Fraction(position)
    return ClosedRepresentation(r.n, tuple(lefts), tuple(rights))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _endpoint_to_jsonable(x: Fraction):
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
    if not isinstance(intervals, list):
        raise InputError("representation JSON field 'intervals' must be a list")
    r = representation_from_intervals(intervals)
    if r.n != n:
        raise InputError(f"representation lists {r.n} intervals but declares n={n}")
    return r
