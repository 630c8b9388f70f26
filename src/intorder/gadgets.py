"""Test-family generators.

`build_gadget` codes an injective integer prefix into a connected interval
graph whose unique buried subgraph is known in advance: two anchor
vertices plus, per stage, an x/y vertex pair whose cross edges encode
which indices are still suffix minima. The staged representation places
each new pair of endpoints by exact rational bisection inside the bounds
the earlier stages impose, so adjacency follows the same rules by
construction.

`random_interval_graph` draws seeded random intervals on a small grid and
normalizes them to distinguishing form.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InputError, InternalInconsistencyError
from .graphs import Graph, Record, graph_from_edges, graph_to_jsonable
from .representation import (
    ClosedRepresentation,
    induced_graph,
    normalize_distinguishing,
    representation_to_jsonable,
)

# fixed vertex layout: a, b, k, r, then x_i / y_i interleaved per stage
A, B, K, R = 0, 1, 2, 3


def x_vertex(i: int) -> int:
    return 4 + 2 * i


def y_vertex(i: int) -> int:
    return 5 + 2 * i


def _stage_minima(values: Sequence[int], stages: int) -> Iterator[frozenset[int]]:
    """For each stage t < stages, the suffix minima of values[:t + 1] (each i
    <= t below every later value up to t), off a monotone stack: each stage
    pops the indices whose value exceeds its own, then pushes itself."""
    stack: list[int] = []
    for t in range(stages):
        while stack and values[stack[-1]] > values[t]:
            stack.pop()
        stack.append(t)
        yield frozenset(stack)


class GadgetSpec(Record):
    """An injective prefix and how many x/y stages to realize."""

    f: tuple[int, ...]
    stages: int

    def __post_init__(self):
        if any(v < 0 for v in self.f):
            raise InputError("values must be nonnegative integers")
        if len(set(self.f)) != len(self.f):
            raise InputError("values must be pairwise distinct")
        if not (0 <= self.stages <= len(self.f)):
            raise InputError(
                f"stage count {self.stages} must be between 0 and len(f)={len(self.f)}"
            )


class GadgetOutput(Record):
    graph: Graph
    representation: ClosedRepresentation
    predicted_members: frozenset[int]
    predicted_separators: frozenset[int]
    predicted_outside: frozenset[int]


def build_gadget(spec: GadgetSpec) -> GadgetOutput:
    """The gadget of `spec` and its predicted partition. With M the suffix
    minima of the first `stages` values (none without stages), K is k and
    each x_i, i in M; R is r; B is a, b, each y_i and each x_i, i not in M."""
    s = spec.stages
    n = 4 + 2 * s
    labels = ["a", "b", "k", "r"]
    for i in range(s):
        labels.extend([f"x{i}", f"y{i}"])

    # endpoints: r=[0,2], k=[1,7], a=[3,4], b=[5,6]; each stage shares a's
    # left and b's right, then bisects for the two free endpoints
    left: list[Fraction] = [Fraction(0)] * n
    right: list[Fraction] = [Fraction(0)] * n
    left[R], right[R] = Fraction(0), Fraction(2)
    left[K], right[K] = Fraction(1), Fraction(7)
    left[A], right[A] = Fraction(3), Fraction(4)
    left[B], right[B] = Fraction(5), Fraction(6)
    edges: set[tuple[int, int]] = {(A, K), (B, K), (K, R)}
    alive: frozenset[int] = frozenset()  # after the loop: the last stage's minima
    for t, alive in enumerate(_stage_minima(spec.f, s)):
        xt, yt = x_vertex(t), y_vertex(t)
        edges.update({(A, xt), (xt, B), (B, yt), (xt, K), (yt, K), (xt, yt)})
        edges.update((x_vertex(i), yt) for i in alive)
        lo, hi = left[B], right[B]
        for i in range(t):
            edges.update({(x_vertex(i), xt), (y_vertex(i), yt), (xt, y_vertex(i))})
            lo = max(lo, left[y_vertex(i)])
            if i in alive:
                hi = min(hi, right[x_vertex(i)])
            else:
                lo = max(lo, right[x_vertex(i)])
        if not lo < hi:
            raise InternalInconsistencyError(
                f"no room to place stage {t} endpoints: bounds [{lo}, {hi}]"
            )
        right[xt] = (lo + hi) / 2
        left[yt] = (lo + right[xt]) / 2
        left[xt] = left[A]
        right[yt] = right[B]
    graph = graph_from_edges(n, edges, labels=labels)
    representation = ClosedRepresentation(n, tuple(left), tuple(right))

    predicted_members = frozenset(
        {A, B}
        | {y_vertex(i) for i in range(s)}
        | {x_vertex(i) for i in range(s) if i not in alive}
    )
    predicted_separators = frozenset({K} | {x_vertex(i) for i in alive})
    predicted_outside = frozenset({R})
    return GadgetOutput(
        graph=graph,
        representation=representation,
        predicted_members=predicted_members,
        predicted_separators=predicted_separators,
        predicted_outside=predicted_outside,
    )


def gadget_to_jsonable(out: GadgetOutput) -> dict:
    name = out.graph.label_of
    return {
        "graph": graph_to_jsonable(out.graph),
        "representation": representation_to_jsonable(out.representation),
        "predicted_B": [name(v) for v in sorted(out.predicted_members)],
        "predicted_K": [name(v) for v in sorted(out.predicted_separators)],
        "predicted_R": [name(v) for v in sorted(out.predicted_outside)],
    }


def all_graphs(n: int):
    """Every graph on n labeled vertices, in edge-mask order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph._from_rows(rows)


def random_interval_graph(n: int, seed: int) -> tuple[Graph, ClosedRepresentation]:
    """Seeded random intervals on a grid of size 2n, normalized to
    distinguishing form; deterministic for a fixed seed."""
    if n < 1:
        raise InputError("need at least one vertex")
    rng = random.Random(seed)
    grid = 2 * n
    ends = [sorted((rng.randrange(grid), rng.randrange(grid))) for _ in range(n)]
    rep = normalize_distinguishing(ClosedRepresentation(n, *zip(*ends)))
    return induced_graph(rep), rep
