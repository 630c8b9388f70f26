"""Workload corpora: fixed sets of graphs, streamed in a seeded order.

Each workload is a list of strata (a graph family at one size). Entry k of
a stratum is built from a seed that depends only on the stratum name and
k, so its expected exit code and output digest can be recorded once in
``expected.json``. A run's ``--seed`` shuffles the whole corpus into the
order the closed loop repeats. Every run therefore measures the same work:
the native-numbered families have heavy-tailed op times (one graph can
cost a hundred times its stratum's median), so a seeded sample of them
moves the end-to-end numbers more than the bounds allow (see README.md).

Size ranges are chosen so that at the recorded commit every entry
finishes far inside the per-op time limit; the exponential clique-order
search makes larger native-numbered graphs take seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable
from functools import cached_property

import intorder

COMMANDS = ("recognize", "decide", "buried", "wq")


@dataclass(frozen=True)
class BenchGraph:
    """A graph as the benchmark's own checkers see it."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    @cached_property
    def adj(self) -> list[set[int]]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def name(self, v: int):
        return self.labels[v] if self.labels is not None else v

    def to_json(self) -> str:
        obj: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            obj["labels"] = {str(v): x for v, x in enumerate(self.labels)}
        return json.dumps(obj)


@dataclass
class Item:
    """One op: a command, its graph, and what the answer must satisfy."""

    key: str
    command: str
    graph: BenchGraph
    text: str
    predicted: dict | None = None  # gadget B/K/R as output names

    @property
    def argv(self) -> list[str]:
        return [self.command, "--json"]


@dataclass(frozen=True)
class Stratum:
    name: str
    count: int
    build: Callable[[int], tuple] = field(repr=False)  # seed -> (command, graph, predicted)


def _item_seed(name: str, k: int) -> int:
    digest = hashlib.sha256(f"{name}/{k}".encode()).hexdigest()
    return int(digest[:12], 16)


def _graph(n: int, edges, labels=None) -> BenchGraph:
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return BenchGraph(n, tuple(canon), tuple(labels) if labels is not None else None)


def _relabel(g: BenchGraph, perm: list[int]) -> BenchGraph:
    return _graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _connected(g: BenchGraph) -> bool:
    if g.n == 0:
        return False
    adj = g.adj
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _random_interval(n: int, seed: int, left_order: bool = False) -> BenchGraph:
    g, rep = intorder.random_interval_graph(n, seed)
    graph = _graph(n, g.edges)
    if not left_order:
        return graph
    by_left = sorted(range(n), key=lambda v: (rep.left[v], v))
    perm = [0] * n
    for position, v in enumerate(by_left):
        perm[v] = position
    return _relabel(graph, perm)


def _connected_interval(n: int, seed: int, left_order: bool = False) -> BenchGraph:
    """The first connected, non-complete draw from seed, seed+1, ..."""
    while True:
        g = _random_interval(n, seed, left_order)
        if _connected(g) and len(g.edges) < n * (n - 1) // 2:
            return g
        seed += 1


def _edited_interval(n: int, seed: int) -> BenchGraph:
    """A random interval graph with one vertex pair's adjacency toggled."""
    g = _random_interval(n, seed)
    u, v = sorted(random.Random(seed).sample(range(n), 2))
    return _graph(n, set(g.edges) ^ {(u, v)})


def _cycle(length: int, seed: int) -> BenchGraph:
    perm = list(range(length))
    random.Random(seed).shuffle(perm)
    return _relabel(_graph(length, [(i, (i + 1) % length) for i in range(length)]), perm)


def _subdivided_claw(legs: tuple[int, ...], seed: int) -> BenchGraph:
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return _relabel(_graph(n, edges), perm)


def _subtree_intersection(n: int, seed: int) -> BenchGraph:
    """Intersection graph of n random subtrees (1-4 nodes) of a random
    n-node tree: always chordal, interval or not."""
    rng = random.Random(seed)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        p = rng.randrange(i)
        nbrs[i].append(p)
        nbrs[p].append(i)
    subtrees = []
    for _ in range(n):
        tree = {rng.randrange(n)}
        size = rng.randint(1, 4)
        while len(tree) < size:
            frontier = sorted({w for v in tree for w in nbrs[v]} - tree)
            if not frontier:
                break
            tree.add(rng.choice(frontier))
        subtrees.append(tree)
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if subtrees[u] & subtrees[v]])


def reference_graphs() -> list[BenchGraph]:
    """Fixed graphs for run.Reference, built without intorder so that no
    change to the package can move the reference."""
    return [_subtree_intersection(12 + j % 5, 2000 + j) for j in range(20)]


def _gadget(stages: int):
    """The staged gadget with decreasing f, and its predicted B/K/R."""
    spec = intorder.GadgetSpec(tuple(range(stages, 0, -1)), stages)
    out = intorder.build_gadget(spec)
    g = out.graph
    graph = _graph(g.n, g.edges, g.labels)
    predicted = {
        key: sorted(graph.name(v) for v in sorted(members))
        for key, members in (("B", out.predicted_members),
                             ("K", out.predicted_separators),
                             ("R", out.predicted_outside))
    }
    return graph, predicted


def _recognize_strata() -> list[Stratum]:
    strata = []
    for n in range(20, 31):
        strata.append(Stratum(f"interval-{n}", 10,
                              lambda s, n=n: ("recognize", _random_interval(n, s), None)))
    for n in range(16, 23):
        strata.append(Stratum(f"edit-{n}", 10,
                              lambda s, n=n: ("recognize", _edited_interval(n, s), None)))
    for length in range(6, 12):
        strata.append(Stratum(f"cycle-{length}", 2,
                              lambda s, k=length: ("recognize", _cycle(k, s), None)))
    for legs in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)):
        strata.append(Stratum("claw-" + ".".join(map(str, legs)), 3,
                              lambda s, legs=legs: ("recognize", _subdivided_claw(legs, s), None)))
    for n in range(12, 17):
        strata.append(Stratum(f"subtree-{n}", 10,
                              lambda s, n=n: ("recognize", _subtree_intersection(n, s), None)))
    return strata


def _decide_strata() -> list[Stratum]:
    strata = []
    for n in range(18, 34):
        strata.append(Stratum(f"interval-{n}", 5,
                              lambda s, n=n: ("decide", _connected_interval(n, s, True), None)))
    for stages in range(6, 26):
        strata.append(Stratum(f"gadget-{stages}", 1,
                              lambda s, st=stages: ("decide", *_gadget(st))))
    return strata


def _cli_strata() -> list[Stratum]:
    def build(command, n):
        def make(seed):
            if command == "recognize" and seed % 2:
                return command, _edited_interval(n, seed), None
            if command == "recognize":
                return command, _random_interval(n, seed), None
            return command, _connected_interval(n, seed), None
        return make

    return [Stratum(f"{command}-{n}", 4, build(command, n))
            for command in COMMANDS for n in range(6, 13)]


WORKLOADS = {
    "recognize": _recognize_strata,
    "decide": _decide_strata,
    "cli": _cli_strata,
}


def _build_item(stratum: Stratum, k: int) -> Item:
    command, graph, predicted = stratum.build(_item_seed(stratum.name, k))
    return Item(f"{stratum.name}/{k}", command, graph, graph.to_json(), predicted)


def corpus(workload: str) -> list[Item]:
    """Every entry of every stratum, as recorded in expected.json."""
    return [_build_item(st, k) for st in WORKLOADS[workload]() for k in range(st.count)]


def stream(workload: str, seed: int) -> list[Item]:
    """The corpus in the seeded order a run repeats."""
    items = corpus(workload)
    random.Random(seed).shuffle(items)
    return items


def input_digest(item: Item) -> str:
    return digest(" ".join(item.argv) + "\n" + item.text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
