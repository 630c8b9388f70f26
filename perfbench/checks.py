"""Certificate checkers written from the definitions, independent of intorder.

Each checker takes the op's Item, its exit code and its parsed JSON output,
and returns None when the answer is certified or a reason when it is not.
Vertices in certificates appear by label when the input has labels, so
names are mapped back to indices first.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import BenchGraph, Item


class Bad(Exception):
    """A certificate that does not check."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Bad(reason)


def _indexer(g: BenchGraph):
    index = {g.name(v): v for v in range(g.n)}

    def to_index(name) -> int:
        _require(name in index, f"unknown vertex {name!r}")
        return index[name]

    return to_index


def _adjacent(adj, u: int, v: int) -> bool:
    return u == v or v in adj[u]


def _endpoint(x) -> Fraction:
    if isinstance(x, list):
        _require(len(x) == 2 and x[1] != 0, f"bad endpoint {x!r}")
        return Fraction(x[0], x[1])
    _require(isinstance(x, int), f"bad endpoint {x!r}")
    return Fraction(x)


def check_representation(g: BenchGraph, payload: dict) -> None:
    """Intervals meet exactly when their vertices are adjacent."""
    intervals = payload.get("intervals")
    _require(payload.get("n") == g.n and isinstance(intervals, list)
             and len(intervals) == g.n, "interval list does not cover the vertices")
    spans = [(_endpoint(a), _endpoint(b)) for a, b in intervals]
    _require(all(a <= b for a, b in spans), "empty interval")
    adj = g.adj
    for u in range(g.n):
        lu, ru = spans[u]
        for v in range(u + 1, g.n):
            lv, rv = spans[v]
            meet = lu <= rv and lv <= ru
            _require(meet == (v in adj[u]), f"intervals of {u}, {v} disagree with the graph")


def check_chordless_cycle(g: BenchGraph, cycle: list[int]) -> None:
    k = len(cycle)
    _require(k >= 4 and len(set(cycle)) == k, "cycle too short or repeats a vertex")
    adj = g.adj
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            _require((cycle[j] in adj[cycle[i]]) == consecutive,
                     f"cycle has a chord or a gap at {cycle[i]}, {cycle[j]}")


def check_asteroidal_triple(g: BenchGraph, triple: list[int], paths: list[list[int]]) -> None:
    """Pairwise non-adjacent, each pair joined by a path that avoids the
    closed neighbourhood of the third."""
    _require(len(triple) == 3 and len(set(triple)) == 3 and len(paths) == 3, "malformed triple")
    adj = g.adj
    x, y, z = triple
    _require(not (_adjacent(adj, x, y) or _adjacent(adj, x, z) or _adjacent(adj, y, z)),
             "triple vertices are adjacent")
    for (a, b, avoid), path in zip(((x, y, z), (x, z, y), (y, z, x)), paths):
        _require(bool(path) and path[0] == a and path[-1] == b, "witness path has wrong ends")
        _require(all(q in adj[p] for p, q in zip(path, path[1:])), "witness path is not a path")
        _require(not any(_adjacent(adj, v, avoid) for v in path),
                 "witness path meets the third vertex's neighbourhood")


def check_associated_order(g: BenchGraph, rel: set[tuple[int, int]]) -> None:
    """Irreflexive, transitive, and its incomparability graph is g
    (antisymmetry follows from irreflexive plus transitive)."""
    _require(all(u != v for u, v in rel), "order is reflexive")
    succ = [0] * g.n
    for u, v in rel:
        succ[u] |= 1 << v
    for u, v in rel:
        _require(succ[v] & ~succ[u] == 0, f"order is not transitive at {u}<{v}")
    adj = g.adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            comparable = (u, v) in rel or (v, u) in rel
            _require(comparable != (v in adj[u]), f"order and graph disagree on {u}, {v}")


def check_buried(g: BenchGraph, members: set[int], separators: set[int], outside: set[int]) -> None:
    """B has a non-adjacent pair, K is exactly the set adjacent to all of B
    and misses B, R is the nonempty rest, and no edge joins B to R."""
    adj = g.adj
    _require(any(not _adjacent(adj, a, b) for a in members for b in members),
             "buried set has no non-adjacent pair")
    expected_k = {v for v in range(g.n) if all(_adjacent(adj, v, b) for b in members)}
    _require(separators == expected_k, "K is not the set adjacent to all of B")
    _require(not separators & members, "K meets B")
    _require(outside == set(range(g.n)) - members - separators and bool(outside),
             "R is empty or not the remainder")
    _require(not any(adj[b] & outside for b in members), "an edge joins B to R")


def _order(to_index, pairs) -> set[tuple[int, int]]:
    return {(to_index(u), to_index(v)) for u, v in pairs}


def _check_buried_payload(item: Item, to_index, payload: dict) -> None:
    sets = {key: {to_index(v) for v in payload[key]} for key in ("B", "K", "R")}
    check_buried(item.graph, sets["B"], sets["K"], sets["R"])
    if item.predicted is not None:
        _require({key: sorted(payload[key], key=str) for key in "BKR"}
                 == {key: sorted(item.predicted[key], key=str) for key in "BKR"},
                 "gadget certificate differs from the predicted B/K/R")


def _check_recognize(item: Item, to_index, code: int, payload: dict) -> None:
    g = item.graph
    if code == 0:
        check_representation(g, payload)
        return
    _require(code == 1, f"exit code {code}")
    if payload.get("kind") == "chordless_cycle":
        check_chordless_cycle(g, [to_index(v) for v in payload["cycle"]])
    else:
        _require(payload.get("kind") == "asteroidal_triple", "unknown obstruction kind")
        check_asteroidal_triple(g, [to_index(v) for v in payload["triple"]],
                                [[to_index(v) for v in p] for p in payload["witness_paths"]])


def _check_decide(item: Item, to_index, code: int, payload: dict) -> None:
    g = item.graph
    _require(code == (0 if payload["unique"] else 1), f"exit code {code} contradicts the verdict")
    if payload["unique"]:
        check_associated_order(g, _order(to_index, payload["order"]))
        _require(payload["wq_components"] == 2, "unique verdict without two pair-graph components")
        return
    witness = payload["witness"]
    first = _order(to_index, witness["order1"])
    second = _order(to_index, witness["order2"])
    check_associated_order(g, first)
    check_associated_order(g, second)
    _require(first != second, "witness orders are equal")
    _require(second != {(v, u) for u, v in first}, "witness orders are dual")
    x, y, w = (to_index(v) for v in witness["triple"])
    _require((x, y) in first and (y, x) in second, "triple pair is not swapped")
    _require(((x, w) in first) == ((x, w) in second) and ((w, x) in first) == ((w, x) in second)
             and ((x, w) in first or (w, x) in first), "triple third vertex is not a fixed point")
    _require("buried" in payload, "connected non-unique verdict without a buried certificate")
    _check_buried_payload(item, to_index, payload["buried"])


def _check_buried_command(item: Item, to_index, code: int, payload: dict) -> None:
    if not payload["found"]:
        _require(code == 1, f"exit code {code} for no certificate")
        return
    _require(code == 0, f"exit code {code} for a certificate")
    _check_buried_payload(item, to_index, payload)
    members = {to_index(v) for v in payload["B"]}
    a, b = (to_index(v) for v in payload["witness_nonedge"])
    _require(a in members and b in members and not _adjacent(item.graph.adj, a, b),
             "witness non-edge is not a non-adjacent pair of B")
    _require(payload["witness_outside"] in payload["R"], "witness outside vertex is not in R")


def pair_components(g: BenchGraph) -> tuple[list[tuple[int, int]], list[int]]:
    """Ordered non-adjacent pairs and a component id per pair, by linking
    (a, b) and (c, d) when a meets c and b meets d (reflexively)."""
    adj = g.adj
    pairs = [(a, b) for a in range(g.n) for b in range(g.n)
             if a != b and b not in adj[a]]
    parent = list(range(len(pairs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if _adjacent(adj, a, c) and _adjacent(adj, b, d):
                parent[find(j)] = find(i)
    return pairs, [find(i) for i in range(len(pairs))]


def _check_wq(item: Item, to_index, code: int, payload: dict) -> None:
    _require(code == 0, f"exit code {code}")
    pairs, roots = pair_components(item.graph)
    listed = [(to_index(a), to_index(b)) for a, b in payload["pairs"]]
    _require(listed == pairs, "pair list is not the ordered non-adjacent pairs")
    ids = payload["component_ids"]
    _require(len(ids) == len(pairs), "one component id per pair required")
    root_of_id: dict[int, int] = {}
    for root, cid in zip(roots, ids):
        _require(root_of_id.setdefault(cid, root) == root, "one component id covers two components")
    _require(len(root_of_id) == len(set(roots)), "a component has two ids")
    _require(payload["component_count"] == len(root_of_id), "component_count miscounts")


CHECKERS = {
    "recognize": _check_recognize,
    "decide": _check_decide,
    "buried": _check_buried_command,
    "wq": _check_wq,
}


def certify(item: Item, code: int, payload: dict) -> str | None:
    """None when the answer's certificate checks, otherwise the reason."""
    try:
        CHECKERS[item.command](item, _indexer(item.graph), code, payload)
    except Bad as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None
