import json
import random
from bisect import bisect_left
import sys
import time
import tracemalloc
from collections import deque
from itertools import chain, combinations

import pytest

from conftest import (
    c4,
    closed_neighborhood,
    complete_graph,
    incomparability_graph,
    is_interval_order,
    k3,
    neighbors,
    net_graph,
    p4,
    random_graph,
    single_nonedge4,
)
from intorder import (
    ClosedRepresentation,
    InputError,
    InternalInconsistencyError,
    Obstruction,
    check_triangulated,
    enumerate_associated_orders,
    find_asteroidal_triple,
    graph_from_edges,
    graph_to_jsonable,
    maximal_cliques,
    parse_graph_json,
    recognize,
    representation_to_order,
    validate_obstruction,
    verify_representation,
)
from intorder import recognition as recognition_module
from intorder.gadgets import all_graphs, random_interval_graph
from intorder.graphs import Graph, _chordal_sweep, bit_indices, component_masks
from intorder.recognition import _consecutive_clique_order, _least_path, _least_shortest_hole, _sorted_cliques


def string_key_sorted_cliques(g):
    """The clique sort `_sorted_cliques` replaced: each clique's binary
    string read from bit 0, one n-character string per clique, sorted
    descending. Of two members of an antichain, the one holding the least
    vertex of their difference has a 1 where the other has a 0 first."""
    return sorted(g.chordal_cliques, key=lambda c: format(c, "b")[::-1], reverse=True)


def three_state_clique_order(cliques, n):
    """Reference search for the least consecutive clique ordering.

    Backtracking over positions: placing a clique opens its unseen vertices
    and closes every open vertex it omits; a clique containing any closed
    vertex cannot be placed. The first ordering found (trying cliques in
    index order at each position) is returned. It finds a dead end only
    after the damage is done, so it is exponential on cycles and recurses
    once per clique; the library's search must return the same ordering.
    """
    k = len(cliques)
    UNSEEN, OPEN, CLOSED = 0, 1, 2
    state = [UNSEEN] * n
    used = [False] * k
    open_set = set()
    order = []

    def place(depth):
        if depth == k:
            return True
        for i in range(k):
            if used[i]:
                continue
            c = cliques[i]
            if any(state[v] == CLOSED for v in c):
                continue
            opened = [v for v in c if state[v] == UNSEEN]
            closed = [v for v in open_set if v not in c]
            for v in opened:
                state[v] = OPEN
                open_set.add(v)
            for v in closed:
                state[v] = CLOSED
                open_set.discard(v)
            used[i] = True
            order.append(i)
            if place(depth + 1):
                return True
            order.pop()
            used[i] = False
            for v in closed:
                state[v] = OPEN
                open_set.add(v)
            for v in opened:
                state[v] = UNSEEN
                open_set.discard(v)
        return False

    return order if place(0) else None


def frozenset_clique_order(cliques, n):
    """Reference: the lexicographically least ordering of clique indices in
    which every vertex's cliques are consecutive, or None, by the library's
    search run on frozensets with one counter per vertex.

    Depth-first search trying unplaced cliques in index order, under one
    invariant: the next clique contains every vertex of the last placed
    clique that still occurs in an unplaced clique. `remaining[v]` counts
    the unplaced cliques holding v; a dead end pops the last clique and
    resumes after it. Exponential on the hub with k pendant leaves and two
    arms of length 2: about 0.12 s at k = 7 and 1 s at k = 8 on a 2-core
    x86-64 host, as is the library's search on bitsets.
    """
    k = len(cliques)
    remaining = [0] * n
    for clique in cliques:
        for v in clique:
            remaining[v] += 1
    placed = [False] * k
    order = []
    start = 0
    while len(order) < k:
        required = {v for v in cliques[order[-1]] if remaining[v]} if order else set()
        for i in range(start, k):
            if not placed[i] and required <= cliques[i]:
                break
        else:
            if not order:
                return None
            i = order.pop()
            placed[i] = False
            for v in cliques[i]:
                remaining[v] += 1
            start = i + 1
            continue
        placed[i] = True
        for v in cliques[i]:
            remaining[v] -= 1
        order.append(i)
        start = 0
    return order


def recursive_maximal_cliques(g):
    """Reference Bron–Kerbosch on vertex sets, one recursive call per clique
    vertex, pivoting on the least vertex with the most candidate neighbours.
    It runs on any graph; `maximal_cliques` reads the chordality sweep and
    must return the same list on every chordal graph."""
    found = []

    def expand(r, p, x):
        if not p and not x:
            found.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda w: len(neighbors(g, w) & p))
        for v in sorted(p - neighbors(g, pivot)):
            expand(r | {v}, p & neighbors(g, v), x & neighbors(g, v))
            p.discard(v)
            x.add(v)

    if g.n:
        expand(set(), set(range(g.n)), set())
    return sorted(found, key=sorted)


def sweep_is_chordal(masks):
    """Reference chordality test: maximum cardinality search with a count
    per vertex, plus the perfect-elimination check on the latest earlier
    neighbour found from a bitset of visit steps. `Graph.chordal_cliques`
    runs the same search on bit-sliced counts and also reads off the
    maximal cliques; it must be None exactly when this returns False."""
    n = len(masks)
    buckets = [(1 << n) - 1] + [0] * n
    count = [0] * n
    seen_at = [0] * n  # bit i of seen_at[w]: w is adjacent to the i-th visit
    visit_order = [0] * n
    visited = top = 0
    for step in range(n):
        while not buckets[top]:
            top -= 1
        v = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= 1 << v
        if seen_at[v]:
            latest = visit_order[seen_at[v].bit_length() - 1]
            if masks[v] & visited & ~masks[latest] & ~(1 << latest):
                return False
        visit_order[step] = v
        visited |= 1 << v
        for w in bit_indices(masks[v] & ~visited):
            buckets[count[w]] ^= 1 << w
            count[w] += 1
            buckets[count[w]] |= 1 << w
            seen_at[w] |= 1 << step
        top += 1
    return True


def bucket_chordal_sweep(masks):
    """Reference for `_chordal_sweep`: the same search and checks with the
    unvisited vertices in one bitset per count, each visit lifting its
    unvisited neighbours one bucket up by walking the buckets from the top
    down. The library keeps the counts bit-sliced instead."""
    n = len(masks)
    buckets = [(1 << n) - 1] + [0] * n
    visit_order = [0] * n
    prefix = [0] * (n + 1)  # prefix[k]: the first k visits
    cliques = []
    clique, previous = 0, -1  # the last visit's clique and count
    visited = top = 0
    for step in range(n):
        while not buckets[top]:
            top -= 1
        if top <= previous:
            cliques.append(clique)
        v = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= 1 << v
        earlier = masks[v] & visited
        if earlier:
            latest = visit_order[step - 1]
            if not earlier >> latest & 1:
                j = bisect_left(range(step), True, key=lambda j: not earlier & ~prefix[j])
                latest = visit_order[j - 1]
            if earlier & ~masks[latest] & ~(1 << latest):
                return None
        clique, previous = earlier | 1 << v, top
        visit_order[step] = v
        visited |= 1 << v
        prefix[step + 1] = visited
        fresh, k = masks[v] & ~visited, top
        while fresh:
            lifted = buckets[k] & fresh
            if lifted:
                buckets[k] ^= lifted
                buckets[k + 1] |= lifted
                fresh ^= lifted
            k -= 1
        top += 1
    if n:
        cliques.append(clique)
    return tuple(cliques)


def set_based_asteroidal_triple(g):
    """Reference for `find_asteroidal_triple`: every triple in
    lexicographic order against per-vertex component ids, and witness
    paths by a BFS over sorted neighbour sets."""

    def components_avoiding(banned):
        comp = [-1] * g.n
        cid = 0
        for s in range(g.n):
            if s in banned or comp[s] != -1:
                continue
            comp[s] = cid
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in sorted(neighbors(g, v)):
                    if w not in banned and comp[w] == -1:
                        comp[w] = cid
                        queue.append(w)
            cid += 1
        return comp

    def shortest_path_avoiding(src, dst, banned):
        parent = {src: None}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if v == dst:
                path = []
                while v is not None:
                    path.append(v)
                    v = parent[v]
                return tuple(reversed(path))
            for w in sorted(neighbors(g, v)):
                if w not in banned and w not in parent:
                    parent[w] = v
                    queue.append(w)
        raise AssertionError("no path despite the component check")

    comp = {z: components_avoiding(closed_neighborhood(g, z)) for z in range(g.n)}

    def connected_avoiding(a, b, z):
        return comp[z][a] != -1 and comp[z][a] == comp[z][b]

    for x, y, z in combinations(range(g.n), 3):
        if g.adjacent(x, y) or g.adjacent(x, z) or g.adjacent(y, z):
            continue
        if connected_avoiding(x, y, z) and connected_avoiding(x, z, y) and connected_avoiding(y, z, x):
            paths = (
                shortest_path_avoiding(x, y, closed_neighborhood(g, z)),
                shortest_path_avoiding(x, z, closed_neighborhood(g, y)),
                shortest_path_avoiding(y, z, closed_neighborhood(g, x)),
            )
            return Obstruction(kind="asteroidal_triple", triple=(x, y, z), witness_paths=paths)
    return None


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def recursive_lex_least_chordless_cycle(g, length):
    """Reference: the lexicographically least chordless cycle of exactly this
    length, in canonical form (minimum vertex first, second vertex smaller
    than the last), by a recursive depth-first search that extends chordless
    paths in ascending vertex order from every start vertex."""
    adj = [neighbors(g, v) for v in range(g.n)]

    def dfs(path, used):
        c0 = path[0]
        last = path[-1]
        closing = len(path) == length - 1
        for w in sorted(adj[last]):
            if w <= c0 or w in used:
                continue
            if closing:
                if w <= path[1]:
                    continue
                if c0 not in adj[w]:
                    continue
                if any(p in adj[w] for p in path[1:-1]):
                    continue
                return tuple(path) + (w,)
            else:
                if any(p in adj[w] for p in path[:-1]):
                    continue
                result = dfs(path + [w], used | {w})
                if result is not None:
                    return result
        return None

    for c0 in range(g.n):
        result = dfs([c0], {c0})
        if result is not None:
            return result
    return None


def length_by_length_chordless_cycle(g):
    """Reference for `check_triangulated`: the reference search for every
    length from 4 up, so the first cycle found is the shortest, then least.
    On a chordal graph it enumerates every chordless path before answering
    None, which takes tens of ms per graph from about 17 vertices on."""
    for length in range(4, g.n + 1):
        cycle = recursive_lex_least_chordless_cycle(g, length)
        if cycle is not None:
            return cycle
    return None


def neighbours_of(masks, vertices):
    reach = 0
    for v in bit_indices(vertices):
        reach |= masks[v]
    return reach


def least_hole_opening(masks):
    """The hole references' measuring loop: one bitset BFS per induced path
    a-b-c (a < c, both above b) through the vertices above b outside N[b].
    Returns the shortest hole length and the last strict improvement
    (b, a, targets, allowed), or (n + 1, None) on a chordal graph."""
    n = len(masks)
    full = (1 << n) - 1
    length, found = n + 1, None
    for b in range(n):
        above = full & ~((2 << b) - 1)
        allowed = above & ~masks[b]
        for a in bit_indices(masks[b] & above):
            targets = masks[b] & ~masks[a] & ~((2 << a) - 1)
            seen = layer = 1 << a
            depth = 0
            while targets and layer and depth + 3 < length:
                reach = neighbours_of(masks, layer)
                if reach & targets:
                    length, found = depth + 3, (b, a, targets, allowed)
                    break
                layer = reach & allowed & ~seen
                seen |= layer
                depth += 1
    return length, found


def inline_walk_least_hole(g):
    """Reference for `_least_shortest_hole`, its former route: after the
    measuring loop, length - 2 layers grown back from the opening pair's
    targets, and an inline walk from a to the least neighbour one layer
    nearer at each step."""
    masks = g.masks
    length, found = least_hole_opening(masks)
    if found is None:
        return None
    b, a, targets, allowed = found
    layers = [targets]
    seen = targets
    while len(layers) < length - 2:
        layers.append(neighbours_of(masks, layers[-1]) & allowed & ~seen)
        seen |= layers[-1]
    cycle = [b, a]
    for layer in reversed(layers):
        step = masks[cycle[-1]] & layer
        cycle.append((step & -step).bit_length() - 1)
    return tuple(cycle)


def full_scan_least_hole(masks):
    """Reference for `_least_shortest_hole`, its former route: the measuring
    loop over every opening (b, a), on past a 4-hole, with each BFS opened
    by a depth-0 test at a itself, then `_least_path` from the last strict
    improvement."""
    length, found = least_hole_opening(masks)
    return None if found is None else (found[0],) + _least_path(masks, *found[1:])


def queue_shortest_path(masks, src, dst, banned):
    """Reference for `_least_path`, the former witness-path search: BFS from
    src to dst outside the bitset `banned`, neighbours tried in ascending
    order, each vertex keeping its first discoverer as parent; None when dst
    is out of reach."""
    parent = {src: None}
    seen = 1 << src
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            path = []
            cur = v
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            return tuple(reversed(path))
        fresh = masks[v] & ~banned & ~seen
        seen |= fresh
        for w in bit_indices(fresh):
            parent[w] = v
            queue.append(w)
    return None


def brute_force_least_path(g, src, dst, banned):
    """The least of all shortest src-dst paths whose inner vertices avoid
    the bitset `banned`, by extending every simple path one vertex a round."""
    paths = [(src,)]
    while paths:
        done = [p for p in paths if p[-1] == dst]
        if done:
            return min(done)
        paths = [p + (w,) for p in paths for w in bit_indices(g.masks[p[-1]] & ~banned)
                 if w not in p]
    return None


def path_cases(g, unbanned=True):
    """(src, dst, banned) for every ordered pair src != dst: with no ban
    (when `unbanned`), and with the closed neighbourhood of each third vertex
    adjacent to neither, as in an asteroidal triple's witness paths."""
    closed = [m | 1 << v for v, m in enumerate(g.masks)]
    for src in range(g.n):
        for dst in range(g.n):
            if src != dst:
                if unbanned:
                    yield src, dst, 0
                for z in range(g.n):
                    if not (closed[z] >> src & 1 or closed[z] >> dst & 1):
                        yield src, dst, closed[z]


def assert_least_path(g, src, dst, banned, reference=queue_shortest_path):
    expected = reference(g.masks if reference is queue_shortest_path else g, src, dst, banned)
    assert _least_path(g.masks, src, 1 << dst, (1 << g.n) - 1 & ~banned) == expected, (
        sorted(g.edges), src, dst, banned)


def two_search_least_hole(g):
    """Reference for `check_triangulated` on graphs the recursive search
    cannot finish, and the library's former route: one search measures,
    a second finds. A bitset BFS per induced path a-b-c (a < c, both above
    b) through the vertices above b outside N[b] gives the shortest cycle
    length and the least minimum vertex c0 of a cycle that short; then a
    depth-first search, least candidate first, returns the least cycle of
    that length whose minimum is c0, pruning a vertex at position i whose
    BFS distance to c0 above c0 exceeds length - i."""
    masks = g.masks
    length, found = least_hole_opening(masks)
    if found is None:
        return None
    c0 = found[0]
    above = (1 << g.n) - 1 & ~((2 << c0) - 1)
    near0 = masks[c0] | 1 << c0
    within = [1 << c0]  # within[k]: vertices at distance <= k from c0 in {c0} + above
    frontier = within[0]
    while len(within) < length:
        frontier = neighbours_of(masks, frontier) & above & ~within[-1]
        within.append(within[-1] | frontier)
    path = [c0]
    inner = [0]  # union of N[p] over the path without its two ends
    todo = [masks[c0] & above]
    while todo:
        if not todo[-1]:
            todo.pop()
            path.pop()
            inner.pop()
            continue
        low = todo[-1] & -todo[-1]
        todo[-1] ^= low
        prev = path[-1]
        blocked = (inner[-1] | masks[prev] | 1 << prev) if prev != c0 else 0
        last = low.bit_length() - 1
        path.append(last)
        inner.append(blocked)
        if len(path) == length - 1:
            closing = masks[last] & masks[c0] & above & ~blocked & ~((2 << path[1]) - 1)
            if closing:
                return tuple(path) + ((closing & -closing).bit_length() - 1,)
            todo.append(0)
        else:
            todo.append(masks[last] & above & ~blocked & ~near0 & within[length - len(path)])
    raise AssertionError(f"no chordless {length}-cycle with least vertex {c0}")


def with_path_between(g, u, v, k):
    """g plus k new vertices n, ..., n + k - 1 forming a path from u to v."""
    chain = [u, *range(g.n, g.n + k), v]
    return graph_from_edges(g.n + k, sorted(g.edges) + list(zip(chain, chain[1:])))


def triangulated_cycle(g):
    obs = check_triangulated(g)
    return None if obs is None else obs.cycle


def cycle_graph(n):
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def subtree_intersection_graph(n, rng):
    """Intersection graph of n random subtrees (1 to 4 nodes) of a random
    n-node tree: chordal, and often not an interval graph."""
    nbrs = [[] for _ in range(n)]
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
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if subtrees[u] & subtrees[v]]
    )


def seeded_sweep_graphs(seed):
    """Chordal subtree graphs, relabeled random interval graphs with n up to
    60, complete and edgeless graphs, and G(n, p) graphs, mostly not
    chordal."""
    rng = random.Random(seed)
    out = [subtree_intersection_graph(rng.randint(8, 30), rng) for _ in range(60)]
    out += [relabeled(random_interval_graph(rng.randint(5, 60), rng.randrange(10**9))[0], rng)
            for _ in range(60)]
    out += [complete_graph(n) for n in (1, 2, 7, 40)]
    out += [graph_from_edges(n, []) for n in (0, 1, 2, 9, 40)]
    out += [random_graph(rng.randint(7, 30), rng.uniform(0.1, 0.9), rng) for _ in range(60)]
    return out


class TestChordalSweep:
    def test_none_exactly_when_not_chordal_exhaustive_n6(self):
        chordal = 0
        for n in range(7):
            for g in all_graphs(n):
                assert (g.chordal_cliques is not None) == sweep_is_chordal(g.masks), sorted(g.edges)
                chordal += g.chordal_cliques is not None
        assert chordal == 19049  # the labeled chordal graphs on 0 to 6 vertices

    def test_none_exactly_when_not_chordal_on_seeded_graphs(self):
        verdicts = set()
        for g in seeded_sweep_graphs(20261018):
            verdict = g.chordal_cliques is not None
            assert verdict == sweep_is_chordal(g.masks), sorted(g.edges)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_matches_bucket_sweep_exhaustive_n6(self):
        for n in range(7):
            for g in all_graphs(n):
                assert _chordal_sweep(g.masks) == bucket_chordal_sweep(g.masks), sorted(g.edges)

    def test_matches_bucket_sweep_on_seeded_graphs_and_stars(self):
        cases = seeded_sweep_graphs(20261019)
        rng = random.Random(20261019)
        cases += [relabeled(random_interval_graph(rng.randint(5, 80), rng.randrange(10**9))[0], rng)
                  for _ in range(100)]
        for n in (2, 3, 9, 200):  # the centre visited first, then last
            cases += [graph_from_edges(n, [(0, v) for v in range(1, n)]),
                      graph_from_edges(n, [(v, n - 1) for v in range(n - 1)])]
        verdicts = set()
        for g in cases:
            found = _chordal_sweep(g.masks)
            assert found == bucket_chordal_sweep(g.masks), sorted(g.edges)
            verdicts.add(found is not None)
        assert verdicts == {True, False}

    def test_dense_interval_graph_n2000_within_budget(self):
        # the bucket walk took 0.2-0.29 s here on a shared 2-core x86-64
        # host, the bit-sliced counts about 0.015 s
        g = random_interval_graph(2000, 1000)[0]
        g.masks
        start = time.process_time()
        found = _chordal_sweep(g.masks)
        elapsed = time.process_time() - start
        assert elapsed < 0.15, elapsed
        assert found is not None and len(found) == len(set(found))

    def test_cliques_are_the_maximal_cliques(self):
        for g in seeded_sweep_graphs(7):
            if g.chordal_cliques is not None:
                found = sorted((frozenset(bit_indices(c)) for c in g.chordal_cliques), key=sorted)
                assert found == recursive_maximal_cliques(g), sorted(g.edges)

    @pytest.mark.parametrize("hubs", [1, 2], ids=["star", "k2-join-independent"])
    def test_hubs_visited_long_ago_are_found_fast(self, hubs):
        # every later vertex's latest earlier neighbour is a hub among the
        # first visits, so a backwards scan of the visits costs n per vertex
        n = 6000
        g = graph_from_edges(n, [(h, v) for h in range(hubs) for v in range(h + 1, n)])
        g.masks
        start = time.perf_counter()
        found = g.chordal_cliques
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, elapsed
        assert len(found) == n - hubs
        assert sorted((frozenset(bit_indices(c)) for c in found), key=sorted) == recursive_maximal_cliques(g)

    def test_sweep_and_hole_search_disagreement_is_internal_error(self):
        g = p4()
        g.__dict__["chordal_cliques"] = None  # a sweep that wrongly failed
        with pytest.raises(InternalInconsistencyError, match="no chordless cycle"):
            check_triangulated(g)
        with pytest.raises(InternalInconsistencyError):
            recognize(g)


class TestTriangulated:
    def test_c4_chordless(self):
        obs = check_triangulated(c4())
        assert obs.kind == "chordless_cycle"
        assert obs.cycle == (0, 1, 2, 3)
        assert validate_obstruction(c4(), obs)

    @pytest.mark.parametrize("cycle", [(0, True, 2, 3), (0, 1.0, 2, 3), (0, "1", 2, 3), (0, None, 2, 3),
                                       5, {0, 1, 2, 3}, None, (0, 1, 2)])
    def test_cycle_entries_that_are_not_vertices_are_rejected(self, cycle):
        # True == 1 and 1.0 == 1 to Python, but neither is a vertex; a cycle
        # that is not a tuple or list of at least 4 entries gives False too
        assert validate_obstruction(c4(), Obstruction("chordless_cycle", (0, 1, 2, 3)))
        assert not validate_obstruction(c4(), Obstruction("chordless_cycle", cycle))

    def test_forged_cycles_are_rejected(self):
        # -1 would wrap to vertex 3 and 7 would overrun the adjacency lists
        for cycle in ((-1, 0, 1, 2), (7, 0, 1, 2), (0, 2, 1, 3)):
            assert not validate_obstruction(c4(), Obstruction("chordless_cycle", cycle)), cycle
        # 1-3 is a chord
        assert not validate_obstruction(
            graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]),
            Obstruction("chordless_cycle", (0, 1, 2, 3)),
        )

    def test_net_graph_is_triangulated(self):
        assert check_triangulated(net_graph()) is None

    def test_tree_is_triangulated(self):
        tree = graph_from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert check_triangulated(tree) is None

    def test_shortest_cycle_wins_over_a_lesser_longer_one(self):
        # a 5-cycle on the low vertices and a 4-cycle on the high ones: the
        # 4-cycle is reported although the 5-cycle is lexicographically less
        g = graph_from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6), (6, 7), (7, 8), (5, 8)],
        )
        assert check_triangulated(g).cycle == (5, 6, 7, 8)

    def test_shortest_cycle_wins(self):
        # a 4-cycle and a 5-cycle sharing nothing; the 4-cycle is reported
        g = graph_from_edges(
            9,
            [(4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (0, 1), (1, 2), (2, 3), (0, 3)],
        )
        assert check_triangulated(g).cycle == (0, 1, 2, 3)

    def test_five_cycle(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        obs = check_triangulated(g)
        assert obs.cycle == (0, 1, 2, 3, 4)
        assert validate_obstruction(g, obs)

    def test_four_hole_beside_a_dense_interval_graph_is_found_fast(self):
        # C4 on 0-3 beside the n = 1000 graph shifted by 4 (336,029 edges):
        # the hole opens at b = 0, and the scan stops there; going on over
        # every later opening took 0.5-0.7 s on a 2-core host
        h, _ = random_interval_graph(1000, 1000)
        g = Graph._from_rows(list(c4().masks) + [m << 4 for m in h.masks])
        start = time.perf_counter()
        obs = check_triangulated(g)
        elapsed = time.perf_counter() - start
        assert obs.cycle == (0, 1, 2, 3)
        assert elapsed < 0.05, elapsed

    def test_matches_bruteforce_on_small_graphs(self):
        from itertools import permutations

        def all_canonical_chordless_cycles(g, k):
            found = []
            for perm in permutations(range(g.n), k):
                if perm[0] != min(perm) or perm[1] > perm[-1]:
                    continue
                ok = True
                for i in range(k):
                    for j in range(i + 1, k):
                        consecutive = (j - i == 1) or (i == 0 and j == k - 1)
                        if g.adjacent(perm[i], perm[j]) != consecutive:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found.append(perm)
            return found

        # the returned certificate is the shortest, lexicographically least
        # chordless cycle, compared against full enumeration
        for g in all_graphs(5):
            expected = None
            for k in range(4, g.n + 1):
                cycles = all_canonical_chordless_cycles(g, k)
                if cycles:
                    expected = min(cycles)
                    break
            obs = check_triangulated(g)
            got = None if obs is None else obs.cycle
            assert got == expected, sorted(g.edges)

    def test_matches_length_by_length_search_exhaustive_n6(self):
        holes = 0
        for n in range(7):
            for g in all_graphs(n):
                expected = length_by_length_chordless_cycle(g)
                assert triangulated_cycle(g) == expected, sorted(g.edges)
                holes += expected is not None
        assert holes == 33868 - 19049  # all graphs minus the chordal ones on 0 to 6 vertices

    def test_matches_length_by_length_search_on_seeded_graphs(self):
        rng = random.Random(20261018)
        for p in (0.15, 0.3, 0.5, 0.7):
            for _ in range(100):
                g = random_graph(rng.randint(7, 15), p, rng)
                assert triangulated_cycle(g) == length_by_length_chordless_cycle(g), sorted(g.edges)
        for n in range(4, 41):
            g = relabeled(cycle_graph(n), rng)
            assert triangulated_cycle(g) == length_by_length_chordless_cycle(g), sorted(g.edges)
        for _ in range(60):
            g = subtree_intersection_graph(rng.randint(10, 16), rng)
            assert triangulated_cycle(g) is None
            assert length_by_length_chordless_cycle(g) is None, sorted(g.edges)

    def test_matches_two_search_route_on_long_holes(self):
        # holes too long for the recursive search: the 152-hole graph (a path
        # of 150 new vertices from 0 to 399), long cycles, and seeded
        # interval graphs with a long path spliced into one component
        rng = random.Random(20261019)
        g, _ = random_interval_graph(400, 5)
        found = relabeled(with_path_between(g, 0, 399, 150), rng)
        cases = [found, relabeled(cycle_graph(300), rng), relabeled(cycle_graph(1100), rng),
                 cycle_graph(1100)]
        for _ in range(20):
            g, _ = random_interval_graph(rng.randint(40, 200), rng.randrange(10**9))
            u = rng.randrange(g.n)
            comp = next(c for c in component_masks(g.masks, (1 << g.n) - 1) if c >> u & 1)
            far = comp & ~g.masks[u] & ~(1 << u)
            v = rng.choice(list(bit_indices(far or comp & ~(1 << u))) or [u])
            if v != u:  # a spliced path closes a hole only inside one component
                cases.append(relabeled(with_path_between(g, u, v, rng.randint(10, 60)), rng))
        lengths = []
        for g in cases:
            expected = two_search_least_hole(g)
            assert triangulated_cycle(g) == expected, sorted(g.edges)
            lengths.append(0 if expected is None else len(expected))
        assert lengths[:4] == [152, 300, 1100, 1100]
        # a spliced path of k >= 10 new vertices closes holes of length >= k + 2
        assert len(lengths) > 20 and min(lengths) >= 12, lengths


class TestLeastPath:
    def test_matches_queue_bfs_exhaustive_n6(self):
        # the unbanned cases at n = 6 would double the time; n <= 5 covers them
        for n in range(2, 7):
            for g in all_graphs(n):
                for case in path_cases(g, unbanned=n < 6):
                    assert_least_path(g, *case)

    def test_matches_queue_bfs_on_seeded_graphs(self):
        rng = random.Random(4040)
        for _ in range(300):
            g = random_graph(rng.randint(7, 40), rng.uniform(0.03, 0.5), rng)
            for _ in range(10):
                src, dst, z = (rng.randrange(g.n) for _ in range(3))
                if src != dst:
                    closed = g.masks[z] | 1 << z
                    assert_least_path(g, src, dst, 0)
                    if not (closed >> src & 1 or closed >> dst & 1):
                        assert_least_path(g, src, dst, closed)

    def test_is_the_least_shortest_path_exhaustive_n5(self):
        for n in range(2, 6):
            for g in all_graphs(n):
                for case in path_cases(g):
                    assert_least_path(g, *case, reference=brute_force_least_path)

    def test_unreachable_targets_and_no_inner_vertex(self):
        masks = p4().masks
        assert _least_path(masks, 0, 1 << 3, 0b1011) is None  # 2 is not allowed
        assert _least_path(masks, 0, 0, 0b1111) is None
        assert _least_path(masks, 0, 1 << 3, 0) is None
        assert _least_path(masks, 0, 1 << 1, 0) == (0, 1)  # no inner vertex

    def test_hole_matches_inline_walk_exhaustive_n6(self):
        for n in range(4, 7):
            for g in all_graphs(n):
                assert _least_shortest_hole(g.masks) == inline_walk_least_hole(g), sorted(g.edges)

    def test_hole_matches_full_scan_exhaustive_n6(self):
        fours = 0
        for n in range(7):
            for g in all_graphs(n):
                expected = full_scan_least_hole(g.masks)
                assert _least_shortest_hole(g.masks) == expected, sorted(g.edges)
                fours += expected is not None and len(expected) == 4
        assert fours > 10000

    def test_hole_matches_full_scan_on_seeded_graphs(self):
        rng = random.Random(4042)
        lengths = set()
        for _ in range(2000):
            g = random_graph(rng.randint(6, 40), rng.uniform(0.03, 0.4), rng)
            expected = full_scan_least_hole(g.masks)
            assert _least_shortest_hole(g.masks) == expected, sorted(g.edges)
            lengths.add(0 if expected is None else len(expected))
        # chordal graphs, 4-holes and longer holes all occur
        assert {0, 4, 5, 6} <= lengths, lengths

    def test_hole_matches_inline_walk_on_seeded_graphs(self):
        rng = random.Random(4041)
        holes = 0
        for _ in range(300):
            g = random_graph(rng.randint(7, 40), rng.uniform(0.03, 0.3), rng)
            expected = inline_walk_least_hole(g)
            assert _least_shortest_hole(g.masks) == expected, sorted(g.edges)
            holes += expected is not None
        assert holes > 100


class TestAsteroidalTriples:
    def test_net_graph_triple(self):
        obs = find_asteroidal_triple(net_graph())
        assert obs.triple == (3, 4, 5)
        assert obs.witness_paths == ((3, 0, 1, 4), (3, 0, 2, 5), (4, 1, 2, 5))
        assert validate_obstruction(net_graph(), obs)

    def test_complete_graph_has_none(self):
        assert find_asteroidal_triple(k3()) is None

    def test_forged_triple_out_of_range_is_rejected(self):
        paths = find_asteroidal_triple(net_graph()).witness_paths
        for triple in ((3, 4, 9), (-1, 4, 5)):
            forged = Obstruction("asteroidal_triple", triple=triple, witness_paths=paths)
            assert not validate_obstruction(net_graph(), forged), triple

    @pytest.mark.parametrize("triple,paths", [
        ((3.0, 4, 5), None),
        ((True, 4, 5), None),
        ((3, 4, "5"), None),
        ((3, 4, 5), ((3, 0, 1, 4.0), (3, 0, 2, 5), (4, 1, 2, 5))),
        ((3, 4, 5), ((3, 0, True, 4), (3, 0, 2, 5), (4, 1, 2, 5))),
        ((3, 4), None),
        ((3, 4, 5, 0), None),
        (5, None),
        ((3, 4, 5), 5),
        ((3, 4, 5), ((3, 0, 1, 4), (3, 0, 2, 5))),
        ((3, 4, 5), ((3, 0, 1, 4), (3, 0, 2, 5), 5)),
        ((3, 4, 5), ((3, 0, 1, 4), {3, 0, 2, 5}, (4, 1, 2, 5))),
    ], ids=["float", "bool", "str", "path-float", "path-bool", "short-triple", "long-triple", "int-triple",
            "int-paths", "two-paths", "int-path", "set-path"])
    def test_entries_that_are_not_vertices_are_rejected(self, triple, paths):
        # every entry takes the vertex rule, every field must be a tuple or
        # list of the right length, and a bad one gives False, never an error
        obs = find_asteroidal_triple(net_graph())
        forged = Obstruction("asteroidal_triple", triple=triple,
                             witness_paths=obs.witness_paths if paths is None else paths)
        assert not validate_obstruction(net_graph(), forged)

    def test_p4_has_none(self):
        assert find_asteroidal_triple(p4()) is None

    def test_least_triple_selected_when_several_exist(self):
        # the net graph with an extra pendant w on x has several triples;
        # compare against an independent path-search enumeration
        from itertools import combinations

        g = graph_from_edges(
            7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
        )

        def reaches_avoiding(src, dst, banned):
            stack, seen = [src], {src}
            while stack:
                v = stack.pop()
                if v == dst:
                    return True
                for w in neighbors(g, v):
                    if w not in banned and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return False

        triples = [
            (x, y, z)
            for x, y, z in combinations(range(g.n), 3)
            if not (g.adjacent(x, y) or g.adjacent(x, z) or g.adjacent(y, z))
            and reaches_avoiding(x, y, closed_neighborhood(g, z))
            and reaches_avoiding(x, z, closed_neighborhood(g, y))
            and reaches_avoiding(y, z, closed_neighborhood(g, x))
        ]
        assert len(triples) > 1
        obs = find_asteroidal_triple(g)
        assert obs.triple == min(triples)
        assert validate_obstruction(g, obs)


    def test_matches_triple_scan_exhaustive_n6(self):
        triples = 0
        for n in range(7):
            for g in all_graphs(n):
                expected = set_based_asteroidal_triple(g)
                assert find_asteroidal_triple(g) == expected, sorted(g.edges)
                triples += expected is not None
        assert triples > 0

    def test_matches_triple_scan_on_seeded_graphs(self):
        rng = random.Random(99)
        cases = [subtree_intersection_graph(rng.randint(10, 24), rng) for _ in range(40)]
        cases += [random_graph(rng.randint(7, 18), rng.uniform(0.05, 0.4), rng) for _ in range(40)]
        claw = [(0, 1), (0, 6), (0, 11)] + [(v, v + 1) for arm in (1, 6, 11) for v in range(arm, arm + 4)]
        cases.append(relabeled(graph_from_edges(16, claw), rng))
        found = 0
        for g in cases:
            expected = set_based_asteroidal_triple(g)
            assert find_asteroidal_triple(g) == expected, sorted(g.edges)
            found += expected is not None
        assert found > 10

    @staticmethod
    def count_tables(monkeypatch):
        """Record the vertex set of every G - N[z] a component table is built on."""
        built, original = [], recognition_module.component_masks
        monkeypatch.setattr(recognition_module, "component_masks",
                            lambda masks, allowed: built.append(allowed) or original(masks, allowed))
        return built

    def test_relabeled_subdivided_claw_n1000_builds_few_tables(self, monkeypatch):
        legs = [(0, 1), (0, 334), (0, 667)] + [
            (v, v + 1) for arm in (1, 334, 667) for v in range(arm, arm + 332)
        ]
        g = relabeled(graph_from_edges(1000, legs), random.Random(1000))
        built = self.count_tables(monkeypatch)
        start = time.perf_counter()
        obs = find_asteroidal_triple(g)
        elapsed = time.perf_counter() - start
        # about 0.01 s on a 2-core host; a table for every vertex up front
        # took 1.4 s
        assert elapsed < 0.5, elapsed
        assert obs.triple == (0, 1, 4)
        assert validate_obstruction(g, obs)
        # only the tables of the x, y and z the scan reads
        assert len(built) == 5

    def test_triple_free_scan_builds_each_table_once(self, monkeypatch):
        g = random_interval_graph(60, 7)[0]
        built = self.count_tables(monkeypatch)
        assert find_asteroidal_triple(g) is None
        assert len(built) <= g.n


class TestRecognize:
    def test_single_nonedge4_representation(self):
        result = recognize(single_nonedge4())
        assert isinstance(result, ClosedRepresentation)
        assert verify_representation(single_nonedge4(), result)

    def test_net_graph_asteroidal_triple(self):
        result = recognize(net_graph())
        assert isinstance(result, Obstruction)
        assert result.kind == "asteroidal_triple"
        assert result.triple == (3, 4, 5)

    def test_c4_chordless_cycle(self):
        result = recognize(c4())
        assert isinstance(result, Obstruction)
        assert result.cycle == (0, 1, 2, 3)

    def test_empty_and_tiny_graphs(self):
        for g in (graph_from_edges(0, []), graph_from_edges(1, []), graph_from_edges(3, [])):
            result = recognize(g)
            assert isinstance(result, ClosedRepresentation)
            assert verify_representation(g, result)

    def test_n1000_interval_graph_within_budget(self):
        g, _ = random_interval_graph(1000, 1000)
        start = time.perf_counter()
        result = recognize(g)
        elapsed = time.perf_counter() - start
        # about 0.15 s on a 2-core host, 0.4 s with the clique search on
        # frozensets; Bron–Kerbosch and the sweep as a separate chordality
        # check took 4.35 s
        assert elapsed < 2, elapsed
        assert isinstance(result, ClosedRepresentation)

    def test_n1000_json_parse_and_recognize_within_budget(self):
        g, _ = random_interval_graph(1000, 1000)
        text = json.dumps(graph_to_jsonable(g))
        start = time.process_time()
        result = recognize(parse_graph_json(text))
        elapsed = time.process_time() - start
        # about 0.55 s of process time on a 2-core host, 0.3 s of it in
        # json.loads (0.7 s with the clique search on frozensets); parsing
        # into an edge set that `Graph.masks` then folded back into rows
        # took 1.2-2.0 s
        assert elapsed < 1.2, elapsed
        assert isinstance(result, ClosedRepresentation)

    def test_cliques_are_read_only_where_the_sweep_succeeded(self, monkeypatch):
        # no clique enumeration runs on the negative route of a non-chordal graph
        calls = []
        original = recognition_module._sorted_cliques
        monkeypatch.setattr(recognition_module, "_sorted_cliques",
                            lambda g: calls.append(g) or original(g))
        rng = random.Random(5)
        graphs = []
        for _ in range(20):
            graphs.append(relabeled(random_interval_graph(rng.randint(5, 30), rng.randrange(10**9))[0], rng))
            graphs.append(subtree_intersection_graph(rng.randint(8, 16), rng))
        graphs += [cycle_graph(n) for n in range(4, 12)] + [net_graph(), c4()]
        kinds = set()
        for g in graphs:
            del calls[:]
            result = recognize(g)
            assert calls == ([g] if g.chordal_cliques is not None else []), sorted(g.edges)
            kinds.add((g.chordal_cliques is not None, isinstance(result, ClosedRepresentation)))
        assert kinds == {(True, True), (True, False), (False, False)}

    def test_exhaustive_against_orientation_oracle(self):
        # interval iff some associated order is an interval order
        for n in range(1, 6):
            for g in all_graphs(n):
                result = recognize(g)
                enum = enumerate_associated_orders(g)
                expected = any(is_interval_order(o) for o in enum.orders)
                if isinstance(result, ClosedRepresentation):
                    assert expected, sorted(g.edges)
                    assert verify_representation(g, result)
                else:
                    assert not expected, sorted(g.edges)
                    assert validate_obstruction(g, result)

    def test_interval_order_incomparability_graphs_recognized(self):
        rng = random.Random(11)
        for _ in range(100):
            _, rep = random_interval_graph(rng.randint(1, 10), rng.randrange(10**6))
            g = incomparability_graph(representation_to_order(rep))
            assert isinstance(recognize(g), ClosedRepresentation)

    def test_two_plus_two_incomparability_graph_rejected(self):
        # the incomparability graph of two disjoint chains is the 4-cycle
        from conftest import order_from_pairs

        g = incomparability_graph(order_from_pairs(4, [(0, 1), (2, 3)]))
        assert isinstance(recognize(g), Obstruction)

    def test_chordal_edit_keeps_its_asteroidal_triple(self):
        # removing edge 2-7 from random_interval_graph(14, 54) leaves a
        # chordal graph that is not interval; the certificate was recorded
        # while the cycle search still ran length by length
        g, _ = random_interval_graph(14, 54)
        g = graph_from_edges(g.n, sorted(set(g.edges) - {(2, 7)}))
        assert check_triangulated(g) is None
        assert length_by_length_chordless_cycle(g) is None
        result = recognize(g)
        assert result == Obstruction(
            kind="asteroidal_triple",
            triple=(2, 3, 5),
            witness_paths=((2, 1, 3), (2, 10, 5), (3, 7, 5)),
        )
        assert validate_obstruction(g, result)


def assert_clique_orders_agree(g, cliques, three_state=True):
    """On g's cliques, the library's bitset search returns the frozenset
    search's ordering, and the three-state search's where that finishes."""
    order = _consecutive_clique_order([sum(1 << v for v in c) for c in cliques])
    assert order == frozenset_clique_order(cliques, g.n), sorted(g.edges)
    if three_state:
        assert order == three_state_clique_order(cliques, g.n), sorted(g.edges)
    return order


def hub_with_arms(k):
    """Hub 0 with pendant leaves 1..k and arms 0-(k+1)-(k+2) and
    0-(k+3)-(k+4): clique 0 holds the hub and a leaf, yet the least
    ordering must start at an arm's end."""
    arms = [(0, k + 1), (k + 1, k + 2), (0, k + 3), (k + 3, k + 4)]
    return graph_from_edges(k + 5, [(0, v) for v in range(1, k + 1)] + arms)


def caterpillar(spine, leaves):
    """A path 0..spine-1 with `leaves` pendant leaves on each spine vertex."""
    path = [(v, v + 1) for v in range(spine - 1)]
    legs = [(i, spine + i * leaves + j) for i in range(spine) for j in range(leaves)]
    return graph_from_edges(spine * (leaves + 1), path + legs)


class TestCliqueOrder:
    def test_matches_three_state_search_exhaustive_n6(self):
        found = 0
        for n in range(1, 7):
            for g in all_graphs(n):
                found += assert_clique_orders_agree(g, recursive_maximal_cliques(g)) is not None
        assert found == 18808  # the labeled interval graphs on 1 to 6 vertices

    def test_matches_three_state_search_on_relabeled_and_edited_graphs(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            g, _ = random_interval_graph(rng.randint(7, 12), rng.randrange(10**9))
            g = relabeled(g, rng)
            u, v = sorted(rng.sample(range(g.n), 2))
            edited = graph_from_edges(g.n, sorted(set(g.edges) ^ {(u, v)}))
            for h in (g, edited):
                assert_clique_orders_agree(h, recursive_maximal_cliques(h))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_reference_searches_on_hubs(self, k):
        # the three-state search takes about 0.9 s at k = 6 and 8 s at k = 7
        g = hub_with_arms(k)
        order = assert_clique_orders_agree(g, maximal_cliques(g), three_state=k <= 6)
        # one arm, every leaf clique in index order, the other arm
        assert order == [k + 2, k] + list(range(k)) + [k + 1, k + 3]

    def test_matches_frozenset_search_on_p2000(self):
        g = graph_from_edges(2000, [(v, v + 1) for v in range(1999)])
        assert assert_clique_orders_agree(g, maximal_cliques(g), three_state=False) == list(range(1999))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_matches_frozenset_search_on_relabeled_caterpillars(self, seed):
        # seeds 1 and 3 take about 1.2 s in either search; the three-state
        # search does not finish on any of them within minutes
        g = relabeled(caterpillar(3, 9), random.Random(seed))
        assert assert_clique_orders_agree(g, maximal_cliques(g), three_state=False) is not None

    def test_sorted_bitsets_follow_sorted_vertex_tuples(self):
        for g in seeded_sweep_graphs(3):
            if g.chordal_cliques is not None:
                by_tuple = sorted((frozenset(bit_indices(c)) for c in g.chordal_cliques), key=sorted)
                assert [frozenset(bit_indices(c)) for c in _sorted_cliques(g)] == by_tuple, sorted(g.edges)

    def test_the_comparator_sorts_as_the_string_key_did(self):
        checked = 0
        for g in chain((g for n in range(7) for g in all_graphs(n)), seeded_sweep_graphs(4)):
            if g.chordal_cliques is not None:
                assert _sorted_cliques(g) == string_key_sorted_cliques(g), sorted(g.edges)
                checked += 1
        assert checked > 19049  # every labeled chordal graph on 0 to 6 vertices, then the seeded ones

    def test_sorting_the_edgeless_n20000_cliques_builds_no_strings(self):
        g = graph_from_edges(20000, [])
        assert len(g.chordal_cliques) == 20000
        tracemalloc.start()
        try:
            cliques = _sorted_cliques(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.3 MB; the string key peaked at about 201 MB
        assert peak < 10 << 20, peak
        assert cliques == [1 << v for v in range(20000)]

    def test_inputs_the_three_state_search_could_not_finish(self):
        rng = random.Random(7)
        claw = [(0, 1), (0, 17), (0, 33)] + [
            (v, v + 1) for arm in (1, 17, 33) for v in range(arm, arm + 15)
        ]
        long_claw = [(0, 1), (0, 101), (0, 201)] + [
            (v, v + 1) for arm in (1, 101, 201) for v in range(arm, arm + 99)
        ]
        path = 1100
        assert path > sys.getrecursionlimit()
        cases = [
            ("C_50", cycle_graph(50), "chordless_cycle"),
            ("subdivided claw", graph_from_edges(49, claw), "asteroidal_triple"),
            ("P_1100", graph_from_edges(path, [(v, v + 1) for v in range(path - 1)]), None),
            ("P_2000", graph_from_edges(2000, [(v, v + 1) for v in range(1999)]), None),
            ("relabeled n=200", relabeled(random_interval_graph(200, 7)[0], rng), None),
            ("K_1100", complete_graph(path), None),
            ("C_300", cycle_graph(300), "chordless_cycle"),
            ("C_1100", cycle_graph(path), "chordless_cycle"),
            ("subdivided claw, legs of 100", graph_from_edges(301, long_claw),
             "asteroidal_triple"),
        ]
        for name, g, kind in cases:
            start = time.perf_counter()
            result = recognize(g)
            elapsed = time.perf_counter() - start
            # K_1100 and C_1100 take about 0.01 s and P_2000 0.03 s on a
            # 2-core host (P_2000 0.1 s with the clique search on frozensets);
            # the recursive clique search hit the recursion limit on K_1100
            # after 22 s, and the length-by-length cycle search took 70 s on
            # C_300
            assert elapsed < 20, (name, elapsed)
            if kind is None:
                assert isinstance(result, ClosedRepresentation), name
                assert verify_representation(g, result), name
            else:
                assert isinstance(result, Obstruction) and result.kind == kind, name
                assert validate_obstruction(g, result), name


def assert_cliques_or_refusal(g, reference=recursive_maximal_cliques):
    """On a chordal graph `maximal_cliques` equals the reference; on any
    other it raises InputError. True when g is chordal."""
    if g.chordal_cliques is None:
        with pytest.raises(InputError, match="maximal_cliques requires a chordal graph"):
            maximal_cliques(g)
        return False
    assert maximal_cliques(g) == reference(g), sorted(g.edges)
    return True


class TestMaximalCliques:
    def test_triangle(self):
        assert maximal_cliques(k3()) == [frozenset({0, 1, 2})]

    def test_p4(self):
        assert maximal_cliques(p4()) == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ]

    def test_isolated_vertices_are_cliques(self):
        g = graph_from_edges(3, [(0, 1)])
        assert maximal_cliques(g) == [frozenset({0, 1}), frozenset({2})]

    def test_interval_graph_has_at_most_n_cliques(self):
        rng = random.Random(3)
        for _ in range(50):
            g, _ = random_interval_graph(rng.randint(1, 12), rng.randrange(10**6))
            assert len(maximal_cliques(g)) <= g.n

    def test_matches_subset_scan_on_small_graphs(self):
        from itertools import combinations

        def brute(g):
            cliques = [
                set(sub)
                for size in range(1, g.n + 1)
                for sub in combinations(range(g.n), size)
                if all(g.adjacent(u, v) for u in sub for v in sub)
            ]
            maximal = [
                frozenset(c)
                for c in cliques
                if not any(c < other for other in cliques)
            ]
            return sorted(maximal, key=sorted)

        for g in all_graphs(5):
            assert_cliques_or_refusal(g, brute)

    def test_matches_recursive_search_exhaustive_n6(self):
        chordal = sum(assert_cliques_or_refusal(g) for n in range(7) for g in all_graphs(n))
        assert chordal == 19049  # the labeled chordal graphs on 0 to 6 vertices

    def test_matches_recursive_search_on_chordal_families(self):
        chordal = sum(assert_cliques_or_refusal(g) for g in seeded_sweep_graphs(20261019))
        assert chordal > 100, chordal

    def test_matches_recursive_search_on_seeded_graphs(self):
        rng = random.Random(20261018)
        verdicts = set()
        for _ in range(150):
            g = random_graph(rng.randint(7, 30), rng.uniform(0.1, 0.9), rng)
            verdicts.add(assert_cliques_or_refusal(g))
        for _ in range(100):
            g, _ = random_interval_graph(rng.randint(7, 60), rng.randrange(10**9))
            assert assert_cliques_or_refusal(g), sorted(g.edges)
        assert verdicts == {True, False}
