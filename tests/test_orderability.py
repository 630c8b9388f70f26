import random
import time
from itertools import combinations

import pytest

from conftest import (c4, complete_graph, empty3, linked, order_on, pair_path, random_graph,
                      representation_from_intervals, single_nonedge4, k3, p4, star3, two_k2)
from intorder import (
    BuriedCertificate,
    BuriedCheck,
    Graph,
    InputError,
    InternalInconsistencyError,
    LeveledSet,
    NotIntervalGraphError,
    PairGraph,
    UniquenessVerdict,
    buried_candidate,
    components,
    decide_unique,
    find_buried,
    graph_from_edges,
    is_associated,
    is_buried,
    order_from_pair_graph,
    pair_graph,
    parse_graph_json,
    representation_to_order,
    two_orders_from_buried,
    verdict_to_jsonable,
)
from intorder import cli as cli_module
from intorder import graphs as graphs_module
from intorder import orderability as orderability_module
from intorder import representation as representation_module
from intorder.gadgets import all_graphs, build_gadget, GadgetSpec, random_interval_graph
from intorder.graphs import bit_indices
from intorder.oracle import oracle_unique
from intorder.orderability import _buried_from_spans, _upward_classes
from intorder.recognition import Obstruction, recognize


# Reference implementations: the definitions written as all-pairs scans.
# The library reads the same results off neighbourhood sets and must agree.

def closed_neighbourhoods(g):
    """Bit w of row v is set iff v == w or v ~ w: one table read off
    `g.masks`, so the all-pairs scans below test bits, not `g.adjacent`."""
    return [m | 1 << v for v, m in enumerate(g.masks)]


def all_pairs_component_ids(g):
    """Union-find over every two linked pairs; ids follow least pairs."""
    closed = closed_neighbourhoods(g)
    pairs = tuple((a, b) for a in range(g.n) for b in range(g.n) if not closed[a] >> b & 1)
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (a, b) in enumerate(pairs):
        near_a, near_b = closed[a], closed[b]
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if near_a >> c & 1 and near_b >> d & 1:
                parent[find(j)] = find(i)
    root_to_id = {}
    return {p: root_to_id.setdefault(find(i), len(root_to_id)) for i, p in enumerate(pairs)}


def all_pairs_pair_graph(g):
    return pair_graph_from_ids(g, all_pairs_component_ids(g))


def pair_graph_from_ids(g, component_of):
    """A `PairGraph` with the given component ids, numbered from 0 in order
    of each component's least pair; the rows are read off the ids, each
    component's keyed from its least pair's first vertex on."""
    rows = {}
    for a, b in sorted(component_of):
        found = rows.setdefault(component_of[(a, b)], {})
        found[a] = found.get(a, 0) | 1 << b
    assert sorted(rows) == list(range(len(rows)))
    pg = PairGraph(g, tuple(rows[i] for i in range(len(rows))))
    starts = [start for start, _ in starts_and_spans(pg)]
    assert starts == sorted(starts)
    return pg


def starts_and_spans(pg):
    """Each component's least pair and the bitset of the vertices its pairs
    use, read off `pg.rows`. Each component's first row must be its least
    first vertex's: the flood starts there."""
    out = []
    for found in pg.rows:
        a = min(found)
        assert next(iter(found)) == a, found
        span = 0
        for c, ds in found.items():
            span |= 1 << c | ds
        out.append(((a, (found[a] & -found[a]).bit_length() - 1), span))
    return out


def starts_and_spans_from_ids(component_of):
    """`starts_and_spans` read off the pair ids instead of the rows."""
    starts, spans = {}, {}
    for a, b in sorted(component_of):
        i = component_of[(a, b)]
        starts.setdefault(i, (a, b))
        spans[i] = spans.get(i, 0) | 1 << a | 1 << b
    return [(starts[i], spans[i]) for i in sorted(starts)]


def upward_classes(g):
    """The classes `decide_unique` and `find_buried` read: those that the
    verified interval order orients upward."""
    return _upward_classes(g, representation_to_order(recognize(g)))


def fill_scan(pg):
    """The components of the full fill that a scan by least pair visits:
    those whose least pair ascends, in order, dropping one whose reversal
    (the component holding its least pair reversed) was already visited."""
    kept, visited = set(), []
    for i, found in enumerate(pg.rows):
        a = next(iter(found))
        b = (found[a] & -found[a]).bit_length() - 1
        if a < b and pg.component_of[(b, a)] not in kept:
            kept.add(i)
            visited.append(found)
    return visited


def visits(classes):
    """Each class's least unordered pair {x < y} and span, read off its rows
    whatever their orientation: x is the span's least vertex, and y the
    least vertex paired with x either way."""
    out = []
    for found in classes:
        span = 0
        for c, ds in found.items():
            span |= 1 << c | ds
        x = (span & -span).bit_length() - 1
        paired = found.get(x, 0) | sum(1 << c for c, ds in found.items() if ds >> x & 1)
        out.append(((x, (paired & -paired).bit_length() - 1), span))
    return out


def assert_classes_match_fill(g):
    """The classes read over the interval order against the full fill: half
    as many, the order's pairs each in one class, and the same visits as
    the scan of the fill, each at the component's own least pair."""
    classes, pg = upward_classes(g), pair_graph(g)
    assert 2 * len(classes) == pg.component_count, sorted(g.edges)
    succ = [0] * g.n
    for found in classes:
        for c, ds in found.items():
            assert not succ[c] & ds, sorted(g.edges)
            succ[c] |= ds
    assert tuple(succ) == representation_to_order(recognize(g)).succ, sorted(g.edges)
    scan = fill_scan(pg)
    assert visits(classes) == visits(scan), sorted(g.edges)
    assert [start for start, _ in visits(scan)] == [
        (a, (found[a] & -found[a]).bit_length() - 1) for found in scan for a in [next(iter(found))]
    ], sorted(g.edges)
    return len(classes)


def visit_closure_pair_graph(g):
    """The flood fill of `pair_graph`, written with one `visit` call per
    step and a `bit_indices` generator per bitset. It pushes in the same
    order and must give the same rows, keyed in the same order; unlike the
    union-find it reaches n = 1000."""
    masks = g.masks
    diagonal = g.chordal_cliques is None
    everyone = (1 << g.n) - 1
    row = [everyone & ~(m | 1 << a) for a, m in enumerate(masks)]
    col = row[:]
    rows, stack = [], []

    def visit(a, bs):
        row[a] &= ~bs
        found[a] = found.get(a, 0) | bs
        for b in bit_indices(bs):
            col[b] ^= 1 << a
            stack.append((a, b))

    for start in range(g.n):
        while row[start]:
            found = {}
            visit(start, row[start] & -row[start])
            while stack:
                a, b = stack.pop()
                for c in bit_indices(masks[a] & col[b]):
                    visit(c, 1 << b)
                if masks[b] & row[a]:
                    visit(a, masks[b] & row[a])
                if diagonal:
                    common = masks[a] & masks[b]
                    for c in bit_indices(common):
                        if common & row[c]:
                            visit(c, common & row[c])
            rows.append(found)
    return PairGraph(g, tuple(rows))


def assert_same_fill(g):
    got, want = pair_graph(g), visit_closure_pair_graph(g)
    assert got.rows == want.rows, sorted(g.edges)
    assert [list(found) for found in got.rows] == [list(found) for found in want.rows]


@pytest.fixture(scope="module")
def n1000_rows():
    """The rows of `random_interval_graph(1000, 1000)`: connected, 336,025
    edges, 326,950 non-adjacent ordered pairs, uniquely orderable. Tests
    build their own graph from them, so none inherits another's cached
    chordality sweep."""
    return random_interval_graph(1000, 1000)[0].masks


def all_pairs_pair_path(pg, ab, cd):
    """BFS that scans every pair at every step, then the least-step walk."""
    if pg.component_of[ab] != pg.component_of[cd]:
        return None
    closed = closed_neighbourhoods(pg.base)

    def linked_pairs(cur):
        near_a, near_b = closed[cur[0]], closed[cur[1]]
        return [p for p in pg.pairs if near_a >> p[0] & 1 and near_b >> p[1] & 1]

    dist = {cd: 0}
    frontier = [cd]
    while frontier:
        nxt = []
        for cur in frontier:
            for p in linked_pairs(cur):
                if p not in dist:
                    dist[p] = dist[cur] + 1
                    nxt.append(p)
        frontier = nxt
    path = [ab]
    while path[-1] != cd:
        cur = path[-1]
        path.append(min(
            p for p in linked_pairs(cur)
            if p != cur and dist.get(p, -1) == dist[cur] - 1
        ))
    return path


def staged_rescan_candidate(g, v, u):
    """Each stage tests every outsider against every member."""
    closed = closed_neighbourhoods(g)
    level = {v: 0, u: 0}
    stage = 0
    while True:
        members = list(level)
        fresh = [
            w for w in range(g.n)
            if w not in level
            and any(closed[z] >> w & 1 for z in members)
            and any(not closed[z] >> w & 1 for z in members)
        ]
        if not fresh:
            return LeveledSet(v, u, level)
        stage += 1
        for w in fresh:
            level[w] = stage


def all_pairs_is_buried(g, vertex_set):
    """The buried-subgraph conditions checked vertex by vertex."""
    closed = closed_neighbourhoods(g)
    members = frozenset(vertex_set)
    separators = frozenset(
        v for v in range(g.n) if all(closed[v] >> b & 1 for b in members)
    )
    outside = frozenset(range(g.n)) - members - separators
    nonedges = [(a, b) for a in sorted(members) for b in sorted(members)
                if a < b and not closed[a] >> b & 1]
    no_leak = all(not closed[b] >> r & 1 for b in members for r in outside)
    return BuriedCheck(
        buried=bool(nonedges) and not (separators & members) and bool(outside) and no_leak,
        separators=separators,
        outside=outside,
        witness_nonedge=nonedges[0] if nonedges else None,
        witness_outside=min(outside) if outside else None,
    )


def per_pair_scan_buried(g):
    """Every non-adjacent pair in lexicographic order: grow its full closure,
    then check the definition; the first set with a remainder is buried."""
    for v, u in nonadjacent_pairs(g):
        grown = buried_candidate(g, v, u)
        check = is_buried(g, grown.members)
        if check.outside:
            assert check.buried, (sorted(g.edges), v, u)
            return BuriedCertificate(
                members=grown.members,
                separators=check.separators,
                outside=check.outside,
                witness_nonedge=check.witness_nonedge,
                witness_outside=check.witness_outside,
                pair=(v, u),
            )
    return None


# The decision as it was when disconnected graphs took their own route: a
# block rule, a stacking of complete blocks and a reversal step of their own,
# next to the buried route's convexify-and-reverse.

def stacked_order(g, comps, block_rank):
    rel = {
        (x, y)
        for i, ci in enumerate(comps)
        for j, cj in enumerate(comps)
        if block_rank[i] < block_rank[j]
        for x in ci
        for y in cj
    }
    order = order_on(g.n, rel)
    assert is_associated(g, order)
    return order


def reference_two_orders_from_buried(g, cert, base):
    members = cert.members
    anchor = min(members)
    rel1 = set()
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
            elif base.less(x, anchor):
                rel1.add((x, y))
    order1 = order_on(g.n, rel1)
    rel2 = {((y, x) if (x in members and y in members) else (x, y)) for x, y in rel1}
    order2 = order_on(g.n, rel2)
    assert is_associated(g, order1) and is_associated(g, order2)
    assert order2 != order1 and order2 != order1.dual()
    a, b = cert.witness_nonedge
    x, y = (a, b) if order1.less(a, b) else (b, a)
    return order1, order2, (x, y, cert.witness_outside)


def reference_disconnected_verdict(g, comps, base, wq_count):
    block_complete = [all(g.adjacent(x, y) for x in comp for y in comp) for comp in comps]
    if len(comps) <= 2 and all(block_complete):
        order = stacked_order(g, comps, list(range(len(comps))))
        return UniquenessVerdict(unique=True, wq_components=wq_count, order=order)
    incomplete = [i for i, ok in enumerate(block_complete) if not ok]
    if incomplete:
        blk = comps[incomplete[0]]
        rel2 = {((y, x) if (x in blk and y in blk) else (x, y)) for x, y in base.rel}
        order2 = order_on(g.n, rel2)
        assert is_associated(g, order2)
        assert order2 != base and order2 != base.dual()
        a, b = min((a, b) for a in blk for b in blk if a < b and not g.adjacent(a, b))
        x, y = (a, b) if base.less(a, b) else (b, a)
        w = min(v for v in range(g.n) if v not in blk)
        return UniquenessVerdict(
            unique=False, wq_components=wq_count, witness=(base, order2), triple=(x, y, w)
        )
    order1 = stacked_order(g, comps, list(range(len(comps))))
    order2 = stacked_order(g, comps, [1, 0] + list(range(2, len(comps))))
    assert order2 != order1 and order2 != order1.dual()
    return UniquenessVerdict(
        unique=False,
        wq_components=wq_count,
        witness=(order1, order2),
        triple=(min(comps[0]), min(comps[1]), min(comps[2])),
    )


def reference_decide(g):
    rep = recognize(g)
    pg = pair_graph(g)
    comps = components(g)
    if len(comps) > 1:
        return reference_disconnected_verdict(
            g, comps, representation_to_order(rep), pg.component_count
        )
    if g.is_complete():
        return UniquenessVerdict(
            unique=True, wq_components=pg.component_count, order=order_on(g.n, ())
        )
    cert = per_pair_scan_buried(g)
    assert (cert is None) == (pg.component_count == 2)
    if cert is None:
        chosen = pg.component_of[pg.pairs[0]]
        order = order_on(g.n, (p for p in pg.pairs if pg.component_of[p] == chosen))
        return UniquenessVerdict(unique=True, wq_components=pg.component_count, order=order)
    order1, order2, triple = reference_two_orders_from_buried(
        g, cert, representation_to_order(rep)
    )
    return UniquenessVerdict(
        unique=False,
        wq_components=pg.component_count,
        witness=(order1, order2),
        triple=triple,
        buried=cert,
    )


def assert_same_verdict(g, got, want):
    for field in UniquenessVerdict._fields:
        assert getattr(got, field) == getattr(want, field), (field, sorted(g.edges))
    assert verdict_to_jsonable(got, g.label_of) == verdict_to_jsonable(want, g.label_of)


def relabeled_disjoint_unions(count, seed):
    """Disjoint unions of 1-4 random interval graphs (n 1-8) or cliques
    (n 1-3), vertices shuffled across the parts."""
    rng = random.Random(seed)
    for _ in range(count):
        parts = [
            complete_graph(rng.randint(1, 3)) if rng.random() < 0.3
            else random_interval_graph(rng.randint(1, 8), rng.randrange(10**9))[0]
            for _ in range(rng.randint(1, 4))
        ]
        perm = list(range(sum(p.n for p in parts)))
        rng.shuffle(perm)
        edges, offset = [], 0
        for p in parts:
            edges += [(perm[offset + u], perm[offset + v]) for u, v in p.edges]
            offset += p.n
        yield graph_from_edges(len(perm), edges)


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def nonadjacent_pairs(g):
    return [(v, u) for v in range(g.n) for u in range(v + 1, g.n) if not g.adjacent(v, u)]


def seeded_graphs():
    """G(n, p) graphs with n 7-14, chordal or not, and random interval
    graphs with n 7-30."""
    rng = random.Random(20261018)
    for _ in range(150):
        yield random_graph(rng.randint(7, 14), rng.uniform(0.2, 0.8), rng)
    for _ in range(100):
        yield random_interval_graph(rng.randint(7, 30), rng.randrange(10**9))[0]


class TestPairGraph:
    def test_single_nonedge4(self):
        pg = pair_graph(single_nonedge4())
        assert pg.pairs == ((0, 2), (2, 0))
        assert pg.component_count == 2

    def test_complete_graph_is_empty(self):
        pg = pair_graph(k3())
        assert pg.pairs == ()
        assert pg.component_count == 0

    def test_star_has_six_isolated_pairs(self):
        pg = pair_graph(star3())
        assert len(pg.pairs) == 6
        assert pg.component_count == 6

    def test_reversed_pair_never_reachable(self):
        # holds for every interval graph; checked exhaustively on small ones
        for n in range(2, 6):
            for g in all_graphs(n):
                if isinstance(recognize(g), Obstruction):
                    continue
                pg = pair_graph(g)
                for a, b in pg.pairs:
                    assert pg.component_of[(a, b)] != pg.component_of[(b, a)]

    def test_component_count_shape_on_interval_graphs(self):
        # 0 iff complete; otherwise at least 2; more than 2 means at least 4
        for n in range(1, 6):
            for g in all_graphs(n):
                if isinstance(recognize(g), Obstruction):
                    continue
                count = pair_graph(g).component_count
                if g.is_complete():
                    assert count == 0
                else:
                    assert count >= 2
                    if count > 2:
                        assert count >= 4


class TestPairPath:
    def test_p4_direct_link(self):
        # (0,2) and (1,3) are linked directly: 0-1 and 2-3 are both edges
        pg = pair_graph(p4())
        assert pair_path(pg, (0, 2), (1, 3)) == [(0, 2), (1, 3)]

    def test_p5_two_step_path_takes_least_neighbor(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        pg = pair_graph(g)
        # both (0,3) and (1,3) reach (0,4) in one step; the lesser is chosen
        assert pair_path(pg, (0, 2), (0, 4)) == [(0, 2), (0, 3), (0, 4)]

    def test_no_path_to_reverse(self):
        pg = pair_graph(p4())
        assert pair_path(pg, (0, 2), (2, 0)) is None

    def test_singleton_path(self):
        pg = pair_graph(p4())
        assert pair_path(pg, (0, 2), (0, 2)) == [(0, 2)]

    def test_membership_checked(self):
        pg = pair_graph(p4())
        with pytest.raises(InputError):
            pair_path(pg, (0, 1), (0, 2))  # (0, 1) is an edge, not in the pair set

    @pytest.mark.parametrize(
        "bad", [(0.0, 2), (True, 3), [0, 2], (0, 1, 2), ("0", 2), (0,), (0, 4), (-1, 2), (2, 2)]
    )
    def test_malformed_pairs_are_input_errors(self, bad):
        pg = pair_graph(p4())
        for ab, cd in ((bad, (0, 2)), ((0, 2), bad)):
            with pytest.raises(InputError, match="is not a non-adjacent ordered pair"):
                pair_path(pg, ab, cd)

    def test_matches_all_pairs_search_on_seeded_non_chordal_graphs(self):
        rng = random.Random(2020)
        checked = paths = 0
        while checked < 1500:
            g = random_graph(rng.randint(6, 14), rng.uniform(0.2, 0.7), rng)
            if g.chordal_cliques is not None:
                continue
            pg = pair_graph(g)
            for _ in range(15):
                ab, cd = rng.choice(pg.pairs), rng.choice(pg.pairs)
                expected = all_pairs_pair_path(pg, ab, cd)
                assert pair_path(pg, ab, cd) == expected, (sorted(g.edges), ab, cd)
                checked += 1
                paths += expected is not None
        assert paths > 500

    def test_matches_bruteforce_shortest_paths(self):
        # compare against full enumeration of shortest linkage paths
        def all_shortest(pg, src, dst):
            best = []
            queue = [[src]]
            while queue and not best:
                extended = []
                for path in queue:
                    for q in pg.pairs:
                        if q in path or not linked(pg, path[-1], q):
                            continue
                        if q == dst:
                            best.append(path + [q])
                        else:
                            extended.append(path + [q])
                queue = extended
            return best

        for n in range(2, 5):
            for g in all_graphs(n):
                if isinstance(recognize(g), Obstruction):
                    continue
                pg = pair_graph(g)
                for src in pg.pairs:
                    for dst in pg.pairs:
                        if src == dst or pg.component_of[src] != pg.component_of[dst]:
                            continue
                        assert pair_path(pg, src, dst) == min(all_shortest(pg, src, dst))


class TestBuriedCandidate:
    def test_star_leaves(self):
        grown = buried_candidate(star3(), 1, 2)
        assert grown.level == {1: 0, 2: 0}

    def test_p4_levels(self):
        grown = buried_candidate(p4(), 0, 2)
        assert grown.level == {0: 0, 2: 0, 3: 1, 1: 2}

    def test_single_nonedge4_stays_small(self):
        grown = buried_candidate(single_nonedge4(), 0, 2)
        assert grown.members == frozenset({0, 2})

    def test_rejects_adjacent_or_equal(self):
        with pytest.raises(InputError):
            buried_candidate(p4(), 0, 1)
        with pytest.raises(InputError):
            buried_candidate(p4(), 2, 2)

    @pytest.mark.parametrize("v,u", [(-1, 2), (0, 4), (4, 0)])
    def test_rejects_vertex_out_of_range(self, v, u):
        with pytest.raises(InputError, match="out of range for n=4"):
            buried_candidate(p4(), v, u)

    def test_stagewise_membership_is_nested(self):
        for n in range(2, 6):
            for g in all_graphs(n):
                for v in range(n):
                    for u in range(v + 1, n):
                        if g.adjacent(v, u):
                            continue
                        level = buried_candidate(g, v, u).level
                        # levels are contiguous starting at 0
                        stages = sorted(set(level.values()))
                        assert stages == list(range(len(stages)))


@pytest.mark.parametrize("call,bad", [
    (lambda g: buried_candidate(g, True, 3), "True"),
    (lambda g: buried_candidate(g, 0, 2.0), "2.0"),
    (lambda g: is_buried(g, {1.0, 3}), "1.0"),
    (lambda g: is_buried(g, [False, 2]), "False"),
], ids=["candidate-bool", "candidate-float", "buried-float", "buried-bool"])
def test_vertices_that_are_not_ints_are_refused(call, bad):
    # a bool is an int to Python, but never a vertex
    with pytest.raises(InputError, match=f"^vertex {bad} is not an integer$"):
        call(p4())


class TestIsBuried:
    def test_star_leaf_pair(self):
        check = is_buried(star3(), {1, 2})
        assert check.buried
        assert check.separators == frozenset({0})
        assert check.outside == frozenset({3})
        assert check.witness_nonedge == (1, 2)
        assert check.witness_outside == 3

    def test_singleton_fails_nonedge_condition(self):
        assert not is_buried(star3(), {1})

    def test_p4_has_no_buried_subset(self):
        g = p4()
        for size in range(5):
            for subset in combinations(range(4), size):
                assert not is_buried(g, subset)


class TestAgainstReferences:
    def test_pair_graph_exhaustive_n6(self):
        # every graph, interval or not: the pair graph accepts any graph
        for n in range(7):
            for g in all_graphs(n):
                pg, ids = pair_graph(g), all_pairs_component_ids(g)
                assert pg == pair_graph_from_ids(g, ids), sorted(g.edges)
                # the least pairs and spans `_buried_from_spans` reads off the rows
                assert starts_and_spans(pg) == starts_and_spans_from_ids(ids), sorted(g.edges)
                # the views `wq` prints: the pairs off the graph, their ids off the rows
                assert (pg.pairs, pg.component_of) == (tuple(sorted(ids)), ids), sorted(g.edges)

    def test_closure_and_check_exhaustive_n5(self):
        for n in range(6):
            for g in all_graphs(n):
                for v, u in nonadjacent_pairs(g):
                    assert buried_candidate(g, v, u) == staged_rescan_candidate(g, v, u)
                for size in range(n + 1):
                    for subset in combinations(range(n), size):
                        assert is_buried(g, subset) == all_pairs_is_buried(g, subset)

    def test_seeded_graphs(self):
        rng = random.Random(7)
        for g in seeded_graphs():
            pg, ids = pair_graph(g), all_pairs_component_ids(g)
            assert pg == pair_graph_from_ids(g, ids), sorted(g.edges)
            assert starts_and_spans(pg) == starts_and_spans_from_ids(ids), sorted(g.edges)
            for v, u in nonadjacent_pairs(g):
                grown = buried_candidate(g, v, u)
                assert grown == staged_rescan_candidate(g, v, u), (sorted(g.edges), v, u)
                assert is_buried(g, grown.members) == all_pairs_is_buried(g, grown.members)
            for _ in range(10 if pg.pairs else 0):
                ab = rng.choice(pg.pairs)
                same = [p for p in pg.pairs if pg.component_of[p] == pg.component_of[ab]]
                cd = rng.choice(same if rng.random() < 0.8 else pg.pairs)
                assert pair_path(pg, ab, cd) == all_pairs_pair_path(pg, ab, cd)

    def test_pair_graph_on_relabeled_interval_graphs_n30_to_60(self):
        # chordal inputs skip the diagonal step; the union-find links every
        # two pairs, four-cycle or not
        rng = random.Random(3060)
        counts = set()
        for _ in range(40):
            g = relabeled(random_interval_graph(rng.randint(30, 60), rng.randrange(10**9))[0], rng)
            pg = pair_graph(g)
            assert pg == all_pairs_pair_graph(g), sorted(g.edges)
            counts.add(pg.component_count)
        assert 2 in counts and max(counts) > 2, counts

    def test_scan_exhaustive_n6(self):
        # the spans are least modules only on chordal input, so interval
        # graphs are the domain
        found = 0
        for n in range(7):
            for g in all_graphs(n):
                if isinstance(recognize(g), Obstruction):
                    continue
                cert = _buried_from_spans(g, upward_classes(g))
                assert cert == per_pair_scan_buried(g), sorted(g.edges)
                assert _buried_from_spans(g, fill_scan(pair_graph(g))) == cert, sorted(g.edges)
                found += cert is not None
        assert found == 9907

    def test_scan_on_seeded_graphs(self):
        rng = random.Random(4060)
        families = [
            [g for g in seeded_graphs() if not isinstance(recognize(g), Obstruction)],
            list(relabeled_disjoint_unions(200, 11)),
            [relabeled(random_interval_graph(rng.randint(30, 60), rng.randrange(10**9))[0], rng)
             for _ in range(20)],
        ]
        assert [len(f) for f in families] == [120, 200, 20]
        found = 0
        for g in (g for family in families for g in family):
            cert = _buried_from_spans(g, upward_classes(g))
            assert cert == per_pair_scan_buried(g), sorted(g.edges)
            assert _buried_from_spans(g, fill_scan(pair_graph(g))) == cert, sorted(g.edges)
            found += cert is not None
        assert found == 191

    def test_cross_check_rejects_the_diagonal_pair_graph_of_c4(self):
        # the diagonal step joins all four pairs of C4, spanning every vertex,
        # while the closure of {0, 2} stops at {0, 2}
        g = c4()
        assert pair_graph(g).component_count == 1
        with pytest.raises(InternalInconsistencyError, match=r"\(0, 2\)"):
            _buried_from_spans(g, fill_scan(pair_graph(g)))

    def test_cross_check_rejects_merged_components_on_star3(self):
        g = star3()
        ids = dict(pair_graph(g).component_of)
        ids[(1, 3)] = ids[(1, 2)]  # the span of (1, 2) grows to {1, 2, 3}
        merged = pair_graph_from_ids(g, {p: sorted(set(ids.values())).index(i)
                                         for p, i in ids.items()})
        with pytest.raises(InternalInconsistencyError, match=r"\(1, 2\)"):
            _buried_from_spans(g, fill_scan(merged))
        # the same forgery on the classes the decision reads
        first, second = upward_classes(g)[:2]
        joined = dict(first)
        for a, bs in second.items():
            joined[a] = joined.get(a, 0) | bs
        with pytest.raises(InternalInconsistencyError, match=r"\(1, 2\)"):
            _buried_from_spans(g, [joined])

    def test_cross_check_rejects_split_components_on_p4(self):
        g = p4()
        pg = pair_graph(g)
        assert pg.component_of[(0, 2)] == pg.component_of[(1, 3)] == 0
        ids = {p: i + 1 for p, i in pg.component_of.items()}
        ids[(0, 2)] = 0  # the span of (0, 2) shrinks to {0, 2}
        with pytest.raises(InternalInconsistencyError, match=r"\(0, 2\)"):
            _buried_from_spans(g, fill_scan(pair_graph_from_ids(g, ids)))
        assert _buried_from_spans(g, fill_scan(pg)) is None
        # the same forgery on the classes the decision reads: one class, split
        (found,) = upward_classes(g)
        assert _buried_from_spans(g, [found]) is None
        a, b = (0, 2) if found.get(0, 0) >> 2 & 1 else (2, 0)
        rest = {c: ds & ~(1 << b) if c == a else ds for c, ds in found.items()}
        with pytest.raises(InternalInconsistencyError, match=r"\(0, 2\)"):
            _buried_from_spans(g, [{a: 1 << b}, rest])

    def test_upward_classes_match_the_fill_exhaustive_n6(self):
        classes = graphs = 0
        for n in range(7):
            for g in all_graphs(n):
                if not isinstance(recognize(g), Obstruction):
                    classes += assert_classes_match_fill(g)
                    graphs += 1
        assert (graphs, classes) == (18809, 34338)

    def test_upward_classes_match_the_fill_on_seeded_families(self, n1000_rows):
        rng = random.Random(5281)
        for _ in range(150):
            g = random_interval_graph(rng.randint(2, 40), rng.randrange(10**9))[0]
            assert_classes_match_fill(g)
            assert_classes_match_fill(relabeled(g, rng))
        for g in relabeled_disjoint_unions(300, 29):
            assert_classes_match_fill(g)
        for stages in range(6, 26):
            assert_classes_match_fill(build_gadget(GadgetSpec(tuple(range(stages, 0, -1)), stages)).graph)
        assert assert_classes_match_fill(Graph._from_rows(n1000_rows)) == 1

    def test_pair_graph_on_relabeled_n250_within_budget(self):
        rng = random.Random(250)
        g = relabeled(random_interval_graph(250, 250)[0], rng)
        start = time.perf_counter()
        pg = pair_graph(g)
        elapsed = time.perf_counter() - start
        # about 0.02 s on a 2-core host, 0.035 s with a visit call per step;
        # an early flood fill took 3.8 s and the all-pairs union-find 33 s
        assert elapsed < 15, elapsed
        assert all(pg.component_of[(a, b)] != pg.component_of[(b, a)] for a, b in pg.pairs)

    def test_fill_matches_visit_closure_on_staged_gadgets(self):
        # decreasing f, 6-25 stages: the gadgets of the benchmark's decide corpus
        for stages in range(6, 26):
            assert_same_fill(build_gadget(GadgetSpec(tuple(range(stages, 0, -1)), stages)).graph)

    def test_fill_matches_visit_closure_on_large_interval_graphs(self, n1000_rows):
        assert_same_fill(relabeled(random_interval_graph(250, 250)[0], random.Random(250)))
        assert_same_fill(Graph._from_rows(n1000_rows))

    def test_fill_matches_visit_closure_on_non_chordal_graphs(self):
        # the diagonal step runs only here
        rng = random.Random(1525)
        diagonal = 0
        for _ in range(200):
            g = random_graph(rng.randint(8, 24), rng.uniform(0.2, 0.8), rng)
            diagonal += g.chordal_cliques is None
            assert_same_fill(g)
        assert diagonal > 150, diagonal


class TestFindBuried:
    def test_star(self):
        cert = find_buried(star3())
        assert cert.members == frozenset({1, 2})
        assert cert.pair == (1, 2)
        assert cert.separators == frozenset({0})
        assert cert.outside == frozenset({3})

    def test_single_nonedge4_none(self):
        assert find_buried(single_nonedge4()) is None

    def test_p4_none(self):
        assert find_buried(p4()) is None

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            find_buried(two_k2())

    def test_non_interval_rejected_with_obstruction(self):
        with pytest.raises(NotIntervalGraphError) as err:
            find_buried(c4())
        assert err.value.obstruction.kind == "chordless_cycle"


class TestTwoOrders:
    def test_star_worked_example(self):
        g = star3()
        rep = representation_from_intervals([(0, 10), (1, 2), (3, 4), (5, 6)])
        base = representation_to_order(rep)
        assert base.rel == frozenset({(1, 2), (1, 3), (2, 3)})
        cert = find_buried(g)
        order1, order2, triple = two_orders_from_buried(g, cert, base)
        assert order1.rel == frozenset({(1, 2), (1, 3), (2, 3)})
        assert order2.rel == frozenset({(2, 1), (1, 3), (2, 3)})
        assert triple == (1, 2, 3)
        assert is_associated(g, order1) and is_associated(g, order2)
        assert order2 != order1 and order2 != order1.dual()

    def test_triple_is_read_off_the_members(self):
        g = star3()
        cert = find_buried(g)
        base = representation_to_order(recognize(g))
        forged = BuriedCertificate(members=cert.members, separators=cert.separators, outside=cert.outside,
                                   witness_nonedge=cert.witness_nonedge, witness_outside=0, pair=cert.pair)
        assert two_orders_from_buried(g, forged, base) == two_orders_from_buried(g, cert, base)

    def test_base_must_be_associated(self):
        g = star3()
        cert = find_buried(g)
        with pytest.raises(InputError):
            two_orders_from_buried(g, cert, order_on(4, ()))


class TestOrderFromPairGraph:
    def test_single_nonedge4(self):
        g = single_nonedge4()
        order = order_from_pair_graph(g, pair_graph(g))
        assert order.rel == frozenset({(0, 2)})

    def test_p4(self):
        g = p4()
        order = order_from_pair_graph(g, pair_graph(g))
        assert order.rel == frozenset({(0, 2), (0, 3), (1, 3)})

    def test_complete_rejected(self):
        with pytest.raises(InputError):
            order_from_pair_graph(k3(), pair_graph(k3()))


class TestDecideUnique:
    def test_single_nonedge4(self):
        verdict = decide_unique(single_nonedge4())
        assert verdict.unique
        assert verdict.order.rel == frozenset({(0, 2)})
        assert verdict.wq_components == 2
        assert verdict.witness is None and verdict.buried is None

    def test_star3(self):
        verdict = decide_unique(star3())
        assert not verdict.unique
        assert verdict.buried.members == frozenset({1, 2})
        assert verdict.wq_components == 6
        order1, order2 = verdict.witness
        assert is_associated(star3(), order1) and is_associated(star3(), order2)
        assert order2 != order1 and order2 != order1.dual()

    def test_complete_graph_antichain(self):
        verdict = decide_unique(k3())
        assert verdict.unique
        assert verdict.order.rel == frozenset()
        assert verdict.wq_components == 0

    def test_two_complete_blocks_unique(self):
        verdict = decide_unique(two_k2())
        assert verdict.unique
        assert is_associated(two_k2(), verdict.order)
        # blocks stacked: {0,1} before {2,3}
        assert verdict.order.rel == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_three_blocks_not_unique(self):
        verdict = decide_unique(empty3())
        assert not verdict.unique
        order1, order2 = verdict.witness
        assert is_associated(empty3(), order1) and is_associated(empty3(), order2)
        assert order2 != order1 and order2 != order1.dual()
        assert verdict.triple == (0, 1, 2)

    def test_disconnected_with_non_complete_block(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)])  # path block plus isolated vertex
        verdict = decide_unique(g)
        assert not verdict.unique
        order1, order2 = verdict.witness
        assert is_associated(g, order1) and is_associated(g, order2)
        assert order2 != order1 and order2 != order1.dual()

    def test_non_interval_input_raises_with_obstruction(self):
        with pytest.raises(NotIntervalGraphError) as err:
            decide_unique(c4())
        assert err.value.obstruction.cycle == (0, 1, 2, 3)

    def test_single_vertex_and_empty(self):
        assert decide_unique(graph_from_edges(1, [])).unique
        assert decide_unique(graph_from_edges(0, [])).unique

    def test_connected_n200_within_budget(self):
        g, _ = random_interval_graph(200, 200)
        start = time.perf_counter()
        verdict = decide_unique(g)
        elapsed = time.perf_counter() - start
        # about 0.03 s on a 2-core host; a full closure per pair took 16.5 s
        assert elapsed < 8, elapsed
        assert verdict.unique
        assert is_associated(g, verdict.order)

    def test_one_chordality_sweep_per_decision(self, monkeypatch):
        sweeps = []
        original = graphs_module._chordal_sweep
        monkeypatch.setattr(graphs_module, "_chordal_sweep",
                            lambda masks: sweeps.append(len(masks)) or original(masks))
        cases = [
            single_nonedge4(),  # unique
            star3(),  # a buried subgraph
            complete_graph(4),
            graph_from_edges(5, [(0, 1), (2, 3)]),  # disconnected
            random_interval_graph(40, 3)[0],
            build_gadget(GadgetSpec((2, 0, 1), 3)).graph,
        ]
        for g in cases:
            sweeps.clear()
            decide_unique(g)
            assert sweeps == [g.n]
        sweeps.clear()
        with pytest.raises(NotIntervalGraphError):
            decide_unique(c4())
        assert sweeps == [4]

    def test_connected_n1000_within_budget(self, n1000_rows):
        g = Graph._from_rows(n1000_rows)
        start = time.process_time()
        verdict = decide_unique(g)
        elapsed = time.process_time() - start
        # about 0.16 s of process time on a 2-core host, 0.25 s with the full
        # pair graph, 1.1 s with a visit call per pair-graph step; growing a
        # closure from every non-adjacent pair took about 8 s
        assert elapsed < 4, elapsed
        assert verdict.unique and verdict.wq_components == 2

    def test_pair_graph_n1000_within_budget(self, n1000_rows):
        g = Graph._from_rows(n1000_rows)
        assert g.chordal_cliques is not None  # the sweep `recognize` runs first
        start = time.process_time()
        pg = pair_graph(g)
        elapsed = time.process_time() - start
        # about 0.33 s of process time on a 2-core host, 0.7 s with a visit
        # call per step
        assert elapsed < 1.5, elapsed
        assert pg.component_count == 2
        assert sum(bs.bit_count() for rows in pg.rows for bs in rows.values()) == 326950

    def test_edgeless_n300_within_budget(self):
        g = graph_from_edges(300, [])
        start = time.perf_counter()
        verdict = decide_unique(g)
        elapsed = time.perf_counter() - start
        # about 0.23 s on a 2-core host, 0.35 s with a generator per order
        # row; validating the 44,850-pair orders pair by pair, and building
        # the dual to compare, took 3.9 s
        assert elapsed < 2, elapsed
        assert not verdict.unique
        order1, order2 = verdict.witness
        for order in (order1, order2):
            assert order_on(order.n, order.rel) == order
            assert is_associated(g, order)
        assert order2 != order1 and order2 != order1.dual()


class TestUniqueOrderFromTheRepresentation:
    """The unique order is read off the verified representation's interval
    order; component 0 of the pair graph, `order_from_pair_graph`, is the
    oracle."""

    @staticmethod
    def assert_component_0_order(g, verdict):
        assert verdict.unique, sorted(g.edges)
        if verdict.wq_components == 0:  # complete: the antichain
            assert verdict.order.succ == (0,) * g.n
        else:
            assert verdict.order.succ == order_from_pair_graph(g, pair_graph(g)).succ, sorted(g.edges)
        return verdict.order.succ == representation_to_order(recognize(g)).succ

    def test_matches_component_0_exhaustive_n6(self):
        unique = as_is = 0
        for n in range(7):
            for g in all_graphs(n):
                try:
                    verdict = decide_unique(g)
                except NotIntervalGraphError:
                    continue
                if verdict.unique:
                    as_is += self.assert_component_0_order(g, verdict)
                    unique += 1
        assert unique == 8902  # 8895 non-complete, plus K_0 to K_6
        assert 0 < as_is < unique  # both the interval order and its dual occur

    def test_matches_component_0_on_seeded_graphs(self):
        rng = random.Random(2024)
        unique = as_is = 0
        for _ in range(300):
            g = relabeled(random_interval_graph(rng.randint(7, 40), rng.randrange(10**9))[0], rng)
            verdict = decide_unique(g)
            if verdict.unique:
                as_is += self.assert_component_0_order(g, verdict)
                unique += 1
        assert unique > 100 and 0 < as_is < unique

    def test_two_complete_blocks_take_the_block_of_vertex_0_first(self):
        g = graph_from_edges(5, [(0, 2), (1, 3), (1, 4), (3, 4)])
        verdict = decide_unique(g)
        assert verdict.unique and verdict.wq_components == 2
        assert verdict.order.rel == frozenset((u, v) for u in (0, 2) for v in (1, 3, 4))
        for n in range(1, 6):
            verdict = decide_unique(complete_graph(n))
            assert verdict.unique and verdict.order.rel == frozenset() and verdict.wq_components == 0

    def test_one_endpoint_sweep_per_decision(self, monkeypatch):
        sweeps = []
        original = representation_module._endpoint_sweep
        monkeypatch.setattr(representation_module, "_endpoint_sweep",
                            lambda r: sweeps.append(r.n) or original(r))
        cases = [
            single_nonedge4(),  # unique
            p4(),  # unique, the interval order's dual
            star3(),  # a buried subgraph
            complete_graph(4),
            two_k2(),
            graph_from_edges(5, [(0, 1), (2, 3)]),  # disconnected, not unique
            random_interval_graph(40, 3)[0],
            build_gadget(GadgetSpec((2, 0, 1), 3)).graph,
        ]
        for g in cases:
            sweeps.clear()
            decide_unique(g)
            assert sweeps == [g.n], sorted(g.edges)

    def test_decision_calls_no_pair_graph_order(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decision read an order off the pair graph")

        monkeypatch.setattr(orderability_module, "order_from_pair_graph", refuse)
        for g in (single_nonedge4(), p4(), two_k2(), k3(), random_interval_graph(40, 3)[0]):
            assert decide_unique(g).unique

    # the count is twice the number of classes, so a forgery that once left
    # one component now leaves one class too many, or one on a complete graph
    @pytest.mark.parametrize("make,forge", [
        (single_nonedge4, lambda classes: []),  # no components on a non-complete graph
        (single_nonedge4, lambda classes: classes * 2),
        (p4, lambda classes: []),
        (star3, lambda classes: classes[:1]),  # a buried subgraph with two components
        (k3, lambda classes: [{0: 0b10}]),  # a class on a complete graph
    ], ids=["none", "one", "none-p4", "buried-two", "complete-one"])
    def test_forged_component_count_is_refused(self, make, forge, monkeypatch):
        g = make()
        forged = forge(upward_classes(g))
        monkeypatch.setattr(orderability_module, "_upward_classes", lambda graph, base: forged)
        with pytest.raises(InternalInconsistencyError, match="disagrees with pair-graph component count"):
            decide_unique(g)


class TestAgainstReferenceDecision:
    def test_interval_graphs_exhaustive_n5_and_disconnected_n6(self):
        # every disconnected one is also checked against the enumeration
        disconnected = 0
        for n in range(7):
            for g in all_graphs(n):
                connected = len(components(g)) <= 1
                if (n == 6 and connected) or isinstance(recognize(g), Obstruction):
                    continue
                verdict = decide_unique(g)
                assert_same_verdict(g, verdict, reference_decide(g))
                if not connected:
                    assert verdict.unique == oracle_unique(g), sorted(g.edges)
                    disconnected += 1
        assert disconnected == 5164

    def test_relabeled_disjoint_unions(self):
        disconnected = 0
        for g in relabeled_disjoint_unions(600, 6):
            assert_same_verdict(g, decide_unique(g), reference_decide(g))
            disconnected += len(components(g)) > 1
        assert disconnected == 451


def connected_non_unique_interval_graphs():
    """The 20 staged gadgets of the benchmark's decide corpus (decreasing f,
    6-25 stages) and 50 seeded connected random interval graphs with a
    buried subgraph."""
    graphs = [build_gadget(GadgetSpec(tuple(range(s, 0, -1)), s)).graph for s in range(6, 26)]
    rng = random.Random(1616)
    while len(graphs) < 70:
        g = random_interval_graph(rng.randint(7, 30), rng.randrange(10**9))[0]
        if len(components(g)) == 1 and pair_graph(g).component_count > 2:
            graphs.append(g)
    return graphs


class TestOnePassCertificate:
    """A "not unique" verdict builds its certificate once: one definition
    check by `is_buried`, and no second closure or witness through the
    public `buried_candidate` and `two_orders_from_buried`."""

    def test_one_definition_check_and_no_public_rebuild(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decision rebuilt its certificate")

        checks = []
        original = orderability_module.is_buried
        monkeypatch.setattr(orderability_module, "buried_candidate", refuse)
        monkeypatch.setattr(orderability_module, "two_orders_from_buried", refuse)
        monkeypatch.setattr(orderability_module, "is_buried",
                            lambda g, members: checks.append(g) or original(g, members))
        for g in [star3()] + connected_non_unique_interval_graphs():
            for route in (decide_unique, find_buried):
                checks.clear()
                assert route(g) is not None
                assert len(checks) == 1, (route.__name__, sorted(g.edges))
        # components are taken as bitsets, never as the public vertex sets
        assert "components" not in vars(orderability_module)

    def test_witness_matches_the_public_builder(self):
        small = [g for n in range(6) for g in all_graphs(n)
                 if len(components(g)) == 1 and not isinstance(recognize(g), Obstruction)
                 and pair_graph(g).component_count > 2]
        assert len(small) == 169
        for g in small + connected_non_unique_interval_graphs():
            verdict = decide_unique(g)
            base = representation_to_order(recognize(g))
            order1, order2, triple = two_orders_from_buried(g, verdict.buried, base)
            assert [o.succ for o in verdict.witness] == [order1.succ, order2.succ], sorted(g.edges)
            assert verdict.triple == triple, sorted(g.edges)


class TestVerdictJson:
    def test_unique_verdict_shape(self):
        obj = verdict_to_jsonable(decide_unique(single_nonedge4()), single_nonedge4().label_of)
        assert obj == {"unique": True, "order": [["a", "c"]], "wq_components": 2}

    def test_non_unique_verdict_shape(self):
        g = star3()
        obj = verdict_to_jsonable(decide_unique(g), g.label_of)
        assert obj["unique"] is False
        assert obj["buried"] == {"B": [1, 2], "K": [0], "R": [3]}
        assert obj["wq_components"] == 6
        assert set(obj["witness"]) == {"order1", "order2", "triple"}

    @pytest.mark.parametrize("make", [
        single_nonedge4,
        lambda: graph_from_edges(30, random_interval_graph(30, 7)[0].edges,
                                 labels=[f"v{i}" for i in range(30)]),
        lambda: build_gadget(GadgetSpec((3, 2, 1), 3)).graph,
        lambda: build_gadget(GadgetSpec(tuple(range(8, 0, -1)), 8)).graph,
        lambda: Graph(300, (0,) * 300),
        lambda: complete_graph(3),
    ], ids=["labelled-unique", "labelled-interval-unique", "gadget-3", "gadget-8",
            "edgeless-300", "antichain"])
    def test_order_lists_match_pair_by_pair_reference(self, make):
        g = make()
        name = g.label_of
        verdict = decide_unique(g)
        obj = verdict_to_jsonable(verdict, name)
        if verdict.unique:
            emitted = {"order": verdict.order}
        else:
            emitted = {"order1": verdict.witness[0], "order2": verdict.witness[1]}
        for key, order in emitted.items():
            want = [[name(u), name(v)] for u, v in order.pairs()]
            assert (obj if verdict.unique else obj["witness"])[key] == want, key
            text = " ".join(f"{name(u)}<{name(v)}" for u, v in order.pairs()) or "(antichain)"
            assert cli_module._order_text(order, name) == text, key


class TestSingleAdjacencyForm:
    """Every route reads adjacency off `Graph.masks`, a field: after it has
    run, the graph caches nothing beyond the chordality sweep."""

    ALLOWED = {"chordal_cliques"}

    @staticmethod
    def cached(g):
        return set(vars(g)) - set(g._fields)

    @pytest.mark.parametrize("make,route", [
        (single_nonedge4, recognize),
        (c4, recognize),
        (lambda: graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]), recognize),
        (single_nonedge4, decide_unique),
        (star3, decide_unique),
        (two_k2, decide_unique),
        (lambda: graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]), decide_unique),
        (star3, find_buried),
        (p4, lambda g: pair_path(pair_graph(g), (0, 2), (1, 3))),
    ], ids=["recognize-yes", "recognize-hole", "recognize-triple", "decide-unique",
            "decide-buried", "decide-two-blocks", "decide-disconnected", "find-buried",
            "pair-path"])
    def test_route_caches_only_masks(self, make, route):
        g = make()
        assert route(g) is not None
        assert self.cached(g) <= self.ALLOWED
        assert g._fields == ("n", "masks", "labels")

    @pytest.mark.parametrize("text", [
        '{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]}',  # unique
        '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "labels": {"0": "hub"}}',  # buried
        '{"n": 5, "edges": [[0, 1], [1, 2], [3, 4]]}',  # disconnected
        '{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}',  # complete
        '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}',  # a hole
    ], ids=["unique", "buried", "disconnected", "complete", "hole"])
    def test_decision_on_parsed_input_derives_no_pair_lists(self, text, monkeypatch):
        # parsed graphs are their rows, the classes their rows and every order
        # its successor rows: no decision route lists edges or pairs, or builds
        # the pair graph, and emitting the verdict reads the rows too
        built = []
        original = orderability_module.pair_graph
        monkeypatch.setattr(orderability_module, "pair_graph",
                            lambda g: built.append(original(g)) or built[-1])
        g = parse_graph_json(text)
        recognize(g)
        try:
            verdict = decide_unique(g)
        except NotIntervalGraphError:
            assert not built
        else:
            verdict_to_jsonable(verdict, g.label_of)
            orders = [verdict.order] if verdict.unique else list(verdict.witness)
            for order in orders:
                assert "rel" not in vars(order)
            if len(components(g)) == 1:
                find_buried(g)
        assert "edges" not in vars(g)
        assert not built, "a decision route built the pair graph"

    def test_graph_has_no_second_adjacency_form(self):
        assert not hasattr(star3(), "adj")
