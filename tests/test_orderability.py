import random
import time
from itertools import combinations

import pytest

from conftest import c4, empty3, random_graph, single_nonedge4, k3, p4, star3, two_k2
from intorder import (
    BuriedCheck,
    InputError,
    LeveledSet,
    NotIntervalGraphError,
    PairGraph,
    StrictPartialOrder,
    buried_candidate,
    decide_unique,
    find_buried,
    graph_from_edges,
    is_associated,
    is_buried,
    order_from_pair_graph,
    pair_graph,
    pair_path,
    representation_from_intervals,
    representation_to_order,
    two_orders_from_buried,
    verdict_to_jsonable,
)
from intorder.gadgets import all_graphs, random_interval_graph
from intorder.recognition import Obstruction, recognize


# Reference implementations: the definitions written as all-pairs scans.
# The library reads the same results off neighbourhood sets and must agree.

def all_pairs_pair_graph(g):
    """Union-find over every two linked pairs; ids follow least pairs."""
    pairs = tuple(
        (a, b) for a in range(g.n) for b in range(g.n) if a != b and not g.adjacent(a, b)
    )
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            if g.adjacent(a, c) and g.adjacent(b, d):
                parent[find(j)] = find(i)
    component_of = {}
    root_to_id = {}
    for i, p in enumerate(pairs):
        component_of[p] = root_to_id.setdefault(find(i), len(root_to_id))
    return PairGraph(g, pairs, component_of, len(root_to_id))


def all_pairs_pair_path(pg, ab, cd):
    """BFS that scans every pair at every step, then the least-step walk."""
    if pg.component_of[ab] != pg.component_of[cd]:
        return None
    dist = {cd: 0}
    frontier = [cd]
    while frontier:
        nxt = []
        for cur in frontier:
            for p in pg.pairs:
                if p not in dist and pg.linked(cur, p):
                    dist[p] = dist[cur] + 1
                    nxt.append(p)
        frontier = nxt
    path = [ab]
    while path[-1] != cd:
        cur = path[-1]
        path.append(min(
            p for p in pg.pairs
            if p != cur and pg.linked(cur, p) and dist.get(p, -1) == dist[cur] - 1
        ))
    return path


def staged_rescan_candidate(g, v, u):
    """Each stage tests every outsider against every member."""
    level = {v: 0, u: 0}
    stage = 0
    while True:
        members = list(level)
        fresh = [
            w for w in range(g.n)
            if w not in level
            and any(g.adjacent(z, w) for z in members)
            and any(not g.adjacent(z, w) for z in members)
        ]
        if not fresh:
            return LeveledSet(v, u, level)
        stage += 1
        for w in fresh:
            level[w] = stage


def all_pairs_is_buried(g, vertex_set):
    """The buried-subgraph conditions checked vertex by vertex."""
    members = frozenset(vertex_set)
    separators = frozenset(
        v for v in range(g.n) if all(g.adjacent(v, b) for b in members)
    )
    outside = frozenset(range(g.n)) - members - separators
    nonedges = [(a, b) for a in sorted(members) for b in sorted(members)
                if a < b and not g.adjacent(a, b)]
    no_leak = all(not g.adjacent(b, r) for b in members for r in outside)
    return BuriedCheck(
        buried=bool(nonedges) and not (separators & members) and bool(outside) and no_leak,
        separators=separators,
        outside=outside,
        witness_nonedge=nonedges[0] if nonedges else None,
        witness_outside=min(outside) if outside else None,
    )


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

    def test_matches_bruteforce_shortest_paths(self):
        # compare against full enumeration of shortest linkage paths
        def all_shortest(pg, src, dst):
            best = []
            queue = [[src]]
            while queue and not best:
                extended = []
                for path in queue:
                    for q in pg.pairs:
                        if q in path or not pg.linked(path[-1], q):
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
                assert pair_graph(g) == all_pairs_pair_graph(g), sorted(g.edges)

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
            pg = pair_graph(g)
            assert pg == all_pairs_pair_graph(g), sorted(g.edges)
            for v, u in nonadjacent_pairs(g):
                grown = buried_candidate(g, v, u)
                assert grown == staged_rescan_candidate(g, v, u), (sorted(g.edges), v, u)
                assert is_buried(g, grown.members) == all_pairs_is_buried(g, grown.members)
            for _ in range(10 if pg.pairs else 0):
                ab = rng.choice(pg.pairs)
                same = [p for p in pg.pairs if pg.component_of[p] == pg.component_of[ab]]
                cd = rng.choice(same if rng.random() < 0.8 else pg.pairs)
                assert pair_path(pg, ab, cd) == all_pairs_pair_path(pg, ab, cd)

    def test_pair_graph_on_relabeled_n250_within_budget(self):
        rng = random.Random(250)
        g, _ = random_interval_graph(250, 250)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        start = time.perf_counter()
        pg = pair_graph(g)
        elapsed = time.perf_counter() - start
        # a few seconds on a 2-core host; the all-pairs union-find took 33 s
        assert elapsed < 15, elapsed
        assert all(pg.component_of[(a, b)] != pg.component_of[(b, a)] for a, b in pg.pairs)


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

    def test_base_must_be_associated(self):
        g = star3()
        cert = find_buried(g)
        with pytest.raises(InputError):
            two_orders_from_buried(g, cert, StrictPartialOrder(4, frozenset()))


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


class TestVerdictJson:
    def test_unique_verdict_shape(self):
        obj = verdict_to_jsonable(decide_unique(single_nonedge4()), single_nonedge4().label_of)
        assert obj == {"unique": True, "order": [["a", "c"]], "wq_components": 2}

    def test_non_unique_verdict_shape(self):
        obj = verdict_to_jsonable(decide_unique(star3()))
        assert obj["unique"] is False
        assert obj["buried"] == {"B": [1, 2], "K": [0], "R": [3]}
        assert obj["wq_components"] == 6
        assert set(obj["witness"]) == {"order1", "order2", "triple"}
