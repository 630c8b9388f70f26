import random
import sys
import time

from conftest import c4, single_nonedge4, net_graph, k3, p4
from intorder import (
    ClosedRepresentation,
    Obstruction,
    check_triangulated,
    enumerate_associated_orders,
    find_asteroidal_triple,
    graph_from_edges,
    incomparability_graph,
    is_interval_order,
    maximal_cliques,
    recognize,
    representation_to_order,
    validate_obstruction,
    verify_representation,
)
from intorder.gadgets import all_graphs, random_interval_graph
from intorder.recognition import _consecutive_clique_order


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


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestTriangulated:
    def test_c4_chordless(self):
        obs = check_triangulated(c4())
        assert obs.kind == "chordless_cycle"
        assert obs.cycle == (0, 1, 2, 3)
        assert validate_obstruction(c4(), obs)

    def test_net_graph_is_triangulated(self):
        assert check_triangulated(net_graph()) is None

    def test_tree_is_triangulated(self):
        tree = graph_from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert check_triangulated(tree) is None

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


class TestAsteroidalTriples:
    def test_net_graph_triple(self):
        obs = find_asteroidal_triple(net_graph())
        assert obs.triple == (3, 4, 5)
        assert obs.witness_paths == ((3, 0, 1, 4), (3, 0, 2, 5), (4, 1, 2, 5))
        assert validate_obstruction(net_graph(), obs)

    def test_complete_graph_has_none(self):
        assert find_asteroidal_triple(k3()) is None

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
                for w in g.neighbors(v):
                    if w not in banned and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return False

        triples = [
            (x, y, z)
            for x, y, z in combinations(range(g.n), 3)
            if not (g.adjacent(x, y) or g.adjacent(x, z) or g.adjacent(y, z))
            and reaches_avoiding(x, y, g.closed_neighborhood(z))
            and reaches_avoiding(x, z, g.closed_neighborhood(y))
            and reaches_avoiding(y, z, g.closed_neighborhood(x))
        ]
        assert len(triples) > 1
        obs = find_asteroidal_triple(g)
        assert obs.triple == min(triples)
        assert validate_obstruction(g, obs)


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
        from intorder import order_from_pairs

        g = incomparability_graph(order_from_pairs(4, [(0, 1), (2, 3)]))
        assert isinstance(recognize(g), Obstruction)


class TestCliqueOrder:
    def test_matches_three_state_search_exhaustive_n6(self):
        found = 0
        for n in range(1, 7):
            for g in all_graphs(n):
                cliques = maximal_cliques(g)
                order = _consecutive_clique_order(cliques, n)
                assert order == three_state_clique_order(cliques, n), sorted(g.edges)
                found += order is not None
        assert found == 18808  # the labeled interval graphs on 1 to 6 vertices

    def test_matches_three_state_search_on_relabeled_and_edited_graphs(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            g, _ = random_interval_graph(rng.randint(7, 12), rng.randrange(10**9))
            g = relabeled(g, rng)
            u, v = sorted(rng.sample(range(g.n), 2))
            edited = graph_from_edges(g.n, sorted(set(g.edges) ^ {(u, v)}))
            for h in (g, edited):
                cliques = maximal_cliques(h)
                order = _consecutive_clique_order(cliques, h.n)
                assert order == three_state_clique_order(cliques, h.n), sorted(h.edges)

    def test_inputs_the_three_state_search_could_not_finish(self):
        rng = random.Random(7)
        claw = [(0, 1), (0, 17), (0, 33)] + [
            (v, v + 1) for arm in (1, 17, 33) for v in range(arm, arm + 15)
        ]
        path = 1100
        assert path > sys.getrecursionlimit()
        cases = [
            ("C_50", graph_from_edges(50, [(v, (v + 1) % 50) for v in range(50)]),
             "chordless_cycle"),
            ("subdivided claw", graph_from_edges(49, claw), "asteroidal_triple"),
            ("P_1100", graph_from_edges(path, [(v, v + 1) for v in range(path - 1)]), None),
            ("P_2000", graph_from_edges(2000, [(v, v + 1) for v in range(1999)]), None),
            ("relabeled n=200", relabeled(random_interval_graph(200, 7)[0], rng), None),
        ]
        for name, g, kind in cases:
            start = time.perf_counter()
            result = recognize(g)
            elapsed = time.perf_counter() - start
            # P_2000 takes about 0.6 s on a 2-core host; the others take less
            assert elapsed < 20, (name, elapsed)
            if kind is None:
                assert isinstance(result, ClosedRepresentation), name
                assert verify_representation(g, result), name
            else:
                assert isinstance(result, Obstruction) and result.kind == kind, name
                assert validate_obstruction(g, result), name


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
            assert maximal_cliques(g) == brute(g)
