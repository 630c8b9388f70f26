import json
import math
import random
from collections import deque

import pytest
from hypothesis import given

from conftest import complement, empty3, single_nonedge4, graphs, k3, order_from_pairs, order_on, p4, random_graph, star3, two_k2
from intorder import (
    InputError,
    enumerate_associated_orders,
    graph_from_edges,
    is_associated,
    oracle,
    oracle_unique,
    random_interval_graph,
)
from intorder.cli import run
from intorder.gadgets import all_graphs
from intorder.oracle import OrientationSet
from test_representation import all_orders


def set_based_enumeration(g):
    """Reference for `enumerate_associated_orders`: backtracks over the
    complement's edges on a pair set, closing transitively through a queue
    after each choice and undoing the choice from a trail."""
    masks = g.masks
    non_edges = sorted(complement(g).edges)
    rel: set[tuple[int, int]] = set()
    pred: list[set[int]] = [set() for _ in range(g.n)]
    succ: list[set[int]] = [set() for _ in range(g.n)]
    results: set[frozenset[tuple[int, int]]] = set()

    def try_orient(a: int, b: int, trail: list[tuple[int, int]]) -> bool:
        queue = deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            if (x, y) in rel:
                continue
            if x == y or (y, x) in rel:
                return False
            if masks[x] >> y & 1:  # adjacent vertices must stay incomparable
                return False
            rel.add((x, y))
            pred[y].add(x)
            succ[x].add(y)
            trail.append((x, y))
            for w in pred[x]:
                queue.append((w, y))
            for z in succ[y]:
                queue.append((x, z))
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for x, y in reversed(trail):
            rel.discard((x, y))
            pred[y].discard(x)
            succ[x].discard(y)

    def next_undecided() -> tuple[int, int] | None:
        for u, v in non_edges:
            if (u, v) not in rel and (v, u) not in rel:
                return (u, v)
        return None

    def backtrack() -> None:
        choice = next_undecided()
        if choice is None:
            results.add(frozenset(rel))
            return
        u, v = choice
        for a, b in ((u, v), (v, u)):
            trail: list[tuple[int, int]] = []
            if try_orient(a, b, trail):
                backtrack()
            undo(trail)

    backtrack()

    ordered = sorted(results, key=lambda fs: sorted(fs))
    orders = tuple(order_on(g.n, fs) for fs in ordered)
    class_keys = set()
    for fs in ordered:
        forward = tuple(sorted(fs))
        backward = tuple(sorted((v, u) for u, v in fs))
        class_keys.add(min(forward, backward))
    return OrientationSet(orders=orders, dual_classes=len(class_keys))


def assert_matches_reference(g):
    got, want = enumerate_associated_orders(g), set_based_enumeration(g)
    assert [o.rel for o in got.orders] == [o.rel for o in want.orders], g
    assert got.dual_classes == want.dual_classes, g


def seeded_graphs(count, seed):
    """Interval graphs, the same with one pair toggled, and G(n, 1/2)
    graphs, on 6 to 9 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 9)
        g = random_interval_graph(n, rng.randrange(10**9))[0]
        u, v = rng.sample(range(n), 2)
        yield g
        yield graph_from_edges(n, set(g.edges) ^ {(min(u, v), max(u, v))})
        yield random_graph(n, 0.5, rng)


class TestEnumeration:
    def test_complete_graph_single_antichain(self):
        enum = enumerate_associated_orders(k3())
        assert len(enum.orders) == 1
        assert enum.orders[0].rel == frozenset()
        assert enum.dual_classes == 1

    def test_empty_graph_all_linear_orders(self):
        enum = enumerate_associated_orders(empty3())
        assert len(enum.orders) == 6
        assert enum.dual_classes == 3

    def test_p4_two_orders_one_class(self):
        enum = enumerate_associated_orders(p4())
        assert len(enum.orders) == 2
        assert enum.dual_classes == 1
        expected = order_from_pairs(4, [(0, 2), (0, 3), (1, 3)])
        assert {o.rel for o in enum.orders} == {expected.rel, expected.dual().rel}

    def test_four_cycle_orders_exist_but_are_not_interval(self):
        from conftest import is_interval_order

        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        enum = enumerate_associated_orders(g)
        assert len(enum.orders) == 4
        assert enum.dual_classes == 2
        assert not any(is_interval_order(o) for o in enum.orders)

    def test_bound_refusal(self):
        with pytest.raises(InputError):
            enumerate_associated_orders(graph_from_edges(13, []))

    @given(graphs(max_n=6))
    def test_orders_associated_and_duplicate_free(self, g):
        enum = enumerate_associated_orders(g)
        assert len({o.rel for o in enum.orders}) == len(enum.orders)
        for o in enum.orders:
            assert is_associated(g, o)
            # stored relation is its own transitive closure
            assert order_from_pairs(o.n, o.rel).rel == o.rel


class TestOracleUnique:
    def test_single_nonedge4(self):
        assert oracle_unique(single_nonedge4())

    def test_star3(self):
        enum = enumerate_associated_orders(star3())
        assert len(enum.orders) == 6 and enum.dual_classes == 3
        assert not oracle_unique(star3())

    def test_two_k2(self):
        enum = enumerate_associated_orders(two_k2())
        assert len(enum.orders) == 2
        assert oracle_unique(two_k2())


class TestAgainstReference:
    def test_every_graph_n5(self):
        for n in range(6):
            for g in all_graphs(n):
                assert_matches_reference(g)

    def test_seeded_graphs_n6_to_n9(self):
        for g in seeded_graphs(200, 17):
            assert_matches_reference(g)

    def test_matches_the_definition_n4(self):
        """Every order on at most 4 points, filtered by association."""
        posets = {}
        for o in all_orders(4):
            posets.setdefault(o.n, []).append(o)
        for n in range(5):
            for g in all_graphs(n):
                want = {o.rel for o in posets[n] if is_associated(g, o)}
                got = [o.rel for o in enumerate_associated_orders(g).orders]
                assert len(got) == len(want) and set(got) == want, g


class TestOrderLimit:
    def test_limit_refuses_in_library_and_cli(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ORDERS", 100)
        with pytest.raises(InputError, match="more than 100 associated orders"):
            enumerate_associated_orders(graph_from_edges(6, []))
        code, out, err = run(["orders", "--json"], json.dumps({"n": 6, "edges": []}))
        assert (code, out) == (2, "")
        assert "more than 100 associated orders" in err and "desk-scale" in err
        assert len(enumerate_associated_orders(graph_from_edges(4, [])).orders) == 24
        code, out, _ = run(["orders", "--json"], json.dumps({"n": 4, "edges": []}))
        assert code == 1 and json.loads(out)["count"] == 24

    def test_default_limit_admits_eight_edgeless_vertices(self):
        assert oracle.MAX_ORDERS == 100_000 > math.factorial(8)


class TestBranchLimit:
    def test_popped_branches_are_counted(self, monkeypatch):
        # the edgeless 5-vertex graph pops 2 * 5! - 1 branches for its 120 orders
        monkeypatch.setattr(oracle, "MAX_BRANCHES", 239)
        assert len(enumerate_associated_orders(graph_from_edges(5, [])).orders) == 120
        monkeypatch.setattr(oracle, "MAX_BRANCHES", 238)
        with pytest.raises(InputError, match="more than 238 search branches"):
            enumerate_associated_orders(graph_from_edges(5, []))

    def test_limit_refuses_a_graph_without_orders_in_library_and_cli(self, monkeypatch):
        # a 5-cycle plus isolated vertices has no associated order, yet the
        # search grows with every isolated vertex: 91 branches with two
        edges = [(2 + i, 2 + (i + 1) % 5) for i in range(5)]
        assert enumerate_associated_orders(graph_from_edges(7, edges)).orders == ()
        monkeypatch.setattr(oracle, "MAX_BRANCHES", 90)
        code, out, err = run(["orders", "--json"], json.dumps({"n": 7, "edges": edges}))
        assert (code, out) == (2, "")
        assert "more than 90 search branches" in err and "desk-scale" in err

    def test_default_limit_admits_eight_edgeless_vertices(self):
        # which pops 2 * 8! - 1 = 80,639 branches
        assert oracle.MAX_BRANCHES == 4 * oracle.MAX_ORDERS > 2 * math.factorial(8) - 1
