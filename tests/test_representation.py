import random
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import single_nonedge4, partial_orders
from intorder import (
    ClosedRepresentation,
    Graph,
    InputError,
    StrictPartialOrder,
    find_two_plus_two,
    incomparability_graph,
    induced_graph,
    is_interval_order,
    normalize_distinguishing,
    order_from_pairs,
    order_to_representation,
    representation_from_intervals,
    representation_to_order,
    verify_representation,
)
from intorder.representation import (
    representation_from_jsonable,
    representation_to_jsonable,
)


def single_nonedge4_representation() -> ClosedRepresentation:
    return representation_from_intervals([(4, 8), (6, 10), (9, 13), (5, 12)])


def random_representation(rng: random.Random, n: int) -> ClosedRepresentation:
    intervals = []
    for _ in range(n):
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        intervals.append((min(a, b), max(a, b)))
    return representation_from_intervals(intervals)


class TestVerify:
    def test_single_nonedge4(self):
        assert verify_representation(single_nonedge4(), single_nonedge4_representation())

    def test_complete_shared_point(self):
        from conftest import k3

        rep = representation_from_intervals([(0, 1)] * 3)
        assert verify_representation(k3(), rep)

    def test_p4_touching_intervals_match(self):
        from conftest import p4

        rep = representation_from_intervals([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert verify_representation(p4(), rep)

    def test_p4_overlapping_intervals_mismatch(self):
        from conftest import p4

        rep = representation_from_intervals([(0, 2), (1, 3), (2, 4), (3, 5)])
        assert not verify_representation(p4(), rep)  # 0 meets 2 at the point 2

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            verify_representation(single_nonedge4(), representation_from_intervals([(0, 1)]))

    def test_rational_endpoints_match_fraction_intersection(self):
        # induced_graph compares Fractions directly; verification scales to ints
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 7)
            ends = [sorted(Fraction(rng.randrange(12), rng.randint(1, 6)) for _ in "lr")
                    for _ in range(n)]
            rep = representation_from_intervals(ends)
            g = induced_graph(rep)
            assert verify_representation(g, rep)
            u, v = sorted(rng.sample(range(n), 2))
            assert not verify_representation(Graph(n, g.edges ^ {(u, v)}), rep)

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            representation_from_intervals([(1, 0)])

    def test_rational_endpoints(self):
        rep = representation_from_intervals([([1, 2], [3, 2]), (1, 2)])
        assert rep.left[0] == Fraction(1, 2)
        assert rep.intersects(0, 1)


class TestPrecedenceOrder:
    def test_single_nonedge4_order(self):
        order = representation_to_order(single_nonedge4_representation())
        assert order.rel == frozenset({(0, 2)})

    def test_identical_intervals_antichain(self):
        rep = representation_from_intervals([(0, 1)] * 3)
        assert representation_to_order(rep).rel == frozenset()

    def test_disjoint_increasing_chain(self):
        rep = representation_from_intervals([(0, 1), (2, 3), (4, 5)])
        assert representation_to_order(rep).rel == frozenset({(0, 1), (1, 2), (0, 2)})


class TestIntervalOrders:
    def test_two_disjoint_chains_rejected(self):
        o = order_from_pairs(4, [(0, 1), (2, 3)])
        assert not is_interval_order(o)
        assert find_two_plus_two(o) is not None

    def test_chain_accepted(self):
        assert is_interval_order(order_from_pairs(3, [(0, 1), (1, 2)]))

    def test_single_nonedge4_order_accepted(self):
        assert is_interval_order(StrictPartialOrder(4, frozenset({(0, 2)})))

    @given(partial_orders())
    def test_matches_bruteforce_four_tuple_scan(self, o):
        def brute(order) -> bool:
            for a, b in order.rel:
                for c, d in order.rel:
                    four = {a, b, c, d}
                    if len(four) != 4:
                        continue
                    cross = [(a, c), (a, d), (b, c), (b, d)]
                    if all(not order.comparable(x, y) for x, y in cross):
                        return True
            return False

        assert is_interval_order(o) == (not brute(o))


class TestOrderToRepresentation:
    def test_antichain_intervals_pairwise_meet(self):
        rep = order_to_representation(StrictPartialOrder(3, frozenset()))
        assert all(rep.intersects(u, v) for u in range(3) for v in range(3))

    def test_chain_intervals_disjoint_increasing(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        rep = order_to_representation(o)
        assert rep.wholly_before(0, 1) and rep.wholly_before(1, 2)

    def test_single_nonedge4_order_representation_verifies(self):
        o = StrictPartialOrder(4, frozenset({(0, 2)}))
        rep = order_to_representation(o)
        assert verify_representation(single_nonedge4(), rep)

    def test_rejects_non_interval_order_with_witness(self):
        o = order_from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError) as err:
            order_to_representation(o)
        assert "0<1" in str(err.value) and "2<3" in str(err.value)

    def test_round_trip_seeded(self):
        rng = random.Random(99)
        for _ in range(300):
            rep = random_representation(rng, rng.randint(1, 10))
            order = representation_to_order(rep)
            assert representation_to_order(order_to_representation(order)).rel == order.rel


class TestNormalize:
    def test_touching_intervals_stay_intersecting(self):
        rep = normalize_distinguishing(representation_from_intervals([(0, 2), (2, 4)]))
        assert rep.is_distinguishing()
        assert rep.intersects(0, 1)

    def test_point_interval_becomes_nondegenerate(self):
        rep = normalize_distinguishing(representation_from_intervals([(3, 3)]))
        assert rep.left[0] < rep.right[0]

    def test_distinguishing_input_keeps_graph_and_order(self):
        rep = representation_from_intervals([(0, 3), (2, 5), (7, 9)])
        assert rep.is_distinguishing()
        normalized = normalize_distinguishing(rep)
        assert induced_graph(normalized).edges == induced_graph(rep).edges
        assert representation_to_order(normalized).rel == representation_to_order(rep).rel

    def test_preserves_graph_seeded(self):
        rng = random.Random(7)
        for _ in range(500):
            rep = random_representation(rng, rng.randint(1, 10))
            normalized = normalize_distinguishing(rep)
            assert normalized.is_distinguishing()
            assert induced_graph(normalized).edges == induced_graph(rep).edges
            assert representation_to_order(normalized).rel == representation_to_order(rep).rel


class TestRoundTripsAndJson:
    def test_order_graph_round_trip_seeded(self):
        rng = random.Random(5)
        for _ in range(500):
            rep = random_representation(rng, rng.randint(1, 9))
            order = representation_to_order(rep)
            assert incomparability_graph(order).edges == induced_graph(rep).edges

    def test_json_round_trip(self):
        rep = representation_from_intervals([(0, 1), ([1, 2], [7, 3])])
        obj = representation_to_jsonable(rep)
        assert obj["intervals"][0] == [0, 1]
        assert obj["intervals"][1] == [[1, 2], [7, 3]]
        assert representation_from_jsonable(obj) == rep

    def test_json_rejects_floats(self):
        with pytest.raises(InputError):
            representation_from_jsonable({"n": 1, "intervals": [[0.5, 1]]})

    def test_json_rejects_count_mismatch(self):
        with pytest.raises(InputError):
            representation_from_jsonable({"n": 2, "intervals": [[0, 1]]})
