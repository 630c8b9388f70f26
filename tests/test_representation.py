import json
import math
import random
import re
import time
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from conftest import (
    comparable,
    incomparability_graph,
    intersects,
    is_distinguishing,
    is_interval_order,
    order_from_pairs,
    order_on,
    partial_orders,
    representation_from_intervals,
    representation_from_jsonable,
    single_nonedge4,
    wholly_before,
)
from intorder import (
    ClosedRepresentation,
    InputError,
    find_two_plus_two,
    graph_from_edges,
    induced_graph,
    normalize_distinguishing,
    order_to_representation,
    recognize,
    representation_to_order,
    verify_representation,
)
from intorder.gadgets import GadgetSpec, build_gadget, random_interval_graph
from intorder.representation import (
    _endpoint_sweep,
    _meeting_masks,
    representation_to_jsonable,
)


# Reference implementations: precedence and predecessor sets compared pair
# by pair. The library sorts left endpoints once and reads `o.pred` bitsets.

def fraction_representation_to_order(r):
    return frozenset(
        (u, v) for u in range(r.n) for v in range(r.n) if u != v and r.right[u] < r.left[v]
    )


def predecessor_sets(o):
    return [frozenset(u for u in range(o.n) if o.less(u, v)) for v in range(o.n)]


def set_based_find_two_plus_two(o):
    preds = predecessor_sets(o)
    for b in range(o.n):
        for d in range(o.n):
            pb, pd = preds[b], preds[d]
            if not (pb <= pd or pd <= pb):
                return (min(pb - pd), b, min(pd - pb), d)
    return None


def set_based_order_to_representation(o):
    preds = predecessor_sets(o)
    chain = sorted(set(preds), key=len)
    rank = {down: i for i, down in enumerate(chain)}
    lefts = [Fraction(rank[preds[v]]) for v in range(o.n)]
    rights = []
    for v in range(o.n):
        containing = [i for i, down in enumerate(chain) if v in down]
        rights.append(Fraction(containing[0] - 1 if containing else len(chain)))
    return ClosedRepresentation(o.n, tuple(lefts), tuple(rights))


def all_orders(max_n):
    """Every strict partial order on 0..n-1 for n <= max_n."""
    for n in range(max_n + 1):
        cells = [(u, v) for u in range(n) for v in range(n) if u != v]
        for chosen in product((False, True), repeat=len(cells)):
            rel = frozenset(c for c, keep in zip(cells, chosen) if keep)
            try:
                yield order_on(n, rel)
            except InputError:
                pass


def pairwise_verify_representation(g, r):
    """Reference for `verify_representation`: every pair's adjacency against
    closed-interval intersection, on endpoints scaled to one common
    denominator. The library compares bitsets read off sorted endpoints."""
    if g.n != r.n:
        raise InputError("vertex count mismatch")
    scale = math.lcm(*(x.denominator for x in r.left + r.right))
    left = [x.numerator * (scale // x.denominator) for x in r.left]
    right = [x.numerator * (scale // x.denominator) for x in r.right]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v) != (left[u] <= right[v] and left[v] <= right[u]):
                return False
    return True


def pairwise_induced_graph(r):
    """Reference for `induced_graph`: every pair of intervals tested with
    `ClosedRepresentation.intersects` on the Fractions themselves. The
    library reads the pairs off one sorted sweep over integer endpoints."""
    return graph_from_edges(r.n, [
        (u, v) for u in range(r.n) for v in range(u + 1, r.n) if intersects(r, u, v)
    ])


def fraction_normalize_distinguishing(r):
    """Reference for `normalize_distinguishing`: the tokens (endpoint, left
    before right, vertex) sorted as Fractions. The library sorts them as
    integer-scaled endpoints."""
    tokens = sorted([(r.left[v], 0, v) for v in range(r.n)] + [(r.right[v], 1, v) for v in range(r.n)])
    ends = ([None] * r.n, [None] * r.n)
    for position, (_, kind, v) in enumerate(tokens):
        ends[kind][v] = Fraction(position)
    return ClosedRepresentation(r.n, tuple(ends[0]), tuple(ends[1]))


def bisect_left_prefixes(r):
    """Reference for `started` of `_endpoint_sweep`: the endpoints scaled to
    one common denominator, and for each u the first vertices by left
    endpoint up to the last that starts no later than u ends, found by
    binary search. The library reads the rows off one sweep of all 2n
    endpoints."""
    scale = math.lcm(*(x.denominator for x in r.left + r.right))
    left = [x.numerator * (scale // x.denominator) for x in r.left]
    right = [x.numerator * (scale // x.denominator) for x in r.right]
    by_left = sorted(range(r.n), key=left.__getitem__)
    lefts = [left[v] for v in by_left]
    prefix = [0]  # prefix[k]: the first k vertices by left endpoint
    for v in by_left:
        prefix.append(prefix[-1] | 1 << v)
    return left, right, [prefix[bisect_right(lefts, right[u])] for u in range(r.n)]


def bisect_meeting_masks(r):
    """Reference for `_meeting_masks`: u's row of `bisect_left_prefixes`
    ANDed with the suffix of the vertices sorted by right endpoint that end
    no earlier than u starts."""
    left, right, started = bisect_left_prefixes(r)
    by_right = sorted(range(r.n), key=right.__getitem__)
    rights = [right[v] for v in by_right]
    suffix = [0] * (r.n + 1)  # suffix[k]: all but the first k vertices by right endpoint
    for k in range(r.n - 1, -1, -1):
        suffix[k] = suffix[k + 1] | 1 << by_right[k]
    return [started[u] & suffix[bisect_left(rights, left[u])] for u in range(r.n)]


def five_point_representations():
    """Every representation with n <= 3 and endpoints in {0, 1/2, 1, 3/2, 2},
    in three forms: Fractions, ints (the grid doubled), and ints where the
    endpoint is whole mixed with Fractions elsewhere."""
    grid = [Fraction(k, 2) for k in range(5)]
    intervals = [(a, b) for a in grid for b in grid if a <= b]
    forms = (lambda x: x, lambda x: int(2 * x), lambda x: int(x) if x.denominator == 1 else x)
    for n in range(4):
        for chosen in product(intervals, repeat=n):
            for form in forms:
                yield ClosedRepresentation(n, tuple(form(a) for a, _ in chosen),
                                           tuple(form(b) for _, b in chosen))


def small_grid_representations():
    """Every representation with n <= 3 and endpoints in {0, 1/2, 1, 3/2}."""
    grid = [Fraction(k, 2) for k in range(4)]
    intervals = [(a, b) for a in grid for b in grid if a <= b]
    for n in range(4):
        for chosen in product(intervals, repeat=n):
            yield representation_from_intervals(chosen)


def seeded_rational_representations():
    """300 seeded representations on a grid of sixths, a third of them with
    a point interval and a third with two touching intervals."""
    rng = random.Random(20261019)
    for trial in range(300):
        n = rng.randint(1, 12)
        ends = [sorted(Fraction(rng.randrange(10), rng.choice((1, 2, 3, 6))) for _ in "lr")
                for _ in range(n)]
        if trial % 3 == 0:
            ends[0] = [ends[0][1], ends[0][1]]
        if trial % 3 == 1 and n > 1:
            ends[1] = [ends[0][1], max(ends[0][1], ends[1][1])]
        yield representation_from_intervals(ends)


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
        # the pairwise oracle compares Fractions directly; verification scales to ints
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 7)
            ends = [sorted(Fraction(rng.randrange(12), rng.randint(1, 6)) for _ in "lr")
                    for _ in range(n)]
            rep = representation_from_intervals(ends)
            g = pairwise_induced_graph(rep)
            assert verify_representation(g, rep)
            u, v = sorted(rng.sample(range(n), 2))
            assert not verify_representation(graph_from_edges(n, g.edges ^ {(u, v)}), rep)

    def test_matches_pairwise_check_with_touching_point_and_perturbed_intervals(self):
        rng = random.Random(20261018)
        rejected = 0
        for trial in range(300):
            n = rng.randint(1, 12)
            # a small grid of sixths makes touching and point intervals common
            ends = [sorted(Fraction(rng.randrange(10), rng.choice((1, 2, 3, 6))) for _ in "lr")
                    for _ in range(n)]
            if trial % 3 == 0:
                ends[0] = [ends[0][0], ends[0][0]]  # a point interval
            if trial % 3 == 1 and n > 1:
                ends[1] = [ends[0][1], max(ends[0][1], ends[1][1])]  # touches vertex 0
            rep = representation_from_intervals(ends)
            g = induced_graph(rep)
            assert verify_representation(g, rep) and pairwise_verify_representation(g, rep)
            # move one endpoint: the representation may or may not still fit g
            v = rng.randrange(n)
            shift = Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3, 6)))
            left, right = list(rep.left), list(rep.right)
            if rng.random() < 0.5:
                left[v] = min(left[v] + shift, right[v])
            else:
                right[v] = max(right[v] + shift, left[v])
            moved = ClosedRepresentation(n, tuple(left), tuple(right))
            expected = pairwise_verify_representation(g, moved)
            assert verify_representation(g, moved) == expected, (ends, v, shift)
            rejected += not expected
            if n > 1:
                u, w = sorted(rng.sample(range(n), 2))
                toggled = graph_from_edges(n, g.edges ^ {(u, w)})
                assert not verify_representation(toggled, rep)
                assert not pairwise_verify_representation(toggled, rep)
        assert rejected > 50

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            representation_from_intervals([(1, 0)])

    def test_rational_endpoints(self):
        rep = representation_from_intervals([([1, 2], [3, 2]), (1, 2)])
        assert rep.left[0] == Fraction(1, 2)
        assert intersects(rep, 0, 1)


class TestEndpointSweep:
    def test_matches_bisect_rows_on_every_five_point_representation(self):
        kinds = set()
        count = 0
        for rep in five_point_representations():
            started, _ = _endpoint_sweep(rep)
            assert started == bisect_left_prefixes(rep)[2], rep
            assert _meeting_masks(rep) == bisect_meeting_masks(rep), rep
            assert normalize_distinguishing(rep) == fraction_normalize_distinguishing(rep), rep
            kinds.add(frozenset(type(x).__name__ for x in rep.left + rep.right))
            count += 1
        assert count == 3 * (1 + 15 + 15**2 + 15**3)
        assert kinds == {frozenset(), frozenset({"int"}), frozenset({"Fraction"}),
                         frozenset({"int", "Fraction"})}, kinds

    def test_matches_bisect_rows_on_seeded_representations(self):
        rng = random.Random(20261020)
        cases = list(seeded_rational_representations())
        cases += [random_representation(rng, rng.randint(1, 60)) for _ in range(100)]
        cases += [random_interval_graph(rng.randint(1, 80), rng.randrange(10**9))[1] for _ in range(100)]
        for rep in cases:
            assert _endpoint_sweep(rep)[0] == bisect_left_prefixes(rep)[2], rep
            assert _meeting_masks(rep) == bisect_meeting_masks(rep), rep

    def test_int_endpoints_are_used_as_given(self):
        rep = ClosedRepresentation(3, (0, 5, 5), (5, 9, 5))
        assert _meeting_masks(rep) == [0b111, 0b111, 0b111]
        assert representation_to_order(rep).rel == frozenset()
        rep = ClosedRepresentation(3, (0, 6, Fraction(11, 2)), (5, 9, Fraction(13, 2)))
        assert _meeting_masks(rep) == [0b001, 0b110, 0b110]
        assert representation_to_order(rep).rel == {(0, 1), (0, 2)}


class TestInducedGraph:
    def test_matches_pairwise_fraction_intersection(self):
        reps = [*small_grid_representations(), *seeded_rational_representations()]
        assert len(reps) > 1000
        for rep in reps:
            assert induced_graph(rep).edges == pairwise_induced_graph(rep).edges, rep

    def test_n3000_path_within_budget(self):
        rep = representation_from_intervals([(2 * i, 2 * i + 3) for i in range(3000)])
        start = time.perf_counter()
        g = induced_graph(rep)
        elapsed = time.perf_counter() - start
        # about 0.01 s on a 2-core host; testing all pairs with
        # `intersects` on Fractions took about 6 s
        assert elapsed < 1, elapsed
        assert g.edges == {(i, i + 1) for i in range(2999)}


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

    def test_matches_fraction_comparisons_with_touching_and_point_intervals(self):
        rng = random.Random(61)
        touching = points = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            ends = []
            for _ in range(n):
                left = Fraction(rng.randrange(10), rng.randint(1, 3))
                right = left if rng.random() < 0.2 else left + Fraction(rng.randrange(1, 8), rng.randint(1, 3))
                ends.append((left, right))
            rep = representation_from_intervals(ends)
            points += any(x == y for x, y in ends)
            touching += any(x[1] == y[0] for x in ends for y in ends if x is not y)
            assert representation_to_order(rep).rel == fraction_representation_to_order(rep), ends
        assert touching > 100 and points > 100, (touching, points)


class TestIntervalOrders:
    def test_two_disjoint_chains_rejected(self):
        o = order_from_pairs(4, [(0, 1), (2, 3)])
        assert not is_interval_order(o)
        assert find_two_plus_two(o) is not None

    def test_chain_accepted(self):
        assert is_interval_order(order_from_pairs(3, [(0, 1), (1, 2)]))

    def test_single_nonedge4_order_accepted(self):
        assert is_interval_order(order_on(4, {(0, 2)}))

    @given(partial_orders())
    def test_matches_bruteforce_four_tuple_scan(self, o):
        def brute(order) -> bool:
            for a, b in order.rel:
                for c, d in order.rel:
                    four = {a, b, c, d}
                    if len(four) != 4:
                        continue
                    cross = [(a, c), (a, d), (b, c), (b, d)]
                    if all(not comparable(order, x, y) for x, y in cross):
                        return True
            return False

        assert is_interval_order(o) == (not brute(o))


    def test_witness_matches_predecessor_sets(self):
        # every order with n <= 4, then seeded orders with n 5-12 where the
        # differences of predecessor sets can hold several vertices
        rng = random.Random(83)
        seeded = []
        for _ in range(300):
            n = rng.randint(5, 12)
            layout = rng.sample(range(n), n)
            p = rng.uniform(0.1, 0.5)
            seeded.append(order_from_pairs(n, [
                (layout[i], layout[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
            ]))
        found = 0
        for o in [*all_orders(4), *seeded]:
            witness = find_two_plus_two(o)
            assert witness == set_based_find_two_plus_two(o), sorted(o.rel)
            found += witness is not None
        assert found > 150, found


class TestOrderToRepresentation:
    def test_antichain_intervals_pairwise_meet(self):
        rep = order_to_representation(order_on(3, ()))
        assert all(intersects(rep, u, v) for u in range(3) for v in range(3))

    def test_chain_intervals_disjoint_increasing(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        rep = order_to_representation(o)
        assert wholly_before(rep, 0, 1) and wholly_before(rep, 1, 2)

    def test_single_nonedge4_order_representation_verifies(self):
        o = order_on(4, {(0, 2)})
        rep = order_to_representation(o)
        assert verify_representation(single_nonedge4(), rep)

    def test_rejects_non_interval_order_with_witness(self):
        o = order_from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError) as err:
            order_to_representation(o)
        assert "0<1" in str(err.value) and "2<3" in str(err.value)

    def test_matches_predecessor_sets_on_every_interval_order_n4(self):
        for o in all_orders(4):
            if is_interval_order(o):
                assert order_to_representation(o) == set_based_order_to_representation(o), sorted(o.rel)

    def test_round_trip_seeded(self):
        rng = random.Random(99)
        for _ in range(300):
            rep = random_representation(rng, rng.randint(1, 10))
            order = representation_to_order(rep)
            assert representation_to_order(order_to_representation(order)).rel == order.rel


class TestNormalize:
    def test_touching_intervals_stay_intersecting(self):
        rep = normalize_distinguishing(representation_from_intervals([(0, 2), (2, 4)]))
        assert is_distinguishing(rep)
        assert intersects(rep, 0, 1)

    def test_point_interval_becomes_nondegenerate(self):
        rep = normalize_distinguishing(representation_from_intervals([(3, 3)]))
        assert rep.left[0] < rep.right[0]

    def test_distinguishing_input_keeps_graph_and_order(self):
        rep = representation_from_intervals([(0, 3), (2, 5), (7, 9)])
        assert is_distinguishing(rep)
        normalized = normalize_distinguishing(rep)
        assert induced_graph(normalized).edges == induced_graph(rep).edges
        assert representation_to_order(normalized).rel == representation_to_order(rep).rel

    def test_matches_fraction_token_sort(self):
        for rep in [*small_grid_representations(), *seeded_rational_representations()]:
            assert normalize_distinguishing(rep) == fraction_normalize_distinguishing(rep), rep

    def test_preserves_graph_seeded(self):
        rng = random.Random(7)
        for _ in range(500):
            rep = random_representation(rng, rng.randint(1, 10))
            normalized = normalize_distinguishing(rep)
            assert is_distinguishing(normalized)
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

    @pytest.mark.parametrize("n", [True, 1.0, "1", None, [1]])
    def test_json_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(InputError, match="^representation JSON field 'n' must be an integer$"):
            representation_from_jsonable({"n": n, "intervals": [[0, 1]]})


def recognized_graphs():
    """Seeded interval graphs and gadget graphs with their recognized
    representations."""
    rng = random.Random(19)
    graphs = [random_interval_graph(rng.randint(1, 40), rng.randrange(10**9))[0] for _ in range(60)]
    graphs += [build_gadget(GadgetSpec(f, len(f))).graph for f in ((0,), (1, 0), (2, 0, 1), (3, 1, 2, 0))]
    return [(g, recognize(g)) for g in graphs]


class TestConstructor:
    @pytest.mark.parametrize("n,left,right,message", [
        (1, (0.5,), (1,), "endpoint 0.5 is not an exact rational"),
        (1, ("a",), (1,), "endpoint 'a' is not an exact rational"),
        (1, (False,), (1,), "endpoint False is not an exact rational"),
        (1, (0,), (float("nan"),), "endpoint nan is not an exact rational"),
        (1, (Decimal(0),), (1,), "endpoint Decimal('0') is not an exact rational"),
        (2, (0, Fraction(1, 2)), (1, 0.75), "endpoint 0.75 is not an exact rational"),
        (True, (0,), (1,), "vertex count must be an integer"),
        (1.0, (0,), (1,), "vertex count must be an integer"),
        (-1, (), (), "vertex count must be nonnegative"),
        (1, 5, (1,), "left endpoints must be iterable, got 5"),
        (1, (0,), None, "right endpoints must be iterable, got None"),
        (2, (0,), (1,), "endpoint tuples must have one entry per vertex"),
        (1, (0,), (1, 2), "endpoint tuples must have one entry per vertex"),
        (2, (0, 3), (1, 2), "interval for vertex 1 is empty: left 3 > right 2"),
        (1, (Fraction(1, 2),), (0,), "interval for vertex 0 is empty: left 1/2 > right 0"),
    ])
    def test_refusals(self, n, left, right, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ClosedRepresentation(n, left, right)

    def test_endpoints_are_stored_as_given_in_tuples(self):
        for left, right in [((0, 2, 2), (1, 3, 2)), ((0, Fraction(1, 2), 2), (Fraction(5, 4), 3, 2))]:
            for build in (tuple, list, iter):
                rep = ClosedRepresentation(3, build(left), build(right))
                assert (rep.left, rep.right) == (left, right)
                assert [type(x) for x in rep.left + rep.right] == [type(x) for x in left + right]
                assert hash(rep) == hash(ClosedRepresentation(3, left, right))

    def test_random_interval_graph_gives_the_former_fraction_route_in_ints(self):
        # its grid intervals went through `representation_from_intervals`,
        # then `normalize_distinguishing`; both gave Fractions
        for seed in range(200):
            n = seed % 30 + 1
            g, rep = random_interval_graph(n, seed)
            assert all(type(x) is int for x in rep.left + rep.right), seed
            rng = random.Random(seed)
            raw = []
            for _ in range(n):
                a, b = rng.randrange(2 * n), rng.randrange(2 * n)
                raw.append((min(a, b), max(a, b)))
            assert rep == normalize_distinguishing(representation_from_intervals(raw)), seed
            assert g == induced_graph(rep)

    def test_library_routes_give_int_endpoints(self):
        for g, rep in recognized_graphs():
            copy = representation_from_intervals(list(zip(rep.left, rep.right)))
            for out in (normalize_distinguishing(copy), order_to_representation(representation_to_order(copy))):
                assert all(type(x) is int for x in out.left + out.right), sorted(g.edges)


class TestIntAndFractionEndpoints:
    # every library route gives int endpoints; only `build_gadget` and
    # explicit callers, such as `representation_from_intervals` here, make
    # Fractions, and the two must be indistinguishable by value, hash and output

    def test_recognized_ints_equal_their_fraction_copies(self):
        for g, rep in recognized_graphs():
            assert all(type(x) is int for x in rep.left + rep.right), sorted(g.edges)
            copy = representation_from_intervals(list(zip(rep.left, rep.right)))
            assert all(type(x) is Fraction for x in copy.left + copy.right)
            assert rep == copy and hash(rep) == hash(copy)
            assert json.dumps(representation_to_jsonable(rep)) == json.dumps(representation_to_jsonable(copy))
            assert [str(x) for x in rep.left + rep.right] == [str(x) for x in copy.left + copy.right]

    def test_recognized_ints_round_trip_like_fractions(self):
        for g, rep in recognized_graphs():
            copy = representation_from_intervals(list(zip(rep.left, rep.right)))
            order = representation_to_order(rep)
            assert order == representation_to_order(copy)
            back = order_to_representation(order)
            assert back == order_to_representation(representation_to_order(copy))
            assert verify_representation(g, back) and representation_to_order(back) == order
            normalized = normalize_distinguishing(rep)
            assert normalized == normalize_distinguishing(copy)
            assert verify_representation(g, normalized) and representation_to_order(normalized) == order

    def test_verify_accepts_mixed_int_and_fraction_endpoints(self):
        # pushing every right endpoint out by 1/2 keeps the same meets, since
        # the left endpoints stay ints; a one-pair edit of the graph is refused
        for g, rep in recognized_graphs():
            mixed = ClosedRepresentation(rep.n, rep.left, tuple(x + Fraction(1, 2) for x in rep.right))
            assert verify_representation(g, mixed), sorted(g.edges)
            if g.n > 1:
                edited = graph_from_edges(g.n, g.edges ^ {(0, 1)})
                assert not verify_representation(edited, mixed), sorted(g.edges)
