import random
from itertools import combinations

import pytest

from conftest import is_distinguishing, neighbors, suffix_minima
from intorder import (
    ClosedRepresentation,
    GadgetSpec,
    InputError,
    build_gadget,
    buried_candidate,
    components,
    decide_unique,
    is_buried,
    random_interval_graph,
    recognize,
    verify_representation,
)
from intorder.gadgets import K, R, _stage_minima, all_graphs, x_vertex, y_vertex


class TestSuffixMinima:
    def test_increasing_sequence_all_survive(self):
        assert suffix_minima([0, 1, 2], 3) == {0, 1, 2}

    def test_first_value_beaten_later(self):
        assert suffix_minima([2, 0, 1], 3) == {1, 2}

    def test_single_stage_is_vacuous(self):
        assert suffix_minima([5], 1) == {0}
        assert suffix_minima([9, 1, 4], 1) == {0}

    def test_non_injective_rejected(self):
        with pytest.raises(InputError):
            suffix_minima([1, 1], 2)

    def test_stage_bounds(self):
        assert suffix_minima([3, 1], 0) == frozenset()
        with pytest.raises(InputError):
            suffix_minima([3, 1], 3)

    def test_the_builder_s_monotone_stack_matches_on_every_prefix(self):
        rng = random.Random(30)
        for size in [0, 1, 2, 3, 5, 8, 13, 40] * 5:
            values = list(range(size))
            rng.shuffle(values)
            assert list(_stage_minima(values, size)) == [suffix_minima(values, t + 1) for t in range(size)], values
        for values in (list(range(30)), list(range(30, 0, -1))):
            assert list(_stage_minima(values, 30)) == [suffix_minima(values, t + 1) for t in range(30)]


class TestGadgetSpec:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            GadgetSpec((1, 1), 2)

    def test_rejects_bad_stage_count(self):
        with pytest.raises(InputError):
            GadgetSpec((1, 2), 3)

    def test_rejects_negative_values(self):
        with pytest.raises(InputError):
            GadgetSpec((-1, 2), 2)


class TestGadget:
    def test_single_stage_shape(self):
        out = build_gadget(GadgetSpec((5,), 1))
        g = out.graph
        assert g.n == 6
        assert g.labels == ("a", "b", "k", "r", "x0", "y0")
        assert out.predicted_members == frozenset({0, 1, y_vertex(0)})
        assert out.predicted_separators == frozenset({2, x_vertex(0)})
        assert out.predicted_outside == frozenset({3})
        assert not g.adjacent(0, 1)  # the generating non-adjacent pair
        assert g.adjacent(3, 2) and neighbors(g, 3) == frozenset({2})

    def test_all_true_prediction(self):
        out = build_gadget(GadgetSpec((0, 1, 2), 3))
        assert out.predicted_members == frozenset(
            {0, 1, y_vertex(0), y_vertex(1), y_vertex(2)}
        )
        assert out.predicted_separators == frozenset(
            {2, x_vertex(0), x_vertex(1), x_vertex(2)}
        )

    def test_false_index_joins_buried_set(self):
        out = build_gadget(GadgetSpec((2, 0, 1), 3))
        assert x_vertex(0) in out.predicted_members
        assert x_vertex(1) in out.predicted_separators
        assert x_vertex(2) in out.predicted_separators

    def test_predicted_sets_partition_vertices(self):
        for values in ((0, 1, 2), (2, 0, 1), (5,), (3, 1, 4, 0, 2)):
            out = build_gadget(GadgetSpec(values, len(values)))
            union = out.predicted_members | out.predicted_separators | out.predicted_outside
            assert union == frozenset(range(out.graph.n))
            assert not (out.predicted_members & out.predicted_separators)
            assert not (out.predicted_members & out.predicted_outside)

    def test_representation_and_connectivity(self):
        for values in ((0, 1, 2), (2, 0, 1), (5,), (7, 3, 6, 1, 9, 0)):
            out = build_gadget(GadgetSpec(values, len(values)))
            assert verify_representation(out.graph, out.representation)
            assert len(components(out.graph)) == 1
            assert isinstance(recognize(out.graph), ClosedRepresentation)

    def test_grown_set_matches_prediction(self):
        for values in ((0, 1, 2), (2, 0, 1), (5,), (4, 2, 5, 0, 3)):
            out = build_gadget(GadgetSpec(values, len(values)))
            grown = buried_candidate(out.graph, 0, 1)
            assert grown.members == out.predicted_members
            check = is_buried(out.graph, out.predicted_members)
            assert check.buried
            assert check.separators == out.predicted_separators
            assert check.outside == out.predicted_outside

    def test_never_uniquely_orderable(self):
        for values in ((5,), (1, 0), (0, 1, 2)):
            verdict = decide_unique(build_gadget(GadgetSpec(values, len(values))).graph)
            assert not verdict.unique
            assert verdict.wq_components >= 4

    def test_predicted_set_is_the_only_buried_subgraph_small_stages(self):
        # exhaustive subset scan for up to three stages
        for values in ((5,), (1, 0), (0, 1, 2), (2, 0, 1)):
            out = build_gadget(GadgetSpec(values, len(values)))
            g = out.graph
            buried_sets = [
                frozenset(subset)
                for size in range(g.n + 1)
                for subset in combinations(range(g.n), size)
                if is_buried(g, subset)
            ]
            assert buried_sets == [out.predicted_members]

    def test_zero_stages_is_a_star(self):
        out = build_gadget(GadgetSpec((), 0))
        assert out.graph.n == 4
        assert sorted(out.graph.edges) == [(0, 2), (1, 2), (2, 3)]
        assert not decide_unique(out.graph).unique

    def test_predicted_partition_follows_the_suffix_minima_of_every_stage_count(self):
        # the builder reads its final minima off its own stack: stages = 0 and
        # stages < len(f) are where that read-off could part from the definition
        rng = random.Random(31)
        for size in range(13):
            for _ in range(3):
                f = tuple(rng.sample(range(3 * size + 1), size))
                for stages in range(size + 1):
                    out = build_gadget(GadgetSpec(f, stages))
                    separators = {K} | {x_vertex(i) for i in suffix_minima(f, stages)}
                    assert out.predicted_separators == separators, (f, stages)
                    assert out.predicted_outside == {R}
                    assert out.predicted_members == set(range(out.graph.n)) - separators - {R}


class TestRandomIntervalGraph:
    def test_single_vertex(self):
        g, rep = random_interval_graph(1, 0)
        assert g.n == 1 and verify_representation(g, rep)

    def test_generated_representation_always_valid(self):
        for seed in range(50):
            g, rep = random_interval_graph(1 + seed % 12, seed)
            assert verify_representation(g, rep)
            assert is_distinguishing(rep)

    def test_deterministic_for_fixed_seed(self):
        a = random_interval_graph(9, 123)
        b = random_interval_graph(9, 123)
        assert a[0].edges == b[0].edges and a[1] == b[1]

    def test_regression_pin_seed_42(self):
        g, rep = random_interval_graph(5, 42)
        assert sorted(g.edges) == [
            (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        ]
        assert [int(x) for x in rep.left] == [0, 5, 4, 1, 2]
        assert [int(x) for x in rep.right] == [3, 7, 6, 8, 9]

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            random_interval_graph(0, 1)


def test_all_graphs_enumeration_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64
