import json
import random
import re
import time
import tracemalloc
from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import given

from conftest import (
    closed_neighborhood,
    comparable,
    complement,
    empty3,
    graphs,
    incomparability_graph,
    induced_subgraph,
    is_minimal_path,
    k3,
    neighbors,
    order_from_pairs,
    order_on,
    p4,
    partial_orders,
    random_graph,
    random_walk,
    refine_to_minimal,
    single_nonedge4,
    star3,
    two_k2,
    universal_vertices,
)
from intorder import (
    Graph,
    InputError,
    StrictPartialOrder,
    components,
    graph_from_edges,
    graph_from_jsonable,
    graph_to_jsonable,
    is_associated,
    parse_edgelist,
    parse_graph_json,
)
from intorder.gadgets import all_graphs, random_interval_graph
from intorder.graphs import _nested_pred, bit_indices, validate_path
from intorder.representation import representation_to_order


# Reference implementations: order validation and association written on
# pair sets. The library checks the same properties on successor bitsets.

def bfs_components(g):
    """Reference for `components`: one BFS per unseen vertex over frozenset
    neighbour sets built from the edges. The library floods bitsets."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(frozenset(s) for s in nbrs)
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def pair_set_order_check(n, rel):
    """Raise InputError unless `rel` is a strict partial order on 0..n-1,
    scanning the pairs as tuples."""
    succ = {}
    for u, v in rel:
        if u == v:
            raise InputError(f"relation must be irreflexive; got ({u}, {u})")
        if (v, u) in rel:
            raise InputError(f"relation must be antisymmetric; got both ({u},{v}) and ({v},{u})")
        succ.setdefault(u, set()).add(v)
    for u, v in rel:
        for w in succ.get(v, ()):
            if (u, w) not in rel:
                raise InputError(
                    f"relation is not transitively closed: ({u},{v}) and ({v},{w}) but not ({u},{w})"
                )


def pairwise_pred(succ):
    """Reference for `StrictPartialOrder` validation: the predecessor rows of
    the strict partial order whose successor rows are `succ`, walking every
    pair, else the InputError the library raises. The library accepts strict
    interval orders by nested up-sets (`_nested_pred`) and walks the pairs
    only for the rest."""
    n = len(succ)
    pred = [0] * n
    unclosed = None  # the least row u reaching, in two steps, past succ[u]
    for u, above in enumerate(succ):
        if above >> u & 1:
            raise InputError(f"relation must be irreflexive; got ({u}, {u})")
        reach = 0
        for v in bit_indices(above):
            pred[v] |= 1 << u
            reach |= succ[v]
        if unclosed is None and reach & ~above:
            unclosed = u
    for u in range(n):
        if succ[u] & pred[u]:
            v = next(bit_indices(succ[u] & pred[u]))
            raise InputError(f"relation must be antisymmetric; got both ({u},{v}) and ({v},{u})")
    if unclosed is not None:
        u, above = unclosed, succ[unclosed]
        v = next(v for v in bit_indices(above) if succ[v] & ~above)
        w = next(bit_indices(succ[v] & ~above))
        raise InputError(
            f"relation is not transitively closed: ({u},{v}) and ({v},{w}) but not ({u},{w})"
        )
    return pred


def holds_two_plus_two(succ):
    """Brute force: a < b and c < d with neither a < d nor c < b."""
    n = len(succ)
    return any(succ[a] >> b & succ[c] >> d & 1 and not (succ[a] >> d & 1 or succ[c] >> b & 1)
               for a, b, c, d in product(range(n), repeat=4))


def validation_outcome(n, succ):
    try:
        return StrictPartialOrder(n, succ).pred
    except InputError as exc:
        return f"input error: {exc}"


def set_based_order_from_pairs(n, pairs):
    """Reference for `order_from_pairs`: one depth-first search per start
    vertex over successor sets, closing the pairs as a set of tuples."""
    succ = [set() for _ in range(n)]
    for pair in pairs:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"pair ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"pair ({u}, {u}) violates irreflexivity")
        succ[u].add(v)
    rel = set()
    for s in range(n):
        reach = set()
        stack = list(succ[s])
        while stack:
            x = stack.pop()
            if x in reach:
                continue
            reach.add(x)
            stack.extend(succ[x])
        if s in reach:
            raise InputError(f"pairs contain a cycle through vertex {s}")
        rel.update((s, x) for x in reach)
    return order_on(n, rel)


def three_pass_graph_from_jsonable(obj):
    """Reference for `graph_from_jsonable`: every entry's shape first, then
    the labels, then the vertex count and each edge's range and self-loop
    as `graph_from_edges` checks them. The library checks each entry once;
    it reports a negative count before the labels and rejects two vertices
    sharing a label, and every other message must be this one's."""
    if not isinstance(obj, dict):
        raise InputError("graph JSON must be an object")
    try:
        n = obj["n"]
        raw_edges = obj["edges"]
    except KeyError as missing:
        raise InputError(f"graph JSON missing key {missing}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("graph JSON field 'n' must be an integer")
    if not isinstance(raw_edges, list):
        raise InputError("graph JSON field 'edges' must be a list of pairs")
    edges = []
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise InputError(f"malformed edge entry: {item!r}")
        edges.append((item[0], item[1]))
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            raise InputError("graph JSON field 'labels' must be an object")
        labels = [None] * n
        for key, val in raw.items():
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise InputError(f"label key {key!r} is not a vertex index")
            idx = int(key)
            if not (0 <= idx < n):
                raise InputError(f"label key {key!r} out of range")
            labels[idx] = None if val is None else str(val)
    return graph_from_edges(n, edges, labels)


def parse_outcome(parse, obj):
    try:
        return parse(obj)
    except InputError as exc:
        return f"input error: {exc}"


def pair_set_is_associated(g, o):
    return incomparability_graph(o).edges == g.edges


def assert_message_names_a_real_violation(n, rel, message):
    """The pairs a rejection message names must break the property it states."""
    nums = [int(x) for x in re.findall(r"-?\d+", message)]
    if "irreflexive" in message:
        assert nums[0] == nums[1] and (nums[0], nums[0]) in rel, message
    elif "antisymmetric" in message:
        u, v = nums[0], nums[1]
        assert u != v and (u, v) in rel and (v, u) in rel, message
    else:
        assert "transitively closed" in message, message
        u, v, v2, w, u2, w2 = nums
        assert (v, u2, w2) == (v2, u, w), message
        assert (u, v) in rel and (v, w) in rel and (u, w) not in rel, message


def assert_same_verdict_as_pair_sets(n, rel):
    try:
        pair_set_order_check(n, rel)
        expected = None
    except InputError as exc:
        expected = exc
    try:
        o = order_on(n, rel)
    except InputError as exc:
        assert expected is not None, (n, sorted(rel), str(exc))
        assert_message_names_a_real_violation(n, rel, str(exc))
        # transitivity is reported only once every pair passes the others
        closed = "transitively closed"
        assert (closed in str(exc)) == (closed in str(expected)), (str(exc), str(expected))
        return None
    assert expected is None, (n, sorted(rel), str(expected))
    for u in range(n):
        assert o.succ[u] == sum(1 << v for v in range(n) if (u, v) in rel)
        assert o.pred[u] == sum(1 << v for v in range(n) if (v, u) in rel)
    return o


def forged_relations(count, seed):
    """Valid orders with one pair added, removed or reversed, and reflexive
    pairs, every pair in range."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        layout = list(range(n))
        rng.shuffle(layout)
        pairs = {(layout[i], layout[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4}
        rel = set(order_from_pairs(n, pairs).rel)
        kind = rng.randrange(6)
        if kind == 0 and rel:
            rel.discard(rng.choice(sorted(rel)))
        elif kind == 1:
            rel.add((rng.randrange(n), rng.randrange(n)))
        elif kind == 2 and rel:
            u, v = rng.choice(sorted(rel))
            rel.add((v, u))
        yield n, frozenset(rel)


class TestGraphConstruction:
    def test_path_p3(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_single_nonedge4_non_edge(self):
        g = single_nonedge4()
        assert not g.adjacent(0, 2)
        non_edges = [
            (u, v) for u in range(4) for v in range(u + 1, 4) if not g.adjacent(u, v)
        ]
        assert non_edges == [(0, 2)]

    def test_empty_graph(self):
        g = graph_from_edges(3, [])
        assert g.edges == frozenset()

    def test_duplicates_and_orientation_collapse(self):
        g = graph_from_edges(3, [(1, 0), (0, 1), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_out_of_range_endpoint(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("entry", [(0, 1, 2), (0,), 5, None, [], "012", {0, 1, 2}])
    def test_entry_that_is_not_a_pair_is_an_input_error(self, entry):
        # the message `graph_from_jsonable` gives for a malformed entry
        with pytest.raises(InputError, match=f"^malformed edge entry: {re.escape(repr(entry))}$"):
            graph_from_edges(3, [(0, 1), entry])
        with pytest.raises(InputError, match=f"^malformed edge entry: {re.escape(repr(entry))}$"):
            graph_from_jsonable({"n": 3, "edges": [[0, 1], entry]})

    @pytest.mark.parametrize("n,message", [
        (2.5, "vertex count must be an integer"),
        ("3", "vertex count must be an integer"),
        (3.0, "vertex count must be an integer"),
        (True, "vertex count must be an integer"),
        (False, "vertex count must be an integer"),
        (None, "vertex count must be an integer"),
        (-1, "vertex count must be nonnegative"),
    ])
    def test_vertex_count_is_a_nonnegative_integer(self, n, message):
        for build in (lambda: Graph(n, ()), lambda: graph_from_edges(n, []),
                      lambda: StrictPartialOrder(n, ())):
            with pytest.raises(InputError, match=f"^{message}$"):
                build()

    @pytest.mark.parametrize("build,message", [
        (lambda: Graph(3, 5), "rows must be iterable, got 5"),
        (lambda: Graph(3, None), "rows must be iterable, got None"),
        (lambda: graph_from_edges(3, 5), "edges must be iterable, got 5"),
        (lambda: StrictPartialOrder(3, 5), "successor rows must be iterable, got 5"),
        (lambda: graph_from_edges(3, [], labels=5), "labels must be iterable, got 5"),
        (lambda: Graph(3, (0, 0, 0), 5), "labels must be iterable, got 5"),
        (lambda: Graph(2**63, []), f"vertex count must be at most {2**63 - 1}"),
        (lambda: graph_from_edges(2**64, []), f"vertex count must be at most {2**63 - 1}"),
        (lambda: StrictPartialOrder(2**63, ()), f"vertex count must be at most {2**63 - 1}"),
        (lambda: graph_from_jsonable({"n": 2**63, "edges": []}), f"vertex count must be at most {2**63 - 1}"),
    ])
    def test_constructor_arguments_of_the_wrong_kind_are_input_errors(self, build, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()

    def test_labels_are_stored_as_a_tuple(self):
        for labels in (["a", "b", "c"], ("a", "b", "c"), iter("abc"), "abc"):
            g = Graph(3, (0, 0, 0), labels)
            assert g.labels == ("a", "b", "c")
            assert g == graph_from_edges(3, [], labels=labels if isinstance(labels, (list, str)) else "abc")
            assert hash(g) == hash(Graph(3, (0, 0, 0), ("a", "b", "c")))
        # a list entry names an edge to `graph_from_edges`, which keeps only its rows
        assert graph_from_edges(3, [[0, 1]]) == Graph(3, [0b010, 0b001, 0])

    def test_rows_are_the_fields(self):
        p3 = graph_from_edges(3, [(0, 1), (1, 2)])
        for rows in ([0b010, 0b101, 0b010], (0b010, 0b101, 0b010), iter([0b010, 0b101, 0b010])):
            g = Graph(3, rows)
            assert g._fields == ("n", "masks", "labels") and "__getattr__" not in vars(Graph)
            assert g.masks == (0b010, 0b101, 0b010) and type(g.masks) is tuple
            assert repr(g) == "Graph(n=3, masks=(2, 5, 2), labels=None)"
            assert g == p3 and hash(g) == hash(p3) and g != (3, g.masks, None)
            assert "edges" not in vars(g)  # derived on first read only
            assert g.edges == frozenset({(0, 1), (1, 2)}) and vars(g)["edges"] is g.edges

    @pytest.mark.parametrize("n,masks,message", [
        (3, 5, "rows must be iterable, got 5"),
        (3, None, "rows must be iterable, got None"),
        (3, (0, 0), "a graph on 3 vertices takes 3 rows, got 2"),
        (0, (0,), "a graph on 0 vertices takes 0 rows, got 1"),
        (3, (0, True, 0), "row True of vertex 1 is not an integer"),
        (3, (0, 0, False), "row False of vertex 2 is not an integer"),
        (3, (0, 2.0, 0), "row 2.0 of vertex 1 is not an integer"),
        (3, ("2", 0, 0), "row '2' of vertex 0 is not an integer"),
        (3, (0, None, 0), "row None of vertex 1 is not an integer"),
        (3, (0, 0, -1), "row -1 of vertex 2 is out of range for n=3"),
        (3, (8, 0, 0), "row 8 of vertex 0 is out of range for n=3"),
        (1, (1 << 40,), f"row {1 << 40} of vertex 0 is out of range for n=1"),
        # every row is range-checked before a bit of any is read
        (3, (0b010, 0b001, -1), "row -1 of vertex 2 is out of range for n=3"),
        (3, (-1, "2", 0), "row -1 of vertex 0 is out of range for n=3"),
        (3, (0b001, 0, 0), "explicit self-loop (0, 0) rejected; adjacency is reflexive implicitly"),
        (3, (0b010, 0b011, 0), "explicit self-loop (1, 1) rejected; adjacency is reflexive implicitly"),
        (3, (0b010, 0, 0), "rows must be symmetric: 1 is in row 0 but 0 is not in row 1"),
        (3, (0, 0b001, 0), "rows must be symmetric: 0 is in row 1 but 1 is not in row 0"),
        (3, (0b100, 0b100, 0b001), "rows must be symmetric: 2 is in row 1 but 1 is not in row 2"),
    ])
    def test_rows_must_be_n_symmetric_bitsets_without_self_loops(self, n, masks, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Graph(n, masks)

    def test_the_constructor_accepts_exactly_the_graphs_n3(self):
        for n in range(4):
            for rows in product(range(-2, (1 << n) + 2), repeat=n):
                valid = all(0 <= r < 1 << n and not r >> v & 1 for v, r in enumerate(rows)) and all(
                    rows[u] >> v & 1 == rows[v] >> u & 1 for u in range(n) for v in range(n))
                try:
                    g = Graph(n, rows)
                except InputError:
                    assert not valid, rows
                else:
                    assert valid and g == graph_from_edges(n, g.edges), rows

    def test_the_complete_graph_on_1000_vertices_is_checked_in_little_memory(self):
        everyone = (1 << 1000) - 1
        rows = [everyone ^ 1 << v for v in range(1000)]
        tracemalloc.start()
        try:
            g = Graph(1000, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the symmetry check transposes the rows' upper bits into n ints; holding
        # one tuple per edge instead peaked at about 45 MB
        assert peak < 2 << 20, peak
        assert g.masks == tuple(rows)

    def test_int_subclass_rows_are_rows(self):
        class Row(int):
            pass

        assert Graph(3, [Row(0b010), Row(0b101), Row(0b010)]) == graph_from_edges(3, [(0, 1), (1, 2)])

    def test_reflexive_adjacency(self):
        g = graph_from_edges(3, [])
        assert g.adjacent(1, 1)
        assert not g.adjacent(0, 1)

    @pytest.mark.parametrize("v", [-1, -4, 4, 5])
    def test_vertex_outside_the_graph_is_an_input_error(self, v):
        g = star3()
        for call in (
            lambda: g.adjacent(v, 0),
            lambda: g.adjacent(0, v),
            lambda: g.adjacent(v, v),
            lambda: neighbors(g, v),
            lambda: closed_neighborhood(g, v),
        ):
            with pytest.raises(InputError, match=f"vertex {v} out of range for n=4"):
                call()

    @pytest.mark.parametrize("call,bad", [
        (lambda g: g.adjacent(True, 2), "True"),
        (lambda g: g.adjacent(2, False), "False"),
        (lambda g: g.adjacent(1.0, 9), "1.0"),
        (lambda g: neighbors(g, 1.0), "1.0"),
        (lambda g: closed_neighborhood(g, True), "True"),
        (lambda g: validate_path(g, [True, 2]), "True"),
        (lambda g: validate_path(g, [0, "1"]), "'1'"),
        (lambda g: induced_subgraph(g, [0, 2.0]), "2.0"),
        (lambda g: order_from_pairs(g.n, [(0, 1)]).less(True, 1), "True"),
        (lambda g: order_from_pairs(g.n, [(0, 1)]).less(0, 1.0), "1.0"),
        (lambda g: comparable(order_from_pairs(g.n, [(0, 1)]), False, 9), "False"),
    ])
    def test_vertices_that_are_not_ints_are_refused(self, call, bad):
        # a bool is an int to Python, but never a vertex
        with pytest.raises(InputError, match=f"^vertex {re.escape(bad)} is not an integer$"):
            call(star3())

    @pytest.mark.parametrize("labels,v,expected", [
        (("a", "b", "c"), 0, "a"),
        (("a", None, "c"), 1, 1),
        (None, 2, 2),
        (("a", "b", "c"), type("Index", (int,), {})(1), "b"),  # an int subclass is a vertex
        (("a", "b", "c"), -1, "vertex -1 out of range for n=3"),
        (("a", "b", "c"), 3, "vertex 3 out of range for n=3"),
        (("a", "b", "c"), 5, "vertex 5 out of range for n=3"),
        (None, -1, "vertex -1 out of range for n=3"),
        (("a", "b", "c"), True, "vertex True is not an integer"),
        (None, 1.0, "vertex 1.0 is not an integer"),
        (("a", "b", "c"), "0", "vertex '0' is not an integer"),
    ])
    def test_label_of_takes_the_vertex_rule(self, labels, v, expected):
        g = graph_from_edges(3, [(0, 1)], labels=labels)
        if isinstance(expected, str) and expected.startswith("vertex "):
            with pytest.raises(InputError, match=f"^{re.escape(expected)}$"):
                g.label_of(v)
        else:
            assert g.label_of(v) == expected

    def test_neighbourhoods_read_off_the_edges(self):
        g = star3()
        assert neighbors(g, 0) == frozenset({1, 2, 3})
        assert neighbors(g, 3) == frozenset({0})
        assert closed_neighborhood(g, 3) == frozenset({0, 3})
        assert [g.adjacent(0, v) for v in range(4)] == [True] * 4
        assert [g.adjacent(1, v) for v in range(4)] == [True, True, False, False]


def rows_of(n, edges):
    """The neighbourhood bitsets of an edge list, filled by hand."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


class TestRowsAndEdges:
    """Every way to build a graph gives the graph `Graph(n, masks, labels)` checks."""

    @staticmethod
    def assert_same_graph(built, want):
        assert built.masks == want.masks
        assert "edges" not in vars(built)  # derived on first read only
        assert built.edges == want.edges
        assert built == want and want == built
        assert hash(built) == hash(want)
        assert repr(built) == repr(want)

    def assert_every_build_agrees(self, n, edges, labels, rng):
        """`_from_rows`, `graph_from_edges` and both parsers, with each edge
        written either way round, against the checked constructor."""
        want = Graph(n, rows_of(n, edges), labels)
        written = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in edges]
        obj = {"n": n, "edges": written}
        if labels is not None:
            obj["labels"] = {str(v): x for v, x in enumerate(labels) if x is not None}
        self.assert_same_graph(Graph._from_rows(rows_of(n, edges), labels), want)
        self.assert_same_graph(graph_from_edges(n, written, labels), want)
        self.assert_same_graph(graph_from_jsonable(obj), want)
        self.assert_same_graph(parse_graph_json(json.dumps(obj)), want)
        text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in written)
        self.assert_same_graph(parse_edgelist(text), Graph(n, rows_of(n, edges)))  # it has no labels

    def test_every_graph_n6(self):
        rng = random.Random(6)
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask, g in enumerate(all_graphs(n)):  # in edge-mask order
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                self.assert_same_graph(g, Graph(n, rows_of(n, edges)))
                self.assert_every_build_agrees(n, edges, None, rng)

    def test_seeded_labelled_graphs(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(0, 12)
            edges = sorted({
                tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))
            }) if n >= 2 else []
            labels = tuple(f"v{v}" if rng.random() < 0.7 else None for v in range(n))
            self.assert_every_build_agrees(n, edges, labels, rng)

    @pytest.mark.parametrize("n,edges,message", [
        (3, [[0, 1], [1, 2]], None),
        (3, [[1, 1]], "explicit self-loop (1, 1) rejected; adjacency is reflexive implicitly"),
        (3, [[0, 3]], "edge endpoint out of range for n=3: (0, 3)"),
        (3, [[0, 1], [-1, 2], [2, 2], [0, 5]], "edge endpoint out of range for n=3: (-1, 2)"),
        (3, [[0, 1], [2, 2], [-1, 2]], "explicit self-loop (2, 2) rejected; adjacency is reflexive implicitly"),
        (-1, [], "vertex count must be nonnegative"),
        (-2, [[0, 1], [5, 5]], "vertex count must be nonnegative"),
        (2**63, [], f"vertex count must be at most {2**63 - 1}"),
        (2**63, [[0, 1], [-1, 0]], f"vertex count must be at most {2**63 - 1}"),
    ])
    def test_edge_list_and_json_give_the_same_graph_or_message(self, n, edges, message):
        outcomes = []
        for parse, text in ((parse_edgelist, f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)),
                            (parse_graph_json, json.dumps({"n": n, "edges": edges}))):
            try:
                outcomes.append(parse(text))
            except InputError as exc:
                outcomes.append(str(exc))
        assert outcomes == [message or graph_from_edges(n, edges)] * 2

    def test_fields_still_tell_graphs_apart(self):
        g = graph_from_edges(3, [(0, 1)], ("a", "b", "c"))
        assert g != graph_from_edges(3, [(1, 2)], ("a", "b", "c"))
        assert g != graph_from_edges(3, [(0, 1)], ("a", "b", "d"))
        assert g != graph_from_edges(4, [(0, 1)], ("a", "b", "c", "d"))
        assert g != (3, g.edges, g.labels)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", None])
    def test_non_integer_vertices_rejected(self, bad):
        for build in (
            lambda: graph_from_edges(3, [(0, bad)]),
            lambda: graph_from_edges(3, [(bad, 2)]),
            lambda: Graph(3, (0, 0, bad)),
            lambda: order_from_pairs(3, [(bad, 2)]),
        ):
            with pytest.raises(InputError, match="integer"):
                build()

    def test_out_of_range_messages_unchanged(self):
        table = [
            (lambda: graph_from_edges(3, [(0, 3)]), "edge endpoint out of range for n=3: (0, 3)"),
            (lambda: order_from_pairs(3, [(3, 0)]), "pair (3, 0) out of range for n=3"),
        ]
        for build, message in table:
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == message

    def test_int_subclass_endpoints_accepted(self):
        class Vertex(int):
            pass

        obj = {"n": 3, "edges": [[Vertex(0), Vertex(2)]]}
        assert graph_from_jsonable(obj) == graph_from_edges(3, [(0, 2)])


class TestComponents:
    def test_complete_graph_connected(self):
        assert components(k3()) == [{0, 1, 2}]

    def test_two_disjoint_edges(self):
        assert components(two_k2()) == [{0, 1}, {2, 3}]

    def test_empty_graph(self):
        assert components(empty3()) == [{0}, {1}, {2}]

    def test_matches_bfs_exhaustive_n6(self):
        for n in range(7):
            for g in all_graphs(n):
                assert components(g) == bfs_components(g), sorted(g.edges)

    def test_matches_bfs_on_seeded_graphs_and_unions(self):
        rng = random.Random(20261018)
        counts = set()
        for _ in range(120):
            g = random_graph(rng.randint(7, 60), rng.uniform(0.0, 0.2), rng)
            assert components(g) == bfs_components(g), sorted(g.edges)
            counts.add(len(components(g)))
        for _ in range(40):
            parts = [random_graph(rng.randint(1, 12), rng.uniform(0.2, 0.9), rng)
                     for _ in range(rng.randint(2, 5))]
            perm = list(range(sum(h.n for h in parts)))
            rng.shuffle(perm)
            edges, base = [], 0
            for h in parts:
                edges += [(perm[u + base], perm[v + base]) for u, v in h.edges]
                base += h.n
            g = graph_from_edges(len(perm), edges)
            assert components(g) == bfs_components(g), sorted(g.edges)
            counts.add(len(components(g)))
        assert max(counts) >= 10 and 1 in counts

    @given(graphs())
    def test_components_partition_vertices(self, g):
        comps = components(g)
        seen = set()
        for comp in comps:
            assert not (comp & seen)
            seen |= comp
        assert seen == set(range(g.n))


class TestComplement:
    def test_k3(self):
        assert complement(k3()).edges == frozenset()

    def test_p4_complement_is_path_2_0_3_1(self):
        assert complement(p4()).edges == frozenset({(0, 2), (0, 3), (1, 3)})

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)).edges == g.edges


def all_pairs_is_minimal_path(g, path):
    """Reference for `is_minimal_path`: every two path vertices at least two
    apart must be non-adjacent, reflexively, so a repeat fails."""
    p = list(path)
    return not any(
        g.adjacent(p[i], p[j]) for i in range(len(p)) for j in range(i + 2, len(p))
    )


def restart_refine_to_minimal(g, path):
    """Reference for `refine_to_minimal`: the rule iterated literally,
    restarting the scan from the front after every splice."""
    p = list(path)
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 2):
            for j in range(len(p) - 1, i + 1, -1):
                if g.adjacent(p[i], p[j]):
                    p = p[: i + 1] + (p[j + 1 :] if p[i] == p[j] else p[j:])
                    changed = True
                    break
            if changed:
                break
    return p


class TestMinimalPaths:
    def test_p4_is_minimal(self):
        assert is_minimal_path(p4(), [0, 1, 2, 3])

    def test_k3_triangle_not_minimal(self):
        assert not is_minimal_path(k3(), [0, 1, 2])

    def test_single_nonedge4_a_b_c_minimal(self):
        assert is_minimal_path(single_nonedge4(), [0, 1, 2])

    def test_invalid_path_rejected(self):
        with pytest.raises(InputError):
            is_minimal_path(p4(), [0, 2])
        with pytest.raises(InputError):
            is_minimal_path(p4(), [])
        with pytest.raises(InputError):
            is_minimal_path(p4(), [1, 1])

    def test_refine_shortcuts_triangle(self):
        assert refine_to_minimal(k3(), [0, 1, 2]) == [0, 2]

    def test_refine_keeps_already_minimal(self):
        assert refine_to_minimal(p4(), [0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_refine_single_nonedge4_detour(self):
        g = single_nonedge4()
        refined = refine_to_minimal(g, [0, 3, 1, 2])
        assert refined == [0, 1, 2]
        assert is_minimal_path(g, refined)

    def test_refine_properties_seeded(self):
        rng = random.Random(4242)
        for _ in range(500):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            walk = random_walk(g, rng)
            refined = refine_to_minimal(g, walk)
            assert is_minimal_path(g, refined)
            assert refined[0] == walk[0] and refined[-1] == walk[-1]
            it = iter(walk)
            assert all(v in it for v in refined)  # subsequence

    def test_refine_and_check_match_references_exhaustive_n5(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for g in all_graphs(n):
                for _ in range(3):
                    walk = random_walk(g, rng, 12)
                    refined = refine_to_minimal(g, walk)
                    assert refined == restart_refine_to_minimal(g, walk), (sorted(g.edges), walk)
                    assert is_minimal_path(g, walk) == all_pairs_is_minimal_path(g, walk)
                    assert is_minimal_path(g, refined) and all_pairs_is_minimal_path(g, refined)

    def test_refine_and_check_match_references_on_seeded_graphs(self):
        rng = random.Random(614)
        for _ in range(200):
            g = random_graph(rng.randint(6, 14), rng.random(), rng)
            for _ in range(10):
                walk = random_walk(g, rng, 60)
                assert refine_to_minimal(g, walk) == restart_refine_to_minimal(g, walk), (
                    sorted(g.edges), walk)
                assert is_minimal_path(g, walk) == all_pairs_is_minimal_path(g, walk)

    def test_long_walk_matches_restart_reference(self):
        # a walk drifting along a path splices many times; the restart
        # reference rescans from the front after each splice
        g = graph_from_edges(300, [(v, v + 1) for v in range(299)])
        rng = random.Random(8)
        walk = [0]
        while len(walk) < 500:
            v = walk[-1]
            walk.append(v + 1 if v == 0 or rng.random() < 0.6 else v - 1)
        refined = refine_to_minimal(g, walk)
        assert refined == restart_refine_to_minimal(g, walk)
        assert refined == list(range(walk[-1] + 1))

    def test_repeated_vertex_is_not_minimal(self):
        assert not is_minimal_path(p4(), [0, 1, 0])
        assert not is_minimal_path(p4(), [1, 2, 3, 2, 1])
        assert refine_to_minimal(p4(), [1, 2, 3, 2, 1]) == [1]
        assert refine_to_minimal(p4(), [0, 1, 2, 1]) == [0, 1]


class TestOrders:
    def test_rejects_non_transitive(self):
        with pytest.raises(InputError):
            order_on(3, {(0, 1), (1, 2)})

    def test_rejects_symmetric_pair(self):
        with pytest.raises(InputError):
            order_on(2, {(0, 1), (1, 0)})

    def test_rejects_reflexive_pair(self):
        with pytest.raises(InputError):
            order_on(2, {(0, 0)})

    def test_unclosed_message_names_least_row_first_successor_least_target(self):
        # rows 2, 4 and 5 are unclosed; in row 2, successor 3 is fine and
        # successor 4 reaches both 6 and 7
        rel = frozenset({(2, 3), (2, 4), (2, 5), (4, 6), (4, 7), (5, 6), (6, 8), (1, 8)})
        with pytest.raises(InputError) as exc:
            order_on(9, rel)
        assert str(exc.value) == "relation is not transitively closed: (2,4) and (4,6) but not (2,6)"

    def test_antisymmetry_is_reported_before_an_earlier_unclosed_row(self):
        rel = frozenset({(0, 1), (1, 2), (3, 4), (4, 3)})
        with pytest.raises(InputError) as exc:
            order_on(5, rel)
        assert str(exc.value) == "relation must be antisymmetric; got both (3,4) and (4,3)"

    @pytest.mark.parametrize("build", [
        lambda: StrictPartialOrder(-1, ()),
        lambda: order_from_pairs(-2, []),
    ], ids=["succ", "from-pairs"])
    def test_rejects_negative_vertex_count(self, build):
        with pytest.raises(InputError, match="^vertex count must be nonnegative$"):
            build()

    def test_order_from_pairs_closes(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        assert o.rel == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_order_from_pairs_detects_cycles(self):
        with pytest.raises(InputError):
            order_from_pairs(3, [(0, 1), (1, 2), (2, 0)])

    @staticmethod
    def closure_outcome(close, n, pairs):
        try:
            return close(n, pairs).rel
        except InputError as exc:
            return f"input error: {exc}"

    def test_closure_matches_set_based_closure_on_every_relation_n4(self):
        cycles = 0
        for n in range(5):
            cells = list(product(range(n), repeat=2))
            for chosen in product((False, True), repeat=len(cells)):
                pairs = [c for c, keep in zip(cells, chosen) if keep]
                expected = self.closure_outcome(set_based_order_from_pairs, n, pairs)
                assert self.closure_outcome(order_from_pairs, n, pairs) == expected, (n, pairs)
                cycles += "cycle" in str(expected)
        assert cycles > 1000, cycles

    def test_closure_matches_set_based_closure_on_forged_relations(self):
        kinds = set()
        for n, rel in forged_relations(2000, 31):
            pairs = sorted(rel)
            expected = self.closure_outcome(set_based_order_from_pairs, n, pairs)
            assert self.closure_outcome(order_from_pairs, n, pairs) == expected, (n, pairs)
            kinds.add(next((k for k in ("irreflexivity", "cycle") if k in str(expected)), "closed"))
        assert kinds == {"closed", "irreflexivity", "cycle"}, kinds

    @given(partial_orders())
    def test_closure_is_noop_on_valid_orders(self, o):
        assert order_from_pairs(o.n, o.rel).rel == o.rel

    def test_matches_pair_set_check_on_every_relation_n4(self):
        accepted = 0
        for n in range(5):
            cells = list(product(range(n), repeat=2))
            for chosen in product((False, True), repeat=len(cells)):
                rel = frozenset(c for c, keep in zip(cells, chosen) if keep)
                accepted += assert_same_verdict_as_pair_sets(n, rel) is not None
        # labeled posets on 0, 1, 2, 3 and 4 points
        assert accepted == 1 + 1 + 3 + 19 + 219

    def test_matches_pair_set_check_on_forged_relations(self):
        rejected = 0
        for n, rel in forged_relations(2000, 31):
            rejected += assert_same_verdict_as_pair_sets(n, rel) is None
        assert 500 < rejected < 1900, rejected

    def test_nested_up_sets_match_the_pair_walk_on_every_relation_n4(self):
        tally = {"nested": 0, "walked": 0, "refused": 0}
        for n in range(5):
            for bits in range(1 << n * n):
                succ = [bits >> n * u & (1 << n) - 1 for u in range(n)]
                try:
                    expected = tuple(pairwise_pred(succ))
                except InputError as exc:
                    expected = f"input error: {exc}"
                assert validation_outcome(n, succ) == expected, (n, succ)
                nested = _nested_pred(succ)
                if isinstance(expected, str):
                    assert nested is None, (n, succ)
                    tally["refused"] += 1
                elif holds_two_plus_two(succ):
                    assert nested is None, (n, succ)
                    tally["walked"] += 1
                else:
                    assert tuple(nested) == expected, (n, succ)
                    tally["nested"] += 1
        # labeled posets on 0 to 4 points: 243, of which the 12 labelings of
        # the 2+2 are no interval orders
        assert tally == {"nested": 231, "walked": 12, "refused": 66067 - 243}, tally

    @staticmethod
    def interval_orders(seed):
        rng = random.Random(seed)
        for _ in range(40):
            g, r = random_interval_graph(rng.randint(6, 40), rng.randrange(10**9))
            yield representation_to_order(r)

    def test_broken_nesting_falls_through_to_the_pair_walk(self):
        # a disjoint 2+2 keeps a strict partial order whose up-sets are no chain
        for o in self.interval_orders(11):
            n = o.n
            succ = list(o.succ) + [1 << n + 1, 0, 1 << n + 3, 0]
            assert _nested_pred(succ) is None
            assert validation_outcome(n + 4, succ) == tuple(pairwise_pred(succ))

    def test_broken_irreflexivity_and_transitivity_give_the_pair_walk_messages(self):
        rng = random.Random(12)
        kinds = set()
        for o in self.interval_orders(12):
            succ = list(o.succ)
            u = rng.randrange(o.n)
            succ[u] |= 1 << u
            kinds.add(self.assert_walk_message(succ))
            succ = list(o.succ)
            # drop (u, w) where some v has u < v < w
            implied = [(u, w) for u in range(o.n) for v in bit_indices(succ[u])
                       for w in bit_indices(succ[v])]
            if implied:
                u, w = rng.choice(implied)
                succ[u] ^= 1 << w
                kinds.add(self.assert_walk_message(succ))
        assert kinds == {"irreflexive", "transitively closed"}, kinds

    @staticmethod
    def assert_walk_message(succ):
        assert _nested_pred(succ) is None
        with pytest.raises(InputError) as expected:
            pairwise_pred(succ)
        assert validation_outcome(len(succ), succ) == f"input error: {expected.value}"
        return next(k for k in ("irreflexive", "antisymmetric", "transitively closed")
                    if k in str(expected.value))

    def test_unique_order_of_dense_interval_graph_n2000_within_budget(self):
        # the pair walk took about 0.44 s per order here on a shared 2-core
        # x86-64 host, the nested up-sets about 0.003 s
        g, r = random_interval_graph(2000, 1000)
        o = representation_to_order(r)
        for succ in (o.succ, o.pred):
            start = time.process_time()
            order = StrictPartialOrder(g.n, succ)
            elapsed = time.process_time() - start
            assert elapsed < 0.15, elapsed
            assert is_associated(g, order)
        assert o.pred == tuple(pairwise_pred(o.succ))

    @given(partial_orders())
    def test_pairs_are_the_sorted_relation(self, o):
        assert list(o.pairs()) == sorted(o.rel)

    @pytest.mark.parametrize("u,v,bad", [
        (0, 7, 7), (5, 0, 5), (-1, 0, -1), (-1, 2, -1), (0, -1, -1), (3, 0, 3), (0, 3, 3), (-3, 2, -3),
        (9, -2, 9), (2, 3, 3),
    ])
    def test_vertex_outside_the_order_is_an_input_error(self, u, v, bad):
        # the range rule of `Graph.adjacent`, which names the first bad vertex
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        message = f"^vertex {bad} out of range for n=3$"
        for call in (lambda: o.less(u, v), lambda: comparable(o, u, v), lambda: empty3().adjacent(u, v)):
            with pytest.raises(InputError, match=message):
                call()

    @pytest.mark.parametrize("n,succ,message", [
        (2.5, (), "vertex count must be an integer"),
        ("3", (0, 0, 0), "vertex count must be an integer"),
        (True, (0,), "vertex count must be an integer"),
        (None, (), "vertex count must be an integer"),
        (-1, (), "vertex count must be nonnegative"),
        (3, (0, 0), "an order on 3 vertices takes 3 successor rows, got 2"),
        (0, (0,), "an order on 0 vertices takes 0 successor rows, got 1"),
        (3, (0, True, 0), "successor row True of vertex 1 is not an integer"),
        (3, (0, 0, False), "successor row False of vertex 2 is not an integer"),
        (3, (0, 4.0, 0), "successor row 4.0 of vertex 1 is not an integer"),
        (3, ("4", 0, 0), "successor row '4' of vertex 0 is not an integer"),
        (3, (0, None, 0), "successor row None of vertex 1 is not an integer"),
        (3, (0, 4, -1), "successor row -1 of vertex 2 is out of range for n=3"),
        (3, (8, 0, 0), "successor row 8 of vertex 0 is out of range for n=3"),
        (1, (1 << 40,), f"successor row {1 << 40} of vertex 0 is out of range for n=1"),
        # a row is type-checked before the range of a later row, and vice versa
        (3, (-1, "4", 0), "successor row -1 of vertex 0 is out of range for n=3"),
        (3, (2.0, 8, 0), "successor row 2.0 of vertex 0 is not an integer"),
    ])
    def test_rows_must_be_n_bitsets_of_the_vertices(self, n, succ, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            StrictPartialOrder(n, succ)

    def test_a_row_out_of_range_is_named_before_the_relation_is_checked_n3(self):
        # the nested up-sets refuse such rows, and the pair walk is never reached
        for n in range(4):
            for succ in product(range(-3, 1 << n + 1), repeat=n):
                bad = next(((u, row) for u, row in enumerate(succ) if not 0 <= row < 1 << n), None)
                if bad is None:
                    continue
                message = f"successor row {bad[1]} of vertex {bad[0]} is out of range for n={n}"
                assert validation_outcome(n, succ) == f"input error: {message}", succ

    def test_int_subclass_rows_are_rows(self):
        class Row(int):
            pass

        o = StrictPartialOrder(3, [Row(0b110), Row(0b100), Row(0)])
        assert o == order_from_pairs(3, [(0, 1), (1, 2)]) and o.pred == (0, 0b001, 0b011)
        with pytest.raises(InputError, match="^successor row 8 of vertex 1 is out of range for n=3$"):
            StrictPartialOrder(3, [Row(0), Row(8), Row(0)])

    def test_less_and_comparable_within_the_order(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        assert o.less(0, 2) and comparable(o, 2, 0) and not o.less(2, 0)
        assert [(u, v) for u in range(3) for v in range(3) if o.less(u, v)] == sorted(o.rel)

    def test_successor_rows_are_the_fields(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        assert o._fields == ("n", "succ")
        assert repr(o) == "StrictPartialOrder(n=3, succ=(6, 4, 0))"
        assert o == StrictPartialOrder(3, [0b110, 0b100, 0])
        assert hash(o) == hash(StrictPartialOrder(3, [0b110, 0b100, 0]))
        assert o != StrictPartialOrder(3, (0b100, 0, 0)) and o != (3, o.succ)
        assert (o.succ, o.pred) == ((0b110, 0b100, 0), (0, 0b001, 0b011))
        assert "rel" not in vars(o)  # derived on first read only
        assert o.rel == frozenset({(0, 1), (0, 2), (1, 2)}) and vars(o)["rel"] is o.rel


class TestIncomparability:
    def test_chain_gives_empty_graph(self):
        o = order_from_pairs(3, [(0, 1), (1, 2)])
        assert incomparability_graph(o).edges == frozenset()

    def test_antichain_gives_complete_graph(self):
        o = order_on(3, ())
        assert incomparability_graph(o).edges == k3().edges

    def test_two_disjoint_chains_give_four_cycle(self):
        o = order_from_pairs(4, [(0, 1), (2, 3)])
        assert incomparability_graph(o).edges == frozenset(
            {(0, 2), (0, 3), (1, 2), (1, 3)}
        )

    @given(partial_orders())
    def test_dual_has_same_incomparability_graph(self, o):
        assert incomparability_graph(o).edges == incomparability_graph(o.dual()).edges


class TestAssociation:
    def test_antichain_associated_to_complete(self):
        assert is_associated(k3(), order_on(3, ()))

    def test_p4_order(self):
        o = order_from_pairs(4, [(0, 2), (0, 3), (1, 3)])
        assert is_associated(p4(), o)

    def test_wrong_order_rejected(self):
        o = order_from_pairs(4, [(2, 0), (0, 3)])  # closure adds 2<3, a p4 edge
        assert not is_associated(p4(), o)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            is_associated(k3(), order_on(4, ()))

    def test_matches_incomparability_graph_on_seeded_pairs(self):
        rng = random.Random(47)
        answers = []
        for _ in range(400):
            g, rep = random_interval_graph(rng.randint(1, 14), rng.randrange(10**9))
            order = representation_to_order(rep)
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            edited = g if u == v else graph_from_edges(
                g.n, g.edges ^ {(min(u, v), max(u, v))}
            )
            other = random_graph(g.n, rng.random(), rng)
            for graph in (g, edited, other, incomparability_graph(order.dual())):
                answers.append(is_associated(graph, order))
                assert answers[-1] == pair_set_is_associated(graph, order), (
                    sorted(graph.edges), sorted(order.rel))
        assert 0.3 < sum(answers) / len(answers) < 0.8


class TestUniversalVertices:
    def test_complete(self):
        assert universal_vertices(k3()) == {0, 1, 2}

    def test_star_center(self):
        assert universal_vertices(star3()) == {0}

    def test_p4_has_none(self):
        assert universal_vertices(p4()) == set()


class TestSubgraphsAndSerialization:
    def test_induced_subgraph_reindexes(self):
        g = single_nonedge4()
        sub = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3
        assert sub.edges == frozenset({(0, 1), (0, 2), (1, 2)})
        assert sub.labels == ("b", "c", "d")

    def test_json_round_trip(self):
        g = single_nonedge4()
        assert graph_from_jsonable(graph_to_jsonable(g)) == g

    def test_json_without_labels(self):
        g = p4()
        obj = graph_to_jsonable(g)
        assert "labels" not in obj
        assert graph_from_jsonable(obj).edges == g.edges

    def test_edgelist_parsing(self):
        text = "4  # vertex count\n0 1\n1 2\n\n2 3  # tail\n"
        assert parse_edgelist(text).edges == p4().edges

    def test_edgelist_malformed(self):
        with pytest.raises(InputError):
            parse_edgelist("3\n0 1 2\n")
        with pytest.raises(InputError):
            parse_edgelist("")

    def test_edgelist_token_table(self):
        # an integer is ASCII decimal digits with an optional leading minus;
        # int() alone would read '1_0' as 10, '+1' as 1 and '\u0661' as 1
        refused = "expected integers"
        table = [
            ("1", (0, 1)), ("01", (0, 1)), ("10", (0, 10)),
            ("-0", "explicit self-loop (0, 0)"),
            ("-1", "edge endpoint out of range for n=11: (0, -1)"),
            ("1_0", refused), ("+1", refused), ("\u0661", refused), ("\u0660", refused),
            ("\u00b9", refused), ("\uff11", refused), ("1.0", refused), ("0x1", refused),
            ("1e1", refused), ("-", refused), ("--1", refused), ("-+1", refused),
            # other whitespace neither separates tokens nor ends a line
            ("\u20031", refused), ("\u00a01", refused), ("\u30001", refused), ("\u00851", refused),
            ("\u20281", refused), ("\u20291", refused), ("\v1", refused), ("\f1", refused),
            ("\x1c1", refused), ("1\u2003", refused), ("1\u00a0", refused),
        ]
        for token, want in table:
            text = f"11\n0 {token}\n"
            if want == refused:
                want = f"line 2: expected integers, got {f'0 {token}'!r}"
            if isinstance(want, str):
                with pytest.raises(InputError, match=re.escape(want)):
                    parse_edgelist(text)
            else:
                assert parse_edgelist(text).edges == {want}, token
        # tokens split only at ASCII spaces and tabs, lines only at \n, \r\n and \r
        for text, edges in (("3\n0\t1\n", {(0, 1)}), ("3\r\n0 \t 1\r\n1 2\r", {(0, 1), (1, 2)}),
                            ("\t3 \n 0 1\t# tab\n", {(0, 1)})):
            assert parse_edgelist(text).edges == edges, text
        with pytest.raises(InputError, match=re.escape("line 1: expected integers, got '+3'")):
            parse_edgelist("+3\n")
        with pytest.raises(InputError, match="vertex count must be nonnegative"):
            parse_edgelist("-3\n")

    def test_malformed_graph_json_table(self):
        out_of_range = "edge endpoint out of range for n=3: (0, 5)"
        table = [
            ([], "graph JSON must be an object"),
            ({"edges": []}, "graph JSON missing key 'n'"),
            ({"n": 3}, "graph JSON missing key 'edges'"),
            ({"n": "3", "edges": []}, "graph JSON field 'n' must be an integer"),
            ({"n": True, "edges": []}, "graph JSON field 'n' must be an integer"),
            ({"n": 3, "edges": {}}, "graph JSON field 'edges' must be a list of pairs"),
            ({"n": 3, "edges": [[0]]}, "malformed edge entry: [0]"),
            ({"n": 3, "edges": [(0, 1)]}, "malformed edge entry: (0, 1)"),
            ({"n": 3, "edges": [[0, True]]}, "malformed edge entry: [0, True]"),
            ({"n": 3, "edges": [[0, 1.0]]}, "malformed edge entry: [0, 1.0]"),
            ({"n": 3, "edges": [[0, 5], "x"]}, "malformed edge entry: 'x'"),
            ({"n": -1, "edges": [[0, 5], [0]]}, "malformed edge entry: [0]"),
            ({"n": 3, "edges": [[0, 5]]}, out_of_range),
            ({"n": 3, "edges": [[0, 5], [1, 1]]}, out_of_range),
            ({"n": 3, "edges": [[-1, 0]]}, "edge endpoint out of range for n=3: (-1, 0)"),
            ({"n": 3, "edges": [[1, 1], [0, 5]]},
             "explicit self-loop (1, 1) rejected; adjacency is reflexive implicitly"),
            ({"n": 3, "edges": [[0, 5]], "labels": {"x": "a"}}, "label key 'x' is not a vertex index"),
            ({"n": 3, "edges": [[0, 5]], "labels": {"3": "a"}}, "label key '3' out of range"),
            ({"n": 11, "edges": [], "labels": {"1_0": "x"}}, "label key '1_0' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {" 2 ": "x"}}, "label key ' 2 ' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {"0": "a", "00": "b"}}, "label key '00' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {"+1": "a"}}, "label key '+1' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {"-0": "a"}}, "label key '-0' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {"None": "a"}}, "label key 'None' is not a vertex index"),
            ({"n": 3, "edges": [], "labels": {"-1": "a"}}, "label key '-1' out of range"),
            ({"n": 3, "edges": [[0, 5]], "labels": {"x": "a", "9": "b"}}, "label key 'x' is not a vertex index"),
            ({"n": 3, "edges": [[0, 5]], "labels": {"9": "b", "x": "a"}}, "label key '9' out of range"),
            ({"n": 3, "edges": [], "labels": []}, "graph JSON field 'labels' must be an object"),
            ({"n": -1, "edges": []}, "vertex count must be nonnegative"),
            ({"n": -1, "edges": [[0, 1]]}, "vertex count must be nonnegative"),
        ]
        for obj, message in table:
            assert parse_outcome(graph_from_jsonable, obj) == f"input error: {message}", obj
            assert parse_outcome(three_pass_graph_from_jsonable, obj) == f"input error: {message}", obj

    def test_negative_count_reported_before_the_labels(self):
        obj = {"n": -1, "edges": [], "labels": {"0": "a"}}
        assert parse_outcome(graph_from_jsonable, obj) == "input error: vertex count must be nonnegative"
        assert parse_outcome(three_pass_graph_from_jsonable, obj) == "input error: label key '0' out of range"

    def test_null_label_is_unnamed(self):
        obj = {"n": 3, "edges": [], "labels": {"0": None, "2": "None"}}
        for parse in (graph_from_jsonable, three_pass_graph_from_jsonable):
            assert parse(obj).labels == (None, None, "None")
        assert graph_from_jsonable(obj) == graph_from_edges(3, [], (None, None, "None"))

    def test_shared_label_rejected(self):
        obj = {"n": 3, "edges": [[0, 1]], "labels": {"0": "a", "2": "a"}}
        message = "input error: label 'a' names both vertex 0 and vertex 2"
        # the check sits in Graph itself, so every way of building a graph has it
        assert parse_outcome(graph_from_jsonable, obj) == message
        assert parse_outcome(three_pass_graph_from_jsonable, obj) == message
        with pytest.raises(InputError, match="names both vertex 1 and vertex 3"):
            Graph(4, (0,) * 4, ("x", "y", None, "y"))
        # any number of vertices may be unnamed
        assert Graph(4, (0,) * 4, ("x", None, "y", None)).labels == ("x", None, "y", None)

    @pytest.mark.parametrize("labels,message", [
        (("1", None), "label '1' of vertex 0 reads as unlabelled vertex 1"),
        ((None, None, "0"), "label '0' of vertex 2 reads as unlabelled vertex 0"),
        (("x", "2", None), "label '2' of vertex 1 reads as unlabelled vertex 2"),
        (([1], "b"), "label [1] of vertex 0 is not a string"),
        ((1, "b"), "label 1 of vertex 0 is not a string"),
        (("a", b"b"), "label b'b' of vertex 1 is not a string"),
        (("1", "1"), "label '1' names both vertex 0 and vertex 1"),
        (("1", "b"), None),  # vertex 1 prints as "b"
        ((None, "1"), None),  # vertex 1's own index
        (("01", None), None),  # not how vertex 1 prints
        (("5", None), None),  # no vertex 5
        (("9" * 5000, None), None),  # longer than any index
        (("\N{DIGIT ONE}\N{COMBINING LOW LINE}", None), None),
        (("\N{SUPERSCRIPT ONE}", None), None),
    ])
    def test_labels_that_would_misname_a_vertex(self, labels, message):
        n = len(labels)
        if message is None:
            assert Graph(n, (0,) * n, labels).labels == labels
        else:
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                Graph(n, (0,) * n, labels)

    def test_valid_graphs_parse_as_before(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(0, 12)
            entries = [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(0, 20))] if n else []
            entries = [e for e in entries if e[0] != e[1]]
            obj = {"n": n, "edges": entries}
            if n and rng.random() < 0.5:
                obj["labels"] = {str(v): f"v{v}" for v in rng.sample(range(n), rng.randint(0, n))}
            assert graph_from_jsonable(obj) == three_pass_graph_from_jsonable(obj)
