"""Finite reflexive graphs, strict partial orders, and path utilities.

Vertices are dense integers 0..n-1. Edges are stored between distinct
vertices only, but adjacency is interpreted reflexively: ``adjacent(v, v)``
is always true and explicit self-loops are rejected on input. Labels are
cosmetic (they survive into certificates) and never affect any algorithm.

A graph is its neighbourhood bitsets, as an order is its successor
bitsets: `Graph(n, masks)` and `StrictPartialOrder(n, succ)` each check
their rows, every algorithm reads them, and the edge set `edges` and the
pair set `rel` are derived on first read. One loop, `_fill_rows`, reads the
edge lists of both input formats and of `graph_from_edges`, each entry two
ints, never bools, into rows that go, as `induced_graph`'s do, to the
unchecked `Graph._from_rows`; labels are strings or None (JSON null).
Validation accepts an interval order, as every order of an interval graph
is, by its nested up-sets in one step per vertex, and walks every pair only
of other relations.

Paths are plain sequences of vertices in which consecutive vertices are
distinct and adjacent; a single vertex is a valid path of length zero.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InputError

VertexPair = tuple[int, int]


class Record:
    """Base of the package's data records.

    A subclass's annotations, in order, are its fields, listed in
    `_fields`. Subclassing writes an `__init__` that takes them by position
    or keyword, with class attributes as defaults, stores them and then
    calls `__post_init__` when the class has one. Records are equal when
    their classes are the same and their fields are, hash their fields, and
    refuse assignment and deletion; `repr` names every field. It stands in
    for `dataclasses`, whose import (with the `inspect` it pulls in) and
    per-class code generation took a quarter of a command line process's
    import.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        params = "".join(f", {f}=_defaults[{f!r}]" if f in cls.__dict__ else f", {f}" for f in fields)
        # a record refuses assignment, so its fields go straight into its dict
        lines = [f"def __init__(self{params}):", " d = self.__dict__"]
        lines += (f" d[{f!r}] = {f}" for f in fields)
        if hasattr(cls, "__post_init__"):  # looked up per call, so rebinding it takes effect
            lines.append(" self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), {"_defaults": cls.__dict__}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = fields

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Graph(Record):
    """Undirected graph on vertices 0..n-1, reflexive by convention.

    A graph is its rows: `masks` holds the neighbour sets as int bitsets,
    self excluded, so bit w of `masks[v]` is set iff w is in N(v); read
    vertices back with `bit_indices`. `Graph(n, masks, labels)` checks the
    rows, as `StrictPartialOrder(n, succ)` checks an order's. The parsers
    and `graph_from_edges` check each edge as `_fill_rows` fills their
    rows, and they and `induced_graph`, whose rows are symmetric by
    construction, hand them to the unchecked `Graph._from_rows`. The edge
    set `edges` is derived on first read.
    """

    n: int
    masks: tuple[int, ...]
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        n = _vertex_count(self.n)
        rows = vars(self)["masks"] = _tupled(self.masks, "rows")
        if len(rows) != n:
            raise InputError(f"a graph on {n} vertices takes {n} rows, got {len(rows)}")
        _check_rows(n, rows, "row")  # before any bit is read: a negative row has endless bits
        # symmetric rows without self-loops: each is its upper bits and, below them, its column's
        below = [0] * n  # below[v]: the u < v with v in row u, the transposed upper bits
        for u, row in enumerate(rows):
            bit = 1 << u
            for v in bit_indices(row >> u + 1 << u + 1):
                below[v] |= bit
        for v, row in enumerate(rows):
            want = row >> v + 1 << v + 1 | below[v]
            if row != want:
                if row >> v & 1:
                    _check_endpoints(n, v, v)  # raises the self-loop error the edge formats give
                w = next(bit_indices(row ^ want))  # below v: row v's upper bits are kept
                a, b = (w, v) if row >> w & 1 else (v, w)
                raise InputError(f"rows must be symmetric: {a} is in row {b} but {b} is not in row {a}")
        self._check_labels()

    @classmethod
    def _from_rows(cls, rows: Sequence[int], labels: tuple[str | None, ...] | None = None) -> "Graph":
        """The graph on len(rows) vertices whose `masks` are `rows`: the
        caller guarantees they are symmetric, in range and free of
        self-loops. The labels are checked as the constructor checks them."""
        g = object.__new__(cls)
        vars(g).update(n=len(rows), labels=labels, masks=tuple(rows))
        g._check_labels()
        return g

    def _check_labels(self) -> None:
        if self.labels is not None:
            vars(self)["labels"] = _tupled(self.labels, "labels")
            if len(self.labels) != self.n:
                raise InputError("labels must have one entry per vertex (None for unnamed)")
            # a certificate names vertices by label, or by index when unlabelled, so a
            # label shared with another vertex or reading as another's index makes it unreadable
            owner: dict[str, int] = {}
            for v, label in enumerate(self.labels):
                if label is not None and not isinstance(label, str):
                    raise InputError(f"label {label!r} of vertex {v} is not a string")
                if label is not None and owner.setdefault(label, v) != v:
                    raise InputError(f"label {label!r} names both vertex {owner[label]} and vertex {v}")
            width = len(str(self.n))  # a longer decimal is no vertex, and int() may refuse it
            for label, v in owner.items():
                if label.isdecimal() and len(label) <= width:
                    w = int(label)
                    if w != v and w < self.n and str(w) == label and self.labels[w] is None:
                        raise InputError(f"label {label!r} of vertex {v} reads as unlabelled vertex {w}")

    @cached_property
    def edges(self) -> frozenset[VertexPair]:
        """The edges (u, v), u < v, read off `masks`."""
        return frozenset(_upper_pairs(self.masks))

    @cached_property
    def chordal_cliques(self) -> tuple[int, ...] | None:
        """The maximal cliques as `masks`-style bitsets when the graph is
        chordal, else None: one `_chordal_sweep`, run once per graph."""
        return _chordal_sweep(self.masks)

    def adjacent(self, u: int, v: int) -> bool:
        """Reflexive adjacency: true when u == v or {u, v} is an edge."""
        if not (type(u) is int and type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
            _vertex_below(self.n, u)  # one of the two raises
            _vertex_below(self.n, v)
        return u == v or self.masks[u] >> v & 1 == 1

    def is_complete(self) -> bool:
        return sum(m.bit_count() for m in self.masks) == self.n * (self.n - 1)

    def label_of(self, v: int) -> str | int:
        """The label of vertex v, or v itself when it has none."""
        if not (type(v) is int and 0 <= v < self.n):
            v = _vertex_below(self.n, v)  # raises unless an int subclass in range
        label = None if self.labels is None else self.labels[v]
        return v if label is None else label


def bit_indices(mask: int) -> Iterator[int]:
    """The vertices of a `Graph.masks`-style bitset, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _upper_pairs(masks: Sequence[int]) -> Iterator[VertexPair]:
    """The edges (u, v), u < v, of a graph's rows, in sorted order."""
    for u, m in enumerate(masks):
        for v in bit_indices(m >> u + 1 << u + 1):
            yield u, v


def _neighbours_of(masks: tuple[int, ...], vertices: int) -> int:
    """The union of N(v) over the vertices of a bitset."""
    reach = 0
    for v in bit_indices(vertices):
        reach |= masks[v]
    return reach


def _count(counts: list[int], mask: int, up: bool) -> None:
    """Add one to (up) or take one from every vertex's count in mask, kept
    bit-sliced: counts[j] holds the vertices whose count has bit j set, so
    a carry or borrow ripples through O(log k) bitsets."""
    for j, digit in enumerate(counts):
        counts[j] = digit ^ mask
        mask &= digit if up else ~digit
        if not mask:
            return
    counts.append(mask)


def _chordal_sweep(masks: tuple[int, ...]) -> tuple[int, ...] | None:
    """Maximum cardinality search plus the perfect-elimination check; on a
    chordal graph, its maximal cliques as bitsets in visit order.

    The search visits next an unvisited vertex with the most visited
    neighbours, least vertex first. Those counts are kept bit-sliced by
    `_count`, so a visit lifts its unvisited neighbours with one carry, and
    the next vertex is found by narrowing the unvisited set from the top
    slice down: O(log n) bitset operations per visit. The graph is
    chordal iff, for every vertex, its earlier-visited neighbours other than
    the latest of them all lie in that latest one's neighbourhood (Tarjan
    and Yannakakis 1984); otherwise the sweep returns None. The latest one
    is usually the previous visit, else the last visit of the shortest
    prefix of the visit order that holds them all, found by binary search
    over prefix bitsets, so a star's leaves never scan back to the centre.
    On a chordal graph each visit with its earlier-visited neighbours is a
    clique, and it is maximal exactly when the next visit's count of visited
    neighbours fails to rise, or when it is the last visit (Blair and Peyton
    1993).
    """
    n = len(masks)
    everyone, slices = (1 << n) - 1, []  # slices: the counts, stale on visited vertices
    visit_order = [0] * n
    prefix = [0] * (n + 1)  # prefix[k]: the first k visits
    cliques: list[int] = []
    clique, previous = 0, -1  # the last visit's clique and count
    for step in range(n):
        best = everyone & ~prefix[step]
        for digit in reversed(slices):
            if best & digit:
                best &= digit
        v = (best & -best).bit_length() - 1
        earlier = masks[v] & prefix[step]
        if earlier:
            latest = visit_order[step - 1]
            if not earlier >> latest & 1:
                j = bisect_left(range(step), True, key=lambda j: not earlier & ~prefix[j])
                latest = visit_order[j - 1]
            if earlier & ~masks[latest] & ~(1 << latest):
                return None
        count = earlier.bit_count()
        if count <= previous:
            cliques.append(clique)
        clique, previous = earlier | 1 << v, count
        visit_order[step] = v
        prefix[step + 1] = prefix[step] | 1 << v
        fresh = masks[v] & ~prefix[step + 1]
        if fresh:
            _count(slices, fresh, True)
    if n:
        cliques.append(clique)
    return tuple(cliques)


def graph_from_edges(
    n: int,
    edge_list: Iterable[Sequence[int]],
    labels: Sequence[str | None] | None = None,
) -> Graph:
    """Build a graph from an (unordered, possibly duplicated) edge list.

    Self-loops are rejected: reflexivity is implicit and never stored.
    """
    rows, first_bad = _fill_rows(_vertex_count(n), _tupled(edge_list, "edges"))
    if first_bad is not None:
        _check_endpoints(n, *first_bad)
    return Graph._from_rows(rows, labels)


def _fill_rows(n: int, entries: Iterable) -> tuple[list[int], VertexPair | None]:
    """The rows of the edges among `entries` between two distinct vertices
    of 0..n-1 (none when n < 0), and the first other entry, which the caller
    reports by `_check_endpoints`. An entry unpacks into two ints, never
    bools; any other entry is an InputError at once."""
    rows = [0] * n
    first_bad = None
    for item in entries:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise InputError(f"malformed edge entry: {item!r}") from None
        # exact ints skip the calls to `_is_index`
        if not (type(u) is int and type(v) is int or _is_index(u) and _is_index(v)):
            raise InputError(f"malformed edge entry: {item!r}")
        if 0 <= u < n and 0 <= v < n and u != v:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        elif first_bad is None:
            first_bad = (u, v)
    return rows, first_bad


def _vertex_count(n) -> int:
    """`n`, or an InputError unless it is an int, never a bool, nonnegative
    and at most `sys.maxsize`, the longest list of rows Python can index."""
    if not _is_index(n):
        raise InputError("vertex count must be an integer")
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > sys.maxsize:
        raise InputError(f"vertex count must be at most {sys.maxsize}")
    return n


def _tupled(values, what: str) -> tuple:
    """`values` as a tuple, or an InputError when it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {values!r}") from None


def _is_index(x) -> bool:
    """The rule for a vertex given from outside the library: an int, never a bool."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def _is_plain_decimal(token: str) -> bool:
    """The integer token rule of the text inputs: ASCII digits, optional
    leading '-'. int() would also take '1_0', '+1' and other scripts' digits."""
    return token.isascii() and token.removeprefix("-").isdecimal()


def _vertex_below(n: int, v) -> int:
    """`v`, or an InputError unless it is an int, never a bool, in 0..n-1."""
    if not _is_index(v):
        raise InputError(f"vertex {v!r} is not an integer")
    if not 0 <= v < n:
        raise InputError(f"vertex {v} out of range for n={n}")
    return v


def _check_rows(n: int, rows: tuple, word: str) -> None:
    """An InputError unless each row is an int bitset of 0..n-1, called `word`."""
    for v, row in enumerate(rows):
        if not _is_index(row):
            raise InputError(f"{word} {row!r} of vertex {v} is not an integer")
        if not 0 <= row < 1 << n:
            raise InputError(f"{word} {row} of vertex {v} is out of range for n={n}")


def _check_endpoints(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise InputError(f"edge endpoint out of range for n={n}: ({u}, {v})")
    if u == v:
        raise InputError(f"explicit self-loop ({u}, {v}) rejected; adjacency is reflexive implicitly")


def component_masks(masks: tuple[int, ...], allowed: int) -> list[int]:
    """The components of the subgraph induced on the bitset `allowed`, as
    bitsets in order of least vertex: one flood fill each."""
    out: list[int] = []
    while allowed:
        comp = frontier = allowed & -allowed
        while frontier:
            frontier = _neighbours_of(masks, frontier) & allowed & ~comp
            comp |= frontier
        allowed &= ~comp
        out.append(comp)
    return out


def components(g: Graph) -> list[set[int]]:
    """Connected components as vertex sets, sorted by least element."""
    return [set(bit_indices(c)) for c in component_masks(g.masks, (1 << g.n) - 1)]


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def validate_path(g: Graph, path: Sequence[int]) -> list[int]:
    """Check that `path` is a walk in g (consecutive distinct and adjacent)."""
    p = list(path)
    if not p:
        raise InputError("a path must contain at least one vertex")
    for v in p:
        _vertex_below(g.n, v)
    for a, b in zip(p, p[1:]):
        if a == b or not g.masks[a] >> b & 1:
            raise InputError(f"consecutive path vertices {a}, {b} are not adjacent")
    return p


# ---------------------------------------------------------------------------
# Strict partial orders
# ---------------------------------------------------------------------------

class StrictPartialOrder(Record):
    """Irreflexive, antisymmetric, transitively closed relation on 0..n-1.

    An order is its successor rows: `succ` holds the vertices above each
    vertex as `Graph.masks`-style int bitsets, and `pred` those below, and
    every method reads them. `StrictPartialOrder(n, succ)` checks the rows,
    so every instance is a genuine strict partial order: it accepts an
    interval order by `_nested_pred` and walks the pairs of any other
    relation, which writes every error. The pair set `rel` is derived on
    first read.
    """

    n: int
    succ: tuple[int, ...]

    def __post_init__(self):
        n = _vertex_count(self.n)
        succ = vars(self)["succ"] = _tupled(self.succ, "successor rows")
        if len(succ) != n:
            raise InputError(f"an order on {n} vertices takes {n} successor rows, got {len(succ)}")
        # the nested up-sets lie inside 0..n-1, so only rows they refuse are range-checked
        pred = _nested_pred(succ) if set(map(type, succ)) <= {int} else None
        if pred is None:  # not an interval order, or not an order at all
            _check_rows(n, succ, "successor row")
            pred = [0] * n
            unclosed = None  # the least row u reaching, in two steps, past succ[u]
            for u, above in enumerate(succ):
                if above >> u & 1:
                    raise InputError(f"relation must be irreflexive; got ({u}, {u})")
                for v in bit_indices(above):
                    pred[v] |= 1 << u
                if unclosed is None and _neighbours_of(succ, above) & ~above:
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
        vars(self)["pred"] = tuple(pred)

    @cached_property
    def rel(self) -> frozenset[VertexPair]:
        """The pair set of the order, read off `succ`."""
        return frozenset(self.pairs())

    def less(self, u: int, v: int) -> bool:
        """u < v, for vertices u and v of the order."""
        if not (type(u) is int and type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
            _vertex_below(self.n, u)  # one of the two raises
            _vertex_below(self.n, v)
        return self.succ[u] >> v & 1 == 1

    def pairs(self) -> Iterator[VertexPair]:
        """The pairs of `rel` in sorted order, read off `succ`."""
        return ((u, v) for u in range(self.n) for v in bit_indices(self.succ[u]))

    def dual(self) -> "StrictPartialOrder":
        return StrictPartialOrder(self.n, self.pred)


def _nested_pred(succ: Sequence[int]) -> list[int] | None:
    """`pred` of the strict interval order whose successor rows are `succ`,
    or None when they are not one. Its up-sets form a chain (Fishburn 1970):
    sorted by size, largest first, each row lies inside the one before (the
    first inside 0..n-1) and misses every vertex walked so far, and int
    rows that do are irreflexive, transitive and 2+2-free. A vertex's
    predecessors are the vertices walked before it drops out of the rows."""
    n = len(succ)
    pred = [0] * n
    previous, walked = (1 << n) - 1, 0
    for v in sorted(range(n), key=[row.bit_count() for row in succ].__getitem__, reverse=True):
        row = succ[v]
        for w in bit_indices(previous & ~row):
            pred[w] = walked
        walked |= 1 << v
        if row & ~(previous & ~walked):
            return None
        previous = row
    return pred


def is_associated(g: Graph, o: StrictPartialOrder) -> bool:
    """True when g is exactly the incomparability graph of o (labels ignored):
    the vertices comparable to each u are those outside its closed
    neighbourhood."""
    if g.n != o.n:
        raise InputError(f"vertex count mismatch: graph has {g.n}, order has {o.n}")
    everyone = (1 << g.n) - 1
    return all(above | below == everyone & ~(m | 1 << u)
               for u, (m, above, below) in enumerate(zip(g.masks, o.succ, o.pred)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_jsonable(g: Graph) -> dict:
    out: dict = {"n": g.n, "edges": [[u, v] for u, v in _upper_pairs(g.masks)]}
    if g.labels is not None and any(x is not None for x in g.labels):
        out["labels"] = {
            str(v): g.labels[v] for v in range(g.n) if g.labels[v] is not None
        }
    return out


def graph_from_jsonable(obj) -> Graph:
    if not isinstance(obj, dict):
        raise InputError("graph JSON must be an object")
    try:
        n = obj["n"]
        raw_edges = obj["edges"]
    except KeyError as missing:
        raise InputError(f"graph JSON missing key {missing}") from None
    if not _is_index(n):
        raise InputError("graph JSON field 'n' must be an integer")
    if not isinstance(raw_edges, list):
        raise InputError("graph JSON field 'edges' must be a list of pairs")
    # reported in turn: a malformed entry anywhere, a negative count, a bad
    # label key, the first bad endpoint, and (by `Graph`) a bad label value
    rows, first_bad = _fill_rows(_vertex_count(n) if n >= 0 else n, raw_edges)
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if not isinstance(raw, dict):
            raise InputError("graph JSON field 'labels' must be an object")
        filled: list = [None] * n
        for key, val in raw.items():
            try:
                idx = int(key)
            except ValueError:
                idx = None
            if idx is None or str(idx) != key:  # only str(v) names vertex v
                raise InputError(f"label key {key!r} is not a vertex index")
            if not (0 <= idx < n):
                raise InputError(f"label key {key!r} out of range")
            filled[idx] = val  # `Graph` refuses a value that is neither a string nor None
        labels = tuple(filled)
    if first_bad is not None:
        _check_endpoints(n, *first_bad)
    return Graph._from_rows(rows, labels)


def parse_graph_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    return graph_from_jsonable(obj)


def parse_edgelist(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' per line,
    each a plain decimal integer. Blank lines and '#' comments are ignored.
    Lines end only at LF, CR LF or CR, and only ASCII spaces and tabs
    separate tokens: any other whitespace is refused.
    """
    n: int | None = None
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        fields = [f for f in line.replace("\t", " ").split(" ") if f]
        if not all(map(_is_plain_decimal, fields)):
            raise InputError(f"line {lineno}: expected integers, got {line!r}")
        values = [int(f) for f in fields]
        if n is None:
            if len(values) != 1:
                raise InputError(f"line {lineno}: first line must contain the vertex count only")
            n = values[0]
        else:
            if len(values) != 2:
                raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
            edges.append(values)
    if n is None:
        raise InputError("empty edge-list input")
    return graph_from_jsonable({"n": n, "edges": edges})  # the JSON format's loop and messages
