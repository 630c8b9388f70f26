"""Interval graph recognition with positive or negative certificates.

Everything starts from one maximum cardinality search, cached on the graph
as `Graph.chordal_cliques`: it decides chordality (Tarjan and Yannakakis)
and, on a chordal graph, yields the maximal cliques (Blair and Peyton), so
no clique enumeration runs on the way to a verdict. On a chordal graph the
positive route searches, on those clique bitsets, for the lexicographically
least ordering of the cliques in which every vertex's cliques occupy
consecutive positions (Booth and Lueker's consecutive-ones problem). Each
vertex's interval is its first and last clique position in that ordering,
read off prefix ORs of the ordered bitsets as int endpoints, so the printed
intervals are fixed by it; the representation is verified before being
returned. When the sweep fails, or no ordering exists, the graph is not
interval (Lekkerkerker and Boland), and a negative certificate is
extracted: first the shortest, then least, chordless cycle of length >= 4,
otherwise the least asteroidal triple. The cycle comes from one search on
adjacency bitsets: a chordless cycle through a-b-c is b plus an induced a-c
path avoiding N[b], so one BFS per induced path a-b-c, started at N(a)
because c is not in it, measures the shortest cycle and finds the least
pair (b, a) opening one; the scan stops at the first 4-hole, since no
chordless cycle is shorter. The triple is read off tables of component
bitsets, one per vertex the scan reaches. Every certificate path is the
lexicographically least shortest one, by one rule (`_least_path`): BFS
layers grown back from its target, walked greedily from its source. If
neither certificate exists while the ordering failed, an internal error is
raised rather than guessing.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import cmp_to_key, reduce
from operator import or_

from .errors import InputError, InternalInconsistencyError
from .graphs import (
    Graph,
    Record,
    _count,
    _is_index,
    _neighbours_of,
    bit_indices,
    component_masks,
    validate_path,
)
from .representation import ClosedRepresentation, verify_representation

CHORDLESS_CYCLE = "chordless_cycle"
ASTEROIDAL_TRIPLE = "asteroidal_triple"


class Obstruction(Record):
    """Why a graph is not an interval graph.

    For kind == "chordless_cycle", `cycle` lists the cycle's vertices once,
    without repeating the first. For kind == "asteroidal_triple", `triple`
    is sorted ascending and `witness_paths` holds three paths: triple[0] to
    triple[1] avoiding the closed neighborhood of triple[2], then
    triple[0]-triple[2] avoiding triple[1]'s, then triple[1]-triple[2]
    avoiding triple[0]'s. Every path is the lexicographically least
    shortest one, read off BFS layers grown back from its target.
    """

    kind: str
    cycle: tuple[int, ...] | None = None
    triple: tuple[int, int, int] | None = None
    witness_paths: tuple[tuple[int, ...], ...] | None = None


def _least_difference_first(a: int, b: int) -> int:
    """Negative when clique a holds the least vertex of a ^ b, positive when
    b does: maximal cliques form an antichain, so this is the order of their
    sorted vertex tuples."""
    d = a ^ b
    return bool(b & d & -d) - bool(a & d & -d)


def _sorted_cliques(g: Graph) -> list[int]:
    """The chordal graph g's maximal clique bitsets in sorted-vertex-tuple
    order, compared by `_least_difference_first` with no per-clique key."""
    return sorted(g.chordal_cliques, key=cmp_to_key(_least_difference_first))


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """The maximal cliques of a chordal graph, every interval graph among
    them, as frozensets in `_sorted_cliques` order: read off the cached
    maximum cardinality search `Graph.chordal_cliques`, sorted by their
    sorted vertex tuples, which for an antichain is the order of the least
    vertex in which two differ. A graph that is not chordal raises InputError."""
    if g.chordal_cliques is None:
        raise InputError("maximal_cliques requires a chordal graph")
    return [frozenset(bit_indices(c)) for c in _sorted_cliques(g)]


def _consecutive_clique_order(cliques: list[int]) -> list[int] | None:
    """The lexicographically least ordering of the clique bitsets' indices
    in which every vertex's cliques are consecutive, or None when there is
    none.

    Depth-first search trying unplaced cliques in index order, under one
    invariant: the next clique contains every vertex of the last placed
    clique that still occurs in an unplaced clique. Only prefixes that
    cannot be completed break it, and under it a vertex that leaves the
    last clique never comes back, so the first complete ordering found is
    still the least one. `counts` holds, bit-sliced, how many unplaced
    cliques hold each vertex, and `alive` the vertices where that is
    nonzero; a dead end pops the last clique and resumes after it.

    Still exponential on a hub with k pendant leaves and two arms of length
    2, numbered so that clique 0 holds the hub and a leaf: every ordering of
    the other leaf cliques is tried after clique 0. At k = 8 that takes
    about 1 s on a 2-core x86-64 host (68 s without the invariant).
    """
    counts: list[int] = []
    for clique in cliques:
        _count(counts, clique, True)
    alive = reduce(or_, counts, 0)
    unplaced = list(range(len(cliques)))
    order: list[int] = []
    at = 0  # where in `unplaced` the scan resumes
    while unplaced:
        required = cliques[order[-1]] & alive if order else 0
        for at in range(at, len(unplaced)):
            if required & cliques[unplaced[at]] == required:
                break
        else:
            if not order:
                return None
            i = order.pop()
            insort(unplaced, i)
            at = bisect_right(unplaced, i)
            _count(counts, cliques[i], True)
            alive |= cliques[i]
            continue
        i = unplaced.pop(at)
        _count(counts, cliques[i], False)
        alive = reduce(or_, counts)
        order.append(i)
        at = 0
    return order


def _least_path(masks: tuple[int, ...], src: int, targets: int, allowed: int) -> tuple[int, ...] | None:
    """The lexicographically least shortest path from src to the bitset
    `targets`, src not among them, with inner vertices in `allowed`, or
    None: BFS layers grown back from the targets until src meets one, then
    a walk from src to the least neighbour one layer nearer at each step."""
    layers, layer = [targets], targets  # layers[k]: vertices k steps from the targets
    allowed &= ~targets  # and, as layers grow, without them
    while not masks[src] & layer:
        layer = _neighbours_of(masks, layer) & allowed
        if not layer:
            return None
        layers.append(layer)
        allowed ^= layer
    path = [src]
    for layer in reversed(layers):
        step = masks[path[-1]] & layer
        path.append((step & -step).bit_length() - 1)
    return tuple(path)


def _least_shortest_hole(masks: tuple[int, ...]) -> tuple[int, ...] | None:
    """The shortest, then lexicographically least, chordless cycle in
    canonical form (minimum vertex first, second vertex smaller than the
    last), or None when there is none.

    For each b and each induced path a-b-c with a < c, both above b, a
    bitset BFS from a through the vertices above b outside N[b] reaches c
    at the first layer that meets N(c); layer j gives a cycle of length
    j + 3. The targets c miss N(a), so the BFS starts at layer 1, N(a)
    inside those vertices. A BFS stops once it cannot beat the best length
    so far, so every hit is a strict improvement, and the last one is the
    least (b, a) opening a shortest cycle; a hit of length 4 cannot be
    beaten, so the scan returns at once. Every a-c path of that length
    through those vertices is a shortest one, so it is induced and closes
    a chordless cycle with b, and `_least_path` from a to that pair's
    targets spells out the least cycle.
    """
    n = len(masks)
    full = (1 << n) - 1
    best, found = n + 1, None
    for b in range(n):
        above = full & ~((2 << b) - 1)
        allowed = above & ~masks[b]
        for a in bit_indices(masks[b] & above):
            targets = masks[b] & ~masks[a] & ~((2 << a) - 1)
            layer = masks[a] & allowed
            seen = layer | 1 << a
            depth = 1
            while targets and layer and depth + 3 < best:
                reach = _neighbours_of(masks, layer)
                if reach & targets:
                    if depth == 1:  # a 4-hole: no chordless cycle is shorter
                        return (b,) + _least_path(masks, a, targets, allowed)
                    best, found = depth + 3, (b, a, targets, allowed)
                    break
                layer = reach & allowed & ~seen
                seen |= layer
                depth += 1
    return None if found is None else (found[0],) + _least_path(masks, *found[1:])


def check_triangulated(g: Graph) -> Obstruction | None:
    """None when every simple cycle of length >= 4 has a chord; otherwise
    the shortest (then lexicographically least) chordless cycle, starting at
    its minimum vertex with the second vertex smaller than the last.

    Three steps on `Graph.masks`, each exact:

    1. A chordal graph has a perfect elimination ordering, and maximum
       cardinality search finds one whenever one exists, so one sweep plus
       the elimination check decides chordality. That sweep is
       `Graph.chordal_cliques`, cached on the graph, so `recognize` and
       `pair_graph` read the same one.
    2. A chordless cycle through a-b-c with b its minimum vertex is b plus
       an induced a-c path through vertices above b that avoids N[b];
       conversely a shortest such path is induced and, with b, closes a
       chordless cycle. So the least BFS distance over all such a-b-c, plus
       2, is the shortest length, and the least pair (b, a) attaining it
       opens the least shortest cycle. c is not in N(a), so each BFS starts
       one layer out, and the scan stops at the first pair that closes a
       4-hole: pairs run in order, and no chordless cycle is shorter.
    3. The rest of that cycle is the least shortest path from a to that
       pair's targets c through the vertices above b outside N[b]
       (`_least_path`).
    """
    if g.chordal_cliques is not None:
        return None
    cycle = _least_shortest_hole(g.masks)
    if cycle is None:
        raise InternalInconsistencyError(
            "the chordality sweep failed, yet no chordless cycle was found"
        )
    return Obstruction(kind=CHORDLESS_CYCLE, cycle=cycle)


def find_asteroidal_triple(g: Graph) -> Obstruction | None:
    """The lexicographically least asteroidal triple with witness paths.

    A triple of pairwise non-adjacent vertices qualifies when every two of
    them are connected by a path avoiding the closed neighborhood of the
    third (reflexivity puts the third vertex itself in that neighborhood).
    With `comp[z][v]` the component bitset of v in G - N[z] (0 for v in
    N[z]), the z that complete a non-adjacent pair x < y are the bits of
    `comp[y][x] & comp[x][y]` above y (both exclude N[x] and N[y]); pairs
    run in lexicographic order and z ascending, and each z is tested for an
    x-y path avoiding N[z], so the first hit is the least triple; `comp[z]`
    is built when the scan first reads it. Witness paths avoid the third
    vertex's closed neighbourhood (`_least_path`).
    """
    masks = g.masks
    everyone = (1 << g.n) - 1
    comp: list[list[int] | None] = [None] * g.n

    def table(z: int) -> list[int]:
        row = comp[z] = [0] * g.n
        for c in component_masks(masks, everyone & ~(masks[z] | 1 << z)):
            for v in bit_indices(c):
                row[v] = c
        return row

    for x in range(g.n):
        for y in bit_indices(everyone & ~masks[x] & ~((2 << x) - 1)):
            common = (comp[y] or table(y))[x] & (comp[x] or table(x))[y]
            for z in bit_indices(common & ~((2 << y) - 1)):
                if (comp[z] or table(z))[x] >> y & 1:
                    paths = []
                    for src, dst, avoid in ((x, y, z), (x, z, y), (y, z, x)):
                        banned = masks[avoid] | 1 << avoid
                        path = _least_path(masks, src, 1 << dst, everyone & ~banned)
                        if path is None:
                            raise InternalInconsistencyError(
                                f"no path from {src} to {dst} avoiding {list(bit_indices(banned))} "
                                "despite component check"
                            )
                        paths.append(path)
                    return Obstruction(kind=ASTEROIDAL_TRIPLE, triple=(x, y, z), witness_paths=tuple(paths))
    return None


def recognize(g: Graph) -> ClosedRepresentation | Obstruction:
    """A verified representation, or a re-validated obstruction.

    A graph that fails the chordality sweep goes straight to its chordless
    cycle; only a chordal graph has its cliques read and ordered."""
    if g.chordal_cliques is not None:
        cliques = _sorted_cliques(g)
        order = _consecutive_clique_order(cliques)
        if order is not None:
            # first and last positions: where a prefix, or suffix, OR gains a vertex
            ordered = [cliques[i] for i in order]
            ends = ([0] * g.n, [0] * g.n)
            for end, positions in zip(ends, (range(len(order)), reversed(range(len(order))))):
                seen = 0
                for p in positions:
                    for v in bit_indices(ordered[p] & ~seen):
                        end[v] = p
                    seen |= ordered[p]
            rep = ClosedRepresentation(g.n, tuple(ends[0]), tuple(ends[1]))
            if not verify_representation(g, rep):
                raise InternalInconsistencyError(
                    "clique ordering produced a representation that fails verification"
                )
            return rep
    obstruction = check_triangulated(g)
    if obstruction is None:
        obstruction = find_asteroidal_triple(g)
    if obstruction is None:
        raise InternalInconsistencyError(
            "no consecutive clique ordering exists, yet the graph is triangulated "
            "with no asteroidal triple"
        )
    if not validate_obstruction(g, obstruction):
        raise InternalInconsistencyError("extracted obstruction failed re-validation")
    return obstruction


def validate_obstruction(g: Graph, obs: Obstruction) -> bool:
    """Re-check an obstruction directly against the definitions. A field of
    the wrong shape (not a tuple or list, or of the wrong length) gives
    False, as a wrong entry does."""
    if obs.kind == CHORDLESS_CYCLE:
        cycle = obs.cycle
        if not isinstance(cycle, (tuple, list)) or len(cycle) < 4:
            return False
        if not all(_is_index(v) and 0 <= v < g.n for v in cycle):
            return False
        if len(set(cycle)) != len(cycle):
            return False
        # chordless: on the cycle, each vertex sees exactly its two neighbours
        on_cycle = sum(1 << v for v in cycle)
        return all(
            g.masks[c] & on_cycle == (1 << cycle[i - 1] | 1 << cycle[(i + 1) % len(cycle)])
            for i, c in enumerate(cycle)
        )
    if obs.kind == ASTEROIDAL_TRIPLE:
        triple, paths = obs.triple, obs.witness_paths
        if not (isinstance(triple, (tuple, list)) and len(triple) == 3
                and isinstance(paths, (tuple, list)) and len(paths) == 3
                and all(isinstance(path, (tuple, list)) for path in paths)):
            return False
        if not all(_is_index(v) and 0 <= v < g.n for v in triple):
            return False
        x, y, z = triple
        if g.adjacent(x, y) or g.adjacent(x, z) or g.adjacent(y, z):
            return False
        expectations = ((x, y, z), (x, z, y), (y, z, x))
        for (a, b, avoid), path in zip(expectations, paths):
            try:
                validate_path(g, path)
            except InputError:
                return False
            if path[0] != a or path[-1] != b:
                return False
            if sum(1 << v for v in set(path)) & (g.masks[avoid] | 1 << avoid):
                return False
        return True
    return False


def obstruction_to_jsonable(obs: Obstruction, name) -> dict:
    if obs.kind == CHORDLESS_CYCLE:
        return {"kind": obs.kind, "cycle": [name(v) for v in obs.cycle]}
    return {
        "kind": obs.kind,
        "triple": [name(v) for v in obs.triple],
        "witness_paths": [[name(v) for v in path] for path in obs.witness_paths],
    }
