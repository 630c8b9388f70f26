"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The shared corpus holds every connected non-complete interval graph on at
most 6 vertices (exhaustive over all graphs, filtered by recognition) plus
1000 seeded random interval graphs on 7..12 vertices, likewise connected
and non-complete. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations

import pytest

from conftest import (
    c4,
    comparable,
    empty3,
    incomparability_graph,
    induced_subgraph,
    is_interval_order,
    is_minimal_path,
    linked,
    neighbors,
    net_graph,
    order_from_pairs,
    pair_path,
    random_graph,
    random_walk,
    refine_to_minimal,
    representation_from_intervals,
    single_nonedge4,
    star3,
    two_k2,
    universal_vertices,
    wholly_before,
)
from intorder import (
    ClosedRepresentation,
    GadgetSpec,
    Obstruction,
    build_gadget,
    buried_candidate,
    components,
    decide_unique,
    enumerate_associated_orders,
    find_buried,
    induced_graph,
    is_associated,
    is_buried,
    order_to_representation,
    pair_graph,
    random_interval_graph,
    recognize,
    representation_to_order,
)
from intorder.gadgets import all_graphs
from intorder.oracle import OrientationSet

BASE_SEED = 20260810
N_RANDOM = 1000
TRIALS = 10_000
ORDER_ROUND_TRIPS = 1_000
REPRESENTATION_ROUND_TRIPS = 10_000


def announce(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")


@dataclass
class Item:
    graph: object
    rep: ClosedRepresentation
    enum: OrientationSet
    verdict: object
    source: str


@dataclass
class Corpus:
    items: list[Item]
    build_seconds: float


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    t0 = time.time()
    items: list[Item] = []
    for n in range(1, 7):
        for g in all_graphs(n):
            rec = recognize(g)
            if isinstance(rec, Obstruction):
                continue
            if len(components(g)) != 1 or g.is_complete():
                continue
            items.append(Item(g, rec, enumerate_associated_orders(g), None, "exhaustive"))
    drawn = 0
    kept = 0
    while kept < N_RANDOM:
        n = 7 + (drawn % 6)
        g, rep = random_interval_graph(n, BASE_SEED + drawn)
        drawn += 1
        if len(components(g)) != 1 or g.is_complete():
            continue
        items.append(Item(g, rep, enumerate_associated_orders(g), None, "random"))
        kept += 1
    for item in items:
        item.verdict = decide_unique(item.graph)
    return Corpus(items, time.time() - t0)


def test_criterion_1_three_way_equivalence(corpus):
    t0 = time.time()
    violations = []
    for item in corpus.items:
        g = item.graph
        by_oracle = item.enum.dual_classes == 1
        by_buried = find_buried(g) is None
        by_pairs = pair_graph(g).component_count == 2
        if not (by_oracle == by_buried == by_pairs):
            violations.append((sorted(g.edges), by_oracle, by_buried, by_pairs))
    elapsed = corpus.build_seconds + (time.time() - t0)
    ok = not violations and elapsed < 120.0
    announce(
        "criterion-1 three-way-equivalence",
        ok,
        f"{len(corpus.items)} graphs, {len(violations)} disagreements, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 120.0


def test_criterion_2_certificate_validity(corpus):
    failures = []
    for item in corpus.items:
        g, verdict, enum = item.graph, item.verdict, item.enum
        if verdict.unique:
            if not is_associated(g, verdict.order):
                failures.append(("order-not-associated", sorted(g.edges)))
            elif enum.dual_classes != 1 or verdict.order.rel not in {o.rel for o in enum.orders}:
                failures.append(("order-not-in-oracle-class", sorted(g.edges)))
        else:
            o1, o2 = verdict.witness
            if not (is_associated(g, o1) and is_associated(g, o2)):
                failures.append(("witness-not-associated", sorted(g.edges)))
            elif o2.rel == o1.rel or o2.rel == o1.dual().rel:
                failures.append(("witness-not-new", sorted(g.edges)))
            elif {o1.rel, o2.rel} - {o.rel for o in enum.orders}:
                failures.append(("witness-missing-from-oracle", sorted(g.edges)))
            if verdict.buried is not None and not is_buried(g, verdict.buried.members):
                failures.append(("buried-invalid", sorted(g.edges)))
    ok = not failures
    announce(
        "criterion-2 certificate-validity",
        ok,
        f"{len(corpus.items)} verdicts revalidated, {len(failures)} failures",
    )
    assert not failures, failures[:5]


def test_criterion_3_gadget_reproduction():
    rng = random.Random(BASE_SEED)
    specs = [(0, 1, 2), (2, 0, 1), (5,)]
    while len(specs) < 53:
        length = rng.randint(1, 12)
        specs.append(tuple(rng.sample(range(50), length)))
    mismatches = []
    for values in specs:
        out = build_gadget(GadgetSpec(values, len(values)))
        g = out.graph
        grown = buried_candidate(g, 0, 1)
        check = is_buried(g, out.predicted_members)
        verdict = decide_unique(g)
        rec = recognize(g)
        if grown.members != out.predicted_members:
            mismatches.append(("grown-set", values))
        if not check.buried or check.separators != out.predicted_separators:
            mismatches.append(("separators", values))
        if check.outside != out.predicted_outside or out.predicted_outside != frozenset({3}):
            mismatches.append(("outside", values))
        if verdict.unique:
            mismatches.append(("unexpectedly-unique", values))
        if not isinstance(rec, ClosedRepresentation):
            mismatches.append(("not-recognized", values))
    ok = not mismatches
    announce(
        "criterion-3 gadget-reproduction",
        ok,
        f"{len(specs)} prefixes (3 fixed + 50 random), {len(mismatches)} mismatches",
    )
    assert not mismatches, mismatches[:5]


def test_criterion_4_small_graph_fixtures():
    failures = []

    verdict = decide_unique(single_nonedge4())
    if not (verdict.unique and verdict.order.rel == frozenset({(0, 2)})):
        failures.append("single_nonedge4")
    rec = recognize(net_graph())
    if not (isinstance(rec, Obstruction) and rec.kind == "asteroidal_triple"
            and rec.triple == (3, 4, 5)):
        failures.append("net_graph")
    rec = recognize(c4())
    if not (isinstance(rec, Obstruction) and rec.kind == "chordless_cycle"
            and rec.cycle == (0, 1, 2, 3)):
        failures.append("c4")
    verdict = decide_unique(star3())
    if not (not verdict.unique and verdict.buried is not None
            and verdict.buried.members == frozenset({1, 2})):
        failures.append("star3")
    if not decide_unique(two_k2()).unique:
        failures.append("2k2")
    if decide_unique(empty3()).unique:
        failures.append("empty3")

    ok = not failures
    announce("criterion-4 small-graph-fixtures", ok, f"6 fixtures, failing: {failures or 'none'}")
    assert not failures


# ---------------------------------------------------------------------------
# Criterion 5: property suites
# ---------------------------------------------------------------------------

def test_criterion_5a_path_meets_straddling_vertex():
    # any vertex not wholly before the path start nor after its end is
    # adjacent to some path vertex
    rng = random.Random(BASE_SEED + 1)
    violations = 0
    effective = 0
    for trial in range(TRIALS):
        n = rng.randint(3, 10)
        g, rep = random_interval_graph(n, BASE_SEED + 10_000 + trial)
        walk = random_walk(g, rng)
        v0, vn = walk[0], walk[-1]
        for w in range(n):
            if wholly_before(rep, w, v0) or wholly_before(rep, vn, w):
                continue
            effective += 1
            if not any(g.adjacent(x, w) for x in walk):
                violations += 1
    ok = violations == 0 and effective > TRIALS
    announce(
        "criterion-5a straddling-vertex-meets-path",
        ok,
        f"{TRIALS} trials, {effective} vertex checks, {violations} violations",
    )
    assert ok


def _random_minimal_path(g, rep, rng):
    """A minimal path whose first interval lies wholly before its last."""
    candidates = [
        (v, u)
        for v in range(g.n)
        for u in range(g.n)
        if v != u and not g.adjacent(v, u) and wholly_before(rep, v, u)
    ]
    if not candidates:
        return None
    v0, vn = rng.choice(candidates)
    parent = {v0: None}
    queue = [v0]
    while queue:
        x = queue.pop(0)
        if x == vn:
            break
        for w in sorted(neighbors(g, x)):
            if w not in parent:
                parent[w] = x
                queue.append(w)
    if vn not in parent:
        return None
    path = []
    cur = vn
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    return refine_to_minimal(g, list(reversed(path)))


def test_criterion_5b_minimal_path_endpoint_monotonicity():
    rng = random.Random(BASE_SEED + 2)
    violations = 0
    trials = 0
    attempt = 0
    while trials < TRIALS:
        attempt += 1
        n = rng.randint(3, 10)
        g, rep = random_interval_graph(n, BASE_SEED + 20_000 + attempt)
        path = _random_minimal_path(g, rep, rng)
        if path is None:
            continue
        trials += 1
        if not is_minimal_path(g, path):
            violations += 1
            continue
        last = len(path) - 1
        # right endpoints rise strictly except across the final step,
        # left endpoints rise strictly except across the first step
        for i in range(last - 1):
            if not rep.right[path[i]] < rep.right[path[i + 1]]:
                violations += 1
        for j in range(1, last):
            if not rep.left[path[j]] < rep.left[path[j + 1]]:
                violations += 1
        # vertices wholly before the start touch at most the second vertex;
        # vertices wholly after the end touch at most the second-to-last
        for v in range(n):
            if wholly_before(rep, v, path[0]):
                for i, x in enumerate(path):
                    if i != 1 and g.adjacent(x, v):
                        violations += 1
            if wholly_before(rep, path[-1], v):
                for i, x in enumerate(path):
                    if i != last - 1 and g.adjacent(x, v):
                        violations += 1
    ok = violations == 0
    announce(
        "criterion-5b minimal-path-endpoint-monotonicity",
        ok,
        f"{trials} minimal paths, {violations} violations",
    )
    assert ok


def test_criterion_5c_refine_to_minimal_properties():
    rng = random.Random(BASE_SEED + 3)
    violations = 0
    for _ in range(TRIALS):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        walk = random_walk(g, rng)
        refined = refine_to_minimal(g, walk)
        if not is_minimal_path(g, refined):
            violations += 1
        if refined[0] != walk[0] or refined[-1] != walk[-1]:
            violations += 1
        it = iter(walk)
        if not all(v in it for v in refined):
            violations += 1
    ok = violations == 0
    announce(
        "criterion-5c refine-to-minimal",
        ok,
        f"{TRIALS} graph/walk pairs, {violations} violations",
    )
    assert ok


def test_criterion_5d_orientation_transport(corpus):
    checks = 0
    violations = 0
    reversed_reachable = 0
    for item in corpus.items:
        pg = pair_graph(item.graph)
        for a, b in pg.pairs:
            if pg.component_of[(a, b)] == pg.component_of[(b, a)]:
                reversed_reachable += 1
        if item.graph.n > 7:
            continue
        links = [
            (p, q)
            for i, p in enumerate(pg.pairs)
            for q in pg.pairs[i + 1 :]
            if linked(pg, p, q)
        ]
        for order in item.enum.orders:
            for (a, b), (c, d) in links:
                checks += 1
                if order.less(a, b) and not order.less(c, d):
                    violations += 1
                if order.less(c, d) and not order.less(a, b):
                    violations += 1
    small = sum(1 for item in corpus.items if item.graph.n <= 7)
    ok = violations == 0 and reversed_reachable == 0
    announce(
        "criterion-5d orientation-transport",
        ok,
        f"{small} graphs with n<=7, {checks} order/link checks, {violations} violations, "
        f"{reversed_reachable} reversed-pair reachability failures",
    )
    assert ok


@pytest.fixture(scope="module")
def grown_set_trials():
    """Shared trials for the level-monotonicity and linkage-path suites."""
    rng = random.Random(BASE_SEED + 4)
    records = []
    attempt = 0
    while len(records) < TRIALS:
        attempt += 1
        n = rng.randint(4, 9)
        g, rep = random_interval_graph(n, BASE_SEED + 40_000 + attempt)
        if len(components(g)) != 1:
            continue
        candidates = [
            (v, u)
            for v in range(n)
            for u in range(n)
            if v != u and not g.adjacent(v, u) and wholly_before(rep, v, u)
        ]
        if not candidates:
            continue
        v, u = rng.choice(candidates)
        records.append((g, rep, v, u, buried_candidate(g, v, u)))
    return records


def test_criterion_5e_level_monotonicity(grown_set_trials):
    violations = 0
    comparisons = 0
    for g, rep, v, u, grown in grown_set_trials:
        level = grown.level
        members = sorted(level)
        for x in members:
            for y in members:
                if wholly_before(rep, u, x) and rep.left[x] <= rep.left[y]:
                    comparisons += 1
                    if level[x] > level[y]:
                        violations += 1
                if wholly_before(rep, x, v) and rep.right[y] <= rep.right[x]:
                    comparisons += 1
                    if level[x] > level[y]:
                        violations += 1
    ok = violations == 0 and comparisons > 0
    announce(
        "criterion-5e level-monotonicity",
        ok,
        f"{len(grown_set_trials)} trials, {comparisons} comparisons, {violations} violations",
    )
    assert ok


def test_criterion_5f_linkage_paths_within_grown_set(grown_set_trials):
    violations = 0
    checked = 0
    for g, rep, v, u, grown in grown_set_trials:
        pg = pair_graph(g)
        home = pg.component_of[(v, u)]
        exercised = False
        for x in sorted(grown.level):
            for y in sorted(grown.level):
                if rep.right[x] <= rep.right[v] and rep.left[u] <= rep.left[y]:
                    checked += 1
                    if pg.component_of.get((x, y)) != home:
                        violations += 1
                    elif not exercised:
                        exercised = True
                        if pair_path(pg, (v, u), (x, y)) is None:
                            violations += 1
    ok = violations == 0 and checked >= TRIALS
    announce(
        "criterion-5f linkage-paths-within-grown-set",
        ok,
        f"{len(grown_set_trials)} trials, {checked} pair checks, {violations} violations",
    )
    assert ok


def test_criterion_5g_universal_vertex_invariance(corpus):
    violations = 0
    nontrivial = 0
    for item in corpus.items:
        g = item.graph
        hub = universal_vertices(g)
        if not hub:
            continue
        nontrivial += 1
        rest = [v for v in range(g.n) if v not in hub]
        if rest:
            expected = decide_unique(induced_subgraph(g, rest)).unique
        else:
            expected = True
        if item.verdict.unique != expected:
            violations += 1
    ok = violations == 0 and nontrivial > 0
    announce(
        "criterion-5g universal-vertex-invariance",
        ok,
        f"{len(corpus.items)} graphs ({nontrivial} with universal vertices), "
        f"{violations} violations",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: round trips
# ---------------------------------------------------------------------------

def _random_representation(rng, n):
    grid = 2 * n
    intervals = []
    for _ in range(n):
        a, b = rng.randrange(grid), rng.randrange(grid)
        intervals.append((min(a, b), max(a, b)))
    return representation_from_intervals(intervals)


def test_criterion_6_round_trips():
    rng = random.Random(BASE_SEED + 5)
    failures = 0

    for _ in range(ORDER_ROUND_TRIPS):
        rep = _random_representation(rng, rng.randint(1, 10))
        order = representation_to_order(rep)
        if representation_to_order(order_to_representation(order)).rel != order.rel:
            failures += 1

    for _ in range(REPRESENTATION_ROUND_TRIPS):
        rep = _random_representation(rng, rng.randint(1, 9))
        if incomparability_graph(representation_to_order(rep)).edges != induced_graph(rep).edges:
            failures += 1

    def brute_force_pattern_scan(order) -> bool:
        for a, b in order.rel:
            for c, d in order.rel:
                if len({a, b, c, d}) != 4:
                    continue
                if all(
                    not comparable(order, x, y)
                    for x, y in ((a, c), (a, d), (b, c), (b, d))
                ):
                    return True
        return False

    accepted = rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        layout = list(range(n))
        rng.shuffle(layout)
        pairs = [
            (layout[i], layout[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        order = order_from_pairs(n, pairs)
        verdict = is_interval_order(order)
        if verdict != (not brute_force_pattern_scan(order)):
            failures += 1
        accepted += verdict
        rejected += not verdict

    ok = failures == 0 and accepted > 0 and rejected > 0
    announce(
        "criterion-6 round-trips",
        ok,
        f"{ORDER_ROUND_TRIPS} order trips, {REPRESENTATION_ROUND_TRIPS} graph trips, "
        f"3000 pattern scans ({accepted} interval, {rejected} not), {failures} failures",
    )
    assert ok


def test_recognition_soundness_exhaustive_n6():
    """Recognition accepts exactly the graphs having an associated interval
    order, over every graph on at most 6 vertices."""
    mismatches = 0
    count = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            count += 1
            accepted = not isinstance(recognize(g), Obstruction)
            enum = enumerate_associated_orders(g)
            expected = any(is_interval_order(o) for o in enum.orders)
            if accepted != expected:
                mismatches += 1
    ok = mismatches == 0
    announce(
        "report recognition-soundness-n6",
        ok,
        f"{count} graphs both ways, {mismatches} mismatches",
    )
    assert ok


# ---------------------------------------------------------------------------
# Reported extra: minimality of the grown buried sets on small graphs
# ---------------------------------------------------------------------------

def test_buried_candidate_minimality_small_graphs(corpus):
    """No proper subset of a buried grown set that keeps the generating
    pair is itself buried; exhaustive over the n <= 6 corpus."""
    counterexamples = []
    scanned = 0
    for item in corpus.items:
        g = item.graph
        if item.source != "exhaustive":
            continue
        for v in range(g.n):
            for u in range(v + 1, g.n):
                if g.adjacent(v, u):
                    continue
                grown = buried_candidate(g, v, u)
                if not is_buried(g, grown.members):
                    continue
                scanned += 1
                others = sorted(grown.members - {v, u})
                for size in range(len(others)):
                    for extra in combinations(others, size):
                        subset = frozenset({v, u} | set(extra))
                        if subset != grown.members and is_buried(g, subset):
                            counterexamples.append((sorted(g.edges), v, u, sorted(subset)))
    ok = not counterexamples
    announce(
        "report buried-candidate-minimality-n6",
        ok,
        f"{scanned} buried grown sets scanned exhaustively, "
        f"{len(counterexamples)} proper buried subsets found",
    )
    assert ok, counterexamples[:3]
