"""Golden digests of the CLI's exit code, stdout and stderr.

Each of `recognize`, `decide`, `buried`, `wq` and `orders`, in text mode
and with `--json`, runs over one fixed corpus of about sixty inputs:
labelled graphs, interval graphs, graphs that are not chordal, disconnected
unions and malformed text. Everything it prints is folded into one SHA-256
digest per command and mode, so any change to output or exit codes, down
to a byte, fails here. `gadget`, in both modes, and `selftest --max-n 4`
in text mode read no graph; they get one digest each over fixed argument
lists instead (`selftest --json` reports timings, so it has none). The corpus is built in this file alone, from seeded
`random.Random` draws, so it does not move when the library changes.

To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed dictionaries over `GOLDEN` and `GOLDEN_ARGV`.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from intorder.cli import run

MODES = [
    (command, as_json)
    for command in ("recognize", "decide", "buried", "wq", "orders")
    for as_json in (False, True)
]

# the brute-force oracle behind `orders` is exponential; a low bound keeps
# the corpus fast and makes the larger inputs exercise its refusal
ORDERS_MAX_N = "7"

GOLDEN = {
    'recognize': 'c9e40a07dca68ab7778ed3cc22ae8d32ef3d81238d1b475b738b8b31f24b33c5',
    'recognize --json': 'ec8355fa54c0c61caf056c794633a1c8fd86c22be18fdb977f836d7d6a604358',
    'decide': '602258fbb634b98361e5cc2d0edcbb4b3f15db2f0a37db1174ad7dc1eb6db434',
    'decide --json': '72461394e8010195072ce1bb3efcbc6b18a26ee18f128c463fc2c2c156e58885',
    'buried': '56d2dd24f557c7a04034debee9f1aaf8482810999bf8a0daa8d2908648a68225',
    'buried --json': '8bd39e46327f96bc73842590357a02cc6c33173116c9a584946777300b553602',
    'wq': '790240b3e6a9cafd7b691f1b28bec78a6908a45dff713a383b52a80831baf720',
    'wq --json': '1e71c10dbdf0940eaa5c9ad3dd7576ac1214c5b9172875bd7d0e3a45dfca30ab',
    'orders': '5980fc3562f967414cab05f548ab0a1bfc7e0ebd182ad10f4df014cc94a5d334',
    'orders --json': '1f39d0c55690695ef52e235bda959abdb73f01f24635b150e52db6b4ac895eca',
}

# `gadget` argument lists: staged prefixes, a partial stage count, and
# malformed specs (repeated, negative, non-numeric values, bad stage counts)
GADGET_ARGS = [
    ["--f", "0"],
    ["--f", "0,1,2"],
    ["--f", "2,0,1"],
    ["--f", "5,4,3,2,1,0"],
    ["--f", "3,1,4,0,2", "--stages", "3"],
    ["--f", "7,2,5,0,6,1,4,3"],
    ["--f", ""],
    ["--f", "1,1"],
    ["--f=-1"],
    ["--f", "a,b"],
    ["--f", "0,1", "--stages", "3"],
    ["--f", "0,1", "--stages", "-1"],
]

ARGV_RUNS = {
    "gadget": [["gadget"] + args for args in GADGET_ARGS],
    "gadget --json": [["gadget", "--json"] + args for args in GADGET_ARGS],
    "selftest --max-n 4": [["selftest", "--max-n", "4"]],
}

GOLDEN_ARGV = {
    'gadget': '7661adc995cb732c49b3db8383546cf7a070be9b6feb6e723a16a09e0fb759f7',
    'gadget --json': 'c79eb7cdd33a6bf401e34df068c92086b6a323a77925f4b98653ae726842815b',
    'selftest --max-n 4': '5c69770854b27d59b1ef0ae98fdd69ebe3655fcb6d8e126858bbb3011a25ebca',
}


def _graph_text(n, edges, labels=None) -> str:
    obj: dict = {"n": n, "edges": [list(e) for e in sorted({tuple(sorted(e)) for e in edges})]}
    if labels:
        obj["labels"] = {str(v): name for v, name in sorted(labels.items())}
    return json.dumps(obj)


def _interval_edges(intervals):
    return [
        (u, v)
        for u in range(len(intervals))
        for v in range(u + 1, len(intervals))
        if intervals[u][0] <= intervals[v][1] and intervals[v][0] <= intervals[u][1]
    ]


def _random_intervals(n, rng):
    out = []
    for _ in range(n):
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        out.append((min(a, b), max(a, b)))
    return out


def _gnp_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _shift(edges, by):
    return [(u + by, v + by) for u, v in edges]


def corpus() -> list[tuple[str, str]]:
    """(name, stdin text) pairs, fixed by their seeds."""
    rng = random.Random(20261018)
    items: list[tuple[str, str]] = []

    def add(name, n, edges, labels=None):
        items.append((name, _graph_text(n, edges, labels)))

    # hand-made fixtures, some labelled
    add("empty0", 0, [])
    add("k1", 1, [])
    add("k2", 2, [(0, 1)])
    add("empty3", 3, [])
    add("k3", 3, [(0, 1), (0, 2), (1, 2)])
    add("p4", 4, [(0, 1), (1, 2), (2, 3)])
    add("star3", 4, [(0, 1), (0, 2), (0, 3)])
    add("c4", 4, _cycle(4))
    add("two_k2", 4, [(0, 1), (2, 3)])
    add("single_nonedge4", 4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
        {0: "a", 1: "b", 2: "c", 3: "d"})
    add("net", 6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],
        {0: "a", 1: "b", 2: "c", 3: "x", 4: "y", 5: "z"})
    add("partly_labelled_p5", 5, [(0, 1), (1, 2), (2, 3), (3, 4)], {1: "mid", 4: "end"})
    add("c5", 5, _cycle(5))
    add("c6_labelled", 6, _cycle(6), {v: f"c{v}" for v in range(6)})
    add("c7", 7, _cycle(7))
    add("claw_subdivided", 7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    add("k4", 4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    add("bull", 5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    add("domino", 6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    add("k2_join_3", 5, [(0, 1)] + [(c, v) for c in (0, 1) for v in (2, 3, 4)])

    # seeded interval graphs, in the drawn order and relabelled
    for i, n in enumerate((5, 6, 7, 8, 9, 10, 12, 14)):
        intervals = _random_intervals(n, rng)
        add(f"interval_{i}_n{n}", n, _interval_edges(intervals))
    for i, n in enumerate((6, 7, 9, 11)):
        intervals = _random_intervals(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in _interval_edges(intervals)]
        labels = {perm[v]: f"I{v}" for v in range(n)}
        add(f"interval_labelled_{i}_n{n}", n, edges, labels)

    # seeded G(n, p): mostly neither chordal nor interval
    for i, (n, p) in enumerate(
        ((5, 0.5), (6, 0.4), (6, 0.6), (7, 0.3), (7, 0.5), (8, 0.4),
         (8, 0.7), (9, 0.3), (10, 0.5), (12, 0.3))
    ):
        add(f"gnp_{i}_n{n}", n, _gnp_edges(n, p, rng))

    # disconnected unions
    add("k2_plus_k1", 3, [(0, 1)])
    add("k2_k2_k1", 5, [(0, 1), (2, 3)])
    add("k3_plus_k2", 5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    add("p3_plus_k1", 4, [(0, 1), (1, 2)])
    add("c4_plus_p3", 7, _cycle(4) + _shift([(0, 1), (1, 2)], 4))
    for i, (a, b) in enumerate(((4, 3), (5, 4), (6, 5))):
        left = _interval_edges(_random_intervals(a, rng))
        right = _interval_edges(_random_intervals(b, rng))
        add(f"interval_union_{i}", a + b, left + _shift(right, a))
    left = _gnp_edges(5, 0.5, rng)
    add("gnp_union", 9, left + _shift(_cycle(4), 5), {0: "u0", 8: "u8"})

    # malformed inputs
    items += [
        ("bad_json", "{not json"),
        ("missing_edges", json.dumps({"n": 3})),
        ("self_loop", json.dumps({"n": 3, "edges": [[1, 1]]})),
        ("out_of_range", json.dumps({"n": 3, "edges": [[0, 3]]})),
        ("shared_label", json.dumps({"n": 2, "edges": [], "labels": {"0": "a", "1": "a"}})),
        ("bool_n", json.dumps({"n": True, "edges": []})),
        ("edges_not_list", json.dumps({"n": 2, "edges": "01"})),
        ("negative_n", json.dumps({"n": -1, "edges": []})),
    ]
    return items


def digest(command: str, as_json: bool) -> str:
    argv = [command] + (["--json"] if as_json else [])
    if command == "orders":
        argv += ["--enumerate", "--max-n", ORDERS_MAX_N]
    h = hashlib.sha256()
    for name, text in corpus():
        code, out, err = run(argv, text)
        h.update(f"{name}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def argv_digest(key: str) -> str:
    h = hashlib.sha256()
    for argv in ARGV_RUNS[key]:
        code, out, err = run(argv)
        h.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def _key(command: str, as_json: bool) -> str:
    return f"{command} --json" if as_json else command


def test_corpus_is_fixed_and_varied():
    items = corpus()
    assert 55 <= len(items) <= 70
    assert len({name for name, _ in items}) == len(items)
    assert items == corpus()


@pytest.mark.parametrize("command,as_json", MODES, ids=[_key(*m) for m in MODES])
def test_cli_output_matches_golden_digest(command, as_json):
    assert digest(command, as_json) == GOLDEN[_key(command, as_json)]


@pytest.mark.parametrize("key", list(ARGV_RUNS))
def test_argv_output_matches_golden_digest(key):
    assert argv_digest(key) == GOLDEN_ARGV[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for mode in MODES:
        print(f"    {_key(*mode)!r}: {digest(*mode)!r},")
    print("}")
    print("GOLDEN_ARGV = {")
    for key in ARGV_RUNS:
        print(f"    {key!r}: {argv_digest(key)!r},")
    print("}")
