"""Batch command-line front end.

Exit codes: 0 positive verdict (interval graph, uniquely orderable, or
certificate found, as requested), 1 negative verdict with certificate,
2 input error, 3 internal inconsistency or any other unexpected error
(always a bug), 141 (128 + SIGPIPE, as a shell reports it) when the reader
closes stdout early. Output is JSON with --json, otherwise human-readable
text derived from the same data.
Output is byte-identical across runs for identical inputs and seeds, except
for the per-check `seconds` that `selftest --json` reports. The `gadget`,
`orders` and `selftest` commands import `gadgets` and `oracle` when they
run, so no other command's process loads them. A graph command's plain
argv (`_plain_graph_args`) is read without `argparse`; help, usage
errors and the other commands import it and build the parser. Every
command imports `orderability`, `recognize` included.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from .errors import InputError, InternalInconsistencyError, NotIntervalGraphError
from .graphs import (
    Graph,
    components,
    graph_from_edges,
    is_associated,
    parse_edgelist,
    parse_graph_json,
)
from .orderability import (
    _order_pairs_jsonable,
    buried_candidate,
    buried_to_jsonable,
    decide_unique,
    find_buried,
    is_buried,
    pair_graph,
    verdict_to_jsonable,
)
from .recognition import Obstruction, obstruction_to_jsonable, recognize
from .representation import (
    induced_graph,
    normalize_distinguishing,
    order_to_representation,
    representation_to_jsonable,
    representation_to_order,
    verify_representation,
)

DEFAULT_SEED = 20260810
# json.dumps's defaults without its cycle check: every payload is a fresh tree
_JSON = json.JSONEncoder(check_circular=False)


# the commands that read one graph, with their help, and the input formats they take
_GRAPH_COMMANDS = {
    "recognize": "interval graph or obstruction certificate",
    "decide": "unique orderability with certificates",
    "buried": "search for a buried subgraph certificate",
    "wq": "pair graph on non-adjacent pairs and its components",
}
_FORMATS = ("json", "edgelist")


def build_parser():
    """The `argparse.ArgumentParser` of every command; only help, usage
    errors and the commands other than `_GRAPH_COMMANDS` need it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="intorder",
        description="Recognize interval graphs and decide unique orderability, "
        "emitting machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input path, or '-' for stdin (default)")
        p.add_argument("--format", choices=_FORMATS, default="json",
                       help="input format (default: json)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    for command, help_text in _GRAPH_COMMANDS.items():
        add_input_options(sub.add_parser(command, help=help_text))

    p = sub.add_parser("orders", help="enumerate associated orders by brute force")
    add_input_options(p)
    p.add_argument("--enumerate", action="store_true", help="list every order")
    p.add_argument("--max-n", type=int, default=12, help="oracle vertex bound (<= 16)")

    p = sub.add_parser("gadget", help="build the staged test-family graph")
    p.add_argument("--f", required=True,
                   help="comma-separated distinct nonnegative integers")
    p.add_argument("--stages", type=int, default=None,
                   help="number of x/y stages (default: len of --f)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("selftest", help="run the built-in check corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-n", type=int, default=5,
                   help="exhaustive bound for the agreement sweep (3 to 7; 7 takes minutes)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    return parser


@functools.cache
def _parser():
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _plain_graph_args(argv) -> SimpleNamespace | None:
    """What `_parser().parse_args(argv)` returns for the plain argv of a
    graph command: the command, then any of `--json`, `--format F` and
    `--format=F`, and at most one path that is `-` or does not start with
    `-`. Any other argv gives None and goes to argparse, which writes every
    help, usage and error text."""
    if not (argv and all(isinstance(token, str) for token in argv) and argv[0] in _GRAPH_COMMANDS):
        return None
    args = SimpleNamespace(command=argv[0], input="-", format="json", json=False)
    seen_path = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            args.json = True
        elif token == "--format" or token.startswith("--format="):
            value = next(tokens, None) if token == "--format" else token[len("--format="):]
            if value not in _FORMATS:
                return None
            args.format = value
        elif not seen_path and (token == "-" or not token.startswith("-")):
            args.input = token
            seen_path = True
        else:
            return None
    return args


def _load_graph(args, stdin_text: str | None) -> Graph:
    try:
        if args.input != "-":
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read() if stdin_text is None else stdin_text
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from None
    if args.format == "json":
        return parse_graph_json(text)
    return parse_edgelist(text)


def _interval_lines(rep, name):
    """One line per vertex: its name and its interval's endpoints, each as `str` writes it."""
    for v in range(rep.n):
        yield f"{name(v)}: [{rep.left[v]!s}, {rep.right[v]!s}]"


def _emit(as_json: bool, payload, text) -> None:
    """Print `payload()` as JSON with --json, else the lines of `text()`;
    only the output that is printed gets built."""
    if as_json:
        print(_JSON.encode(payload()))
    else:
        for line in text():
            print(line)


def _names(name, vertices) -> str:
    return " ".join(str(name(v)) for v in vertices)


def _cmd_recognize(g: Graph, args) -> int:
    result = recognize(g)
    name = g.label_of
    if isinstance(result, Obstruction):
        def text():
            yield "interval graph: no"
            if result.kind == "chordless_cycle":
                yield "chordless cycle: " + _names(name, result.cycle)
            else:
                yield "asteroidal triple: " + _names(name, result.triple)
                for path in result.witness_paths:
                    yield "witness path: " + _names(name, path)

        _emit(args.json, lambda: obstruction_to_jsonable(result, name), text)
        return 1

    def text():
        yield "interval graph: yes"
        yield from _interval_lines(result, name)

    _emit(args.json, lambda: representation_to_jsonable(result), text)
    return 0


def _order_text(order, name) -> str:
    return " ".join(f"{u}<{v}" for u, v in _order_pairs_jsonable(order, name)) or "(antichain)"


def _cmd_decide(g: Graph, args) -> int:
    verdict = decide_unique(g)
    name = g.label_of

    def text():
        yield f"uniquely orderable: {'yes' if verdict.unique else 'no'}"
        if verdict.order is not None:
            yield "order: " + _order_text(verdict.order, name)
        if verdict.witness is not None:
            yield "order1: " + _order_text(verdict.witness[0], name)
            yield "order2: " + _order_text(verdict.witness[1], name)
            yield "disagreement triple: " + _names(name, verdict.triple)
        if verdict.buried is not None:
            cert = verdict.buried
            yield (
                "buried B: " + _names(name, sorted(cert.members))
                + " | K: " + _names(name, sorted(cert.separators))
                + " | R: " + _names(name, sorted(cert.outside))
            )
        yield f"wq components: {verdict.wq_components}"

    _emit(args.json, lambda: verdict_to_jsonable(verdict, name), text)
    return 0 if verdict.unique else 1


def _cmd_buried(g: Graph, args) -> int:
    cert = find_buried(g)
    name = g.label_of
    if cert is None:
        _emit(args.json, lambda: {"found": False}, lambda: ["buried subgraph: none"])
        return 1

    def payload():
        out = {"found": True, "pair": [name(cert.pair[0]), name(cert.pair[1])]}
        out.update(buried_to_jsonable(cert, name))
        out["witness_nonedge"] = [name(cert.witness_nonedge[0]), name(cert.witness_nonedge[1])]
        out["witness_outside"] = name(cert.witness_outside)
        return out

    def text():
        yield "buried subgraph: found"
        yield "B: " + _names(name, sorted(cert.members))
        yield "K: " + _names(name, sorted(cert.separators))
        yield "R: " + _names(name, sorted(cert.outside))
        yield f"grown from: {name(cert.pair[0])} {name(cert.pair[1])}"

    _emit(args.json, payload, text)
    return 0


def _cmd_wq(g: Graph, args) -> int:
    pg = pair_graph(g)
    names = [g.label_of(v) for v in range(g.n)]  # bound once: every pair is named

    def payload():
        return {
            "pairs": [[names[a], names[b]] for a, b in pg.pairs],
            "component_ids": [pg.component_of[p] for p in pg.pairs],
            "component_count": pg.component_count,
        }

    def text():
        yield f"non-adjacent ordered pairs: {len(pg.pairs)}"
        yield f"components: {pg.component_count}"
        for p in pg.pairs:
            yield f"({names[p[0]]}, {names[p[1]]}) -> component {pg.component_of[p]}"

    _emit(args.json, payload, text)
    return 0


def _cmd_orders(g: Graph, args) -> int:
    from .oracle import enumerate_associated_orders

    if args.max_n > 16:
        raise InputError("--max-n must be at most 16")
    enumeration = enumerate_associated_orders(g, max_n=args.max_n)
    name = g.label_of
    unique = bool(enumeration.orders) and enumeration.dual_classes == 1

    def payload():
        out: dict = {
            "count": len(enumeration.orders),
            "dual_classes": enumeration.dual_classes,
            "unique": unique,
        }
        if args.enumerate:
            out["orders"] = [_order_pairs_jsonable(o, name) for o in enumeration.orders]
        return out

    def text():
        yield f"associated orders: {len(enumeration.orders)}"
        yield f"duality classes: {enumeration.dual_classes}"
        yield f"uniquely orderable: {'yes' if unique else 'no'}"
        if args.enumerate:
            for o in enumeration.orders:
                yield "order: " + _order_text(o, name)

    _emit(args.json, payload, text)
    return 0 if unique else 1


def _cmd_gadget(args) -> int:
    from .gadgets import GadgetSpec, build_gadget, gadget_to_jsonable

    # the edge-list token rule: int() would also take '1_0', '+2' and other scripts' digits
    tokens = [x.strip(" ") for x in args.f.split(",")]
    if not all(t.isascii() and t.removeprefix("-").isdecimal() for t in tokens if t):
        raise InputError(f"--f must be comma-separated integers, got {args.f!r}")
    values = tuple(int(t) for t in tokens if t)
    stages = args.stages if args.stages is not None else len(values)
    spec = GadgetSpec(values, stages)
    out = build_gadget(spec)
    name = out.graph.label_of

    def text():
        yield f"vertices: {out.graph.n}"
        yield "predicted B: " + _names(name, sorted(out.predicted_members))
        yield "predicted K: " + _names(name, sorted(out.predicted_separators))
        yield "predicted R: " + _names(name, sorted(out.predicted_outside))
        yield from _interval_lines(out.representation, name)

    _emit(args.json, lambda: gadget_to_jsonable(out), text)
    return 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def _fixture_graphs() -> dict[str, Graph]:
    return {
        "single-nonedge": graph_from_edges(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
                                    labels=("a", "b", "c", "d")),
        "net": graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],
                                    labels=("a", "b", "c", "x", "y", "z")),
        "c4": graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "star3": graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        "2k2": graph_from_edges(4, [(0, 1), (2, 3)]),
        "empty3": graph_from_edges(3, []),
    }


def _check_fixtures() -> str | None:
    fx = _fixture_graphs()
    verdict = decide_unique(fx["single-nonedge"])
    if not (verdict.unique and list(verdict.order.pairs()) == [(0, 2)] and verdict.wq_components == 2):
        return "single-nonedge verdict wrong"
    result = recognize(fx["net"])
    if not (isinstance(result, Obstruction) and result.triple == (3, 4, 5)):
        return "net obstruction wrong"
    result = recognize(fx["c4"])
    if not (isinstance(result, Obstruction) and result.cycle == (0, 1, 2, 3)):
        return "c4 obstruction wrong"
    verdict = decide_unique(fx["star3"])
    if not (not verdict.unique and verdict.buried is not None
            and verdict.buried.members == frozenset({1, 2})):
        return "star3 verdict wrong"
    if not decide_unique(fx["2k2"]).unique:
        return "2k2 should be unique"
    if decide_unique(fx["empty3"]).unique:
        return "empty3 should not be unique"
    return None


def _connected_non_complete(max_n: int):
    """The labelled graphs both exhaustive checks walk, n from 1 to max_n."""
    from .gadgets import all_graphs

    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if len(components(g)) == 1 and not g.is_complete():
                yield g


def _check_exhaustive_agreement(max_n: int) -> str | None:
    from .oracle import oracle_unique

    checked = 0
    for g in _connected_non_complete(max_n):
        if isinstance(recognize(g), Obstruction):
            continue
        by_oracle = oracle_unique(g)
        by_buried = not any(
            is_buried(g, buried_candidate(g, v, u).members)
            for v in range(g.n) for u in range(v + 1, g.n) if not g.adjacent(v, u)
        )
        by_pairs = pair_graph(g).component_count == 2
        if not (by_oracle == by_buried == by_pairs):
            return (f"disagreement on n={g.n} edges={sorted(g.edges)}: "
                    f"oracle={by_oracle} buried-free={by_buried} two-components={by_pairs}")
        checked += 1
    if checked == 0:
        return "agreement sweep matched no graphs"
    return None


def _check_certificates(max_n: int) -> str | None:
    for g in _connected_non_complete(max_n):
        try:  # decide_unique runs the one recognition
            verdict = decide_unique(g)
        except NotIntervalGraphError:
            continue
        if verdict.wq_components != pair_graph(g).component_count:  # the full fill
            return f"component count differs from the pair graph's on edges={sorted(g.edges)}"
        if verdict.unique:
            if not is_associated(g, verdict.order):
                return f"unique order not associated on edges={sorted(g.edges)}"
        else:
            o1, o2 = verdict.witness
            if not (is_associated(g, o1) and is_associated(g, o2)):
                return f"witness orders not associated on edges={sorted(g.edges)}"
            if o2.succ in (o1.succ, o1.pred):
                return f"witness orders not genuinely different on edges={sorted(g.edges)}"
            if verdict.buried is not None and not is_buried(g, verdict.buried.members):
                return f"buried certificate invalid on edges={sorted(g.edges)}"
    return None


def _check_gadgets() -> str | None:
    from .gadgets import GadgetSpec, build_gadget

    for values in ((0, 1, 2), (2, 0, 1), (5,)):
        spec = GadgetSpec(tuple(values), len(values))
        out = build_gadget(spec)
        if not verify_representation(out.graph, out.representation):
            return f"gadget representation invalid for f={values}"
        grown = buried_candidate(out.graph, 0, 1)
        if grown.members != out.predicted_members:
            return f"grown set mismatch for f={values}"
        check = is_buried(out.graph, out.predicted_members)
        if not (check.buried and check.separators == out.predicted_separators
                and check.outside == out.predicted_outside):
            return f"predicted partition mismatch for f={values}"
        if decide_unique(out.graph).unique:
            return f"gadget unexpectedly uniquely orderable for f={values}"
    return None


def _check_round_trips(seed: int) -> str | None:
    import random as _random

    from .gadgets import random_interval_graph

    rng = _random.Random(seed)
    for trial in range(200):
        n = rng.randint(1, 9)
        g, rep = random_interval_graph(n, seed + trial)
        if not verify_representation(g, rep):
            return f"generated representation invalid (trial {trial})"
        order = representation_to_order(rep)
        round_tripped = representation_to_order(order_to_representation(order))
        if round_tripped.succ != order.succ:
            return f"order round trip failed (trial {trial})"
        if not is_associated(g, order):
            return f"precedence order not associated (trial {trial})"
        again = normalize_distinguishing(rep)
        if induced_graph(again).masks != g.masks:  # the same graph, labels aside
            return f"normalization changed the graph (trial {trial})"
    return None


def _cmd_selftest(args) -> int:
    # the sweep needs a connected non-complete graph (n >= 3); n = 8 is 2^28 graphs
    if not 3 <= args.max_n <= 7:
        raise InputError("--max-n must be between 3 and 7")
    checks = [
        ("small-graph-fixtures", _check_fixtures),
        (f"exhaustive-agreement-n{args.max_n}", lambda: _check_exhaustive_agreement(args.max_n)),
        (f"certificate-revalidation-n{min(args.max_n, 5)}",
         lambda: _check_certificates(min(args.max_n, 5))),
        ("gadget-examples", _check_gadgets),
        ("representation-round-trips", lambda: _check_round_trips(args.seed)),
    ]
    results = []
    ok = True
    for name, func in checks:
        start = time.perf_counter()
        failure = func()
        results.append({"name": name, "ok": failure is None,
                        "seconds": round(time.perf_counter() - start, 6),
                        **({"detail": failure} if failure else {})})
        if failure is None:
            if not args.json:
                print(f"PASS {name}")
        else:
            ok = False
            if not args.json:
                print(f"FAIL {name}: {failure}")
    if args.json:
        print(json.dumps({"ok": ok, "checks": results}))
    else:
        print(f"selftest: {'ok' if ok else 'FAILED'} ({len(checks)} checks)")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_COMMANDS = {"recognize": _cmd_recognize, "decide": _cmd_decide, "buried": _cmd_buried,
             "wq": _cmd_wq, "orders": _cmd_orders, "gadget": _cmd_gadget, "selftest": _cmd_selftest}


def _dispatch(argv, stdin_text: str | None) -> int:
    args = _plain_graph_args(argv)
    if args is None:
        args = _parser().parse_args(argv)  # its required subcommand is a key of _COMMANDS
    if args.command in ("gadget", "selftest"):  # the two that read no graph
        return _COMMANDS[args.command](args)
    g = _load_graph(args, stdin_text)
    try:
        return _COMMANDS[args.command](g, args)
    except NotIntervalGraphError as exc:  # its obstruction names vertices as certificates do
        obs = exc.obstruction
        detail = "" if obs is None else " " + json.dumps(obstruction_to_jsonable(obs, g.label_of))
        print(f"input error: {exc}{detail}", file=sys.stderr)
        return 2


def run(argv, stdin_text: str | None = None) -> tuple[int, str, str]:
    """Execute one invocation, capturing streams; used directly by tests."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _run_streams(argv, stdin_text)
    return code, out.getvalue(), err.getvalue()


def _run_streams(argv, stdin_text: str | None) -> int:
    try:
        return _dispatch(argv, stdin_text)
    except SystemExit as exc:  # argparse errors / --help
        return exc.code if isinstance(exc.code, int) else 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # a reader that stops early is not a bug; `main` handles it
        raise
    except Exception as exc:  # a crash must not read as a negative verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = _run_streams(sys.argv[1:], None)
        sys.stdout.flush()  # a closed pipe shows here when the output fit the buffer
    except BrokenPipeError:
        # the interpreter's final flush would fail again: it writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
