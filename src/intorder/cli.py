"""Batch command-line front end.

Exit codes: 0 positive verdict (interval graph, uniquely orderable, or
certificate found, as requested), 1 negative verdict with certificate,
2 input error, 3 internal inconsistency or any other unexpected error
(always a bug). Output is JSON with --json, otherwise human-readable text
derived from the same data.
Output is byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from .errors import InputError, InternalInconsistencyError, NotIntervalGraphError
from .gadgets import (
    GadgetSpec,
    all_graphs,
    build_gadget,
    gadget_to_jsonable,
    random_interval_graph,
)
from .graphs import (
    Graph,
    components,
    graph_from_edges,
    is_associated,
    parse_edgelist,
    parse_graph_json,
)
from .oracle import enumerate_associated_orders
from .orderability import (
    _scan_buried,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intorder",
        description="Recognize interval graphs and decide unique orderability, "
        "emitting machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input path, or '-' for stdin (default)")
        p.add_argument("--format", choices=("json", "edgelist"), default="json",
                       help="input format (default: json)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("recognize", help="interval graph or obstruction certificate")
    add_input_options(p)

    p = sub.add_parser("decide", help="unique orderability with certificates")
    add_input_options(p)

    p = sub.add_parser("buried", help="search for a buried subgraph certificate")
    add_input_options(p)

    p = sub.add_parser("wq", help="pair graph on non-adjacent pairs and its components")
    add_input_options(p)

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
                   help="exhaustive bound for the agreement sweep (<= 16)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


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


def _fmt_endpoint(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit(payload: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_recognize(g: Graph, args) -> int:
    result = recognize(g)
    name = g.label_of
    if isinstance(result, Obstruction):
        payload = obstruction_to_jsonable(result, name)
        lines = ["interval graph: no"]
        if result.kind == "chordless_cycle":
            lines.append("chordless cycle: " + " ".join(str(name(v)) for v in result.cycle))
        else:
            lines.append("asteroidal triple: " + " ".join(str(name(v)) for v in result.triple))
            for path in result.witness_paths:
                lines.append("witness path: " + " ".join(str(name(v)) for v in path))
        _emit(payload, lines, args.json)
        return 1
    payload = representation_to_jsonable(result)
    lines = ["interval graph: yes"]
    for v in range(g.n):
        lines.append(
            f"{name(v)}: [{_fmt_endpoint(result.left[v])}, {_fmt_endpoint(result.right[v])}]"
        )
    _emit(payload, lines, args.json)
    return 0


def _order_text(order, name) -> str:
    return " ".join(f"{name(u)}<{name(v)}" for u, v in sorted(order.rel)) or "(antichain)"


def _cmd_decide(g: Graph, args) -> int:
    verdict = decide_unique(g)
    name = g.label_of
    payload = verdict_to_jsonable(verdict, name)
    lines = [f"uniquely orderable: {'yes' if verdict.unique else 'no'}"]
    if verdict.order is not None:
        lines.append("order: " + _order_text(verdict.order, name))
    if verdict.witness is not None:
        lines.append("order1: " + _order_text(verdict.witness[0], name))
        lines.append("order2: " + _order_text(verdict.witness[1], name))
        lines.append("disagreement triple: " + " ".join(str(name(v)) for v in verdict.triple))
    if verdict.buried is not None:
        cert = verdict.buried
        lines.append(
            "buried B: " + " ".join(str(name(v)) for v in sorted(cert.members))
            + " | K: " + " ".join(str(name(v)) for v in sorted(cert.separators))
            + " | R: " + " ".join(str(name(v)) for v in sorted(cert.outside))
        )
    lines.append(f"wq components: {verdict.wq_components}")
    _emit(payload, lines, args.json)
    return 0 if verdict.unique else 1


def _cmd_buried(g: Graph, args) -> int:
    cert = find_buried(g)
    name = g.label_of
    if cert is None:
        _emit({"found": False}, ["buried subgraph: none"], args.json)
        return 1
    payload = {"found": True, "pair": [name(cert.pair[0]), name(cert.pair[1])]}
    payload.update(buried_to_jsonable(cert, name))
    payload["witness_nonedge"] = [name(cert.witness_nonedge[0]), name(cert.witness_nonedge[1])]
    payload["witness_outside"] = name(cert.witness_outside)
    lines = [
        "buried subgraph: found",
        "B: " + " ".join(str(name(v)) for v in sorted(cert.members)),
        "K: " + " ".join(str(name(v)) for v in sorted(cert.separators)),
        "R: " + " ".join(str(name(v)) for v in sorted(cert.outside)),
        f"grown from: {name(cert.pair[0])} {name(cert.pair[1])}",
    ]
    _emit(payload, lines, args.json)
    return 0


def _cmd_wq(g: Graph, args) -> int:
    pg = pair_graph(g)
    name = g.label_of
    payload = {
        "pairs": [[name(a), name(b)] for a, b in pg.pairs],
        "component_ids": [pg.component_of[p] for p in pg.pairs],
        "component_count": pg.component_count,
    }
    lines = [f"non-adjacent ordered pairs: {len(pg.pairs)}",
             f"components: {pg.component_count}"]
    for p in pg.pairs:
        lines.append(f"({name(p[0])}, {name(p[1])}) -> component {pg.component_of[p]}")
    _emit(payload, lines, args.json)
    return 0


def _cmd_orders(g: Graph, args) -> int:
    if args.max_n > 16:
        raise InputError("--max-n must be at most 16")
    enumeration = enumerate_associated_orders(g, max_n=args.max_n)
    name = g.label_of
    unique = bool(enumeration.orders) and enumeration.dual_classes == 1
    payload: dict = {
        "count": len(enumeration.orders),
        "dual_classes": enumeration.dual_classes,
        "unique": unique,
    }
    lines = [
        f"associated orders: {len(enumeration.orders)}",
        f"duality classes: {enumeration.dual_classes}",
        f"uniquely orderable: {'yes' if unique else 'no'}",
    ]
    if args.enumerate:
        payload["orders"] = [
            [[name(u), name(v)] for u, v in sorted(o.rel)] for o in enumeration.orders
        ]
        for o in enumeration.orders:
            lines.append("order: " + _order_text(o, name))
    _emit(payload, lines, args.json)
    return 0 if unique else 1


def _cmd_gadget(args) -> int:
    try:
        values = tuple(int(x) for x in args.f.split(",") if x.strip() != "")
    except ValueError:
        raise InputError(f"--f must be comma-separated integers, got {args.f!r}") from None
    stages = args.stages if args.stages is not None else len(values)
    spec = GadgetSpec(values, stages)
    out = build_gadget(spec)
    payload = gadget_to_jsonable(out)
    name = out.graph.label_of
    lines = [
        f"vertices: {out.graph.n}",
        "predicted B: " + " ".join(str(name(v)) for v in sorted(out.predicted_members)),
        "predicted K: " + " ".join(str(name(v)) for v in sorted(out.predicted_separators)),
        "predicted R: " + " ".join(str(name(v)) for v in sorted(out.predicted_outside)),
    ]
    for v in range(out.graph.n):
        rep = out.representation
        lines.append(f"{name(v)}: [{_fmt_endpoint(rep.left[v])}, {_fmt_endpoint(rep.right[v])}]")
    _emit(payload, lines, args.json)
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
    if not (verdict.unique and sorted(verdict.order.rel) == [(0, 2)] and verdict.wq_components == 2):
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


def _check_exhaustive_agreement(max_n: int) -> str | None:
    from .oracle import oracle_unique

    checked = 0
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if isinstance(recognize(g), Obstruction):
                continue
            if len(components(g)) != 1 or g.is_complete():
                continue
            by_oracle = oracle_unique(g)
            by_buried = _scan_buried(g) is None
            by_pairs = pair_graph(g).component_count == 2
            if not (by_oracle == by_buried == by_pairs):
                return (f"disagreement on n={n} edges={sorted(g.edges)}: "
                        f"oracle={by_oracle} buried-free={by_buried} two-components={by_pairs}")
            checked += 1
    if checked == 0:
        return "agreement sweep matched no graphs"
    return None


def _check_certificates(max_n: int) -> str | None:
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if isinstance(recognize(g), Obstruction):
                continue
            if len(components(g)) != 1 or g.is_complete():
                continue
            verdict = decide_unique(g)
            if verdict.unique:
                if not is_associated(g, verdict.order):
                    return f"unique order not associated on edges={sorted(g.edges)}"
            else:
                o1, o2 = verdict.witness
                if not (is_associated(g, o1) and is_associated(g, o2)):
                    return f"witness orders not associated on edges={sorted(g.edges)}"
                if o2 == o1 or o2 == o1.dual():
                    return f"witness orders not genuinely different on edges={sorted(g.edges)}"
                if verdict.buried is not None and not is_buried(g, verdict.buried.members):
                    return f"buried certificate invalid on edges={sorted(g.edges)}"
    return None


def _check_gadgets() -> str | None:
    from .orderability import buried_candidate

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

    rng = _random.Random(seed)
    for trial in range(200):
        n = rng.randint(1, 9)
        g, rep = random_interval_graph(n, seed + trial)
        if not verify_representation(g, rep):
            return f"generated representation invalid (trial {trial})"
        order = representation_to_order(rep)
        round_tripped = representation_to_order(order_to_representation(order))
        if round_tripped.rel != order.rel:
            return f"order round trip failed (trial {trial})"
        if not is_associated(g, order):
            return f"precedence order not associated (trial {trial})"
        again = normalize_distinguishing(rep)
        if not induced_graph(again).same_edges(g):
            return f"normalization changed the graph (trial {trial})"
    return None


def _cmd_selftest(args) -> int:
    if args.max_n > 16:
        raise InputError("--max-n must be at most 16")
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
        failure = func()
        results.append({"name": name, "ok": failure is None,
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

def _dispatch(argv, stdin_text: str | None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "gadget":
        return _cmd_gadget(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    g = _load_graph(args, stdin_text)
    if args.command == "recognize":
        return _cmd_recognize(g, args)
    if args.command == "decide":
        return _cmd_decide(g, args)
    if args.command == "buried":
        return _cmd_buried(g, args)
    if args.command == "wq":
        return _cmd_wq(g, args)
    if args.command == "orders":
        return _cmd_orders(g, args)
    raise InputError(f"unknown command {args.command!r}")


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
    except NotIntervalGraphError as exc:
        obstruction = exc.obstruction
        detail = ""
        if obstruction is not None:
            detail = " " + json.dumps(obstruction_to_jsonable(obstruction))
        print(f"input error: {exc}{detail}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a negative verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(_run_streams(sys.argv[1:], None))
