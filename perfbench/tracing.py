"""Per-layer spans recorded from outside the package.

`Tracer.install` rebinds each public function listed in LAYER_SPANS, in
every ``intorder.*`` module namespace that holds it, to a wrapper that
records a span (name, start, end, parent, op id), and wraps
``StrictPartialOrder.__post_init__``. Spans stay in memory until the run
writes them out. A layer's self time is its spans' durations minus the
part their child spans cover. Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, function). Self time of a span is reported as
# "<span name>_ms"; spans of functions that call other listed functions are
# named *_self because their children are subtracted.
LAYER_SPANS = (
    ("cli.run_self", "cli", "run"),
    ("cli.parse", "graphs", "parse_graph_json"),
    ("cli.parse", "graphs", "parse_edgelist"),
    ("cli.emit", "recognition", "obstruction_to_jsonable"),
    ("cli.emit", "representation", "representation_to_jsonable"),
    ("cli.emit", "orderability", "verdict_to_jsonable"),
    ("cli.emit", "orderability", "buried_to_jsonable"),
    ("recognition.recognize_self", "recognition", "recognize"),
    ("recognition.maximal_cliques", "recognition", "maximal_cliques"),
    ("recognition.check_triangulated", "recognition", "check_triangulated"),
    ("recognition.find_asteroidal_triple", "recognition", "find_asteroidal_triple"),
    ("recognition.validate_obstruction", "recognition", "validate_obstruction"),
    ("representation.verify_representation", "representation", "verify_representation"),
    ("representation.representation_to_order", "representation", "representation_to_order"),
    ("orderability.decide_self", "orderability", "decide_unique"),
    ("orderability.find_buried_self", "orderability", "find_buried"),
    ("orderability.pair_graph", "orderability", "pair_graph"),
    ("orderability.buried_candidate", "orderability", "buried_candidate"),
    ("orderability.is_buried", "orderability", "is_buried"),
    ("orderability.two_orders", "orderability", "two_orders_from_buried"),
    ("orderability.order_from_pair_graph", "orderability", "order_from_pair_graph"),
    ("graphs.is_associated", "graphs", "is_associated"),
    ("graphs.components", "graphs", "components"),
)
ORDER_CHECK = "graphs.order_check"  # StrictPartialOrder.__post_init__
OP = "op"  # the benchmark's own span around one op
PROCESS = "cli.process"  # subprocess wall time not spent inside the child
IMPORT = "cli.import"  # `import intorder.cli` in a fresh process


def _count_result(counts: Counter, name: str, args, result) -> None:
    if name == "recognition.maximal_cliques":
        counts["recognition.cliques"] += len(result)
    elif name == "orderability.pair_graph":
        counts["orderability.pairs"] += len(result.pairs)
        counts["orderability.wq_components"] += result.component_count
    elif name == "orderability.buried_candidate":
        counts["orderability.candidates_grown"] += 1
        counts["orderability.closure_stages"] += max(result.level.values())
    elif name == ORDER_CHECK:
        counts["graphs.order_pairs"] += len(args[0].rel)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start,
                           0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int, end: float | None = None) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter() if end is None else end

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            _count_result(self.counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("intorder.")]
        for name, module_name, attr in LAYER_SPANS:
            original = getattr(sys.modules[f"intorder.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        order_cls = sys.modules["intorder.graphs"].StrictPartialOrder
        original = order_cls.__post_init__
        self._restore.append((order_cls, "__post_init__", original))
        order_cls.__post_init__ = self._wrap(ORDER_CHECK, original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def adopt(self, spans: list[list], counts: dict, parent: int) -> None:
        """Append spans and counts recorded in a child process under `parent`."""
        self.counts.update(counts)
        base = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            self.spans.append([name, start, end,
                               parent if child_parent < 0 else base + child_parent, self.op])

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        totals[name] += end - start
        if parent >= 0:
            totals[spans[parent][0]] -= end - start
    return totals
