"""The benchmark tracer in `perfbench/tracing.py` rebinds package functions
by name and wraps `StrictPartialOrder.__post_init__`, so a rename or a move
under `src/` must fail here rather than break a traced benchmark run later."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intorder

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LOAD_TRACING = """
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
"""


def load_layer_spans():
    namespace = {"TRACING": TRACING}
    exec(LOAD_TRACING, namespace)
    return namespace["tracing"].LAYER_SPANS


def test_every_layer_span_names_a_function_of_its_module():
    spans = load_layer_spans()
    assert spans
    for span, module_name, attr in spans:
        module = importlib.import_module(f"intorder.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), (span, module_name, attr)


def test_order_check_span_wraps_the_validation():
    # the tracer wraps `StrictPartialOrder.__post_init__` as graphs.order_check;
    # validation moved anywhere else would leave that span timing nothing
    from intorder import InputError, StrictPartialOrder

    check = StrictPartialOrder.__dict__.get("__post_init__")
    assert inspect.isfunction(check)
    order = object.__new__(StrictPartialOrder)
    vars(order).update(n=3, succ=(0b010, 0b100, 0))
    with pytest.raises(InputError, match="not transitively closed"):
        check(order)


def test_tracer_installs_right_after_importing_the_cli():
    # a traced `cli` op imports intorder.cli in a fresh process, then installs
    # the tracer, which looks its modules up in sys.modules
    script = f"TRACING = {str(TRACING)!r}" + LOAD_TRACING + """
import intorder.cli
tracer = tracing.Tracer()
tracer.install()
code, out, _ = intorder.cli.run(["decide", "--json"], '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}')
tracer.uninstall()
print(code, tracer.counts["graphs.order_pairs"], sorted({span[0] for span in tracer.spans}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(intorder.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, order_pairs, spans = proc.stdout.split(" ", 2)
    assert code == "1"
    assert int(order_pairs) > 0  # counted from `StrictPartialOrder.rel` of each order built
    assert "orderability.decide_self" in spans and "cli.run_self" in spans
