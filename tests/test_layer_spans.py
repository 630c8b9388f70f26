"""The benchmark tracer in `perfbench/tracing.py` rebinds package functions
by name and wraps `StrictPartialOrder.__post_init__`, so a rename or a move
under `src/` must fail here rather than break a traced benchmark run later."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest


def load_layer_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_SPANS


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
    object.__setattr__(order, "n", 3)
    object.__setattr__(order, "rel", frozenset({(0, 1), (1, 2)}))
    with pytest.raises(InputError, match="not transitively closed"):
        check(order)
