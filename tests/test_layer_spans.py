"""The benchmark tracer in `perfbench/tracing.py` rebinds package functions
by name, so a rename under `src/` must fail here rather than break a traced
benchmark run later."""

import importlib
import importlib.util
import inspect
from pathlib import Path


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
