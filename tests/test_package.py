"""The package surface, and what a command line process imports.

`import intorder` resolves each public name on first use, and
`python -m intorder` loads only the modules its command runs: neither
`dataclasses` (with the `inspect` it pulls in) nor the test-family and
oracle modules, which only `gadget`, `orders` and `selftest` use.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intorder
from intorder.cli import run

EXPORTS = {
    "errors": ["InputError", "InternalInconsistencyError", "NotIntervalGraphError"],
    "gadgets": ["GadgetOutput", "GadgetSpec", "all_graphs", "build_gadget", "random_interval_graph",
                "suffix_minima"],
    "graphs": ["Graph", "StrictPartialOrder", "complement", "complete_graph", "components",
               "graph_from_edges", "graph_from_jsonable", "graph_to_jsonable", "incomparability_graph",
               "induced_subgraph", "is_associated", "is_minimal_path", "order_from_pairs",
               "parse_edgelist", "parse_graph_json", "refine_to_minimal", "universal_vertices",
               "validate_path"],
    "oracle": ["OrientationSet", "enumerate_associated_orders", "oracle_unique"],
    "orderability": ["BuriedCertificate", "BuriedCheck", "LeveledSet", "PairGraph", "UniquenessVerdict",
                     "buried_candidate", "decide_unique", "find_buried", "is_buried",
                     "order_from_pair_graph", "pair_graph", "pair_path", "two_orders_from_buried",
                     "verdict_to_jsonable"],
    "recognition": ["Obstruction", "check_triangulated", "find_asteroidal_triple", "maximal_cliques",
                    "recognize", "validate_obstruction"],
    "representation": ["ClosedRepresentation", "find_two_plus_two", "induced_graph", "is_interval_order",
                       "normalize_distinguishing", "order_to_representation",
                       "representation_from_intervals", "representation_to_order",
                       "verify_representation"],
}
NAMES = {name for names in EXPORTS.values() for name in names}
STAR = '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}'
NEVER_IMPORTED = {"dataclasses", "inspect", "intorder.gadgets", "intorder.oracle"}


def python(*args, stdin=""):
    """A fresh interpreter that finds this checkout's package, installed or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(intorder.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          env=env, timeout=60)


def test_all_is_the_export_set():
    assert len(intorder.__all__) == len(NAMES)
    assert set(intorder.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_its_modules_object(module):
    defining = importlib.import_module(f"intorder.{module}")
    for name in EXPORTS[module]:
        assert getattr(intorder, name) is getattr(defining, name), name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from intorder import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    listed = dir(intorder)
    assert NAMES | set(EXPORTS) | {"__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'intorder' has no attribute 'no_such_name'"):
        intorder.no_such_name
    assert getattr(intorder, "no_such_name", None) is None


def test_bare_import_loads_no_module_and_resolves_submodules():
    proc = python("-c", "import sys, intorder\n"
                        "print(sorted(m for m in sys.modules if m.startswith('intorder.')))\n"
                        "print(intorder.graphs.Graph is intorder.Graph, intorder.oracle.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True intorder.oracle"]


@pytest.mark.parametrize("command", ["recognize", "decide"])
def test_module_entry_point_imports_only_what_the_command_runs(command):
    proc = python("-X", "importtime", "-m", "intorder", command, "--json", stdin=STAR)
    code, out, _ = run([command, "--json"], STAR)
    assert (proc.returncode, proc.stdout) == (code, out)
    # one line per module as its import finishes; `site` and what it loads come first
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    names = [line.rsplit("|", 1)[1].strip() for line in lines]
    after_site = names[names.index("site") + 1:] if "site" in names else names
    assert {"intorder.cli", "intorder.graphs", "intorder.orderability"} <= set(after_site)
    assert not NEVER_IMPORTED & set(after_site)
