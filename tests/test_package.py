"""The package surface, and what a command line process imports.

`import intorder` resolves each public name on first use, and
`python -m intorder` loads only the modules its command runs: not
`dataclasses` (with the `inspect` it pulls in), nor `fractions` and
`decimal`, which only the gadget's endpoints need, nor the test-family and
oracle modules, which only `gadget`, `orders` and `selftest` use, nor
`argparse`, which a graph command's plain argument list does not need. Every
annotation in the package resolves, and every public definition is used
by another part of the package or by the benchmark's tracer.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

import intorder
from intorder.cli import run
from test_layer_spans import load_layer_spans

EXPORTS = {
    "errors": ["InputError", "InternalInconsistencyError", "NotIntervalGraphError"],
    "gadgets": ["GadgetOutput", "GadgetSpec", "all_graphs", "build_gadget", "random_interval_graph"],
    "graphs": ["Graph", "StrictPartialOrder", "components", "graph_from_edges", "graph_from_jsonable",
               "graph_to_jsonable", "is_associated", "parse_edgelist", "parse_graph_json", "validate_path"],
    "oracle": ["OrientationSet", "enumerate_associated_orders", "oracle_unique"],
    "orderability": ["BuriedCertificate", "BuriedCheck", "LeveledSet", "PairGraph", "UniquenessVerdict",
                     "buried_candidate", "decide_unique", "find_buried", "is_buried",
                     "order_from_pair_graph", "pair_graph", "two_orders_from_buried", "verdict_to_jsonable"],
    "recognition": ["Obstruction", "check_triangulated", "find_asteroidal_triple", "maximal_cliques",
                    "recognize", "validate_obstruction"],
    "representation": ["ClosedRepresentation", "find_two_plus_two", "induced_graph",
                       "normalize_distinguishing", "order_to_representation",
                       "representation_to_order", "verify_representation"],
}
NAMES = {name for names in EXPORTS.values() for name in names}
STAR = '{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}'
NEVER_IMPORTED = {"argparse", "dataclasses", "decimal", "fractions", "inspect", "intorder.gadgets",
                  "intorder.oracle"}
SRC = Path(intorder.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("_"))
# public definitions that nothing else in src/ refers to, kept for a reason
UNREFERENCED = {
    "cli.run": "the in-process entry point: tests and the benchmark run commands through it",
    "graphs.StrictPartialOrder.rel": "the benchmark's tracer counts graphs.order_pairs from it",
}


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


def test_module_entry_point_still_prints_argparse_help():
    proc = python("-m", "intorder", "decide", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: intorder decide ")


def test_the_console_script_target_imports_and_is_callable():
    # no tomllib before Python 3.11, so the one line is read with a pattern
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    target = re.search(r'^intorder\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target is not None, scripts
    assert target.groups() == ("intorder.cli", "main")
    assert callable(getattr(importlib.import_module(target.group(1)), target.group(2)))


def annotated(module):
    """Each function and class the module defines, and each method of its classes."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        yield value
        if inspect.isclass(value):
            for member in vars(value).values():
                # plain, class and static methods, properties and cached properties
                member = getattr(member, "__func__", getattr(member, "fget", getattr(member, "func", member)))
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("module", MODULES)
def test_every_annotation_resolves(module):
    defining = importlib.import_module(f"intorder.{module}")
    checked = list(annotated(defining))
    assert checked
    for value in checked:
        typing.get_type_hints(value)  # NameError for a name the module does not import


def public_definitions(tree):
    """(name, node) of each public top-level function and class and each
    public method of a public class, methods named `Class.method`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def names_used(node) -> Counter:
    """Each name the code under `node` refers to, as a variable, an
    attribute or an import, with its count."""
    found: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
    return found


def test_every_public_definition_is_used():
    # a definition is used when code elsewhere in src/ names it, outside its
    # own body, or when the benchmark's tracer wraps it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    traced = {f"{module}.{attr}" for _, module, attr in load_layer_spans()}
    unreferenced = set()
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            bare = name.rpartition(".")[2]
            if used[bare] == names_used(node)[bare]:
                unreferenced.add(f"{module}.{name}")
    assert unreferenced - traced - set(UNREFERENCED) == set()
    assert set(UNREFERENCED) <= unreferenced  # no entry outlives its reason
