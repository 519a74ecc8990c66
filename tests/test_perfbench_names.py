"""Every program name the benchmark harness reads resolves in ``bei``.

``perfbench/tracer.py`` turns ``layer.function`` strings into per-layer
metrics, and ``bench.cold_state`` sizes the program's caches by attribute
name.  Both read a missing name as 0, so a rename in the program would
silently zero a metric; here it fails instead.  The harness files are parsed
as source, not imported.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCH = ROOT / "perfbench" / "bench.py"
# the record memo is gone from census; cold_state skips a missing cache
DELETED_CACHES = {("census", "_RECORD_MEMO")}


def tracer_layers(tree) -> tuple[str, ...]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no LAYERS")


def metric_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def tracer_references(tree, layers):
    """(function names, prefixes) that tracer.py reads as ``layer.name``.

    A string argument of ``prefixed`` is a prefix.  An f-string
    ``f"layer.{r}"`` with ``r`` drawn from a tuple of strings names each
    ``layer.r``.  Any other ``layer.name`` string is a function, unless it is
    a metric of BENCHMARK.json.
    """
    prefixes = {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "prefixed"
        for arg in node.args
        if isinstance(arg, ast.Constant)
    }
    drawn = {
        node.target.id: ast.literal_eval(node.iter)
        for node in ast.walk(tree)
        if isinstance(node, ast.comprehension)
        and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple)
    }
    strings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        elif isinstance(node, ast.JoinedStr) and len(node.values) == 2:
            head, tail = node.values
            if isinstance(head, ast.Constant) and isinstance(tail, ast.FormattedValue):
                for r in drawn.get(getattr(tail.value, "id", None), ()):
                    strings.add(head.value + r)
    metrics = metric_names()
    functions = {
        s for s in strings
        if s.split(".", 1)[0] in layers and s.count(".") == 1
        and s.split(".", 1)[1].isidentifier()
        and s not in prefixes and s not in metrics
    }
    return functions, prefixes


def traced_functions(layer: str) -> set[str]:
    """The names the tracer wraps in ``bei.layer``: public functions (or
    ``lru_cache`` wrappers) defined in that module."""
    mod = importlib.import_module(f"bei.{layer}")
    return {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and getattr(obj, "__module__", None) == mod.__name__
        and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
    }


def test_tracer_names_resolve():
    tree = ast.parse(TRACER.read_text())
    layers = tracer_layers(tree)
    functions, prefixes = tracer_references(tree, layers)
    # the counted, timed and sized functions, the three licci routes among them
    assert len(functions) >= 19, functions
    assert {"classify.licci_by_shape", "degeneration.betti_table"} <= functions
    assert prefixes == {"graph6.", "oracle.verify_"}
    for name in functions:
        layer, attr = name.split(".")
        assert attr in traced_functions(layer), name
    for prefix in prefixes:
        layer, start = prefix.split(".")
        assert any(f.startswith(start) for f in traced_functions(layer)), prefix


def test_cold_state_caches_resolve():
    tree = ast.parse(BENCH.read_text())
    (cold,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "cold_state"
    ]
    read = {
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(cold)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
    }
    assert read - DELETED_CACHES == {
        ("graphs", "canonical_form"),
        ("graphs", "_all_graphs"),
        ("degeneration", "_PART_CACHE"),
    }
    for module, attr in read - DELETED_CACHES:
        cache = getattr(importlib.import_module(f"bei.{module}"), attr)
        assert hasattr(cache, "cache_info") or isinstance(cache, dict), (module, attr)
    for module, attr in DELETED_CACHES:
        assert not hasattr(importlib.import_module(f"bei.{module}"), attr)
