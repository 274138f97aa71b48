"""The benchmark tracer wraps functions by name: every entry of
``perfbench/worker.py``'s ``TRACED`` must exist on the package, or the
traced benchmark run fails. The worker is read as source, not imported,
since it imports the benchmark's host-speed kernel."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def traced_names():
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no TRACED tuple")


def test_every_traced_function_exists():
    names = traced_names()
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"zonofit.{module}"), name, None))]
    assert not missing, f"TRACED names functions zonofit lacks: {missing}"
