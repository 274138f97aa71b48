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


def test_vertex_cache_keeps_the_tracer_contract(monkeypatch):
    """The tracer's ``enumerate_vertices`` wrapper reads an enumeration as
    cold when ``z._vertices`` is None and counts ``len`` of its result as
    the vertices found; it rebinds every alias, and the distance and the
    coarse distance each enumerate through it once on a new zonotope."""
    import sys

    import numpy as np

    from zonofit import geom
    from zonofit.hausdorff import coarse_hausdorff_distance, hausdorff_distance

    calls, original = [], geom.enumerate_vertices

    def traced(z):
        calls.append(z._vertices is None)
        return original(z)

    for name, mod in list(sys.modules.items()):
        if name == "zonofit" or name.startswith("zonofit."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, traced)
    hexagon = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    poly = geom.Polytope.from_vertices([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    for measure in (hausdorff_distance, coarse_hausdorff_distance):
        z = geom.Zonotope(hexagon, np.zeros(2))
        assert z._vertices is None
        measure(poly, z)
        assert calls == [True]
        assert len(geom.enumerate_vertices(z)) == 6 and calls == [True, False]
        calls.clear()
