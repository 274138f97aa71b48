"""Golden descent traces: ``DescentTrace.math_columns()`` of eight short fits.

The runs are 15 steps each: the conservative rule at d in {2, 3} with the
exact and the coarse objective, and the random, aggressive and hybrid rules
at d = 2 with the exact objective. ``d3-n5-beaten-cap`` is a conservative
exact rank-5 fit of a 10-vertex polytope in 3-D from its box warmstart,
with perturbations of 1e-4; one of its probes is stopped by a zonotope
vertex that the zonotope it steps from did not have, so it backtracks.

``golden_traces.json`` holds each run's inputs, its config and the
expected columns (every trace column except wall time). A change that
alters any of them changes the numbers descent produces and must say why.
After such an intended change, rewrite the expected columns from the
stored inputs with ``PYTHONPATH=src python tests/test_golden_traces.py``.
Before rewriting it prints, for each run that changed, what a change
record needs: the first differing row, whether the iteration, rule,
active_pairs and cone_status columns are identical, the largest relative
difference in the d_exact, d_coarse and step columns, and the final
d_exact before and after. With ``--check`` it prints the same report,
rewrites nothing and exits non-zero if any run changed.
"""

import json
import pathlib
import sys

import pytest

from zonofit.descent import DescentConfig, optimize
from zonofit.geom import Polytope, Zonotope
from zonofit.hausdorff import SmoothTerm

FIXTURE = pathlib.Path(__file__).with_name("golden_traces.json")
CASES = json.loads(FIXTURE.read_text())


def run_trace(case):
    poly = Polytope.from_vertices(case["vertices"])
    z0 = Zonotope(case["generators"], case["translation"])
    return optimize(poly, z0, DescentConfig.from_json(case["config"]))[1]


def run_case(case):
    return [list(row) for row in run_trace(case).math_columns()]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_math_columns_match_golden(case):
    assert run_case(case) == case["expected"]


def test_beaten_cap_probe_backtracks():
    """``d3-n5-beaten-cap`` matches its golden columns and still beats its
    step cap: some iteration rejects a probe and measures a second one."""
    case = next(c for c in CASES if c["name"] == "d3-n5-beaten-cap")
    trace = run_trace(case)
    assert [list(row) for row in trace.math_columns()] == case["expected"]
    assert max(r.probes for r in trace.records) >= 2


def test_descent_reads_gradients_off_the_cone(monkeypatch):
    """The descent takes its active-term gradients from the cone rows: no
    run calls the term formulae or builds a polytope face for a pair."""
    def forbidden(*args, **kwargs):
        raise AssertionError("descent computed a term gradient or a face")

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "zonofit"]
    for module in modules:
        for name in ("term_from_pair", "minimal_face"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for name in ("gradient", "_offset"):
        monkeypatch.setattr(SmoothTerm, name, forbidden)
    for case in CASES:
        assert run_case(case) == case["expected"]


def change_report(name, old, new):
    """One line describing how the columns ``new`` differ from ``old``."""
    first = next((k for k, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
    same = (len(old) == len(new)
            and all([a[k] for k in (0, 4, 5, 6)] == [b[k] for k in (0, 4, 5, 6)]
                    for a, b in zip(old, new)))
    rel = max((abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
               for a, b in zip(old, new) for x, y in
               ((float(a[k]), float(b[k])) for k in (1, 2, 3))), default=0.0)
    return (f"{name}: first differing row {first}; iteration/rule/active_pairs/"
            f"cone_status {'identical' if same else 'CHANGED'}; max relative "
            f"difference in d_exact/d_coarse/step {rel:.2g}; final d_exact "
            f"{old[-1][1]} -> {new[-1][1]}")


if __name__ == "__main__":
    changed = False
    for case in CASES:
        new = run_case(case)
        if new != case["expected"]:
            changed = True
            print(change_report(case["name"], case["expected"], new))
        case["expected"] = new
    if "--check" in sys.argv[1:]:
        sys.exit(1 if changed else 0)
    FIXTURE.write_text(json.dumps(CASES, indent=1) + "\n")
