"""Golden descent traces: ``DescentTrace.math_columns()`` of seven short fits.

The runs are 15 steps each: the conservative rule at d in {2, 3} with the
exact and the coarse objective, and the random, aggressive and hybrid rules
at d = 2 with the exact objective.

``golden_traces.json`` holds each run's inputs, its config and the
expected columns (every trace column except wall time). A change that
alters any of them changes the numbers descent produces and must say why.
After such an intended change, rewrite the expected columns from the
stored inputs with ``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

import json
import pathlib

import pytest

from zonofit.descent import DescentConfig, optimize
from zonofit.geom import Polytope, Zonotope

FIXTURE = pathlib.Path(__file__).with_name("golden_traces.json")
CASES = json.loads(FIXTURE.read_text())


def run_case(case):
    poly = Polytope.from_vertices(case["vertices"])
    z0 = Zonotope(case["generators"], case["translation"])
    _, trace = optimize(poly, z0, DescentConfig.from_json(case["config"]))
    return [list(row) for row in trace.math_columns()]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_math_columns_match_golden(case):
    assert run_case(case) == case["expected"]


if __name__ == "__main__":
    for case in CASES:
        case["expected"] = run_case(case)
    FIXTURE.write_text(json.dumps(CASES, indent=1) + "\n")
