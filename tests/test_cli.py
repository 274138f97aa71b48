"""CLI tests: subcommands, exit codes, file outputs, reproducibility."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import OLD_MANIFEST_CONFIG, random_zonotope
from zonofit.cli import main
from zonofit.descent import DescentConfig, optimize
from zonofit.geom import (
    Zonotope,
    canonicalize,
    polytope_from_json,
    polytope_to_json,
    zonotope_from_json,
    zonotope_to_json,
    zonotope_as_polytope,
)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def square_files(tmp_path):
    poly = write_json(tmp_path / "poly.json", {
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    })
    zono = write_json(tmp_path / "zono.json", {
        "generators": [[1.0, 0.0], [0.0, 1.0]],
        "translation": [0.0, 0.0],
    })
    return poly, zono


class TestDistanceCommand:
    def test_identical_square(self, square_files, capsys):
        poly, zono = square_files
        assert main(["distance", poly, zono]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] <= 1e-9

    def test_rotated_square_values(self, tmp_path, capsys):
        s = 1.05 * np.sqrt(2.0) / 2.0
        poly = write_json(tmp_path / "p.json", {
            "vertices": [[0.5 - s, 0.5], [0.5, 0.5 - s], [0.5 + s, 0.5], [0.5, 0.5 + s]],
        })
        zono = write_json(tmp_path / "z.json", {
            "generators": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0],
        })
        assert main(["distance", poly, zono]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(s - 0.5, abs=1e-9)
        assert len(out["pairs"]) == 4

    def test_coarse_dominates(self, tmp_path, capsys, rng):
        z = random_zonotope(rng, 3, 2)
        poly_obj = zonotope_as_polytope(random_zonotope(rng, 3, 2))
        poly = write_json(tmp_path / "p.json", polytope_to_json(poly_obj))
        zono = write_json(tmp_path / "z.json", zonotope_to_json(z))
        assert main(["distance", poly, zono]) == 0
        exact = json.loads(capsys.readouterr().out)["value"]
        assert main(["distance", poly, zono, "--coarse"]) == 0
        coarse = json.loads(capsys.readouterr().out)["value"]
        assert coarse >= exact - 1e-9

    def test_dimension_mismatch_exit_2(self, square_files, tmp_path, capsys):
        poly, _ = square_files
        zono = write_json(tmp_path / "z3.json", {
            "generators": np.eye(3).tolist(), "translation": [0.0, 0.0, 0.0],
        })
        assert main(["distance", poly, zono]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        poly = write_json(tmp_path / "p.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
        assert main(["distance", str(bad), str(bad)]) == 2

    @pytest.mark.parametrize("argv", [
        lambda poly, zono, bad: ["distance", bad, zono],
        lambda poly, zono, bad: ["distance", poly, bad],
        lambda poly, zono, bad: ["optimize", poly, "--rank", "2", "--warmstart", bad],
    ], ids=["polytope", "zonotope", "warmstart"])
    @pytest.mark.parametrize("top", [[1, 2], "text", None])
    def test_json_not_an_object_exit_2(self, square_files, tmp_path, capsys, argv, top):
        bad = write_json(tmp_path / "bad.json", top)
        assert main(argv(*square_files, bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {bad}:") and err.count("\n") == 1


class TestOptimizeCommand:
    def test_symmetric_hexagon_auto_warmstart(self, tmp_path, capsys, rng):
        z_target = random_zonotope(rng, 3, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z_target)))
        trace_path = tmp_path / "trace.csv"
        code = main(["optimize", poly, "--rank", "3", "--steps", "50",
                     "--tol", "1e-9", "--trace", str(trace_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["manifest"]["termination"] == "threshold"
        assert out["manifest"]["final_d_exact"] <= 1e-9
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "iter,d_exact,d_coarse,step,rule,active_pairs,cone_status,ms"
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["termination"] == "threshold"

    def test_identical_invocations_identical_math(self, tmp_path, capsys, rng):
        z_target = random_zonotope(rng, 4, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z_target)))
        argv = ["optimize", poly, "--rank", "3", "--steps", "12", "--seed", "7",
                "--warmstart", "random", "--rule", "random"]
        assert main(argv + ["--trace", str(tmp_path / "t1.csv")]) == 0
        capsys.readouterr()
        assert main(argv + ["--trace", str(tmp_path / "t2.csv")]) == 0
        capsys.readouterr()

        def math_cols(path):
            rows = (tmp_path / path).read_text().strip().split("\n")[1:]
            return [",".join(r.split(",")[:-1]) for r in rows]  # drop ms

        assert math_cols("t1.csv") == math_cols("t2.csv")

    def test_manifest_replay_reproduces_trace(self, tmp_path, capsys, rng, monkeypatch):
        z_target = random_zonotope(rng, 4, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z_target)))
        assert main(["optimize", poly, "--rank", "3", "--steps", "10",
                     "--seed", "3", "--rule", "random", "--warmstart", "random",
                     "--trace", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        # The manifest's seed wins over the environment on replay.
        monkeypatch.setenv("ZONOFIT_SEED", "42")
        assert main(["optimize", poly, "--rank", "3",
                     "--warmstart", "random",
                     "--config", str(tmp_path / "a.csv.manifest.json"),
                     "--trace", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()

        def math_cols(path):
            rows = (tmp_path / path).read_text().strip().split("\n")[1:]
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert math_cols("a.csv") == math_cols("b.csv")

    def test_manifest_stats_are_run_totals(self, tmp_path, capsys, rng):
        poly_obj = zonotope_as_polytope(random_zonotope(rng, 4, 2))
        poly = write_json(tmp_path / "p.json", polytope_to_json(poly_obj))
        z0 = random_zonotope(rng, 3, 2)
        start = write_json(tmp_path / "z0.json", zonotope_to_json(z0))
        assert main(["optimize", poly, "--rank", "3", "--steps", "8", "--seed", "5",
                     "--warmstart", start, "--trace", str(tmp_path / "a.csv")]) == 0
        stats = json.loads(capsys.readouterr().out)["manifest"]["stats"]
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["stats"] == stats
        _, trace = optimize(polytope_from_json(json.loads((tmp_path / "p.json").read_text())),
                            z0, DescentConfig.from_json(manifest["config"]))
        assert stats == {
            "perturb_tries": sum(r.perturb_tries for r in trace.records),
            "probes": sum(r.probes for r in trace.records),
            "solver_retries": trace.solver_retries,
        }
        assert stats["probes"] >= len(trace.records) - 1 > 0

    def test_zonotope_json_roundtrip_fixed_point(self, tmp_path, capsys, rng):
        z = canonicalize(random_zonotope(rng, 3, 2))
        path = write_json(tmp_path / "z.json", zonotope_to_json(z))
        back = zonotope_from_json(json.loads((tmp_path / "z.json").read_text()))
        again = zonotope_to_json(canonicalize(back))
        assert again == zonotope_to_json(z)

    def test_svg_plot(self, tmp_path, capsys, rng):
        z_target = random_zonotope(rng, 3, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z_target)))
        svg = tmp_path / "plot.svg"
        assert main(["optimize", poly, "--rank", "3", "--steps", "5",
                     "--plot", str(svg)]) == 0
        out = json.loads(capsys.readouterr().out)
        tree = ET.parse(svg)  # valid XML
        ns = "{http://www.w3.org/2000/svg}"
        groups = tree.getroot().findall(f"{ns}g")
        pair_groups = [g for g in groups if g.get("class") == "pair"]
        # the plot draws the achieving pairs of the final zonotope
        from zonofit.geom import polytope_from_json
        from zonofit.hausdorff import hausdorff_distance

        p_obj = polytope_from_json(json.loads((tmp_path / "p.json").read_text()))
        z_obj = zonotope_from_json(out["zonotope"])
        _, pairs = hausdorff_distance(p_obj, z_obj)
        assert len(pair_groups) == len(pairs)

    def test_rank_below_dimension_exit_2(self, square_files, capsys):
        poly, _ = square_files
        assert main(["optimize", poly, "--rank", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


class TestConeCommand:
    def test_worked_example_not_local_min(self, tmp_path, capsys):
        s = 1.05 * np.sqrt(2.0) / 2.0
        poly = write_json(tmp_path / "p.json", {
            "vertices": [[0.5 - s, 0.5], [0.5, 0.5 - s], [0.5 + s, 0.5], [0.5, 0.5 + s]],
        })
        zono = write_json(tmp_path / "z.json", {
            "generators": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0],
        })
        assert main(["cone", poly, zono]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["locality"] is True
        assert out["interior_nonempty"] is True
        assert out["interior_margin"] > 1e-8
        assert out["verdict"] == "not a local minimum"
        assert len(out["matrix"]) == 4

    def test_coarse_certificate_at_exact_fit(self, tmp_path, capsys, rng):
        z = random_zonotope(rng, 3, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z)))
        zono = write_json(tmp_path / "z.json", zonotope_to_json(z))
        code = main(["cone", poly, zono, "--coarse"])
        out = json.loads(capsys.readouterr().out)
        if code == 0:
            assert out["certificate"] == "certified_local_min_coarse"
            assert out["interior_nonempty"] is False
        else:
            # identical bodies may fail the locality gate instead
            assert code == 5

    def test_locality_violation_exit_5(self, tmp_path, capsys):
        poly = write_json(tmp_path / "p.json", {
            "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        })
        zono = write_json(tmp_path / "z.json", {
            "generators": [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
            "translation": [0.0, 0.0],
        })
        assert main(["cone", poly, zono]) == 5
        out = json.loads(capsys.readouterr().out)
        assert out["locality"] is False
        assert out["general_position"] is False


class TestWarmstartCommand:
    def test_emits_zonotope_json(self, tmp_path, capsys, rng):
        z = random_zonotope(rng, 3, 2)
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(z)))
        assert main(["warmstart", poly, "--rank", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        back = zonotope_from_json(out)
        assert back.rank == 3 and back.dim == 2

    def test_env_seed_override(self, tmp_path, capsys, rng, monkeypatch):
        poly = write_json(tmp_path / "p.json", {
            "vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
        })
        monkeypatch.setenv("ZONOFIT_SEED", "42")
        assert main(["warmstart", poly, "--rank", "4", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("ZONOFIT_SEED", "42")
        assert main(["warmstart", poly, "--rank", "4", "--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert first == second  # env var wins over --seed


class TestBenchCommand:
    def test_row_count_arithmetic(self, tmp_path, capsys):
        code = main(["bench", "--dims", "2", "--ranks", "4", "--seeds", "2",
                     "--steps", "10", "--out", str(tmp_path / "bench_")])
        assert code == 0
        rows = (tmp_path / "bench_summary.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 4  # header + seeds * (1 warmstart + 3 random)
        curves = (tmp_path / "bench_curves.csv").read_text().strip().split("\n")
        assert curves[0] == "dim,rank,iter,median_warmstart,median_random"
        assert len(curves) > 1
        # Qualitative property of the 2-D batch: the warmstart median never
        # loses to the random median at the end of the horizon.
        last = curves[-1].split(",")
        assert float(last[3]) <= float(last[4]) + 1e-12

    def test_empty_dims_usage_error(self):
        assert main(["bench", "--dims", "", "--ranks", "4", "--seeds", "1"]) == 1


class TestUsageErrors:
    def test_missing_subcommand_args(self):
        assert main(["distance"]) == 1

    def test_unknown_rule(self):
        assert main(["optimize", "nope.json", "--rank", "3", "--rule", "bogus"]) == 1

    @pytest.mark.parametrize("flags, config", [
        (["--steps", "0"], None),
        ([], {"rank": 4, "tol_active": -1.0, "max_steps": 5}),
        ([], {"rank": 4, "tol_active": float("nan")}),
        ([], {"rank": 4, "perturb_scale": float("inf")}),
        ([], {"max_steps": 5}),
        ([], [4, 5]),
    ])
    def test_rejected_config(self, square_files, tmp_path, capsys, flags, config):
        poly, _ = square_files
        if config is not None:
            flags = flags + ["--config", write_json(tmp_path / "cfg.json", config)]
        assert main(["optimize", poly, "--rank", "4", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad config:") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("cone_margin", 1e-7), ("solver", {"feasibility_tol": 1e-7}),
        ("solver", {"kkt_tol": 1e-8, "iteration_factor": 10})])
    def test_retired_config_field(self, square_files, tmp_path, capsys, field, value):
        # A manifest from a run with a solver tolerance or cone margin off
        # its old default cannot be replayed: the values are constants now.
        manifest = {"config": {**OLD_MANIFEST_CONFIG, "rank": 4, field: value}}
        flags = ["--config", write_json(tmp_path / "m.json", manifest)]
        assert main(["optimize", square_files[0], "--rank", "4", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: bad config: {field}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["optimize", "--steps", "2"], ["warmstart"]])
    def test_non_integer_env_seed(self, square_files, capsys, monkeypatch, command):
        monkeypatch.setenv("ZONOFIT_SEED", "abc")
        assert main([command[0], square_files[0], "--rank", "2", *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ZONOFIT_SEED") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "1", "nan"])
    def test_rejected_tol_active(self, square_files, capsys, tol):
        assert main(["distance", *square_files, f"--tol-active={tol}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
