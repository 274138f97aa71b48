"""CLI tests: subcommands, exit codes, file outputs, reproducibility."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import (
    NEAR_PARALLEL_ZONOTOPES,
    OLD_MANIFEST_CONFIG,
    SHORT_PARALLEL_GENERATORS,
    UNIT_TRIANGLE,
    hausdorff_oracle,
    random_zonotope,
)
from zonofit import cli, solvers
from zonofit.cli import main
from zonofit.cone import DirectionResult, build_cone, descent_direction
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
from zonofit.hausdorff import coarse_hausdorff_distance, hausdorff_distance


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def near_parallel_files(tmp_path):
    """The unit cube and the zonotopes of ``NEAR_PARALLEL_ZONOTOPES``."""
    cube = write_json(tmp_path / "cube.json",
                      {"vertices": [[float(b) for b in f"{k:03b}"] for k in range(8)]})
    return cube, [write_json(tmp_path / f"z{k}.json", z)
                  for k, z in enumerate(NEAR_PARALLEL_ZONOTOPES)]


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

    @pytest.mark.parametrize("G", SHORT_PARALLEL_GENERATORS)
    def test_short_parallel_generator_matches_the_oracle(self, tmp_path, capsys, G):
        poly = write_json(tmp_path / "p.json", {"vertices": UNIT_TRIANGLE})
        zono = write_json(tmp_path / "z.json", {"generators": G, "translation": [0.0, 0.0]})
        assert main(["distance", poly, zono]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(hausdorff_oracle(UNIT_TRIANGLE, G, [0.0, 0.0]),
                                             rel=1e-6)

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

    def test_near_parallel_generators_exit_0(self, near_parallel_files, capsys):
        # Exactly singular face normal equations once escaped as numpy's
        # LinAlgError, a ValueError the command reported as a usage error.
        cube, zonos = near_parallel_files
        assert main(["distance", cube, zonos[0]]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == hausdorff_distance(cli._load_polytope(cube),
                                           cli._load_zonotope(zonos[0]))[0]

    def test_zero_generator_measures_the_zonotope_without_it(self, tmp_path, capsys):
        # A zero generator once left the vertex list empty, and the command
        # printed distance 0 for a triangle against the unit square.
        poly = write_json(tmp_path / "triangle.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
        values = []
        for name, generators in (("padded", [[0, 0], [1, 0], [0, 1]]),
                                 ("square", [[1, 0], [0, 1]])):
            zono = write_json(tmp_path / f"{name}.json",
                              {"generators": generators, "translation": [0, 0]})
            assert main(["distance", poly, zono]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == pytest.approx(values[1], abs=1e-12)
        assert values[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

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

    def test_old_manifest_replays_the_same_run(self, tmp_path, capsys, rng):
        # OLD_MANIFEST_CONFIG carries every retired field at its old default.
        poly = write_json(tmp_path / "p.json",
                          polytope_to_json(zonotope_as_polytope(random_zonotope(rng, 4, 2))))
        old = write_json(tmp_path / "old.json", {"config": OLD_MANIFEST_CONFIG})
        flags = ["--steps", "7", "--seed", "11", "--rule", "conservative"]
        for name, extra in (("a.csv", flags), ("b.csv", ["--config", old])):
            assert main(["optimize", poly, "--rank", "3", *extra,
                         "--trace", str(tmp_path / name)]) == 0
        capsys.readouterr()
        rows = [[r.rsplit(",", 1)[0] for r in (tmp_path / name).read_text().split("\n")[1:]]
                for name in ("a.csv", "b.csv")]
        assert rows[0] == rows[1] and len(rows[0]) > 2

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

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_is_a_usage_error(self, square_files, capsys, rank):
        poly, _ = square_files
        assert main(["optimize", poly, "--rank", rank, "--warmstart", "random"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad config:") and err.count("\n") == 1

    @pytest.mark.parametrize("rank, generators", [
        ("2", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # a rank-3 start
        ("3", np.eye(3).tolist())])  # a 3-D start for the 2-D square
    def test_mismatched_start_zonotope_exit_2(self, square_files, tmp_path, capsys,
                                              rank, generators):
        start = write_json(tmp_path / "start.json",
                           {"generators": generators, "translation": [0.0] * len(generators[0])})
        assert main(["optimize", square_files[0], "--rank", rank, "--warmstart", start]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


class TestConeCommand:
    def test_incomplete_facet_list_exit_2(self, tmp_path, capsys):
        # With its one facet, the triangle would be a half-plane that holds
        # (0.9, 0.9): the locality check would run on a wrong polytope.
        poly = write_json(tmp_path / "p.json", {"vertices": UNIT_TRIANGLE,
                                                "facets": [[0.0, -1.0, 0.0]]})
        zono = write_json(tmp_path / "z.json", {"generators": [[2.0, 0.0], [0.0, 2.0]],
                                                "translation": [-0.5, -0.5]})
        assert main(["cone", poly, zono]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {poly}:") and err.count("\n") == 1

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

    # A coarse fit's final zonotope, certified and passing the locality
    # gate (``_random_polytope(default_rng(10), 2)``, rank 2, 60 steps).
    CERTIFIED_COARSE = (
        {"vertices": [[-0.8500358307841303, 0.29027566873624633],
                      [0.6746832366035821, 0.6866028217869948],
                      [0.5009178989773664, -0.47518062311759557],
                      [-0.6428827493015337, -0.750141118913481]]},
        {"generators": [[0.01669387192819044, -1.1011001162771588],
                        [1.334259857833306, 0.33564382442331697]],
         "translation": [-0.754806226006927, 0.32061733304996204]},
    )

    @pytest.mark.parametrize("case", ["worked", "coarse"])
    def test_cone_uses_the_descent_rule_and_solves_no_lp(self, tmp_path, capsys,
                                                         monkeypatch, case):
        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called by zonofit cone")

        monkeypatch.setattr(solvers, "solve_lp", no_lp)
        if case == "worked":
            s = 1.05 * np.sqrt(2.0) / 2.0
            poly_json = {"vertices": [[0.5 - s, 0.5], [0.5, 0.5 - s],
                                      [0.5 + s, 0.5], [0.5, 0.5 + s]]}
            zono_json = {"generators": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0]}
        else:
            poly_json, zono_json = self.CERTIFIED_COARSE
        poly = write_json(tmp_path / "p.json", poly_json)
        zono = write_json(tmp_path / "z.json", zono_json)
        coarse = case == "coarse"
        assert main(["cone", poly, zono] + (["--coarse"] if coarse else [])) == 0
        out = json.loads(capsys.readouterr().out)

        fn = coarse_hausdorff_distance if coarse else hausdorff_distance
        _, pairs = fn(polytope_from_json(poly_json), zonotope_from_json(zono_json), 1e-7)
        res = descent_direction(build_cone(pairs), "coarse" if coarse else "exact")
        assert res.status == ("cone_empty_interior" if coarse else "descent")
        assert out["interior_nonempty"] is (res.status == "descent")
        assert out["interior_margin"] == res.interior_margin
        assert out["certificate"] == res.certificate
        assert out["verdict"] == ("local minimum of the coarse distance" if coarse
                                  else "not a local minimum")

    def test_feasible_empty_has_its_own_verdict(self, tmp_path, capsys, monkeypatch):
        s = 1.05 * np.sqrt(2.0) / 2.0
        poly = write_json(tmp_path / "p.json", {
            "vertices": [[0.5 - s, 0.5], [0.5, 0.5 - s], [0.5 + s, 0.5], [0.5, 0.5 + s]],
        })
        zono = write_json(tmp_path / "z.json", {
            "generators": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0],
        })
        monkeypatch.setattr(cli, "descent_direction", lambda cone, objective: DirectionResult(
            status="feasible_empty", interior_margin=0.5))
        assert main(["cone", poly, zono]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["interior_nonempty"] is False
        assert out["interior_margin"] == 0.5
        assert out["certificate"] is None
        assert out["verdict"] == ("no direction strictly improves every pair "
                                  "(treated as a local minimum)")

    def test_near_parallel_generators(self, near_parallel_files, capsys):
        # The first pair fails locality, the second holds it: both exit
        # with their verdict instead of numpy's LinAlgError.
        cube, zonos = near_parallel_files
        assert main(["cone", cube, zonos[0]]) == 5
        assert json.loads(capsys.readouterr().out)["unstable_polytope_vertices"] == [1, 6, 7]
        assert main(["cone", cube, zonos[1]]) == 0
        assert json.loads(capsys.readouterr().out)["locality"] is True

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
    @pytest.mark.parametrize("rank", ["-1", "0", "1"])
    def test_rank_below_the_dimension_exit_2(self, tmp_path, capsys, rank):
        poly = write_json(tmp_path / "p.json", {"vertices": [
            [0, 0], [2, 0.2], [2.6, 1.4], [1.1, 2.3], [-0.4, 1.2]]})
        assert main(["warmstart", poly, "--rank", rank]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--dims", "x"], ["--ranks", "2,y"],
                                       ["--dims", "2,0"], ["--ranks=-1"],
                                       ["--dims", "3", "--ranks", "2"]])
    def test_bad_flag_is_a_usage_error(self, capsys, flags):
        assert main(["bench", "--seeds", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1


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
        ("solver", {"kkt_tol": 1e-8, "iteration_factor": 10}),
        ("hybrid_switch", 9), ("max_perturb_tries", 2), ("max_perturb_tries", -1),
        ("tol_active", 1e-3), ("tol_active", -1.0), ("tol_active", 1.0),
        ("tol_active", float("nan"))])
    def test_retired_config_field(self, square_files, tmp_path, capsys, field, value):
        # A manifest from a run with a solver tolerance, the cone margin, the
        # hybrid switch, the perturbation budget or the active band off its
        # old default cannot be replayed: the values are constants now.
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

    @pytest.mark.parametrize("command", [["optimize", "--steps", "2"], ["warmstart"]])
    @pytest.mark.parametrize("env", [None, "-1"])
    def test_negative_seed(self, square_files, capsys, monkeypatch, command, env):
        # A negative seed would fail only in np.random.default_rng.
        seed = ["--seed", "-1"] if env is None else []
        if env is not None:
            monkeypatch.setenv("ZONOFIT_SEED", env)
        assert main([command[0], square_files[0], "--rank", "2", *command[1:], *seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "-1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag, written", [
        (["optimize", "--rank", "3", "--steps", "2"], "--trace", ""),
        (["optimize", "--rank", "3", "--steps", "2"], "--out", ""),
        (["optimize", "--rank", "3", "--steps", "2"], "--plot", ""),
        (["warmstart", "--rank", "3"], "--out", ""),
        (["bench", "--seeds", "1", "--steps", "2"], "--out", "summary.csv"),
    ])
    def test_unwritable_output(self, square_files, tmp_path, capsys, command, flag, written):
        # An output in a directory that does not exist is one line on
        # stderr, not a traceback.
        path = str(tmp_path / "missing" / "out")
        inputs = [] if command[0] == "bench" else [square_files[0]]
        assert main([command[0], *inputs, *command[1:], flag, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {path + written}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "1", "nan", "1.5"])
    def test_rejected_tol_active(self, square_files, capsys, tol):
        for command in ("distance", "cone"):
            assert main([command, *square_files, f"--tol-active={tol}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and err.count("\n") == 1
