import csv
import json
import math

import pytest
from click.testing import CliRunner

from dyncert.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


class TestList:
    def test_lists_catalog(self, runner, tmp_path):
        out = tmp_path / "list.json"
        result = run(runner, ["list", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["version"]
        assert any(e["name"] == "lyness" for e in data["entries"])


class TestCertify:
    def test_twist_passes(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--map", "twist", "--samples", "200",
                              "--seed", "42", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "PASS"
        assert data["caveat"] == "numerical evidence, not proof"
        assert data["wall_time_ms"] is None
        assert data["config"]["map"] == "twist"
        assert data["report"]["seed"] == 42

    def test_lyness_n2_default(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--map", "lyness", "--param", "n=2",
                              "--param", "a=1", "--samples", "150",
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        names = [c["name"] for c in data["report"]["conditions"]]
        assert "map_invariance[F1]" in names
        assert not any(n.startswith("lie_bracket") for n in names)

    def test_fail_verdict_exit_one(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--map", "lyness", "--param", "n=3",
                              "--param", "a=1", "--param", "symmetry=1",
                              "--samples", "60", "-o", str(out)])
        assert result.exit_code == 1
        data = json.loads(out.read_text())
        assert data["verdict"] == "FAIL"
        assert "variant_search" in data
        assert len(data["variant_search"]) > 0

    def test_unknown_map_exit_two(self, runner):
        result = run(runner, ["certify", "--map", "nope"])
        assert result.exit_code == 2

    def test_bad_param_exit_two(self, runner):
        result = run(runner, ["certify", "--map", "affine1d",
                              "--param", "a"])
        assert result.exit_code == 2

    def test_structure_file(self, runner, tmp_path):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({
            "dim": 1,
            "fields": [["x1 + 3"]],
        }))
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--map", "affine1d",
                              "--param", "a=2", "--param", "b=3",
                              "--samples", "40",
                              "--structure-file", str(struct),
                              "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_flow_blow_up_is_a_skipped_point(self, runner, tmp_path):
        # x1' = x1^2 / x2 commutes with the map but blows up in finite time
        # from some points; such a trajectory is skipped, not run to the
        # integrator's step limit
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"dim": 2,
                                      "fields": [["x1^2/x2", "0"]]}))
        result = run(runner, ["certify", "--map", "linear",
                              "--param", "blocks=2:1,2:1", "--samples", "5",
                              "--flow-times", "1",
                              "--structure-file", str(struct)])
        assert result.exit_code == 0
        flow = json.loads(result.stdout)["report"]["conditions"][-1]
        assert flow["name"] == "flow_commutation[X1,t=1]"
        assert (flow["pass"], flow["count"], flow["skipped"]) == (True, 4, 1)

    @pytest.mark.parametrize("integral", ["log(x1 - 5)", "1/(x1 - x1)"])
    def test_expression_pole_exit_three(self, runner, tmp_path, integral):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"dim": 2, "integrals": [integral]}))
        result = run(runner, ["certify", "--map", "lyness", "--param", "n=2",
                              "--samples", "20",
                              "--structure-file", str(struct)])
        assert result.exit_code == 3
        assert json.loads(result.stderr.splitlines()[-1])["error"] == "runtime"

    @pytest.mark.parametrize("structure", [
        {"dim": 2, "integrals": ["exp(x1, 2)"]},
        {"dim": 2, "integrals": ["pow(x1)"]},
        {"dim": 2, "fields": [5]},
        {"dim": 2, "integrals": ["x1", "x2", "x1 * x2"]},
        {"dim": 3, "momentum": True, "integrals": ["x1 * p1"]}], ids=str)
    def test_bad_structure_exit_two(self, runner, tmp_path, structure):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps(structure))
        result = run(runner, ["certify", "--map", "lyness", "--param", "n=2",
                              "--samples", "20",
                              "--structure-file", str(struct)])
        assert result.exit_code == 2
        assert json.loads(result.stderr.splitlines()[-1])["error"] == "config"

    def test_structure_dimension_mismatch(self, runner, tmp_path):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"dim": 2, "fields": [["x1", "x2"]]}))
        result = run(runner, ["certify", "--map", "affine1d",
                              "--structure-file", str(struct)])
        assert result.exit_code == 2

    def test_variant_search_skips_structure_file(self, runner, tmp_path):
        # the search scores the catalog's own candidate field, not a field
        # from --structure-file
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"dim": 2, "fields": [["x1", "x2"]]}))
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--map", "lyness", "--samples", "20",
                              "--structure-file", str(struct),
                              "-o", str(out)])
        assert result.exit_code == 1
        data = json.loads(out.read_text())
        assert data["verdict"] == "FAIL"
        assert "variant_search" not in data

    def test_config_file_merged_under_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_name": "affine1d",
                                   "samples": 30}))
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--config", str(cfg),
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["config"]["map"] == "affine1d"
        assert data["config"]["samples"] == 30


BAD_INPUTS = [
    ["certify", "--map", "affine1d", "--samples", "0"],
    ["certify", "--map", "affine1d", "--samples", "-3"],
    ["certify", "--map", "affine1d", "--algebraic-tol", "0"],
    ["certify", "--map", "affine1d", "--flow-tol", "0"],
    ["certify", "--map", "affine1d", "--flow-tol", "-1"],
    ["certify", "--map", "affine1d", "--ae-fraction", "0.5"],
    ["lift-certify", "--map", "affine1d", "--momentum-box", "0"],
    ["lift-certify", "--map", "affine1d", "--momentum-box", "-1"],
    ["orbit", "--map", "cat_map", "--x0", "0.1,0.2", "-N", "0"],
    ["lyapunov", "--map", "cat_map", "--x0", "0.1,0.2", "-N", "10"],
    ["periodic", "--map", "cat_map", "-k", "0"],
    ["periodic", "--map", "cat_map", "--seed", "-1"],
    ["certify", "--map", "affine1d", {"samples": "abc"}],
    ["certify", "--map", "affine1d", {"flow_times": [0.5]}],
    ["orbit", "--map", "cat_map", {"x0": 0.5}],
    ["certify", "--map", "affine1d", "--algebraic-tol", "nan"],
    ["certify", "--map", "affine1d", "--flow-tol", "inf"],
    ["certify", "--map", "affine1d", "--rank-threshold", "nan"],
    ["certify", "--map", "affine1d", "--rank-threshold", "2"],
    ["certify", "--map", "affine1d", "--ae-fraction", "nan"],
    ["certify", "--map", "affine1d", "--flow-times", "0.5,inf"],
    ["certify", "--map", "affine1d", "--samples", "5", "--flow-times",
     "1e308"],
    ["certify", "--map", "affine1d", {"flow_tol": math.nan}],
    ["lift-certify", "--map", "affine1d", "--momentum-box", "inf"],
    ["orbit", "--map", "cat_map", "--x0", "nan,0.2"],
    ["certify", "--map", "affine1d", "--seed", str(2**128)],
    ["rotation", "--map", "rigid_rotation", "-N", "0"],
    ["rotation", "--map", "rigid_rotation", "--windows", "-3"],
    ["drift", "--map", "lyness", "--x0", "1,2", "-N", "0"],
    ["periodic", "--map", "cat_map", "--seeds", "-4"],
]


@pytest.mark.parametrize("args", BAD_INPUTS,
                         ids=lambda a: " ".join(map(str, a)))
def test_bad_input_exit_two(runner, tmp_path, args):
    if isinstance(args[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", str(cfg)]
    result = run(runner, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Error: Invalid value" in result.stderr


# inputs click accepts that the command rejects with a JSON config line
CONFIG_ERRORS = [
    ["lyapunov", "--map", "cat_map", "--x0", "0.1"],
    ["drift", "--map", "lyness", "--x0", "1"],
    ["translation", "--map", "affine1d", "--x0", "1,2"],
    ["rotation", "--map", "rigid_rotation", "--x0", ","],
    ["rotation", "--map", "cat_map"],
    ["rotation", "--map", "rigid_rotation", "-N", "3", "--windows", "4"],
]


@pytest.mark.parametrize("args", CONFIG_ERRORS, ids=" ".join)
def test_config_error_exit_two(runner, args):
    result = run(runner, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert json.loads(result.stderr.splitlines()[-1])["error"] == "config"


class TestConfig:
    def write(self, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        return str(cfg)

    def orbit_points(self, runner, tmp_path, extra):
        out = tmp_path / "orbit.json"
        cfg = self.write(tmp_path, {"n_steps": 5})
        result = run(runner, ["orbit", "--map", "lyness", "--param", "n=2",
                              "--x0", "1,2", "--config", cfg, "-o", str(out),
                              *extra])
        assert result.exit_code == 0
        return json.loads(out.read_text())["points"]

    def test_file_beats_default(self, runner, tmp_path):
        assert len(self.orbit_points(runner, tmp_path, [])) == 6

    def test_flag_beats_file(self, runner, tmp_path):
        assert len(self.orbit_points(runner, tmp_path, ["-N", "7"])) == 8

    def test_unknown_key_exit_two(self, runner, tmp_path):
        cfg = self.write(tmp_path, {"map": "twist"})
        result = run(runner, ["certify", "--config", cfg])
        assert result.exit_code == 2
        assert "unknown keys map" in result.stderr

    def test_rank_threshold_reaches_report(self, runner, tmp_path):
        cfg = self.write(tmp_path, {"map_name": "affine1d", "samples": 20,
                                    "rank_threshold": 0.5})
        out = tmp_path / "r.json"
        result = run(runner, ["certify", "--config", cfg, "-o", str(out)])
        assert result.exit_code == 0
        tol = json.loads(out.read_text())["report"]["tolerances"]
        assert tol["rank_threshold"] == 0.5
        assert tol["algebraic_tol"] == 1e-9


class TestOrbit:
    def test_csv_five_cycle(self, runner, tmp_path):
        out = tmp_path / "orbit.csv"
        result = run(runner, ["orbit", "--map", "lyness", "--param", "n=2",
                              "--param", "a=1", "--x0", "1,2", "-N", "5",
                              "--format", "csv", "-o", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        assert "\r" not in text
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["k", "x1", "x2"]
        assert len(rows) == 7
        assert [float(v) for v in rows[1][1:]] == [1.0, 2.0]
        assert [float(v) for v in rows[6][1:]] == [1.0, 2.0]

    def test_json_orbit(self, runner, tmp_path):
        out = tmp_path / "orbit.json"
        result = run(runner, ["orbit", "--map", "cat_map", "--x0", "0.2,0.4",
                              "-N", "2", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["points"][2] == pytest.approx([0.2, 0.4])

    def test_wrong_dimension_exit_two(self, runner):
        result = run(runner, ["orbit", "--map", "cat_map", "--x0", "0.5",
                              "-N", "2"])
        assert result.exit_code == 2


class TestDataCommands:
    def test_lyapunov(self, runner, tmp_path):
        out = tmp_path / "lyap.json"
        result = run(runner, ["lyapunov", "--map", "cat_map",
                              "--x0", "0.3,0.7", "-N", "2000",
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        lam = math.log((3 + math.sqrt(5)) / 2)
        assert data["exponents"][0] == pytest.approx(lam, abs=5e-3)

    def test_rotation(self, runner, tmp_path):
        out = tmp_path / "rot.json"
        result = run(runner, ["rotation", "--map", "rigid_rotation",
                              "--param", f"a={math.pi / 2}",
                              "-N", "4000", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["rotation_number"] == pytest.approx(0.25, abs=1e-3)

    def test_periodic(self, runner, tmp_path):
        out = tmp_path / "per.json"
        result = run(runner, ["periodic", "--map", "cat_map", "-k", "1",
                              "--seeds", "40", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["structure_note"] == "no structure certified"
        assert any(p["classification"] == "hyperbolic"
                   for p in data["periodic_points"])

    def test_drift(self, runner, tmp_path):
        out = tmp_path / "drift.json"
        result = run(runner, ["drift", "--map", "lyness", "--param", "n=2",
                              "--param", "a=2", "--x0", "1,2", "-N", "1000",
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["drifts"]["F1"] <= 1e-6

    def test_drift_without_integrals_exit_two(self, runner):
        result = run(runner, ["drift", "--map", "cat_map", "--x0", "0.1,0.1",
                              "-N", "10"])
        assert result.exit_code == 2

    def test_translation(self, runner, tmp_path):
        out = tmp_path / "t.json"
        result = run(runner, ["translation", "--map", "affine1d",
                              "--param", "a=2", "--param", "b=3",
                              "--x0", "1", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["t0"][0] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_translation_three_fields(self, runner, tmp_path):
        # fields A x, N x, N^2 x with A = 2I + N on one 3x3 Jordan block;
        # log A = ln2 I + N/2 - N^2/8 gives the flow times
        out = tmp_path / "t.json"
        result = run(runner, ["translation", "--map", "linear",
                              "--param", "blocks=2:3", "--x0", "1,0.5,-0.3",
                              "-o", str(out)])
        assert result.exit_code == 0
        ln2 = math.log(2.0)
        assert json.loads(out.read_text())["t0"] == pytest.approx(
            [ln2 / 2, (1 - ln2) / 2, -1 / 8], abs=1e-9)
        # the Lyness candidate field does not commute with the map, and
        # N^2 x vanishes where x1 = 0, so t3 is not determined there
        for args in (["lyness", "--param", "n=3", "--param", "symmetry=1",
                      "--x0", "1,1,1"],
                     ["linear", "--param", "blocks=2:3", "--x0", "0,0.5,0.3"]):
            result = run(runner, ["translation", "--map", *args])
            assert result.exit_code == 3
            error = json.loads(result.stderr.splitlines()[-1])
            assert error["error"] == "runtime"


class TestLiftCertify:
    def test_linear_lift_passes(self, runner, tmp_path):
        out = tmp_path / "lift.json"
        result = run(runner, ["lift-certify", "--map", "linear",
                              "--param", "blocks=2:2", "--samples", "80",
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "PASS"
        names = [c["name"] for c in data["report"]["conditions"]]
        assert "symplecticity" in names
        assert "poisson_bracket[G1,G2]" in names


class TestDeterminism:
    def test_reports_byte_identical_across_thread_counts(self, runner,
                                                         tmp_path):
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"report_{threads}.json"
            result = run(runner, ["certify", "--map", "twist",
                                  "--samples", "120", "--seed", "42",
                                  "-o", str(out)],
                         env={"DYNINT_THREADS": threads})
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeat_run_identical(self, runner, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            run(runner, ["certify", "--map", "affine1d", "--samples", "60",
                         "--seed", "7", "-o", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
