import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from dyncert import catalog, cli, core
from dyncert.cli import main
from dyncert.core import chunk_length, column_chunks, sample

from helpers import blow_ups_by_one


@pytest.fixture
def runner():
    return CliRunner()


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


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
        assert "structure_file" not in data["config"]
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

    @pytest.mark.parametrize("args, exit_code, scope", [
        (["certify", "--map", "twist"], 0, "integrability"),
        (["certify", "--map", "lyness", "--param", "n=3"], 0,
         "supplied conditions"),
        (["certify", "--map", "lyness", "--param", "n=3", "--param",
          "symmetry=1"], 1, "integrability"),
        (["lift-certify", "--map", "linear", "--param", "blocks=2:3"], 0,
         "integrability"),
        (["lift-certify", "--map", "lyness", "--param", "n=4"], 0,
         "supplied conditions"),
    ])
    def test_scope_follows_completeness(self, runner, tmp_path, args,
                                        exit_code, scope):
        # the scope says what a PASS speaks for; verdict and exit code
        # follow the conditions alone
        out = tmp_path / "r.json"
        result = run(runner, [*args, "--samples", "60", "-o", str(out)])
        assert result.exit_code == exit_code
        report = json.loads(out.read_text())["report"]
        assert report["scope"] == scope
        assert report["structure"]["complete"] == (scope == "integrability")

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
        data = json.loads(out.read_text())
        assert data["verdict"] == "PASS"
        assert data["config"]["structure_file"] == str(struct)

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
        region = catalog.build("linear", blocks="2:1,2:1")[2]
        skipped = blow_ups_by_one(sample(region, 5, seed=42))  # --seed's default
        assert skipped >= 1
        assert (flow["pass"], flow["count"], flow["skipped"]) == (
            True, 5 - skipped, skipped)

    def test_nan_gradient_is_a_deficient_point(self, runner, tmp_path):
        # x1*1e308*10 overflows, so every gradient is NaN: rank 0 at every
        # point, an honest FAIL rather than an SVD that does not converge
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({
            "dim": 2, "integrals": ["x1*1e308*10 - x1*1e308*10 + x2"]}))
        result = runner.invoke(main, ["certify", "--map", "linear",
                                      "--param", "blocks=1:1,1:1",
                                      "--samples", "50",
                                      "--structure-file", str(struct)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        [rank] = [c for c in json.loads(result.stdout)["report"]["conditions"]
                  if c["name"] == "gradient_independence"]
        region = catalog.build("linear", blocks="1:1,1:1")[2]
        assert (rank["pass"], rank["full_rank_fraction"]) == (False, 0.0)
        assert rank["worst_point"] == sample(region, 50, seed=42)[0]

    def test_nan_invariance_is_strict_json(self, runner, tmp_path):
        # the same integral is NaN wherever x1*1e308*10 overflows: each such
        # point fails map invariance and is counted, the statistics are
        # those of the finite residuals, and no bare NaN reaches the report
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({
            "dim": 2, "integrals": ["x1*1e308*10 - x1*1e308*10 + x2"]}))
        result = run(runner, ["certify", "--map", "linear",
                              "--param", "blocks=1:1,1:1", "--samples", "50",
                              "--structure-file", str(struct)])
        assert result.exit_code == 1
        data = json.loads(result.stdout, parse_constant=_reject)
        [inv] = [c for c in data["report"]["conditions"]
                 if c["name"] == "map_invariance[F1]"]
        region = catalog.build("linear", blocks="1:1,1:1")[2]
        overflows = sum(math.isinf(x[0] * 1e308 * 10)
                        for x in sample(region, 50, seed=42))
        assert 0 < overflows < 50
        assert (inv["pass"], inv["count"], inv["non_finite"]) == (
            False, 50, overflows)
        assert inv["max_abs"] == 0.0 and math.isfinite(inv["scale"])
        assert math.isfinite(inv["worst_point"][0] * 1e308 * 10)

    def test_non_finite_report_value_exit_three(self, capsys):
        # a value that is not finite when the report is written ends in a
        # runtime error, never in a report that strict parsers reject
        with pytest.raises(SystemExit) as stop:
            cli._write_report({"config": {}, "value": math.nan}, None, 0.0)
        assert stop.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "runtime"

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}],
                             ids=["numpy-int", "set"])
    def test_unwritable_report_value_exit_three(self, capsys, value):
        # a value that JSON has no form for is a runtime error, not a
        # traceback
        with pytest.raises(SystemExit) as stop:
            cli._write_report({"config": {}, "value": value}, None, 0.0)
        assert stop.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "runtime"

    @pytest.mark.parametrize("entry, structure", [
        pytest.param(("lyness", "n=2"), {"integrals": ["log(x1 - 5)"]},
                     id="log(x1 - 5)"),
        pytest.param(("lyness", "n=2"), {"integrals": ["1/(x1 - x1)"]},
                     id="1/(x1 - x1)"),
        # fractional powers of the linear map's negative coordinates
        pytest.param(("linear", "blocks=2:2"), {"integrals": ["x1^0.5"]},
                     id="x1^0.5"),
        pytest.param(("linear", "blocks=2:2"),
                     {"integrals": ["pow(x1, 1.5) + x2"]},
                     id="pow(x1, 1.5) + x2"),
        pytest.param(("linear", "blocks=2:2"), {"fields": [["x2^0.5", "0"]]},
                     id="field x2^0.5"),
        # an infinite argument of sin or cos
        pytest.param(("linear", "blocks=1:1,1:1"),
                     {"integrals": ["sin(x1*1e308*10) + x2"]},
                     id="sin(x1*1e308*10) + x2"),
        pytest.param(("linear", "blocks=1:1,1:1"),
                     {"fields": [["cos(x1*1e308*10)", "0"]]},
                     id="field cos(x1*1e308*10)"),
    ])
    def test_expression_pole_exit_three(self, runner, tmp_path, entry,
                                        structure):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"dim": 2, **structure}))
        name, params = entry
        result = run(runner, ["certify", "--map", name, "--param", params,
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
    ["rotation", "--map", "rigid_rotation", "-N", "3"],
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
    # --param values are strings, parsed by catalog.build: not by click's
    # finite float types
    ["certify", "--map", "affine1d", "--param", "a=nan"],
    ["certify", "--map", "lyness", "--param", "n=3", "--param", "a=inf"],
    ["certify", "--map", "linear", "--param", "blocks=nan:2"],
    ["certify", "--map", "rigid_rotation", "--param", "a=inf"],
]


@pytest.mark.parametrize("args", CONFIG_ERRORS, ids=" ".join)
def test_config_error_exit_two(runner, args):
    result = run(runner, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert json.loads(result.stderr.splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("args, message", [
    (["rotation", "--map", "cat_map", "--x0", "0.1,0.2"],
     "map cat_map is not a 1-D circle map"),
    (["rotation", "--map", "cat_map"], "map cat_map is not a 1-D circle map"),
    (["translation", "--map", "cat_map", "--x0", "0.1,0.2"],
     "map cat_map has no catalog symmetry fields"),
], ids=["rotation", "rotation-default-x0", "translation"])
def test_map_without_what_the_command_needs_exit_two(runner, args, message):
    result = run(runner, args)
    assert result.exit_code == 2
    assert json.loads(result.stderr.splitlines()[-1]) == {
        "error": "config", "message": message}


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

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"), ("[1, 2]", "must hold a JSON object")],
        ids=["missing", "array"])
    def test_unreadable_config_exit_two(self, runner, tmp_path, content,
                                        message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        result = run(runner, ["orbit", "--map", "cat_map", "--x0", "0.1,0.2",
                              "--config", str(cfg)])
        assert result.exit_code == 2
        assert message in result.stderr

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_wall_time_on_stderr(self, runner, fmt):
        # both report formats time the command on stderr, not in stdout
        result = run(runner, ["orbit", "--map", "cat_map", "--x0", "0.1,0.2",
                              "-N", "3", "--format", fmt])
        assert result.exit_code == 0
        assert result.stderr.startswith("wall_time_ms=")
        assert result.stderr.count("\n") == 1
        assert "wall_time_ms=" not in result.stdout

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

    def test_lyapunov_csv(self, runner, tmp_path):
        args = ["lyapunov", "--map", "cat_map", "--x0", "0.3,0.7",
                "-N", "2000"]
        out = tmp_path / "lyap.csv"
        result = run(runner, [*args, "--format", "csv", "-o", str(out)])
        assert result.exit_code == 0
        assert b"\r" not in out.read_bytes()
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "exponent"]
        exponents = json.loads(run(runner, args).stdout)["exponents"]
        assert rows[1:] == [[str(i + 1), format(v, ".17g")]
                            for i, v in enumerate(exponents)]

    def test_lyapunov_orbit_overflow_exit_three(self, runner):
        # 2^k k^2 outgrows the floats: orbit point 1011 is the first inf
        result = run(runner, ["lyapunov", "--map", "linear",
                              "--param", "blocks=2:3",
                              "--x0", "0.1,0.2,0.3", "-N", "3000"])
        assert result.exit_code == 3
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "runtime",
            "message": "orbit point 1011 is not finite"}

    def test_orbit_ends_before_its_first_inf(self, runner):
        # the orbit of the lyapunov case above, one step past its last
        # finite point: the report is strict JSON, with no Infinity
        result = run(runner, ["orbit", "--map", "linear", "--param",
                              "blocks=2:3", "--x0", "0.1,0.2,0.3",
                              "-N", "1012"])
        assert result.exit_code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(result.stdout, parse_constant=reject)
        assert len(data["points"]) == 1011
        assert all(map(math.isfinite, data["points"][-1]))
        # the map has no guard: the orbit ended at a point that is not finite
        assert (data["guard_failures"], data["non_finite"]) == (0, 1)

    def test_rotation(self, runner, tmp_path):
        out = tmp_path / "rot.json"
        result = run(runner, ["rotation", "--map", "rigid_rotation",
                              "--param", f"a={math.pi / 2}",
                              "-N", "4000", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["rotation_number"] == pytest.approx(0.25, abs=1e-3)

    def test_rotation_default_report(self, runner, tmp_path):
        out = tmp_path / "rot.json"
        result = run(runner, ["rotation", "--map", "rigid_rotation",
                              "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert list(data) == ["version", "config", "rotation_number", "gap",
                              "verdict", "caveat", "wall_time_ms"]
        assert data["config"] == {"N": 10000, "command": "rotation",
                                  "map": "rigid_rotation", "params": {},
                                  "x0": [0.0]}
        assert data["rotation_number"] == pytest.approx(1.0 / (2 * math.pi),
                                                        abs=1e-15)
        assert data["gap"] == 0.0

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

    def test_drift_from_outside_the_guard_exit_three(self, runner):
        # as orbit and lyapunov do on the same start point
        for command in ("drift", "orbit", "lyapunov"):
            result = run(runner, [command, "--map", "lyness", "--param",
                                  "n=2", "--x0", "-1,2", "-N", "100"])
            assert result.exit_code == 3
            error = json.loads(result.stderr.splitlines()[-1])
            assert error["error"] == "runtime"
            assert "violates the domain guard" in error["message"]

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
        # fields x, N x, N^2 x with A = 2I + N on one 3x3 Jordan block;
        # log A = ln2 I + N/2 - N^2/8 gives the flow times
        out = tmp_path / "t.json"
        result = run(runner, ["translation", "--map", "linear",
                              "--param", "blocks=2:3", "--x0", "1,0.5,-0.3",
                              "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["t0"] == pytest.approx(
            [math.log(2.0), 1 / 2, -1 / 8], abs=1e-9)
        # the Lyness candidate field does not commute with the map, and
        # N^2 x vanishes where x1 = 0, so t3 is not determined there
        for args in (["lyness", "--param", "n=3", "--param", "symmetry=1",
                      "--x0", "1,1,1"],
                     ["linear", "--param", "blocks=2:3", "--x0", "0,0.5,0.3"]):
            result = run(runner, ["translation", "--map", *args])
            assert result.exit_code == 3
            error = json.loads(result.stderr.splitlines()[-1])
            assert error["error"] == "runtime"

    def test_translation_times_past_the_cap_exit_three(self, runner):
        # f swaps the two orbits x < 1 and x > 1 of the field x - 1, so no
        # flow time reaches f(x) and Newton drives t without bound; the fit
        # stops at the flow-time cap, before it integrates that far
        result = run(runner, ["translation", "--map", "affine1d",
                              "--param", "a=-2", "--x0", "0.5"])
        assert result.exit_code == 3
        error = json.loads(result.stderr.splitlines()[-1])
        assert error["error"] == "runtime"
        assert "pass the cap |t| <= 1000" in error["message"]


class TestLiftCertify:
    def test_lyness_guard_pass_calls_the_guard_on_columns(
            self, runner, tmp_path, monkeypatch):
        # the lift's guard takes columns through its slicing wrapper: two
        # calls per chunk of its one bool per point in guarded_images, none
        # point by point, and none in sample, as the lifted region carries
        # no guard
        calls = []
        lyness_guard = catalog._lyness_guard

        def recording(x):
            calls.append(np.shape(x[0]))
            return lyness_guard(x)

        monkeypatch.setattr(catalog, "_lyness_guard", recording)
        result = run(runner, ["lift-certify", "--map", "lyness", "--param",
                              "n=4", "-o", str(tmp_path / "lift.json")])
        assert result.exit_code == 0
        sizes = [(c.stop - c.start,)
                 for c in column_chunks(1000, chunk_length())]
        assert calls == sizes * 2

    def test_lift_without_structure_checks_symplecticity(self, runner,
                                                          tmp_path):
        out = tmp_path / "lift.json"
        result = run(runner, ["lift-certify", "--map", "cat_map",
                              "--samples", "80", "-o", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "PASS"
        assert [c["name"] for c in data["report"]["conditions"]] == [
            "symplecticity"]

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


class TestStrictJson:
    # the reports of the byte-identity sweep, each parsed with a
    # parse_constant that raises: no bare NaN or Infinity reaches one, nor
    # the error line of a map without a catalog structure (the NaN
    # reproducer is TestCertify::test_nan_invariance_is_strict_json)
    @pytest.mark.parametrize("args", [
        *(["certify", "--map", name, "--samples", "50"]
          for name in catalog.CATALOG),
        ["lift-certify", "--map", "linear", "--param", "blocks=2:3",
         "--samples", "50"],
        ["lift-certify", "--map", "lyness", "--param", "n=4",
         "--samples", "50"],
        ["orbit", "--map", "lyness", "--x0", "1,2", "-N", "50"],
        # ends before its first point that is not finite
        ["orbit", "--map", "linear", "--param", "blocks=2:3",
         "--x0", "0.1,0.2,0.3", "-N", "1100"],
        ["lyapunov", "--map", "cat_map", "--x0", "0.3,0.7", "-N", "2000"],
        ["periodic", "--map", "cat_map", "-k", "2", "--seeds", "50"],
        ["rotation", "--map", "rigid_rotation", "-N", "1000"],
        ["drift", "--map", "lyness", "--x0", "1,2", "-N", "200"],
        ["translation", "--map", "affine1d", "--x0", "1"],
        ["list"],
    ], ids=lambda args: "-".join(args[:3:2]))
    def test_reports_parse_strictly(self, runner, args):
        result = run(runner, args)
        if result.exit_code == 2:  # no structure to certify
            assert args[:2] == ["certify", "--map"]
            error = json.loads(result.stderr.splitlines()[-1],
                               parse_constant=_reject)
            assert error["error"] == "config"
            return
        assert result.exit_code in (0, 1)
        data = json.loads(result.stdout, parse_constant=_reject)
        assert data["config"]["command"] == args[0]


class TestDeterminism:
    def test_reports_byte_identical_across_column_budgets(
            self, runner, tmp_path, monkeypatch):
        # the default budget takes each quantity of these runs in one
        # chunk of points; a budget of 128 points for every quantity cuts
        # them into several
        commands = [
            ["certify", "--map", "twist", "--samples", "300", "--seed", "42"],
            ["lift-certify", "--map", "lyness", "--param", "n=4",
             "--samples", "300", "--seed", "42"],
            ["lyapunov", "--map", "cat_map", "--x0", "0.3,0.7", "-N", "2000"],
            # three stacks of JACOBIAN_STACK steps or fewer, whose ends do
            # not move with the budget
            ["lyapunov", "--map", "cat_map", "--x0", "0.3,0.7", "-N", "9000"],
            ["periodic", "--map", "cat_map", "-k", "2", "--seeds", "300"],
        ]
        outputs = {}
        for budget in ("default", "128 points"):
            if budget != "default":
                monkeypatch.setattr(core, "CHUNK_FLOATS", 1)
            for i, args in enumerate(commands):
                out = tmp_path / f"report_{i}_{budget}.json"
                result = run(runner, [*args, "-o", str(out)])
                assert result.exit_code == 0
                outputs.setdefault(i, []).append(out.read_bytes())
        assert all(a == b for a, b in outputs.values())

    def test_repeat_run_identical(self, runner, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            run(runner, ["certify", "--map", "affine1d", "--samples", "60",
                         "--seed", "7", "-o", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
