import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from geoplasma.cli import main
from geoplasma.errors import ScenarioError
from geoplasma.scenario import (
    MIN_BATCH,
    RiemannScenario,
    build_scenario,
    evaluation_points,
    sheet_axes_and_values,
)


def riemann_config(**over):
    config = {
        "framework": "riemann",
        "n": 2,
        "c": 1.0,
        "metric": [["1", "0"], ["x1^2"]],
        "pressure": "0.2 + 0.05*sin(x1)",
        "density": "1.1",
        "velocity": ["1", "0.3*cos(x2)"],
        "em": {"H": [["0.1*sin(x1)"], []], "G": "self-dual"},
        "eval": {"box": {"min": [0.5, -0.5], "max": [1.5, 0.5]}, "count": 4, "seed": 11},
    }
    config.update(over)
    return config


def lagrange_config(**over):
    config = {
        "framework": "lagrange",
        "n": 2,
        "metric": [["1 + 0.1*sin(y1)", "0"], ["1 + 0.1*cos(x1)"]],
        "connection": "zero",
        "pressure": "0.3",
        "density": "1.0 + 0.1*cos(x2)",
        "em": {"H": [["0.1*x1"], []]},
        "eval": {"box": {"min": [-0.5, -0.5, 0.6, 0.6], "max": [0.5, 0.5, 1.2, 1.2]},
                 "count": 3, "seed": 5},
    }
    config.update(over)
    return config


def multitime_config(**over):
    config = {
        "framework": "multitime",
        "n": 2,
        "p": 2,
        "h_metric": [["1", "0"], ["1 + 0.1*t1^2"]],
        "model": {"name": "bsml", "params": {"phi": {"name": "polar"}}},
        "pressure": "0.4 + 0.02*x1_1",
        "density": "1.2",
        "em": {"H": [["0.1*x1"], []]},
        "eval": {"box": {
            "min": [-0.3, -0.3, 0.8, -0.5, 0.6, 0.6, 0.6, 0.6],
            "max": [0.3, 0.3, 1.5, 0.5, 1.2, 1.2, 1.2, 1.2]},
            "count": 3, "seed": 7},
        "sheet": {
            "x": ["1 + 0.2*t1 + 0.1*t2", "0.5*t1 - 0.3*t2"],
            "grid": {"min": [0.0, 0.0], "max": [1.0, 1.0], "shape": [5, 5]},
        },
    }
    config.update(over)
    return config


def write(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# -- schema validation -------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        build_scenario(riemann_config(extra=1))
    with pytest.raises(ScenarioError, match="unknown eval keys"):
        build_scenario(riemann_config(eval={"points": [[1, 0]], "bogus": 2}))


def test_framework_and_dims_validated():
    with pytest.raises(ScenarioError):
        build_scenario(riemann_config(framework="weird"))
    with pytest.raises(ScenarioError):
        build_scenario(riemann_config(n=0))
    with pytest.raises(ScenarioError):
        build_scenario(riemann_config(p=2))  # p is multitime-only
    with pytest.raises(ScenarioError):
        build_scenario(multitime_config(p=3))
    with pytest.raises(ScenarioError):
        build_scenario(riemann_config(c=-1.0))


def test_asymmetric_em_matrix_rejected():
    # a full square matrix is not a strictly-upper triangle
    bad = {"H": [["0", "0.1"], ["-0.1", "0"]]}
    with pytest.raises(ScenarioError, match="em.H row 1"):
        build_scenario(riemann_config(em=bad))
    with pytest.raises(ScenarioError, match="strictly-upper"):
        build_scenario(riemann_config(em={"H": [["0.1"]]}))


def test_velocity_rules():
    with pytest.raises(ScenarioError, match="velocity"):
        build_scenario(riemann_config(velocity=None))
    cfg = riemann_config()
    del cfg["velocity"]
    with pytest.raises(ScenarioError, match="velocity"):
        build_scenario(cfg)
    with pytest.raises(ScenarioError, match="velocity"):
        build_scenario(lagrange_config(velocity=["1", "0"]))


def test_expression_errors_are_scenario_errors():
    with pytest.raises(ScenarioError, match="pressure"):
        build_scenario(riemann_config(pressure="1 + * 2"))
    with pytest.raises(ScenarioError, match="metric"):
        build_scenario(riemann_config(metric=[["1", "frob(x1)"], ["1"]]))


def test_self_dual_em():
    scenario = build_scenario(riemann_config())
    x = [1.0, 0.2]
    H = np.array(scenario.em.H(x))
    G = np.array(scenario.em.G(x))
    assert np.abs(H + G).max() == 0.0


def test_evaluation_points_modes():
    scenario = build_scenario(riemann_config())
    pts, seed = evaluation_points(scenario)
    assert len(pts) == 4 and seed == 11
    pts2, _ = evaluation_points(scenario)
    assert pts == pts2  # deterministic
    pts3, seed3 = evaluation_points(scenario, seed=99, count=7)
    assert len(pts3) == 7 and seed3 == 99

    explicit = build_scenario(riemann_config(eval={"points": [[1.0, 0.0]]}))
    pts, _ = evaluation_points(explicit)
    assert pts == [[1.0, 0.0]]
    with pytest.raises(ScenarioError):
        evaluation_points(build_scenario(riemann_config(eval={"points": [[1.0]]})))

    grid = build_scenario(riemann_config(eval={
        "grid": {"min": [0.5, 0.0], "max": [1.0, 1.0], "shape": [2, 3]}
    }))
    pts, _ = evaluation_points(grid)
    assert len(pts) == 6


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1])
def test_box_points_are_drawn_in_one_call_as_one_at_a_time(seed):
    scenario = build_scenario(multitime_config())
    box = scenario.eval_spec["box"]
    lo, hi = box["min"], box["max"]
    for count in (1, 7, 200, 10**4):
        rng = np.random.default_rng(seed)
        one_at_a_time = [rng.uniform(lo, hi).tolist() for _ in range(count)]
        assert evaluation_points(scenario, seed=seed, count=count) == (one_at_a_time, seed)


def test_lagrange_and_multitime_scenarios_build():
    lagr = build_scenario(lagrange_config())
    assert lagr.space.n == 2
    mt = build_scenario(multitime_config())
    assert mt.space.p == 2 and mt.bsml
    axes, values, fields = sheet_axes_and_values(mt)
    assert values.shape == (5, 5, 2)
    axes2, values2, _ = sheet_axes_and_values(mt, refine=2)
    assert values2.shape == (9, 9, 2)


def test_multitime_inline_metric_and_connection():
    cfg = multitime_config()
    del cfg["model"]
    cfg["metric"] = [["1 + 0.1*sin(x1_1)", "0"], ["1"]]
    cfg["connection"] = "canonical"
    scenario = build_scenario(cfg)
    N0 = scenario.space.N(scenario.names and [0.1, 0.2, 1.0, 0.5, 0.8, 0.7, 0.9, 1.1])
    assert len(N0) == 2 and len(N0[0]) == 2 and len(N0[0][0]) == 2


# -- CLI ----------------------------------------------------------------------

def test_cli_residuals_deterministic(tmp_path):
    path = write(tmp_path, riemann_config())
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["residuals", "--scenario", path, "--out", str(out1)]) == 0
    assert main(["residuals", "--scenario", path, "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    first = b1.decode().splitlines()[0]
    assert first.startswith("# scenario=") and "version=" in first


def test_cli_residuals_identity_column(tmp_path):
    path = write(tmp_path, riemann_config())
    out = tmp_path / "r.csv"
    assert main(["residuals", "--scenario", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    idx = header.index("contraction_identity")
    for line in lines[2:]:
        assert abs(float(line.split(",")[idx])) < 1e-10


def test_cli_verify_exit_codes(tmp_path, capsys):
    clean = write(tmp_path, riemann_config(), "clean.json")
    assert main(["verify", "--scenario", clean, "--tol", "1e-9"]) == 0

    # near-parallel columns: identities drown in conditioning noise
    violating = write(
        tmp_path,
        riemann_config(metric=[["1", "1 - 1e-13"], ["1"]]),
        "violating.json",
    )
    assert main(["verify", "--scenario", violating, "--tol", "1e-9"]) == 1

    malformed = write(tmp_path, riemann_config(extra=True), "malformed.json")
    assert main(["verify", "--scenario", malformed]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--scenario", missing]) == 2

    # not UTF-8, and nested deeper than the JSON decoder recurses: both were tracebacks
    for name, data in (("not_utf8.json", b"\x80abc"), ("deep.json", b"[" * 100000)):
        unreadable = tmp_path / name
        unreadable.write_bytes(data)
        capsys.readouterr()
        assert main(["verify", "--scenario", str(unreadable)]) == 2
        assert f"scenario {unreadable} is not valid JSON" in capsys.readouterr().err


def test_cli_verify_report_file(tmp_path):
    path = write(tmp_path, lagrange_config())
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", path, "--out", str(out), "--points", "2"]) == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] == []
    assert "metric_compatibility" in payload["invariants"]


_POLAR = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "polar_plasma.json")
                    .read_text())


def test_cli_verify_isolates_a_failing_point(tmp_path, capsys):
    # the singular middle point stopped the command: exit 1, empty stdout, no --out file
    config = dict(_POLAR, eval={"points": [[1, 0.1], [0, 0.2], [1.2, -0.1]]})
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", write(tmp_path, config), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    error = "metric is singular or near-singular (pivot 0.000e+00) at point (0.0, 0.2)"
    assert re.search(r"^metric_compatibility\s+\S+\s+ok$", stdout, re.M), stdout
    assert f"failed points (1 of 3):\n  [0.0, 0.2]: {error}\n" in stdout
    payload = json.loads(out.read_text())
    assert payload["points"] == 3 and payload["failed"] == []
    assert payload["failed_points"] == [{"point": [0.0, 0.2], "error": error}]
    assert set(payload["invariants"]) >= {"metric_compatibility", "stress_mixed_identity"}

    # every point fails: still a report and exit 1, no traceback
    config = dict(_POLAR, eval={"points": [[0, 0.1], [0, 0.2]]})
    assert main(["verify", "--scenario", write(tmp_path, config), "--out", str(out)]) == 1
    assert "failed points (2 of 2):" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["invariants"] == {} and len(payload["failed_points"]) == 2


def test_cli_verify_bsml_includes_degeneracy_checks(tmp_path):
    path = write(tmp_path, multitime_config())
    out = tmp_path / "verify.json"
    assert main(["verify", "--scenario", path, "--out", str(out), "--points", "2"]) == 0
    payload = json.loads(out.read_text())
    assert "bsml_g_block" in payload["invariants"]
    assert "bsml_sheet_reduction" in payload["invariants"]
    assert payload["failed"] == []


def test_cli_connection_polar(tmp_path):
    path = write(tmp_path, riemann_config())
    out = tmp_path / "conn.json"
    assert main(["connection", "--scenario", path, "--at", "2.0,0.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    gamma = payload["blocks"]["gamma"]
    assert gamma[0][1][1] == pytest.approx(-2.0, abs=1e-10)
    assert gamma[1][0][1] == pytest.approx(0.5, abs=1e-10)


def test_cli_connection_flat_all_zero(tmp_path):
    cfg = riemann_config(metric=[["1", "0"], ["1"]])
    path = write(tmp_path, cfg)
    out = tmp_path / "conn.json"
    assert main(["connection", "--scenario", path, "--at", "0.3,0.4",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert np.abs(np.array(payload["blocks"]["gamma"])).max() == 0.0


def test_cli_connection_multitime_bsml(tmp_path):
    path = write(tmp_path, multitime_config())
    out = tmp_path / "conn.json"
    at = "0.1,0.2,1.2,0.3,0.8,0.7,0.9,1.1"
    assert main(["connection", "--scenario", path, "--at", at, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert np.abs(np.array(payload["blocks"]["G"])).max() < 1e-12
    assert np.abs(np.array(payload["blocks"]["C"])).max() < 1e-12


def test_cli_streamline_flat(tmp_path):
    cfg = riemann_config(
        metric=[["1", "0"], ["1"]],
        pressure="0.2", density="1.0", velocity=["1", "0"],
        em={"H": [["0"], []]},
    )
    path = write(tmp_path, cfg)
    out = tmp_path / "line.csv"
    assert main([
        "streamline", "--scenario", path, "--x0", "0,0", "--v0", "1,0",
        "--step", "0.01", "--steps", "100", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[0] == "s"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - 1.0) < 1e-10
    assert abs(last[2]) < 1e-12


def test_cli_streamline_lagrange_monitor(tmp_path):
    path = write(tmp_path, lagrange_config())
    out = tmp_path / "line.csv"
    code = main([
        "streamline", "--scenario", path, "--x0", "0,0", "--v0", "0.95,0.1",
        "--step", "0.02", "--steps", "10", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text().splitlines()[1].split(",")
    assert "vertical_constraint_norm" in header
    assert "velocity_norm" in header


def test_cli_streamsheet_scan(tmp_path):
    path = write(tmp_path, multitime_config())
    out = tmp_path / "sheet.csv"
    assert main(["streamsheet", "--scenario", path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 25
    header = lines[1].split(",")
    assert "horizontal_norm" in header and "vertical_norm" in header
    assert "error" in header


def test_cli_streamsheet_coefficients_and_exact(tmp_path, capsys):
    path = write(tmp_path, multitime_config())
    out = tmp_path / "sheet.csv"
    assert main([
        "streamsheet", "--scenario", path, "--out", str(out),
        "--prolongation", "exact", "--dump-coefficients",
    ]) == 0
    header = out.read_text().splitlines()[1].split(",")
    assert "H_1" in header and "V_12" in header
    # a sampled file has no exact derivatives: the stencil bytes came out under exit 0
    out.unlink()
    assert main(["streamsheet", "--scenario", path, "--out", str(out), "--prolongation",
                 "exact", "--sheet-file", _sheet_file(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--prolongation exact" in err and "--sheet-file" in err
    assert not out.exists()


def test_cli_streamline_framework_guard(tmp_path, capsys):
    path = write(tmp_path, multitime_config())
    assert main([
        "streamline", "--scenario", path, "--x0", "0,0", "--v0", "1,0",
        "--step", "0.1", "--steps", "2",
    ]) == 2
    assert "streamline requires the riemann or lagrange framework" in capsys.readouterr().err


@pytest.mark.parametrize("config", [riemann_config, lagrange_config])
def test_cli_streamsheet_framework_guard(config, tmp_path, capsys):
    assert main(["streamsheet", "--scenario", write(tmp_path, config())]) == 2
    assert "streamsheet requires the multitime framework" in capsys.readouterr().err


# -- input boundary ------------------------------------------------------------

@pytest.mark.parametrize("c", [float("nan"), float("inf"), 1e-200, 1e200, 10**400])
def test_cli_rejects_c_without_a_finite_positive_square(c, tmp_path, capsys):
    # 1e-200 squares to 0 and 1e200 to inf: both used to end in a traceback
    out = tmp_path / "r.csv"
    path = write(tmp_path, riemann_config(c=c))
    assert main(["residuals", "--scenario", path, "--points", "2", "--out", str(out)]) == 2
    assert "c must be" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_overflowing_literal(tmp_path, capsys):
    path = write(tmp_path, riemann_config(metric=[["1", "0"], ["1e999*x1^2"]]))
    assert main(["residuals", "--scenario", path, "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert "metric" in err and "overflows to infinity at offset 0" in err


_SUM_600 = " + ".join(["0.001*x1"] * 600)


@pytest.mark.parametrize("pressure, code", [
    (_SUM_600, 0),
    ("(" * 150 + "x1" + ")" * 150, 0),
    ("log(" + _SUM_600 + " - 1000)", 1),
    (" + ".join(["0.001*x1"] * 1000), 2),
    ("(" * 250 + "x1" + ")" * 250, 2),
    ("-" * 1000 + "x1", 2),
], ids=["sum600", "parens150", "log-sum600", "sum1000", "parens250", "minus1000"])
def test_cli_deep_expressions_exit_with_a_code(pressure, code, tmp_path, capsys):
    # the last three ended in RecursionError in the parser or the compiler,
    # and the log in RecursionError while the error text was rendered
    out = tmp_path / "r.csv"
    path = write(tmp_path, riemann_config(pressure=pressure))
    assert main(["residuals", "--scenario", path, "--points", "1", "--out", str(out)]) == code
    if code == 2:
        assert "error: pressure: expression nests deeper than 800 levels" in capsys.readouterr().err
    if code == 1:
        assert "log of non-positive value in 'log(0.001*x1 + " in out.read_text()


@pytest.mark.parametrize("command, flag", [
    ("connection", "--tol"), ("connection", "--seed"), ("connection", "--points"),
    ("streamline", "--tol"), ("streamline", "--seed"), ("streamline", "--points"),
    ("streamsheet", "--tol"), ("streamsheet", "--seed"), ("streamsheet", "--points"),
    ("residuals", "--tol"),
])
def test_cli_subcommands_take_only_the_flags_they_read(command, flag, tmp_path):
    args = {
        "connection": ["--at", "1.0,0.2"],
        "streamline": ["--x0", "1.0,0.2", "--v0", "0.3,0.9", "--step", "0.01", "--steps", "2"],
        "streamsheet": [],
        "residuals": [],
    }[command]
    path = write(tmp_path, riemann_config())
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--scenario", path, *args, flag, "1"])
    assert exit_info.value.code == 2


def _sheet_file(tmp_path, cell=None):
    """The 5 x 5 sheet of multitime_config as CSV; ``cell`` replaces x2 of row 7."""
    rows = ["t1,t2,x1,x2"]
    for t1 in np.linspace(0.0, 1.0, 5).tolist():
        for t2 in np.linspace(0.0, 1.0, 5).tolist():
            rows.append(f"{t1!r},{t2!r},{1 + 0.2 * t1 + 0.1 * t2!r},{0.5 * t1 - 0.3 * t2!r}")
    if cell is not None:
        rows[7] = rows[7].rsplit(",", 1)[0] + "," + cell
    path = tmp_path / "sheet_values.csv"
    path.write_text("\n".join(rows) + "\n", encoding="latin-1")  # a cell "\xff" stays one byte
    return str(path)


@pytest.mark.parametrize("cell, message", [
    (None, None),
    ("abc", "sheet file row 7 (t..., x...) must be comma-separated numbers"),
    ("nan", "sheet file row 7 (t..., x...) coordinates must be finite"),
    ("-inf", "sheet file row 7 (t..., x...) coordinates must be finite"),
    ("\xff", "sheet_values.csv: 'utf-8' codec can't decode byte 0xff"),
])
def test_cli_streamsheet_sheet_file_cells(cell, message, tmp_path, capsys):
    # a non-numeric cell was a traceback, a non-finite one gave NaN rows
    path = write(tmp_path, multitime_config())
    out = tmp_path / "sheet.csv"
    code = main(["streamsheet", "--scenario", path, "--sheet-file", _sheet_file(tmp_path, cell),
                 "--out", str(out)])
    if message is None:
        assert code == 0 and "nan" not in out.read_text()
    else:
        assert code == 2 and message in capsys.readouterr().err
        assert not out.exists()


def _infinite_bound_config(block):
    inf = float("inf")
    if block == "sheet.grid":
        config = multitime_config()
        config["sheet"]["grid"] = {"min": [0.0, 0.0], "max": [1.0, inf], "shape": [5, 5]}
        return config
    if block == "eval.grid":
        return riemann_config(eval={"grid": {"min": [-inf, 0.0], "max": [1.0, 1.0], "shape": [2, 3]}})
    return riemann_config(eval={"box": {"min": [0.5, -0.5], "max": [1.5, inf]}})


@pytest.mark.parametrize("block, command", [
    ("eval.box", "residuals"), ("eval.grid", "residuals"), ("sheet.grid", "streamsheet"),
])
def test_cli_rejects_infinite_bounds(block, command, tmp_path, capsys):
    # eval.box raised OverflowError, sheet.grid gave NaN rows
    path = write(tmp_path, _infinite_bound_config(block))
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", path, "--out", str(out)]) == 2
    assert f"'{block}' bounds and their spans must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["--seed", "-1"], riemann_config()),
    ([], riemann_config(eval={"box": {"min": [0.5, -0.5], "max": [1.5, 0.5]}, "seed": -1})),
])
def test_cli_rejects_negative_seed(argv, config, tmp_path, capsys):
    # numpy raised "expected non-negative integer"
    path = write(tmp_path, config)
    assert main(["residuals", "--scenario", path, *argv]) == 2
    assert "seed (--seed or 'eval.seed') must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cli_rejects_non_finite_eval_point(value, tmp_path, capsys):
    # a NaN coordinate failed every row with exit 1 ("pivot nan")
    path = write(tmp_path, riemann_config(eval={"points": [[1.0, 0.2], [1.0, value]]}))
    assert main(["residuals", "--scenario", path]) == 2
    assert "'eval.points' coordinates must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("framework, key, value, message", [
    ("riemann", "metric", [["1", 0], ["1"]],
     "metric row 1 entry 2 must be an expression string, got 0"),
    ("multitime", "h_metric", [["1", "0"], [1.5]],
     "h_metric row 2 entry 1 must be an expression string, got 1.5"),
    ("riemann", "em", {"H": [[0.1], []]},
     "em.H row 1 entry 1 must be an expression string, got 0.1"),
    ("lagrange", "em", {"H": [["0.1*x1"], []], "G": [[None], []]},
     "em.G row 1 entry 1 must be an expression string, got None"),
    ("multitime", "model", {"name": ["bsml"]},
     "'model.name' must be one of"),
    ("multitime", "model", {"name": "bsml", "params": {"phi": {"name": ["polar"]}}},
     "model.params.phi: unknown stock metric ['polar']"),
])
def test_cli_rejects_non_string_scenario_entries(framework, key, value, message, tmp_path, capsys):
    # a number in a metric or two-form row was "not an expression node",
    # a list as a model or stock metric name was "unhashable type"
    config = {"riemann": riemann_config, "lagrange": lagrange_config,
              "multitime": multitime_config}[framework](**{key: value})
    path = write(tmp_path, config)
    assert main(["residuals", "--scenario", path, "--points", "1"]) == 2
    assert message in capsys.readouterr().err


def test_cli_streamsheet_sheet_file_needs_no_sheet_expressions(tmp_path, capsys):
    # the file run asked for sheet.x and evaluated it, then replaced the values
    expr_out = tmp_path / "expr.csv"
    assert main(["streamsheet", "--scenario", write(tmp_path, multitime_config()),
                 "--out", str(expr_out)]) == 0
    lines = expr_out.read_text().splitlines()
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("\n".join(",".join(line.split(",")[:4]) for line in lines[1:]) + "\n")
    config = multitime_config()
    del config["sheet"]["x"]
    path = write(tmp_path, config, "no_x.json")
    file_out = tmp_path / "file.csv"
    assert main(["streamsheet", "--scenario", path, "--sheet-file", str(nodes),
                 "--out", str(file_out)]) == 0
    assert file_out.read_text().splitlines()[1:] == lines[1:]
    # neither expressions nor a file: an input error naming both
    capsys.readouterr()
    assert main(["streamsheet", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "'sheet.x'" in err and "--sheet-file" in err


@pytest.mark.parametrize("change, message", [
    ("reverse", "sheet file row 1 (t..., x...) has t = [1.0, 1.0], expected the grid node "
                "t = [0.0, 0.0]"),
    ("t=9", "sheet file row 1 (t..., x...) has t = [9.0, 9.0], expected the grid node "
            "t = [0.0, 0.0]"),
])
def test_cli_streamsheet_sheet_file_rows_follow_the_grid(change, message, tmp_path, capsys):
    # the t columns were dropped and x placed by row order: both files exited 0
    sheet = tmp_path / "sheet_values.csv"
    header, *rows = open(_sheet_file(tmp_path)).read().splitlines()
    if change == "reverse":
        rows.reverse()
    else:
        rows = ["9.0,9.0," + row.split(",", 2)[2] for row in rows]
    sheet.write_text("\n".join([header, *rows]) + "\n")
    path = write(tmp_path, multitime_config())
    out = tmp_path / "sheet.csv"
    code = main(["streamsheet", "--scenario", path, "--sheet-file", str(sheet),
                 "--out", str(out)])
    assert code == 2 and message in capsys.readouterr().err
    assert not out.exists()


# -- non-finite numbers never reach a result under exit 0 -----------------------

_OVERFLOW = "(1e306*{v}*1e3 - 1e306*{v}*1e3)"


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.mark.parametrize("config, message", [
    (riemann_config(pressure="0.2 + " + _OVERFLOW.format(v="x2")), "pressure"),
    (riemann_config(metric=[["1", "0"], ["x1^2 + " + _OVERFLOW.format(v="x2")]]),
     "metric row 2 entry 1"),
    (riemann_config(velocity=["1", _OVERFLOW.format(v="x1")]), "velocity[1]"),
    (riemann_config(em={"H": [["0.1 + " + _OVERFLOW.format(v="x1")], []]}), "em.H row 1 entry 1"),
])
def test_cli_residuals_name_a_non_finite_field(config, message, tmp_path):
    # the value is finite; its derivative is 1e309 - 1e309, which used to
    # write rows of nan under exit 0
    out = tmp_path / "r.csv"
    assert main(["residuals", "--scenario", write(tmp_path, config),
                 "--points", "3", "--out", str(out)]) == 1
    _, rows = _csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert row["error"] == f"non-finite value or derivative in {message}"


@pytest.mark.parametrize("count", [3, 20])
def test_cli_residuals_with_every_point_failing(count, tmp_path):
    # no point gives a report, so no residual labels: the header is the
    # coordinate names and the error, below MIN_BATCH and in a lane batch
    assert 3 < MIN_BATCH <= 20
    config = dict(_POLAR, pressure="log(x1 - 5)")
    out = tmp_path / "r.csv"
    assert main(["residuals", "--scenario", write(tmp_path, config),
                 "--points", str(count), "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[1] == "x1,x2,error"
    points, _ = evaluation_points(build_scenario(config), count=count)
    assert lines[2:] == [f"{x1!r},{x2!r},log of non-positive value in 'log(x1 - 5.0)'"
                         for x1, x2 in points]


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED_COMMANDS = {
    "verify": ["verify", "--scenario", str(SCENARIOS / "polar_plasma.json"), "--points", "1"],
    "connection": ["connection", "--scenario", str(SCENARIOS / "polar_plasma.json"),
                   "--at", "1.3,0.2"],
    "residuals": ["residuals", "--scenario", str(SCENARIOS / "polar_plasma.json"),
                  "--points", "1"],
    "streamline": ["streamline", "--scenario", str(SCENARIOS / "polar_plasma.json"),
                   "--x0", "1.0,0.2", "--v0", "0.3,0.9", "--step", "0.01", "--steps", "2"],
    "streamsheet": ["streamsheet", "--scenario", str(SCENARIOS / "bsml_sheet.json")],
}


@pytest.mark.parametrize("command", sorted(SHIPPED_COMMANDS))
def test_cli_unwritable_out_exits_2_naming_the_path(command, tmp_path, capsys):
    for out in (tmp_path / "missing" / "f", tmp_path):
        assert main(SHIPPED_COMMANDS[command] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # refused before any work: verify printed its report first


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_streamsheet_names_a_non_finite_sheet_entry(tmp_path, capsys):
    config = multitime_config()
    config["sheet"]["x"][0] = "1 + " + _OVERFLOW.format(v="t1")
    out = tmp_path / "s.csv"
    assert main(["streamsheet", "--scenario", write(tmp_path, config), "--out", str(out)]) == 1
    assert "non-finite value or derivative in sheet.x[0]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_residuals_last_guard_marks_a_non_finite_row(tmp_path, monkeypatch):
    monkeypatch.setattr(RiemannScenario, "reports",
                        lambda scenario, points: [(["a", "b", "b_norm"], [0.5, math.nan, math.nan])
                                                  for _ in points])
    out = tmp_path / "r.csv"
    assert main(["residuals", "--scenario", write(tmp_path, riemann_config()),
                 "--points", "2", "--out", str(out)]) == 1
    _, rows = _csv_rows(out)
    assert [row["error"] for row in rows] == ["non-finite value in column b"] * 2


def test_cli_streamsheet_last_guard_marks_a_non_finite_row(tmp_path, monkeypatch):
    import geoplasma.multitime as mt

    def residuals(state, space, coords, coefficients=False):
        return np.array([0.0, float("inf")]), np.zeros((2, 2))

    monkeypatch.setattr(mt, "stream_sheet_residuals", residuals)
    out = tmp_path / "s.csv"
    assert main(["streamsheet", "--scenario", write(tmp_path, multitime_config()),
                 "--out", str(out)]) == 1
    _, rows = _csv_rows(out)
    assert len(rows) == 25
    assert {row["error"] for row in rows} == {"non-finite value in column horizontal_2"}


@pytest.mark.parametrize("values", [[1e-12, float("nan")], [float("nan"), 1e-12]])
def test_cli_verify_counts_a_nan_invariant_as_worst(values, tmp_path, monkeypatch, capsys):
    from geoplasma.scenario import RiemannScenario

    sequence = iter(values)
    monkeypatch.setattr(RiemannScenario, "invariants", lambda self, coords: {"a": next(sequence)})
    assert main(["verify", "--scenario", write(tmp_path, riemann_config()),
                 "--points", "2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^a\s+nan\s+FAIL$", out, re.M), out


@pytest.mark.parametrize("sigma, message", [
    ("1 +", "sigma: unexpected end of input at offset 3"),
    (0.3, "sigma must be an expression string, got 0.3"),
    (["x1"], "sigma must be an expression string, got ['x1']"),
])
def test_cli_rejects_a_bad_conformal_sigma(sigma, message, tmp_path, capsys):
    config = riemann_config(model={"name": "conformal", "params": {"sigma": sigma}})
    del config["metric"]
    assert main(["residuals", "--scenario", write(tmp_path, config), "--points", "1"]) == 2
    assert message in capsys.readouterr().err


def test_cli_rejects_stock_metric_params_that_are_not_an_object(tmp_path, capsys):
    # a list used to end in an AttributeError traceback
    config = riemann_config(model={"name": "conformal", "params": ["x1"]})
    del config["metric"]
    assert main(["residuals", "--scenario", write(tmp_path, config), "--points", "1"]) == 2
    assert "stock metric params must be an object" in capsys.readouterr().err


def _without_metric(config):
    del config["metric"]
    return config


def _inline_multitime(**over):
    config = multitime_config(**over)
    del config["model"]
    config.setdefault("metric", [["1", "0"], ["1"]])
    return config


def _jet_model(name, **params):
    return multitime_config(model={"name": name, "params": {"phi": {"name": "polar"}, **params}})


_ZERO_ROWS = [["0", "0"], ["0", "0"]]


def _without(config, key):
    del config[key]
    return config


_BOX2 = {"min": [0.5, -0.5], "max": [1.5, 0.5]}


# every site that compiles a scenario expression, with a name its
# coordinates do not bind: the load fails naming the field
@pytest.mark.parametrize("config, command, message", [
    (riemann_config(pressure="z3 + x1"), "residuals", "pressure: unbound variable 'z3'"),
    (riemann_config(density="1 + q"), "residuals", "density: unbound variable 'q'"),
    (riemann_config(velocity=["1", "y1"]), "residuals", "velocity[1]: unbound variable 'y1'"),
    (riemann_config(metric=[["1", "0"], ["x3^2"]]), "residuals", "metric: unbound variable 'x3'"),
    (riemann_config(em={"H": [["t1"], []]}), "residuals", "em.H: unbound variable 't1'"),
    (riemann_config(em={"H": [["x1"], []], "G": [["t1"], []]}), "verify",
     "em.G: unbound variable 't1'"),
    (_without_metric(riemann_config(model={"name": "conformal", "params": {"sigma": "0.1*q"}})),
     "residuals", "sigma: unbound variable 'q'"),
    (lagrange_config(connection=[["0", "z1"], ["0", "0"]]), "residuals",
     "connection[0][1]: unbound variable 'z1'"),
    (multitime_config(h_metric=[["1", "0"], ["1 + x1"]]), "residuals",
     "h_metric: unbound variable 'x1'"),
    (_inline_multitime(metric=[["1 + q", "0"], ["1"]]), "residuals",
     "metric: unbound variable 'q'"),
    (_inline_multitime(connection=[[["q", "0"], ["0", "0"]], _ZERO_ROWS]), "residuals",
     "connection[0][0][0]: unbound variable 'q'"),
    (multitime_config(model={"name": "conformal", "params": {"sigma": "q"}}), "residuals",
     "sigma: unbound variable 'q'"),
    (_jet_model("grgml", sigma="x1 + w"), "residuals", "sigma: unbound variable 'w'"),
    (_jet_model("rgogml", refractive_index="1.5 + q", X=["1", "0"]), "residuals",
     "refractive_index: unbound variable 'q'"),
    (_jet_model("rgogml", refractive_index="1.5", X=["x1", "0"]), "residuals",
     "X[0]: unbound variable 'x1'"),
    (_jet_model("edml", U=[["q", "0"], ["0", "0"]]), "residuals", "U[0][0]: unbound variable 'q'"),
    (_jet_model("edml", U=_ZERO_ROWS, Phi="q"), "residuals", "Phi: unbound variable 'q'"),
    (multitime_config(model={"name": "bsml", "params": {"phi": [["1", "0"], ["1 + t1"]]}}),
     "residuals", "model.params.phi: unbound variable 't1'"),
    (multitime_config(model={"name": "bsml", "params": {
        "phi": {"name": "conformal", "params": {"sigma": "t1"}}}}),
     "residuals", "sigma: unbound variable 't1'"),
    (multitime_config(sheet=dict(multitime_config()["sheet"], x=["1 + x1", "t2"])), "streamsheet",
     "sheet.x[0]: unbound variable 'x1'"),
])
def test_cli_rejects_an_unbound_name(config, command, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--scenario", write(tmp_path, config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_SHEET = multitime_config()["sheet"]


@pytest.mark.parametrize("sheet, message", [
    (dict(_SHEET, x=["1 + x1", "t2"]), "sheet.x[0]: unbound variable 'x1'"),
    (dict(_SHEET, x=["1 + * t1", "t2"]),
     "sheet.x[0]: unexpected '*' at offset 4 (expected: number, identifier, '(', '-')"),
    (dict(_SHEET, x=["t1"]), "'sheet.x' must list 2 expressions over t1..t2"),
    (dict(_SHEET, x="t1"), "'sheet.x' must list 2 expressions over t1..t2"),
    (dict(_SHEET, y=1), "unknown sheet keys: ['y']"),
    (5, "'sheet' must be an object"),
    (dict(_SHEET, grid=dict(_SHEET["grid"], max=[1.0, float("inf")])),
     "'sheet.grid' bounds and their spans must be finite"),
    ({"x": _SHEET["x"]}, "'sheet.grid' must be an object"),
])
@pytest.mark.parametrize("command", [
    ["residuals"], ["verify"], ["connection", "--at", "0.1,0.2,1,0,1,1,1,1"], ["streamsheet"],
], ids=lambda argv: argv[0])
def test_every_command_rejects_a_malformed_sheet(sheet, message, command, tmp_path, capsys):
    # residuals, verify and connection exited 0: only streamsheet read the sheet
    out = tmp_path / "out"
    path = write(tmp_path, multitime_config(sheet=sheet))
    assert main([command[0], "--scenario", path, "--out", str(out), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_only_streamsheet_counts_the_sheet_nodes(tmp_path, capsys):
    # two nodes per axis are a valid grid; streamsheet needs three after --refine
    path = write(tmp_path, multitime_config(sheet=dict(_SHEET, grid=dict(_SHEET["grid"], shape=[2, 2]))))
    out = tmp_path / "out.csv"
    assert main(["residuals", "--scenario", path, "--out", str(out)]) == 0
    assert main(["streamsheet", "--scenario", path, "--out", str(out)]) == 2
    assert "sheet grid needs at least 3 nodes per axis" in capsys.readouterr().err
    assert main(["streamsheet", "--scenario", path, "--refine", "2", "--out", str(out)]) == 0


# the load errors of the metric and connection builders and of the scenario
# blocks, each exact; the case with an unbound name in connection[0] and a
# malformed connection[1] shows that planes are checked and compiled one
# after the other
@pytest.mark.parametrize("config, message", [
    (riemann_config(model={"name": "bsml", "params": {"phi": {"name": "polar"}}}),
     "model 'bsml' is not available for the riemann framework"),
    (lagrange_config(model={"name": "edml"}),
     "model 'edml' is not available for the lagrange framework"),
    (_without_metric(riemann_config()), "riemann scenarios need 'metric' or 'model'"),
    (_without_metric(lagrange_config()), "lagrange scenarios need 'metric' or 'model'"),
    (_without_metric(_inline_multitime()), "multitime scenarios need 'metric' or 'model'"),
    (lagrange_config(connection=[["0", "0"], ["0"]]),
     "'connection' must be 'canonical', 'zero' or an n x n expression matrix"),
    (lagrange_config(connection=[["0", "0"]]),
     "'connection' must be 'canonical', 'zero' or an n x n expression matrix"),
    (_inline_multitime(connection=[_ZERO_ROWS]),
     "'connection' must be 'canonical', 'zero' or an n x p x n expression array"),
    (_inline_multitime(connection=[_ZERO_ROWS, [["0", "0"]]]),
     "connection[1] must be a p x n expression matrix"),
    (_inline_multitime(connection=[_ZERO_ROWS, [["0", "0"], ["0"]]]),
     "connection[1] must be a p x n expression matrix"),
    (lagrange_config(connection=[["0", 1], ["0", "0"]]),
     "connection[0][1] must be an expression string"),
    (_inline_multitime(connection=[_ZERO_ROWS, [["0", "0"], [None, "0"]]]),
     "connection[1][1][0] must be an expression string"),
    (multitime_config(model={"name": "polar", "params": ["x1"]}),
     "model 'params' must be an object"),
    (multitime_config(model={"name": "bsml", "params": "polar"}),
     "model 'params' must be an object"),
    (_without_metric(lagrange_config(model={"name": "conformal", "params": "x1"})),
     "stock metric params must be an object, got 'x1'"),
    (_inline_multitime(connection=[[["q", "0"], ["0", "0"]], [["0", "0"]]]),
     "connection[0][0][0]: unbound variable 'q'"),
    # falsy params that are no object, and keys a stock metric does not
    # take, on the riemann, lagrange, multitime and phi stock paths
    (_without_metric(riemann_config(model={"name": "polar", "params": []})),
     "stock metric params must be an object, got []"),
    (_without_metric(lagrange_config(model={"name": "flat", "params": 0})),
     "stock metric params must be an object, got 0"),
    (_without_metric(riemann_config(model={"name": "flat", "params": ""})),
     "stock metric params must be an object, got ''"),
    (_without_metric(riemann_config(model={"name": "polar", "params": {"sigma": "x1"}})),
     "unknown params for stock metric 'polar': ['sigma']"),
    (_without_metric(lagrange_config(model={"name": "flat", "params": {"scale": 2}})),
     "unknown params for stock metric 'flat': ['scale']"),
    (_without_metric(riemann_config(model={"name": "conformal",
                                           "params": {"sigma": "0.1*x1", "phi": "1", "k": 1}})),
     "unknown params for stock metric 'conformal': ['k', 'phi']"),
    (multitime_config(model={"name": "polar", "params": {"sigma": "x1"}}),
     "unknown params for stock metric 'polar': ['sigma']"),
    (multitime_config(model={"name": "bsml", "params": {"phi": {"name": "polar", "params": []}}}),
     "stock metric params must be an object, got []"),
    (multitime_config(model={"name": "bsml",
                             "params": {"phi": {"name": "flat", "params": {"sigma": "x1"}}}}),
     "unknown params for stock metric 'flat': ['sigma']"),
    # the stock-metric object of phi takes only 'name' and 'params'
    (multitime_config(model={"name": "bsml", "params": {"phi": {"name": "polar", "bogus": 1}}}),
     "unknown 'model.params.phi' keys: ['bogus']"),
    (_jet_model("edml", U=_ZERO_ROWS, phi={"params": {}, "name": "flat", "sigma": "x1"}),
     "unknown 'model.params.phi' keys: ['sigma']"),
    # the framework, model, em and eval blocks
    ([1, 2], "scenario must be a JSON object"),
    (riemann_config(eval=5), "'eval' must be an object"),
    (riemann_config(sheet=_SHEET), "key 'sheet' is only valid for the multitime framework"),
    (riemann_config(model="polar"), "'model' must be an object with a 'name'"),
    (riemann_config(model={"params": {}}), "'model' must be an object with a 'name'"),
    (riemann_config(model={"name": "polar", "bogus": 1}), "unknown model keys: ['bogus']"),
    (riemann_config(connection="zero"), "'connection'/'h_metric' are not riemann keys"),
    (riemann_config(h_metric=[["1"]]), "'connection'/'h_metric' are not riemann keys"),
    (lagrange_config(h_metric=[["1"]]), "'h_metric' is not a lagrange key"),
    (riemann_config(em=[["0.1"]]), "'em' must be an object with 'H' and optionally 'G'"),
    (riemann_config(em={"H": [["0.1"], []], "E": 1}), "unknown em keys: ['E']"),
    (_without(multitime_config(), "h_metric"), "multitime scenarios need 'h_metric'"),
    (_jet_model("bsml", sigma="x1"), "unknown params for model 'bsml': ['sigma']"),
    (_jet_model("edml", U=_ZERO_ROWS, X=["1", "0"]),
     "unknown params for model 'edml': ['X']"),
    (multitime_config(model={"name": "bsml"}), "model 'bsml' needs a 'phi' base metric"),
    (dict(_jet_model("bsml"), connection="zero"), "model 'bsml' fixes its own connection"),
    (dict(_jet_model("grgml", sigma="0"), connection=_ZERO_ROWS),
     "model 'grgml' fixes its own connection"),
    (_jet_model("grgml"), "grgml needs a 'sigma' expression"),
    (_jet_model("rgogml", X=["1", "0"]), "rgogml needs 'refractive_index'"),
    (_jet_model("rgogml", refractive_index="1.5"), "rgogml needs 'X'"),
    (_jet_model("rgogml", refractive_index="1.5", X=["1"]), "'X' must list 2 expressions over t"),
    (_jet_model("rgogml", refractive_index="1.5", X="1"), "'X' must list 2 expressions over t"),
    (_jet_model("edml"), "'U' must be an n x p expression matrix over (t, x)"),
    (_jet_model("edml", U=[["0", "0"], ["0"]]),
     "'U' must be an n x p expression matrix over (t, x)"),
    (riemann_config(eval={"points": []}), "'eval.points' must be a non-empty list"),
    (riemann_config(eval={"points": [1.0, 0.2]}),
     "evaluation points must have 2 coordinates (['x1', 'x2'])"),
    (riemann_config(eval={"points": [["a", 0.2]]}),
     "'eval.points' coordinates must be numbers: could not convert string to float: 'a'"),
    (riemann_config(eval={"points": [[None, 0.2]]}),
     "'eval.points' coordinates must be numbers: float() argument must be a string or a "
     "real number, not 'NoneType'"),
    (riemann_config(eval={"box": _BOX2, "seed": "x"}),
     "eval seed and count must be integers: invalid literal for int() with base 10: 'x'"),
    (riemann_config(eval={"box": _BOX2, "count": [2]}),
     "eval seed and count must be integers: int() argument must be a string, a bytes-like "
     "object or a real number, not 'list'"),
    (riemann_config(eval={"box": _BOX2, "count": 0}), "eval count must be positive"),
    (riemann_config(eval={"box": dict(_BOX2, shape=[2, 2])}), "unknown 'eval.box' keys: ['shape']"),
    (riemann_config(eval={"box": {"min": [0.5, 0.5], "max": [1.5, 0.5]}}),
     "'eval.box' max must exceed min in every coordinate"),
    (riemann_config(eval={"grid": dict(_BOX2, shape=[2])}),
     "'eval.grid.shape' must list 2 positive integers"),
    (riemann_config(eval={"grid": dict(_BOX2, shape=[2, 0])}),
     "'eval.grid.shape' must list 2 positive integers"),
    (riemann_config(eval={"grid": _BOX2}), "'eval.grid.shape' must list 2 positive integers"),
])
def test_cli_metric_and_connection_error_text(config, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["residuals", "--scenario", write(tmp_path, config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config, argv, message", [
    (_without(multitime_config(), "sheet"), ["streamsheet"], "scenario has no 'sheet' block"),
    (riemann_config(), ["streamline", "--x0", "1,0", "--v0", "1,0", "--step", "0.1",
                        "--steps", "0"], "--steps must be at least 1"),
    (multitime_config(), ["streamsheet", "--sheet-file", "short"],
     "sheet file has 24 data rows, grid expects 25"),
])
def test_cli_command_error_text(config, argv, message, tmp_path, capsys):
    _sheet_file(tmp_path)
    rows = (tmp_path / "sheet_values.csv").read_text().splitlines()
    (tmp_path / "short").write_text("\n".join(rows[:-1]) + "\n")
    argv = [str(tmp_path / a) if a == "short" else a for a in argv]
    out = tmp_path / "out"
    assert main([argv[0], "--scenario", write(tmp_path, config), *argv[1:],
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_residuals_name_a_jet_point_with_zero_fiber(tmp_path):
    point = [0.1, 0.2, 1.0, 0.3, 0.0, 0.0, 0.0, 0.0]
    config = multitime_config(eval={"points": [point]})
    out = tmp_path / "out.csv"
    assert main(["residuals", "--scenario", write(tmp_path, config), "--out", str(out)]) == 1
    _, rows = _csv_rows(out)
    assert [row["error"] for row in rows] == [
        f"jet fiber quadratic form is not positive at point {tuple(point)} "
        "(quadratic form = 0.0)".replace(",", ";")]


_HUGE_METRIC = [["1e308*x1", "0"], ["1e308"]]


# a connection block that overflows was written as Infinity and NaN, which
# is no JSON, under exit 0
@pytest.mark.parametrize("config, at, block", [
    (riemann_config(metric=_HUGE_METRIC), "1.0,0.5", "gamma"),
    (lagrange_config(metric=_HUGE_METRIC), "1.0,0.5,0.7,0.8", "L"),
    (_inline_multitime(metric=_HUGE_METRIC), "0.1,0.2,1.0,0.5,0.7,0.8,0.9,1.0", "L"),
])
def test_cli_connection_refuses_a_non_finite_block(config, at, block, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["connection", "--scenario", write(tmp_path, config), "--at", at,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"failure: non-finite value in block {block}\n"
    assert not out.exists()
