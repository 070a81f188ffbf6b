import json
import re
from pathlib import Path

import numpy as np
import pytest

from geoplasma.cli import main
from geoplasma.errors import ScenarioError
from geoplasma.scenario import (
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
    H = np.array(scenario.em.H.matrix(x))
    G = np.array(scenario.em.G.matrix(x))
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


class _NanReport:
    def columns(self):
        return [("a", 0.5), ("b", float("nan")), ("b_norm", float("nan"))]


def test_cli_residuals_last_guard_marks_a_non_finite_row(tmp_path, monkeypatch):
    monkeypatch.setattr(RiemannScenario, "reports",
                        lambda scenario, points: [_NanReport() for _ in points])
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
