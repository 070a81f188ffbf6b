"""The per-point memo: fewer seedings in verify, identical results.

Counts come from a wrapper installed on every geoplasma module that bound
``seed`` or ``invert_symmetric`` (``from .dual import seed`` copies the
binding, so patching the defining module alone would miss most calls).
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from geoplasma import dual, lagrange, multitime, riemann, tensor_core
from geoplasma.cli import main
from geoplasma.common import point_memo
from geoplasma.errors import IntegrationError, SeedingError
from geoplasma.lagrange import GeneralizedLagrangeSpace, LagrangeFluidState, zero_connection
from geoplasma.multitime import StreamSheet, prolong_sheet
from geoplasma.scenario import evaluation_points, load_scenario, sheet_axes_and_values
from geoplasma.tensor_core import MetricField, TwoFormField, constant_field
from geoplasma.verify import invariants_at

from helpers import const_state, flat_space, xynames, zero_em

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# scenario -> (verify seeds, verify inversions, residuals seeds, residuals inversions)
# per point; the parent of the memo made 8/11, 25/24 and 102/106 in verify,
# tangent_bundle made 13/12 before N was evaluated once per point, verify
# made 5/8 and 10/14 while metric_compatibility seeded once per metric field,
# 6/7 and 7/14 while the direct divergence evaluated the stress per channel,
# and bsml_sheet made 6/12 while the stress checks inverted g and h again
# instead of reading the frame's inverses; its residuals made 3/4 while the
# frame built kappa, which only the temporal derivative reads
PER_POINT = {
    "polar_plasma": (4, 8, 1, 1),
    "tangent_bundle": (5, 6, 2, 2),
    "bsml_sheet": (6, 9, 2, 3),
}


def scenario_path(name):
    return str(SCENARIOS / f"{name}.json")


def clear_memos():
    for mod in (riemann, lagrange, multitime):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def counts(monkeypatch):
    tally = {"seed": 0, "invert_symmetric": 0}
    modules = [m for name, m in sys.modules.items()
               if name == "geoplasma" or name.startswith("geoplasma.")]
    for name, original in (("seed", dual.seed),
                           ("invert_symmetric", tensor_core.invert_symmetric)):
        def counted(*args, _original=original, _name=name, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    clear_memos()
    return tally


@pytest.mark.parametrize("name", sorted(PER_POINT))
def test_verify_counts_per_point(name, counts, capsys):
    seeds, inversions, _, _ = PER_POINT[name]
    assert main(["verify", "--scenario", scenario_path(name), "--points", "2"]) == 0
    assert counts["seed"] == 2 * seeds
    assert counts["invert_symmetric"] == 2 * inversions


def test_verify_counts_of_one_lane_batch(counts, capsys):
    # 12 points reach MIN_BATCH: the suite runs once with 12 lanes, so the
    # whole command makes the seedings and inversions of one point
    seeds, inversions, _, _ = PER_POINT["bsml_sheet"]
    assert main(["verify", "--scenario", scenario_path("bsml_sheet"), "--points", "12"]) == 0
    assert (counts["seed"], counts["invert_symmetric"]) == (seeds, inversions)


@pytest.mark.parametrize("name", sorted(PER_POINT))
def test_residuals_counts_unchanged(name, counts, tmp_path):
    _, _, seeds, inversions = PER_POINT[name]
    out = tmp_path / "r.csv"
    assert main(["residuals", "--scenario", scenario_path(name), "--points", "3",
                 "--out", str(out)]) == 0
    assert counts["seed"] == 3 * seeds
    assert counts["invert_symmetric"] == 3 * inversions


# scenario -> evaluations of the space metric (phi or g) per residuals point:
# the frame evaluates it once and hands the values to the unit velocity, and
# the canonical N of tangent_bundle evaluates it once more; the velocity
# evaluated it again before (2, 3 and 2)
METRIC_EVALS = {"polar_plasma": 1, "tangent_bundle": 2, "bsml_sheet": 1}


@pytest.mark.parametrize("name", sorted(METRIC_EVALS))
def test_residuals_evaluate_the_metric_once_per_frame(name, monkeypatch):
    scenario = load_scenario(scenario_path(name))
    space = scenario.space
    metric = space.phi if scenario.framework == "riemann" else space.g
    calls = []
    original = metric.matrix

    def counted(coords):
        calls.append(1)
        return original(coords)

    monkeypatch.setattr(metric, "matrix", counted)
    clear_memos()
    points, _ = evaluation_points(scenario, count=3)
    for coords in points:
        scenario.report(coords)
    assert len(calls) == len(points) * METRIC_EVALS[name]


def _counting_builder():
    calls = []

    @point_memo
    def builder(space, coords):
        calls.append(list(coords))
        return object()

    return builder, calls


def test_memo_keys_on_the_bits_of_zero():
    builder, calls = _counting_builder()
    space = object()
    plus = builder(space, [0.0, 1.0])
    assert builder(space, (0.0, 1.0)) is plus
    minus = builder(space, [-0.0, 1.0])
    assert minus is not plus
    assert builder(space, [-0.0, 1.0]) is minus
    assert len(calls) == 2

    s = flat_space(2)
    assert riemann.christoffel_lists(s, [0.0, 1.0]) is not riemann.christoffel_lists(
        s, [-0.0, 1.0]
    )


def test_memo_keys_on_framework_identity():
    builder, calls = _counting_builder()
    a, b = object(), object()
    assert builder(a, [1.0]) is not builder(b, [1.0])
    assert len(calls) == 2


def test_memo_bypasses_jets_and_numpy_scalars():
    builder, calls = _counting_builder()
    space = object()
    for _ in range(2):
        coords, _ = dual.seed([0.5, 1.5])
        builder(space, coords)
        builder(space, [np.float64(0.5), np.float64(1.5)])
        builder(space, np.array([0.5, 1.5]))
    assert len(calls) == 6

    # a memoized builder given jets seeds them again, which fails loudly
    # instead of nesting, and the failure is never memoized
    s = flat_space(2)
    jets, _ = dual.seed([0.5, 1.5])
    for _ in range(2):
        with pytest.raises(SeedingError):
            riemann.christoffel_lists(s, jets)


def test_memo_keys_on_the_bytes_of_lane_arrays():
    builder, calls = _counting_builder()
    space = object()
    batch = builder(space, [np.array([0.0, 1.0, 2.0]), 0.5])
    assert builder(space, [np.array([0.0, 1.0, 2.0]), 0.5]) is batch  # equal bytes
    assert len(calls) == 1
    for coords in ([np.array([0.0, 1.0, 2.5]), 0.5],    # one lane differs
                   [np.array([0.0, 1.0]), 0.5],         # fewer lanes
                   [np.array([-0.0, 1.0, 2.0]), 0.5],   # a signed zero
                   [np.array([0.0, 1.0, 2.0]), -0.5]):  # a plain float
        assert builder(space, coords) is not batch
    assert len(calls) == 5

    lanes, _ = dual.seed([np.array([0.5, 1.5]), np.array([1.0, 2.0])])
    for _ in range(2):
        builder(space, lanes)  # lane jets bypass the memo too
    assert len(calls) == 7


def test_memo_holds_one_point():
    builder, calls = _counting_builder()
    space = object()
    first = builder(space, [0.0])
    builder(space, [1.0])
    builder(space, [1.0])
    assert len(calls) == 2
    assert builder(space, [0.0]) is not first
    assert len(calls) == 3


def _columns_text(report):
    return [(label, repr(value)) for label, value in report.columns()]


@pytest.mark.parametrize("name", sorted(PER_POINT))
def test_report_identical_cold_and_after_verify(name):
    scenario = load_scenario(scenario_path(name))
    points, _ = evaluation_points(scenario, count=2)
    for coords in points:
        clear_memos()
        cold = _columns_text(scenario.report(coords))
        clear_memos()
        invariants_at(scenario, coords)
        warm = _columns_text(scenario.report(coords))
        assert warm == cold


def test_evaluation_points_are_plain_floats(tmp_path):
    for name in PER_POINT:
        points, _ = evaluation_points(load_scenario(scenario_path(name)), count=3)
        assert all(type(c) is float for pt in points for c in pt)

    config = json.loads((SCENARIOS / "polar_plasma.json").read_text())
    config["eval"] = {"grid": {"min": [0.5, -0.5], "max": [1.5, 0.5], "shape": [3, 2]}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    points, _ = evaluation_points(load_scenario(str(path)))
    assert len(points) == 6
    assert all(type(c) is float for pt in points for c in pt)


def test_prolong_sheet_yields_plain_floats():
    scenario = load_scenario(scenario_path("bsml_sheet"))
    axes, values, _ = sheet_axes_and_values(scenario)
    jets = prolong_sheet(StreamSheet(axes, values), scenario.space)
    for coords in jets.reshape(-1, jets.shape[-1]).tolist():
        assert all(type(c) is float for c in coords)


# -- input boundary of the CLI --------------------------------------------------


def _streamline_args(x0="1.0,0.2", v0="0.3,0.9", step="0.01"):
    return ["streamline", "--scenario", scenario_path("polar_plasma"),
            f"--x0={x0}", f"--v0={v0}", "--step", step, "--steps", "2"]


@pytest.mark.parametrize("flag, args", [
    ("--x0", _streamline_args(x0="nan,0.2")),
    ("--x0", _streamline_args(x0="1.0,inf")),
    ("--v0", _streamline_args(v0="1,-inf")),
    ("--v0", _streamline_args(v0="nan,0")),
    ("--step", _streamline_args(step="nan")),
    ("--step", _streamline_args(step="inf")),
])
def test_streamline_rejects_non_finite_input(flag, args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_verify_rejects_bad_tolerance(tol, capsys):
    assert main(["verify", "--scenario", scenario_path("polar_plasma"),
                 f"--tol={tol}", "--points", "1"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_offenders_print_plain_decimals(capsys):
    assert main(["verify", "--scenario", scenario_path("polar_plasma"),
                 "--tol", "1e-30", "--points", "2"]) == 1
    out = capsys.readouterr().out
    assert "np." not in out
    offenders = out.split("worst offenders:\n")[1].splitlines()
    number = r"-?\d+\.\d+(e-?\d+)?"
    for line in offenders:
        assert re.fullmatch(rf"  \w+ = {number} at \[{number}, {number}\]", line), line


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_integrators_stop_at_a_non_finite_state():
    # flat metrics and constant fields: the state moves on a straight line
    # and overflows to inf in the first step
    state, space, em = const_state(2), flat_space(2), zero_em(2)
    with pytest.raises(IntegrationError) as err:
        riemann.integrate_stream_line(state, space, em, [0.0, 0.0], [1e308, 0.0], 10.0, 3)
    assert err.value.step == 0

    g = MetricField.from_exprs(2, [["1", "0"], ["1"]], xynames(2))
    tangent = GeneralizedLagrangeSpace(2, g, zero_connection(2))
    fluid = LagrangeFluidState(
        constant_field(0.2), constant_field(1.0), 1.0, TwoFormField.zero(2), TwoFormField.zero(2)
    )
    with pytest.raises(IntegrationError) as err:
        lagrange.integrate_h_stream_line(fluid, tangent, [1e308, 0.0], [1.0, 0.0], 1e308, 3)
    assert err.value.step == 0
