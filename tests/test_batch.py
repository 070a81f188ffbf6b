"""Batched riemann reports: one frame for many points, the bits of one point each.

``Scenario.reports(points)`` on riemann seeds a whole batch once, with one
lane per point in every jet coefficient.  Each report must equal the
one-point ``report`` at its point by ``repr`` of every column, and a point
that fails must carry exactly the error text of the one-point path, also
where the failure, a pivot choice or an overflow splits the batch.  The
small cases batch down to two points, below the default ``MIN_BATCH``.
"""

import json
import math

import numpy as np
import pytest

from geoplasma import dual, expr, riemann, scenario as scenario_mod
from geoplasma.common import covariant_derivative
from geoplasma.errors import BatchSplit, DomainError, GeoPlasmaError
from geoplasma.lagrange import _adapted_partials
from geoplasma.multitime import _Derivatives
from geoplasma.scenario import build_scenario, evaluation_points, load_scenario
from geoplasma.tensor_core import Slot

import helpers
from test_output_bytes import RIEMANN3, SCENARIOS

POLAR = json.loads((SCENARIOS / "polar_plasma.json").read_text())
FLAT = [["1", "0"], ["1"]]
THREE = [[1.0, 0.1], [0.0, 0.2], [1.2, -0.1]]


def _polar(**over):
    config = dict(POLAR)
    config.update(over)
    return config


CASES = {
    "riemann3": (RIEMANN3, None),
    "polar_plasma": (POLAR, None),
    # x1 = 0 makes the polar metric singular at the middle point only
    "singular_middle_point": (_polar(eval={"points": THREE}), 1),
    # two singular points make a batch that is singular in every lane
    "singular_pair": (_polar(eval={"points": [[0.0, 0.1], [1.0, 0.3], [0.0, 0.2]]}), 2),
    # |phi_11| < |phi_12| at x1 < 0.5: the first pivot row differs between points
    "pivot_row": (_polar(metric=[["x1", "0.5"], ["2"]],
                         eval={"points": [[1.0, 0.1], [0.3, 0.2], [1.2, -0.1], [0.25, 0.0]]}),
                  0),
    "log_domain": (_polar(metric=FLAT, pressure="0.3 + 0.01*log(x1)",
                          eval={"points": [[1.0, 0.1], [-0.5, 0.2], [1.2, -0.1]]}), 1),
    # the pressure overflows at x1 = 200: inf in the scalar run, an error in a batch
    "field_overflow": (_polar(metric=FLAT, pressure="0.3 + 1e-300*(x1^2*1e150)^2",
                              eval={"points": [[1.0, 0.1], [200.0, 0.2], [1.2, -0.1]]}), 1),
    # H^2 overflows inside the energy tensor at x1 = 1e100, not in any field
    "algebra_overflow": (_polar(metric=FLAT, em={"H": [["1e150*x1"], []], "G": "self-dual"},
                                eval={"points": [[1.0, 0.1], [1e100, 0.2], [1.2, -0.1]]}), 0),
}


def _key(result):
    if isinstance(result, GeoPlasmaError):
        return type(result).__name__, str(result)
    return [(label, repr(value)) for label, value in result.columns()]


def _one_point(scenario, coords):
    try:
        return scenario.report(coords)
    except GeoPlasmaError as err:
        return err


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_reports_equal_one_point_reports(name, monkeypatch):
    monkeypatch.setattr(scenario_mod, "MIN_BATCH", 2)
    config, failures = CASES[name]
    scenario = build_scenario(config)
    points, _ = evaluation_points(scenario)
    seeds = []
    original = riemann.seed
    monkeypatch.setattr(riemann, "seed", lambda *a, **k: seeds.append(1) or original(*a, **k))
    batched = list(scenario.reports(points))
    if failures is None:
        assert len(seeds) == 1  # one seeding for the whole batch
    monkeypatch.setattr(riemann, "seed", original)
    single = [_one_point(scenario, coords) for coords in points]
    assert [_key(r) for r in batched] == [_key(r) for r in single]
    failed = [r for r in single if isinstance(r, GeoPlasmaError)]
    if failures is not None:
        assert len(failed) == failures
    if name == "algebra_overflow":
        # the one-point report holds a non-finite number, which the CLI's last guard names
        assert not all(math.isfinite(v) for _, v in single[1].columns())


# box samples in random order: failing points or a second pivot row scattered
# through them, on the side of x1 = 0 or of x1 = 0.5 (|phi_11| < |phi_12|)
SCATTERED = {
    "log_domain": (_polar(metric=FLAT, pressure="0.3 + 0.01*log(x1)",
                          eval={"box": {"min": [-1.0, -0.5], "max": [1.0, 0.5]}, "count": 64}),
                   0.0),
    "pivot_row": (_polar(metric=[["x1", "0.5"], ["2"]],
                         eval={"box": {"min": [0.2, -0.5], "max": [0.8, 0.5]}, "count": 64}),
                  0.5),
}


@pytest.mark.parametrize("name", sorted(SCATTERED))
def test_a_batch_splits_by_the_condition_its_points_disagree_on(name, monkeypatch):
    config, edge = SCATTERED[name]
    scenario = build_scenario(config)
    points, _ = evaluation_points(scenario)
    seeds = []
    original = riemann.seed
    monkeypatch.setattr(riemann, "seed", lambda *a, **k: seeds.append(1) or original(*a, **k))
    batched = list(scenario.reports(points))
    monkeypatch.setattr(riemann, "seed", original)
    single = [_one_point(scenario, coords) for coords in points]
    assert [_key(r) for r in batched] == [_key(r) for r in single]
    failed = sum(isinstance(r, GeoPlasmaError) for r in single)
    assert 16 <= sum(x1 < edge for x1, _ in points) <= 48  # both sides are batches
    # the batch, one batch per side, and each failing point alone; halving
    # down to single points would seed about 2 * failures + 30 times
    assert len(seeds) == 3 + failed


def test_a_plain_lane_divisor_splits_on_its_zero_lanes():
    tree = expr.parse("1/(x1 - 1)")
    with pytest.raises(BatchSplit) as split:
        expr.evaluate(tree, {"x1": np.array([1.0, 2.0, 1.0])})
    assert split.value.lanes.tolist() == [True, False, True]
    with pytest.raises(BatchSplit):
        expr.compile_field([tree], ["x1"], ["f"])([np.array([1.0, 2.0])])
    with pytest.raises(DomainError) as one:
        expr.evaluate(tree, {"x1": 1.0})
    with pytest.raises(DomainError) as every:  # every lane zero: the one-point error
        expr.evaluate(tree, {"x1": np.array([1.0, 1.0])})
    assert str(every.value) == str(one.value)


def test_batches_are_chunked_and_keep_point_order():
    scenario = load_scenario(str(SCENARIOS / "polar_plasma.json"))
    points, _ = evaluation_points(scenario, count=300)  # two chunks of at most 256
    batched = list(scenario.reports(points))
    assert [_key(r) for r in batched] == [_key(scenario.report(c)) for c in points]


def test_lane_arrays_give_the_bits_of_each_scalar():
    lanes = np.random.default_rng(3).uniform(0.05, 3.0, 64)
    x, ctx = dual.seed([lanes])
    for fn in (dual.sin, dual.cos, dual.exp, dual.log, dual.sqrt, dual.tanh):
        batch = fn(0.7 * x[0] - 0.01)
        for k, v in enumerate(lanes.tolist()):
            one = fn(0.7 * dual.seed([v])[0][0] - 0.01)
            assert (batch.value[k], batch.d(0)[k]) == (one.value, one.d(0)), fn.__name__


def test_lane_array_operands_and_branches():
    x, _ = dual.seed([np.array([1.0, 2.0])])
    assert isinstance(np.array([3.0, 4.0]) + x[0], dual.Jet)  # no object array
    assert dual.branch(np.array([1.0, 2.0]) > 0.0) is True
    assert dual.branch(np.array([1.0, 2.0]) < 0.0) is False
    with pytest.raises(BatchSplit) as split:
        dual.branch(np.array([1.0, 2.0]) > 1.5)
    assert split.value.lanes.tolist() == [False, True]
    with pytest.raises(BatchSplit):
        dual.log(x[0] - 1.5)


def _lane_jet(coords):
    """A jet whose value and every partial are (3,) lane arrays."""
    cj, _ = dual.seed([np.array([c, c + 0.01, c - 0.02]) for c in coords])
    acc = 0.0
    for v in cj:
        acc = acc + v * v
    return acc


def test_adapted_partials_leave_a_lane_jet_unchanged():
    rng = np.random.default_rng(5)
    space, _, box = helpers.random_lagrange_scenario(rng, 2)
    coords = helpers.sample_box(rng, box, 1)[0]
    jet = _lane_jet(coords)
    before = helpers.coefficient_bits(jet)
    _, horizontal, _ = _adapted_partials(space, coords)
    first = helpers.coefficient_bits(horizontal(jet, 0))
    assert helpers.coefficient_bits(jet) == before
    assert helpers.coefficient_bits(horizontal(jet, 0)) == first

    space, _, box = helpers.random_multitime_scenario(rng, 2, 2)
    coords = helpers.sample_box(rng, box, 1)[0]
    ops = _Derivatives(space, coords)
    jet = _lane_jet(coords)
    before = helpers.coefficient_bits(jet)
    for k in range(2):
        ops.delta_t(jet, k)
        ops.delta_x(jet, k)
    assert helpers.coefficient_bits(jet) == before


def test_covariant_derivative_leaves_its_jets_unchanged():
    # 0-d array coefficients: the partial hands out a jet's own mutable slot
    (x, y), ctx = dual.seed([0.3, 0.7])
    T = [[dual.Jet(ctx, [np.array(float(v)) for v in (e * x + y * y).c]) for e in row]
         for row in [[1.0, 0.5], [0.5, 2.0]]]
    before = [helpers.coefficient_bits(e) for row in T for e in row]
    coeff = np.random.default_rng(2).uniform(-1, 1, (2, 2, 2)).tolist()
    first = covariant_derivative(T, (Slot.LD, Slot.LU), lambda jet, k: jet.d(k), coeff)
    assert [helpers.coefficient_bits(e) for row in T for e in row] == before
    again = covariant_derivative(T, (Slot.LD, Slot.LU), lambda jet, k: jet.d(k), coeff)
    assert again.tolist() == first.tolist()


def test_a_field_that_splits_a_batch_is_not_walked_again(monkeypatch):
    tree = expr.parse("1 + 2*log(x1)")
    lanes = np.array([1.0, -1.0, 2.0])
    with pytest.raises(BatchSplit) as walked:
        expr.evaluate(tree, {"x1": lanes})
    field = expr.compile_field([tree], ["x1"], ["f"])
    calls = []
    walk = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda *args: calls.append(args) or walk(*args))
    with pytest.raises(BatchSplit) as compiled:
        field([lanes])
    assert compiled.value.lanes.tolist() == walked.value.lanes.tolist() == [False, True, False]
    assert calls == []
