"""Batched evaluation: one frame for many points, the bits of one point each.

Three callables run through ``Scenario``'s one split algorithm: riemann
``reports(points)``, multitime ``sheet_rows(nodes, coefficients)`` and
multitime ``invariant_suites(points)``.  Each seeds a whole batch once,
with one lane per point in every jet coefficient.  Each result must equal
the one-point ``report``, ``sheet_row`` or ``invariants`` at its point by
``repr`` (``float.hex`` for an invariant) of every value, and a point that
fails must carry exactly the error text of the one-point path, also where
the failure, a pivot choice, a vanishing coefficient or an overflow splits
the batch.  The small cases batch down to two points, below the default
``MIN_BATCH``.
"""

import json
import math

import numpy as np
import pytest

from geoplasma import dual, expr, multitime as mt, riemann, scenario as scenario_mod
from geoplasma.common import covariant_derivative, inertial_factor
from geoplasma.errors import BatchSplit, DomainError, GeoPlasmaError, SingularDynamicsError
from geoplasma.lagrange import _adapted_partials
from geoplasma.multitime import _Derivatives, _velocity
from geoplasma.scenario import build_scenario, evaluation_points, load_scenario
from geoplasma.tensor_core import Slot, eval_jets

import helpers
from test_output_bytes import MULTITIME3, RIEMANN3, SCENARIOS, SHEET_FAILURES, SINGULAR_H

POLAR = json.loads((SCENARIOS / "polar_plasma.json").read_text())
BSML = json.loads((SCENARIOS / "bsml_sheet.json").read_text())
FLAT = [["1", "0"], ["1"]]
# the multitime3 samples with t1 = 0 at two of them, where h is diagonal
DIAGONAL_H = [[0.0 if k in (1, 4) else t1] + rest for k, (t1, *rest)
              in enumerate(evaluation_points(build_scenario(MULTITIME3))[0])]
# the bsml samples with t1 = t2 = 1 at one of them, where the pressure's
# t1-derivative overflows
OVERFLOWING_POINT = dict(BSML, pressure="0.4 + 1e-300*(t1*t2*1.0e154)^2", eval={"points": [
    [1.0, 1.0] + rest if k == 3 else [t1, t2] + rest
    for k, (t1, t2, *rest) in enumerate(evaluation_points(build_scenario(BSML))[0])]})
# the optical model checks its refractive index and rank-one factor per point
RGOGML = dict(BSML, model={"name": "rgogml", "params": {
    "phi": {"name": "polar"}, "refractive_index": "1.3 + 0.1*sin(t1)", "X": ["1", "0.5*t2"]}})
THREE = [[1.0, 0.1], [0.0, 0.2], [1.2, -0.1]]


def _polar(**over):
    config = dict(POLAR)
    config.update(over)
    return config


def _sheet_nodes(scenario):
    axes, values, _ = scenario_mod.sheet_axes_and_values(scenario)
    nodes = mt.prolong_sheet(mt.StreamSheet(axes, values), scenario.space)
    return nodes.reshape(-1, nodes.shape[-1]).tolist()


# batched callable -> (module whose seed a frame calls, points, batched results,
# one-point result)
CALLABLES = {
    "reports": (riemann, lambda s: evaluation_points(s)[0],
                lambda s, points: s.reports(points), lambda s, coords: s.report(coords)),
    "sheet_rows": (mt, _sheet_nodes, lambda s, nodes: s.sheet_rows(nodes, True),
                   lambda s, coords: s.sheet_row(coords, True)),
    "invariants": (mt, lambda s: evaluation_points(s)[0],
                   lambda s, points: s.invariant_suites(points),
                   lambda s, coords: s.invariants(coords)),
}

# name -> (batched callable, scenario, failing points or None, frame seedings,
# MIN_BATCH): a seeding per batch tried, split or not, plus one per point run alone
CASES = {
    "riemann3": ("reports", RIEMANN3, None, 1, 2),
    "polar_plasma": ("reports", POLAR, None, 1, 2),
    # x1 = 0 makes the polar metric singular at the middle point only, which
    # splits off and runs alone
    "singular_middle_point": ("reports", _polar(eval={"points": THREE}), 1, 3, 2),
    # two singular points make a batch that is singular in every lane: both
    # run alone after it, and so does the third point, split off before
    "singular_pair": ("reports", _polar(eval={"points": [[0.0, 0.1], [1.0, 0.3], [0.0, 0.2]]}),
                      2, 5, 2),
    # |phi_11| < |phi_12| at x1 < 0.5: the first pivot row differs between
    # points, and each pivot row's two points batch
    "pivot_row": ("reports", _polar(metric=[["x1", "0.5"], ["2"]],
                                    eval={"points": [[1.0, 0.1], [0.3, 0.2], [1.2, -0.1],
                                                     [0.25, 0.0]]}),
                  0, 3, 2),
    "log_domain": ("reports", _polar(metric=FLAT, pressure="0.3 + 0.01*log(x1)",
                                     eval={"points": [[1.0, 0.1], [-0.5, 0.2], [1.2, -0.1]]}),
                   1, 3, 2),
    # the pressure overflows at x1 = 200: inf in the scalar run, an error in a
    # batch, whose three points then run alone
    "field_overflow": ("reports", _polar(metric=FLAT, pressure="0.3 + 1e-300*(x1^2*1e150)^2",
                                         eval={"points": [[1.0, 0.1], [200.0, 0.2],
                                                          [1.2, -0.1]]}),
                       1, 4, 2),
    # H^2 overflows inside the energy tensor at x1 = 1e100, not in any field
    "algebra_overflow": ("reports", _polar(metric=FLAT,
                                           em={"H": [["1e150*x1"], []], "G": "self-dual"},
                                           eval={"points": [[1.0, 0.1], [1e100, 0.2],
                                                            [1.2, -0.1]]}),
                         0, 4, 2),
    # kappa^2_12 ~ t1 vanishes on the t1 = 0 row of the 7 x 7 nodes, but the
    # sheet frame builds no G block and takes no delta_t: one batch
    "sheet_bsml": ("sheet_rows", BSML, None, 1, 2),
    # nonzero kappa, G, L and C: the general display.  The 25 nodes split
    # where an elimination factor of the canonical N's inversion of g is zero
    # (g_13 ~ sin(x3*t2) on the t2 = 0 row), where h^12 is zero (h is diagonal
    # on the t1 = 0 row) and where an entry of N vanishes: 7 batches and 2
    # nodes alone
    "sheet_multitime3": ("sheet_rows", MULTITIME3, None, 9, 2),
    # the bsml sheet refined to 13 x 13 nodes under the default MIN_BATCH: the
    # zero kappa entries of the t1 = 0 row split nothing, all 169 nodes batch
    "sheet_kappa_split": ("sheet_rows",
                          dict(BSML, sheet=dict(BSML["sheet"], grid=dict(
                              BSML["sheet"]["grid"], shape=[13, 13]))),
                          None, 1, 16),
    # log(x2) fails where x2 < 0 (18 nodes): the batch of 49 splits by that
    # condition, the 18 nodes fail as a batch and then one by one, 31 batch
    "sheet_failing_nodes": ("sheet_rows", SHEET_FAILURES, 18, 21, 2),
    # an exponent over t is a plain lane array where the canonical connection
    # seeds only x: its lanes must multiply like the one-point run's 3.0
    "sheet_lane_exponent": ("sheet_rows", dict(MULTITIME3, metric=[
        ["(1.2 + 0.1*sin(x2 + t1))*x3_1^(3 + 0*t2)", "0.05*cos(x1 + x2_1)", "0.03*sin(x3*t2)"],
        ["1.1 + 0.1*cos(x1 - x3_2)", "0.04*cos(x2 + x1_1)"],
        ["1.3 + 0.05*sin(x3 + t1*t2)"],
    ]), None, 9, 2),
    "sheet_rgogml": ("sheet_rows", RGOGML, None, 1, 2),
    # the pressure's t1-derivative overflows at the node t1 = t2 = 1 only: the
    # batch of all 49 nodes fails and they run alone
    "sheet_overflowing_node": ("sheet_rows",
                               dict(BSML, pressure="0.4 + 1e-300*(t1*t2*1.0e154)^2"),
                               1, 50, 2),
    # a suite that batches seeds four times: for the metric compatibilities,
    # the connection blocks, the frame and the direct divergence
    "verify_bsml_sheet": ("invariants", BSML, None, 4, 2),
    # nonzero kappa, G, L and C
    "verify_multitime3": ("invariants", MULTITIME3, None, 4, 2),
    # kappa's inversion of h splits the batch of 6 by the zero h_12 of the two
    # points at t1 = 0; each side then batches, the zero h^12 skipped in both
    "verify_diagonal_h": ("invariants", dict(MULTITIME3, eval={"points": DIAGONAL_H}),
                          None, 9, 2),
    # log(x2) fails at 5 of the 10 points: the frame splits the batch after 3
    # seedings, the 5 good points batch, and the 5 failing ones fail as a batch
    # and then alone
    "verify_log_domain": ("invariants", SHEET_FAILURES, 5, 25, 2),
    # the batch overflows in the frame; its 10 points run alone, and the one
    # that overflows fails there
    "verify_overflowing_point": ("invariants", OVERFLOWING_POINT, 1, 42, 2),
    "verify_rgogml": ("invariants", RGOGML, None, 4, 2),
    # kappa splits off the two points where h is singular, which fail as a
    # batch and then alone (1 seeding each); the connection blocks split the
    # other two by g, and each runs alone.  Where h and g are both singular,
    # h is named, as by the one-point suite
    "verify_singular_h": ("invariants", SINGULAR_H, 3, 12, 2),
    "verify_singular_h_canonical": ("invariants", dict(SINGULAR_H, connection="canonical"),
                                    3, 12, 2),
}


def _key(result):
    if isinstance(result, GeoPlasmaError):
        return type(result).__name__, str(result)
    if isinstance(result, dict):
        return [(name, float.hex(value)) for name, value in result.items()]
    if isinstance(result, list):
        return [repr(value) for value in result]
    return [(label, repr(value)) for label, value in result.columns()]


def _one_point(one, scenario, coords):
    try:
        return one(scenario, coords)
    except GeoPlasmaError as err:
        return err


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_reports_equal_one_point_reports(name, monkeypatch):
    kind, config, failures, seedings, min_batch = CASES[name]
    module, inputs, batch, one = CALLABLES[kind]
    monkeypatch.setattr(scenario_mod, "MIN_BATCH", min_batch)
    scenario = build_scenario(config)
    points = inputs(scenario)
    seeds = []
    original = module.seed
    monkeypatch.setattr(module, "seed", lambda *a, **k: seeds.append(1) or original(*a, **k))
    batched = list(batch(scenario, points))
    assert len(seeds) == seedings
    monkeypatch.setattr(module, "seed", original)
    single = [_one_point(one, scenario, coords) for coords in points]
    assert [_key(r) for r in batched] == [_key(r) for r in single]
    failed = [r for r in single if isinstance(r, GeoPlasmaError)]
    assert len(failed) == (failures or 0)
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
    single = [_one_point(CALLABLES["reports"][3], scenario, coords) for coords in points]
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


def _lanes_match_scalars(batch, scalars):
    """A result with a trailing lane axis against the results of each lane."""
    assert batch.shape == scalars[0].shape + (len(scalars),)
    for b, one in enumerate(scalars):
        assert [v.hex() for v in batch[..., b].ravel().tolist()] == \
               [v.hex() for v in one.ravel().tolist()]


def test_covariant_derivative_leaves_its_jets_unchanged():
    # lane coefficients: the partial hands out a jet's own mutable slot array
    lanes = [(0.3, 0.7), (-0.2, 1.1), (0.9, 0.05)]
    coeff = np.random.default_rng(2).uniform(-1, 1, (2, 2, 2)).tolist()

    def derivative(x, y):
        (x, y), ctx = dual.seed([x, y])
        T = [[e * x + y * y for e in row] for row in [[1.0, 0.5], [0.5, 2.0]]]
        before = [helpers.coefficient_bits(e) for row in T for e in row]
        out = covariant_derivative(T, (Slot.LD, Slot.LU), lambda jet, k: jet.d(k), coeff)
        assert [helpers.coefficient_bits(e) for row in T for e in row] == before
        return out

    scalars = [derivative(x, y) for x, y in lanes]
    assert all(one.dtype == float and one.shape == (2, 2, 2) for one in scalars)
    _lanes_match_scalars(derivative(*map(np.array, zip(*lanes))), scalars)


@pytest.mark.parametrize("kind", ["hT", "hM", "v"])
def test_jet_covariant_derivative_keeps_lanes(kind):
    rng = np.random.default_rng(11)
    space, _, box = helpers.random_multitime_scenario(rng, 2, 2)
    points = [[float(v) for v in point] for point in helpers.sample_box(rng, box, 3)]
    slots = (Slot.LD, Slot.LD)

    def derivative(coords):
        T = eval_jets(space.g.matrix, *dual.seed(list(coords)))
        before = [helpers.coefficient_bits(e) for row in T for e in row]
        out = mt._jet_covariant(T, slots, space, coords, kind)
        assert [helpers.coefficient_bits(e) for row in T for e in row] == before
        return out

    scalars = [derivative(coords) for coords in points]
    _lanes_match_scalars(derivative([np.array(lane) for lane in zip(*points)]), scalars)


def test_inertial_factor_is_plain_on_floats_and_splits_lanes():
    assert type(inertial_factor(0.3, 1.2, 1.0)) is float
    with pytest.raises(SingularDynamicsError):
        inertial_factor(-1.2, 1.2, 1.0)
    p = np.array([0.3, -1.2, 0.4, -1.2])
    fac = inertial_factor(p[[0, 2]], 1.2, 1.0)
    assert fac.tolist() == [inertial_factor(0.3, 1.2, 1.0), inertial_factor(0.4, 1.2, 1.0)]
    with pytest.raises(BatchSplit) as split:
        inertial_factor(p, np.full(4, 1.2), 1.0)
    assert split.value.lanes.tolist() == [False, True, False, True]


def test_sheet_frame_pieces_stay_plain_on_floats():
    # the one-point and stream-line paths keep Python floats: no numpy scalar
    rng = np.random.default_rng(4)
    space, _, box = helpers.random_multitime_scenario(rng, 2, 2)
    coords = [float(v) for v in helpers.sample_box(rng, box, 1)[0]]
    cj, ctx = dual.seed(coords)
    ops = _Derivatives(space, coords)
    g = eval_jets(space.g.matrix, cj, ctx)
    assert all(type(ops.delta_t(e, a)) is float and type(ops.delta_x(e, a)) is float
               for row in g for e in row for a in range(2))
    hinv = [[1.0, 0.0], [0.0, 1.0]]
    u, u_low, eps = _velocity(space, coords, space.g.matrix(coords), hinv)
    assert {type(v) for col in u + u_low for v in col} | {type(eps)} == {float}


def test_lane_exponents_give_the_bits_of_each_scalar():
    base = np.array([1.1, -1.3, 1.7, 0.9])
    for exponents in ([3.0, 3.0, 3.0, 3.0], [0.5, 1.5, 2.5, 0.25], [-2.0] * 4):
        batch = dual.power(np.abs(base), np.array(exponents))
        one = [dual.power(abs(b), e) for b, e in zip(base.tolist(), exponents)]
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in one]
    # integral exponents multiply (negative bases too), so the lanes must agree
    assert dual.power(base, np.full(4, 2.0)).tolist() == [b * b for b in base.tolist()]
    with pytest.raises(BatchSplit) as split:
        dual.power(base, np.array([2.0, 3.0, 2.0, 2.0]))
    assert split.value.lanes.tolist() == [True, False, True, True]
    with pytest.raises(BatchSplit) as split:
        dual.power(np.abs(base), np.array([2.0, 0.5, 2.0, 2.0]))
    assert split.value.lanes.tolist() == [True, False, True, True]


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
