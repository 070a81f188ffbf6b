"""Batched evaluation: one frame for many points, the bits of one point each.

Three callables run through ``Scenario``'s one split algorithm:
``reports(points)`` and ``invariant_suites(points)`` of every framework and
multitime ``sheet_rows(nodes, coefficients)``.  Each seeds a
whole batch once, with one lane per point in every jet coefficient.  Each
result must equal the one-point ``report`` (its columns laid out as the
``residuals`` CSV lays them out), the one row of ``_sheet_values`` or
``invariants`` at its point by ``repr`` (``float.hex`` for an invariant)
of every value, and a point that fails must carry exactly the error text
of the one-point path, also where the failure, a pivot choice, a
vanishing coefficient or an overflow splits the batch.  The small cases batch down to two points,
below the default ``MIN_BATCH``.  Every case's one-point results are also
pinned, in ``data/batch_keys.json``.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from geoplasma import common, dual, expr, lagrange, multitime as mt, riemann, scenario as scenario_mod
from geoplasma.common import inertial_factor, jet_block
from geoplasma.errors import (
    BatchSplit, DomainError, GeoPlasmaError, SingularDynamicsError, TensorError,
)
from geoplasma.lagrange import _adapted_partials
from geoplasma.multitime import _Derivatives, _velocity
from geoplasma.scenario import build_scenario, evaluation_points, load_scenario
from geoplasma.tensor_core import Slot, eval_jets

import helpers
from test_output_bytes import (
    LAGRANGE3, MULTITIME3, RIEMANN3, SCENARIOS, SHEET_FAILURES, SINGULAR_H,
)

POLAR = json.loads((SCENARIOS / "polar_plasma.json").read_text())
TANGENT = json.loads((SCENARIOS / "tangent_bundle.json").read_text())
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
# polar points with x1 = 0 at two of them, and tangent points with x1 = 0 at
# one of them, where the metric diag(x1, 1.1) is singular
SINGULAR_POLAR = [[1.0, 0.1], [0.0, 0.2], [1.2, -0.1], [0.8, 0.3], [0.0, -0.2], [1.4, 0.0],
                  [0.7, -0.3], [1.1, 0.4]]
SINGULAR_TANGENT = [[0.3, 0.1, 1.0, 0.9], [0.0, 0.1, 1.0, 1.0], [0.5, 0.2, 0.8, 1.1],
                    [0.4, -0.1, 1.2, 0.8], [0.1, 0.3, 0.9, 1.2], [0.6, -0.3, 1.1, 0.7],
                    [0.25, 0.0, 0.9, 1.0], [0.8, 0.4, 1.3, 0.95]]
# constant metric, fluid and field on the base manifold and on the tangent
# bundle, sampled at 20 points
CONSTANT_RIEMANN = dict(POLAR, metric=FLAT, pressure="0.3", density="1.2", velocity=["1", "0.5"],
                        em={"H": [["0.2"], []], "G": "self-dual"})
CONSTANT_LAGRANGE = dict(TANGENT, metric=FLAT, pressure="0.3", density="1.1",
                         em={"H": [["0.15"], []], "G": [["0.1"], []]})


def _polar(**over):
    config = dict(POLAR)
    config.update(over)
    return config


def _sheet_nodes(scenario):
    axes, values, _ = scenario_mod.sheet_axes_and_values(scenario)
    nodes = mt.prolong_sheet(mt.StreamSheet(axes, values), scenario.space)
    return nodes.reshape(-1, nodes.shape[-1]).tolist()


# framework -> the module whose seed its frames call: riemann and lagrange
# frames are built on ``common.MetricJets``, which calls ``dual.seed``
FRAME_MODULES = {"riemann": dual, "lagrange": dual, "multitime": mt}
# batched callable -> (points, batched results, one-point result)
CALLABLES = {
    "reports": (lambda s: evaluation_points(s)[0], lambda s, points: s.reports(points),
                lambda s, coords: helpers.report_columns(s.report(coords))),
    "sheet_rows": (_sheet_nodes, lambda s, nodes: s.sheet_rows(nodes, True),
                   lambda s, coords: s._sheet_values(coords, True)[0]),
    "invariants": (lambda s: evaluation_points(s)[0],
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
    "lagrange3": ("reports", LAGRANGE3, None, 1, 2),
    "tangent_bundle": ("reports", TANGENT, None, 1, 2),
    # log(x1) fails at the middle point only, which splits off and runs alone
    "lagrange_log_domain": ("reports", dict(TANGENT, pressure="0.3 + 0.01*log(x1)", eval={
        "points": [[0.3, 0.1, 1.0, 0.9], [-0.2, 0.2, 0.8, 1.1], [0.4, -0.1, 1.2, 0.8]]}),
                            1, 3, 2),
    # |g_11| < |g_12| at x1 < 0.5: the first pivot row differs between
    # points, and each pivot row's two points batch
    "lagrange_pivot_row": ("reports", dict(TANGENT, metric=[["x1", "0.5"], ["2"]], eval={
        "points": [[1.0, 0.1, 1.0, 0.9], [0.3, 0.2, 0.8, 1.1], [1.2, -0.1, 1.2, 0.8],
                   [0.25, 0.0, 0.9, 1.0]]}),
                           0, 3, 2),
    "multitime3": ("reports", MULTITIME3, None, 1, 2),
    "bsml_sheet": ("reports", BSML, None, 1, 2),
    # log(x2) fails at 5 of the 10 points: the batch splits, the 5 good points
    # batch, and the 5 failing ones fail as a batch and then alone
    "multitime_log_domain": ("reports", SHEET_FAILURES, 5, 8, 2),
    # h^12 is zero at the two points at t1 = 0: the batch splits there, and
    # each side batches
    "multitime_diagonal_h": ("reports", dict(MULTITIME3, eval={"points": DIAGONAL_H}),
                             None, 3, 2),
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
    # a suite that batches seeds once, for the metric jets that the connection
    # blocks, the metric compatibilities, the frame and the direct divergence
    # share (twice while the connection blocks seeded the point on their own)
    "verify_bsml_sheet": ("invariants", BSML, None, 1, 2),
    # nonzero kappa, G, L and C
    "verify_multitime3": ("invariants", MULTITIME3, None, 1, 2),
    # kappa's inversion of h splits the batch of 6 by the zero h_12 of the two
    # points at t1 = 0 before any seeding; each side then batches, the zero
    # h^12 skipped in both
    "verify_diagonal_h": ("invariants", dict(MULTITIME3, eval={"points": DIAGONAL_H}),
                          None, 2, 2),
    # log(x2) fails at 5 of the 10 points: the frame splits the batch after 1
    # seeding, the 5 good points batch, and the 5 failing ones fail as a batch
    # and then alone
    "verify_log_domain": ("invariants", SHEET_FAILURES, 5, 8, 2),
    # the batch overflows in the frame; its 10 points run alone, and the one
    # that overflows fails there
    "verify_overflowing_point": ("invariants", OVERFLOWING_POINT, 1, 11, 2),
    "verify_rgogml": ("invariants", RGOGML, None, 1, 2),
    # kappa splits off the two points where h is singular, which fail as a
    # batch and then alone (no seeding); the connection blocks split the
    # other two by g after one seeding, and each runs alone.  Where h and g
    # are both singular, h is named, as by the one-point suite
    "verify_singular_h": ("invariants", SINGULAR_H, 3, 3, 2),
    "verify_singular_h_canonical": ("invariants", dict(SINGULAR_H, connection="canonical"),
                                    3, 3, 2),
    # the riemann and lagrange suites: one seeding per batch, for the metric
    # jets that the frame, the connection blocks and the metric
    # compatibilities share (lagrange seeded twice while its connection
    # blocks seeded the point on their own)
    "verify_riemann3": ("invariants", RIEMANN3, None, 1, 2),
    "verify_lagrange3": ("invariants", LAGRANGE3, None, 1, 2),
    # a log fails at 7 of the 20 points (x1 < 1) and at 6 of the 20 (x1 <
    # -0.2), scattered through them: the batch splits, the good points
    # batch, and the failing ones fail as a batch and then alone (1 + 1 + 1
    # + 7 and 1 + 1 + 1 + 6 seedings; lagrange made 18 seeding twice per try)
    "verify_riemann_log_domain": ("invariants", _polar(pressure="0.3 + 0.04*log(x1 - 1.0)"),
                                  7, 10, 2),
    "verify_lagrange_log_domain": ("invariants",
                                   dict(TANGENT, pressure="0.3 + 0.04*log(x1 + 0.2)"),
                                   6, 9, 2),
    # every field constant: the connection, energy and stress arrays built
    # from plain floats must still carry the lane axis
    "verify_riemann_constant": ("invariants", CONSTANT_RIEMANN, None, 1, 2),
    "verify_lagrange_constant": ("invariants", CONSTANT_LAGRANGE, None, 1, 2),
    # a metric singular at some points: its one inversion splits them off
    # after the batch's seeding, and each fails alone, naming its point (1 +
    # 1 + 1 + 2 and 1 + 1 + 1 seedings).  Lagrange named no point, and made
    # 2 seedings and riemann 1, while the metric compatibilities and the
    # Christoffel symbols inverted the metric before the frame did
    "verify_riemann_singular": ("invariants", _polar(eval={"points": SINGULAR_POLAR}),
                                2, 5, 2),
    "verify_lagrange_singular": ("invariants", dict(TANGENT, metric=[["x1", "0"], ["1.1"]],
                                                    eval={"points": SINGULAR_TANGENT}),
                                 1, 3, 2),
}


def _key(result):
    if isinstance(result, GeoPlasmaError):
        return type(result).__name__, str(result)
    if isinstance(result, dict):  # an invariant suite
        return [(name, float.hex(value)) for name, value in result.items()]
    if isinstance(result, tuple):  # the labels and values of a report
        return [(label, repr(value)) for label, value in zip(*result)]
    return [repr(value) for value in result]


# every case's points, one at a time, as recorded before the multitime verify
# suite shared its metric jets and stress with the point's frame: an error that
# changes its type, its text or the point it stops, or a value that changes
# its bits, shows here
PINS = json.loads((Path(__file__).with_name("data") / "batch_keys.json").read_text())


def _record(result):
    """A point's pin: the key of an error or invariant suite as JSON gives it
    back, the SHA-256 of the key of a report or sheet row."""
    key = json.loads(json.dumps(_key(result)))
    if isinstance(result, (GeoPlasmaError, dict)):
        return key
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()


def _one_point(one, scenario, coords):
    try:
        return one(scenario, coords)
    except GeoPlasmaError as err:
        return err


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_reports_equal_one_point_reports(name, monkeypatch):
    kind, config, failures, seedings, min_batch = CASES[name]
    inputs, batch, one = CALLABLES[kind]
    monkeypatch.setattr(scenario_mod, "MIN_BATCH", min_batch)
    scenario = build_scenario(config)
    module = FRAME_MODULES[scenario.framework]
    points = inputs(scenario)
    seeds = []
    original = module.seed
    monkeypatch.setattr(module, "seed", lambda *a, **k: seeds.append(1) or original(*a, **k))
    batched = list(batch(scenario, points))
    assert len(seeds) == seedings
    monkeypatch.setattr(module, "seed", original)
    single = [_one_point(one, scenario, coords) for coords in points]
    assert [_key(r) for r in batched] == [_key(r) for r in single]
    assert [_record(r) for r in single] == PINS[name]
    failed = [r for r in single if isinstance(r, GeoPlasmaError)]
    assert len(failed) == (failures or 0)
    if name == "algebra_overflow":
        # the one-point report holds a non-finite number, which the CLI's last guard names
        assert not all(math.isfinite(v) for v in single[1][1])


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
    original = dual.seed
    monkeypatch.setattr(dual, "seed", lambda *a, **k: seeds.append(1) or original(*a, **k))
    batched = list(scenario.reports(points))
    monkeypatch.setattr(dual, "seed", original)
    single = [_one_point(CALLABLES["reports"][2], scenario, coords) for coords in points]
    assert [_key(r) for r in batched] == [_key(r) for r in single]
    failed = sum(isinstance(r, GeoPlasmaError) for r in single)
    assert 16 <= sum(x1 < edge for x1, _ in points) <= 48  # both sides are batches
    # the batch, one batch per side, and each failing point alone; halving
    # down to single points would seed about 2 * failures + 30 times
    assert len(seeds) == 3 + failed


def _scenario_points(config):
    scenario = build_scenario(config)
    return scenario.state, scenario.space, evaluation_points(scenario)[0]


def _random_multitime(seed, p, n):
    rng = np.random.default_rng(seed)
    space, state, box = helpers.random_multitime_scenario(rng, p, n)
    return state, space, [[float(v) for v in c] for c in helpers.sample_box(rng, box, 8)]


# multitime states, spaces and points for the channel algebra: p = 2 with
# every block nonzero and with G = C = 0, p = 1, and the DIAGONAL_H points,
# where h^12 is zero at two points, so a batch of all of them splits
CHANNEL_CASES = {
    "multitime3": lambda: _scenario_points(MULTITIME3),
    "bsml": lambda: _scenario_points(BSML),
    "random_p1": lambda: _random_multitime(5, 1, 3),
    "random_p2": lambda: _random_multitime(6, 2, 2),
    "diagonal_h": lambda: _scenario_points(dict(MULTITIME3, eval={"points": DIAGONAL_H})),
}
CHANNEL_ENTRIES = ("conservation_h", "conservation_v", "continuity_h", "continuity_v")


def _channel_split(state, space, coords):
    """The lanes a BatchSplit of the channel algebra names, or None once its
    entries have matched the hand-spelled channels bit for bit."""
    lanes = np.shape(coords[0])
    try:
        oracle = helpers.multitime_channel_residuals(state, space, coords)
    except BatchSplit as split:
        with pytest.raises(BatchSplit) as raised:
            mt.multitime_residuals(state, space, coords)
        assert raised.value.lanes.tolist() == split.lanes.tolist()
        return split.lanes
    report = mt.multitime_residuals(state, space, coords)
    for name, value in zip(CHANNEL_ENTRIES, oracle):
        expected = common.lane_array(value, lanes)
        assert (report[name].shape, report[name].tobytes()) == (expected.shape, expected.tobytes())
    return None


@pytest.mark.parametrize("name", sorted(CHANNEL_CASES))
def test_channel_algebra_equals_the_hand_spelled_channels(name):
    state, space, points = CHANNEL_CASES[name]()
    for coords in points:
        assert _channel_split(state, space, coords) is None
    batch = [np.array(c) for c in zip(*points)]
    split = _channel_split(state, space, batch)
    assert (split is not None) == (name == "diagonal_h")
    if split is not None:
        assert split.tolist() == [k in (1, 4) for k in range(len(points))]
        for side in (split, ~split):
            assert _channel_split(state, space, [c[side] for c in batch]) is None


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


@pytest.mark.parametrize("config", [POLAR, CONSTANT_RIEMANN, TANGENT, CONSTANT_LAGRANGE, BSML,
                                    MULTITIME3],
                         ids=["polar", "constant_riemann", "tangent", "constant_lagrange", "bsml",
                              "multitime3"])
def test_every_suite_value_has_one_entry_per_lane(config):
    # a value without the lane axis would be split into the wrong suites,
    # constant fields included
    scenario = build_scenario(config)
    points, _ = evaluation_points(scenario, count=9)
    suite = scenario.invariants(scenario_mod._lane_coords(points))
    assert {name: np.shape(value) for name, value in suite.items()} == \
           {name: (9,) for name in suite}


def test_batches_are_chunked_and_keep_point_order():
    scenario = load_scenario(str(SCENARIOS / "polar_plasma.json"))
    points, _ = evaluation_points(scenario, count=300)  # two chunks of at most 256
    batched = list(scenario.reports(points))
    assert [_key(r) for r in batched] == [_key(helpers.report_columns(scenario.report(c)))
                                          for c in points]


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


# a Christoffel block without a lane axis, which meets tensors with lanes
_GAMMA = np.random.default_rng(2).uniform(-1, 1, (2, 2, 2))
_SLOTS = (Slot.LD, Slot.LU)
# case -> (framework of the random space, derivative of a jet block at coords)
LANE_DERIVATIVES = {
    "riemann": (None, lambda space, block, coords: riemann._levi_civita(block, _SLOTS, _GAMMA)),
    "lagrange_h": ("lagrange", lambda space, block, coords:
                   lagrange._hv_covariant(block, _SLOTS, space, coords)[0]),
    "lagrange_v": ("lagrange", lambda space, block, coords:
                   lagrange._hv_covariant(block, _SLOTS, space, coords)[1]),
    # the three multitime kinds
    **{kind: ("multitime", lambda space, block, coords, kind=kind:
              mt._jet_covariant(block, _SLOTS, space, coords, kind))
       for kind in ("hT", "hM", "v")},
}


@pytest.mark.parametrize("name", sorted(LANE_DERIVATIVES))
def test_jet_covariant_derivative_keeps_lanes(name):
    # lane coefficients: the partials are rows of the block, which the
    # frames share between derivatives
    framework, derivative = LANE_DERIVATIVES[name]
    rng = np.random.default_rng(11)
    if framework is None:
        space, points = None, [[0.3, 0.7], [-0.2, 1.1], [0.9, 0.05]]
    else:
        if framework == "lagrange":
            space, _, box = helpers.random_lagrange_scenario(rng, 2)
        else:
            space, _, box = helpers.random_multitime_scenario(rng, 2, 2)
        points = [[float(v) for v in point] for point in helpers.sample_box(rng, box, 3)]

    def at(coords):
        cj, ctx = dual.seed(list(coords))
        if space is None:
            T = [[e * cj[0] + cj[1] * cj[1] for e in row] for row in [[1.0, 0.5], [0.5, 2.0]]]
        else:
            T = eval_jets(space.g, cj, ctx)
        before = [helpers.coefficient_bits(e) for row in T for e in row]
        block = jet_block(T, 2)
        block_bits = block.tobytes()
        out = derivative(space, block, coords)
        assert [helpers.coefficient_bits(e) for row in T for e in row] == before
        assert block.tobytes() == block_bits
        return out

    scalars = [at(coords) for coords in points]
    assert all(one.dtype == float for one in scalars)
    _lanes_match_scalars(at([np.array(lane) for lane in zip(*points)]), scalars)


def test_levi_civita_derivative_rejects_a_greek_slot():
    space = helpers.flat_space(2)
    with pytest.raises(TensorError, match="^covariant derivative requires all-latin valence$"):
        helpers.levi_civita_derivative(lambda c: [[c[0], c[1]], [c[1], c[0]]],
                                       (Slot.LU, Slot.GD), space, [0.1, 0.2])


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
    space, state, box = helpers.random_multitime_scenario(rng, 2, 2)
    coords = [float(v) for v in helpers.sample_box(rng, box, 1)[0]]
    cj, ctx = dual.seed(coords)
    ops = _Derivatives(space, coords)
    g = eval_jets(space.g, cj, ctx)
    assert all(type(ops.delta_t(e, a)) is float and type(ops.delta_x(e, a)) is float
               for row in g for e in row for a in range(2))
    # the connection blocks take the partials of the stacked metric block
    fr = mt._Frame(state, space, coords)
    for block in (fr.L, fr.C):
        assert {type(v) for v in np.ravel(np.array(block, dtype=object))} == {float}
    hinv = [[1.0, 0.0], [0.0, 1.0]]
    u, u_low, eps = _velocity(space, coords, space.g(coords), hinv)
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


@pytest.mark.parametrize("config, lanes", [
    (BSML, False), (MULTITIME3, False), (BSML, True),
    *((config, lanes) for config in (POLAR, RIEMANN3, TANGENT, LAGRANGE3) for lanes in (False, True)),
])
def test_frame_stress_jets_equal_the_oracle(config, lanes):
    # the direct divergence differentiates the mixed stress built from the
    # frame's jets: evaluating every field and inverting h and g anew gives
    # the same coefficients, bit for bit, at each point and in a 12-lane batch
    scenario = build_scenario(config)
    state, space = scenario.state, scenario.space
    if scenario.framework == "riemann":
        def stress(coords):
            return common.mixed_stress_jets(riemann._Frame(state, space, scenario.em, coords))
        oracle = helpers.riemann_mixed_stress_field(state, space, scenario.em)
    elif scenario.framework == "lagrange":
        def stress(coords):
            return common.mixed_stress_jets(lagrange._Frame(state, space, coords))
        oracle = helpers.lagrange_mixed_stress_field(state, space)
    else:
        def stress(coords):
            return mt._mixed_stress(mt._Frame(state, space, coords))
        oracle = helpers.multitime_mixed_stress_field(state, space)
    points, _ = evaluation_points(scenario, count=12)
    for coords in [[np.array(c) for c in zip(*points)]] if lanes else points:
        got = stress(coords)
        want = eval_jets(oracle, *dual.seed(list(coords)))
        assert [[helpers.coefficient_bits(e) for e in row] for row in got] == \
               [[helpers.coefficient_bits(e) for e in row] for row in want]
