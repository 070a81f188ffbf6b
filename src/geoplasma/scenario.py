"""Scenario files: validation, and one scenario object per framework.

A scenario is a single JSON document.  Field expressions are strings in
the expression mini-language over the framework's coordinate names:
``x1..xn`` (base manifold), plus ``y1..yn`` on the tangent bundle, or
``t1..tp`` and ``x1_1..xn_p`` on the jet space.  Unknown keys are
rejected.  See the README for the full schema.  A scenario object
evaluates its framework at a point, or at a batch of points as lane
arrays through one split algorithm (:meth:`Scenario._evaluate`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass

from . import _numpy as np
from . import lagrange as lag, multitime as mt, riemann as rm
from .common import report_table
from .dual import scalar_value
from .errors import BatchSplit, ExprError, GeoPlasmaError, ScenarioError
from .lagrange import GeneralizedLagrangeSpace, LagrangeFluidState, canonical_nonlinear_connection
from .models import (
    STOCK_PARAMS,
    build_bsml,
    build_edml,
    build_grgml,
    build_rgogml,
    stock_metric,
)
from .multitime import MultiTimeFluidState, MultiTimeSpace
from .riemann import ElectromagneticPair, FluidState, SemiRiemannianSpace
from .tensor_core import (
    antisymmetric_field,
    christoffel_of,
    constant_field,
    metric_from_exprs,
    quadratic_form,
    scalar_field,
    triangle_values,
)
from .verify import lagrange_invariants, multitime_invariants, riemann_invariants

FRAMEWORKS = ("riemann", "lagrange", "multitime")
BATCH_POINTS = 256  # points per batch; its jet arrays grow with it
# Fewer points run one by one.  A lane batch costs about as much as 3-6
# one-point evaluations whatever its size, measured at B points (best of 9,
# the reports rows best of 27 on the shipped scenarios, report tables
# included; 2-core x86-64 VM; cost in one-point evaluations, speed-up in
# brackets):
#   callable               B = 2       B = 4       B = 8       B = 12      B = 16
#   riemann reports        2.8 (x0.7)  3.1 (x1.3)  3.2 (x2.5)  3.4 (x3.5)  3.3 (x4.8)
#   lagrange reports       2.8 (x0.7)  3.1 (x1.3)  3.0 (x2.7)  3.3 (x3.7)  3.2 (x5.0)
#   multitime reports      2.9 (x0.7)  3.1 (x1.3)  3.2 (x2.5)  3.2 (x3.8)  4.8 (x3.4)
#   multitime sheet_rows   5.6 (x0.4)  5.4 (x0.7)  5.9 (x1.3)  3.6 (x3.3)  5.3 (x3.0)
#   multitime invariants   3.2 (x0.6)  4.7 (x0.9)  3.8 (x2.1)  4.5 (x2.7)  3.1 (x5.2)
#   riemann invariants     2.6 (x0.8)  2.6 (x1.5)  2.6 (x3.0)  2.8 (x4.3)  2.7 (x5.9)
#   lagrange invariants    2.6 (x0.8)  2.8 (x1.4)  2.8 (x2.9)  2.7 (x4.4)  2.6 (x6.1)
# From 8 points on, every batched callable wins.
MIN_BATCH = 8

_TOP_KEYS = {
    "framework", "n", "p", "c", "model", "metric", "h_metric", "connection",
    "pressure", "density", "velocity", "em", "eval", "sheet",
}

# the jet-space models on a base metric phi, and the params each takes
_JET_MODEL_PARAMS = {
    "grgml": {"phi", "sigma"},
    "rgogml": {"phi", "refractive_index", "X"},
    "edml": {"phi", "U", "Phi"},
    "bsml": {"phi"},
}
_MODEL_NAMES = set(_JET_MODEL_PARAMS) | set(STOCK_PARAMS)


def coordinate_names(framework, n, p=None):
    if framework == "riemann":
        return [f"x{i + 1}" for i in range(n)]
    if framework == "lagrange":
        return [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    names = [f"t{a + 1}" for a in range(p)] + [f"x{i + 1}" for i in range(n)]
    for i in range(n):
        for a in range(p):
            names.append(f"x{i + 1}_{a + 1}")
    return names


def scenario_hash(raw_bytes):
    return hashlib.sha256(raw_bytes).hexdigest()


def _field(source, names, label):
    if not isinstance(source, str):
        raise ScenarioError(f"{label} must be an expression string")
    try:
        return scalar_field(source, names, label)
    except ExprError as err:
        raise ScenarioError(f"{label}: {err}") from err


def _check_keys(config, allowed, what):
    """Reject the keys of the object ``config`` that ``allowed`` does not hold."""
    unknown = set(config) - allowed
    if unknown:
        raise ScenarioError(f"unknown {what}: {sorted(unknown)}")


def _check_entries(rows, label):
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if not isinstance(entry, str):
                raise ScenarioError(
                    f"{label} row {i + 1} entry {j + 1} must be an expression string, "
                    f"got {entry!r}"
                )


def _metric_from_rows(dim, rows, names, label):
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(f"{label} needs {dim} upper-triangle rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim - i:
            raise ScenarioError(
                f"{label} row {i + 1} must list entries (i, i)..(i, {dim}); "
                f"expected {dim - i} entries, got {len(row) if isinstance(row, list) else 'non-list'}"
            )
    _check_entries(rows, label)
    try:
        return metric_from_exprs(rows, names, label)
    except ExprError as err:
        raise ScenarioError(f"{label}: {err}") from err


def _two_form_values(dim, rows, names, label):
    """The compiled strict-upper values of a two-form's rows."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(
            f"{label} needs {dim} strictly-upper rows (row i lists entries j > i); "
            "a full square matrix is not accepted, antisymmetry is implied"
        )
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim - i - 1:
            raise ScenarioError(
                f"{label} row {i + 1} must have {dim - i - 1} entries, got "
                f"{len(row) if isinstance(row, list) else 'non-list'}"
            )
    _check_entries(rows, label)
    try:
        return triangle_values(rows, names, label)
    except ExprError as err:
        raise ScenarioError(f"{label}: {err}") from err


def _spatial_metric(config, n, names, label="metric"):
    """Spatial metric from a model name or inline rows (over ``names``)."""
    if isinstance(config, dict):
        _check_keys(config, {"name", "params"}, f"'{label}' keys")
        name = config.get("name")
        if not isinstance(name, str) or name not in STOCK_PARAMS:
            raise ScenarioError(f"{label}: unknown stock metric {name!r}")
        return stock_metric(name, n, names, config.get("params"), label)
    return _metric_from_rows(n, config, names, label)


@dataclass
class Scenario:
    """A validated scenario and the point evaluations of its framework.

    A point is a flat list of plain floats in ``names`` order.  Each
    framework subclass evaluates ``report``, ``invariants`` and
    ``connection`` (block name -> (float array, index-order label)) at a
    point; the stream commands a framework lacks raise here.  ``report``
    and ``invariants`` also run on a batch of points, coordinates that are
    lane arrays with one lane per point, as :meth:`_evaluate` runs them.
    """

    n: int
    names: list
    space: object
    state: object
    eval_spec: dict

    hash = ""  # sha256 of the scenario file, set by load_scenario

    def reports(self, points):
        """(labels, values) of the report at each point, as :func:`report_table`
        gives them, or the GeoPlasmaError its evaluation raised."""
        def table(coords):
            labels, rows = report_table(self.report(coords), np.ndim(coords[0]) > 0)
            return [(labels, row) for row in rows]

        return self._evaluate(points, table)

    def invariant_suites(self, points):
        """The invariant suite at each point, or the GeoPlasmaError its evaluation raised."""
        def suites(coords):
            suite = self.invariants(coords)
            per_lane = zip(*(np.atleast_1d(v).tolist() for v in suite.values()), strict=True)
            return [OrderedDict(zip(suite, values)) for values in per_lane]

        return self._evaluate(points, suites)

    def _evaluate(self, points, rows):
        """The result at each point, or the GeoPlasmaError its evaluation raised.

        ``rows(coords)`` returns one result per lane of lane coordinates, or
        ``[result]`` at a point of plain floats; chunks of BATCH_POINTS points
        run through :meth:`_batch`.
        """
        for start in range(0, len(points), BATCH_POINTS):
            yield from self._batch(points[start:start + BATCH_POINTS], rows)

    def _batch(self, points, rows):
        """Results of a batch, from one evaluation with a lane per point.  Points
        that disagree on a condition run as two batches, split by it; a batch
        that fails or overflows otherwise, and one of fewer than MIN_BATCH
        points, runs point by point."""
        lanes = None
        if len(points) >= MIN_BATCH:
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    return rows(_lane_coords(points))
            except BatchSplit as split:
                lanes = split.lanes
            except (GeoPlasmaError, ArithmeticError):
                pass
        if lanes is None:
            return [_one_point(rows, coords) for coords in points]
        out = {}
        for side in (lanes, ~lanes):  # past the handler: the failed batch is freed
            picked = np.flatnonzero(side).tolist()
            out.update(zip(picked, self._batch([points[k] for k in picked], rows)))
        return [out[k] for k in range(len(points))]

    def stream_line(self, x0, v0, step, count):
        """(monitor column names, rows [s, x, dx/ds, monitors]) of an RK4 stream
        line, as lists of Python floats."""
        raise ScenarioError("streamline requires the riemann or lagrange framework")

    def sheet_columns(self, coefficients):
        """Names of the residual columns of a stream-sheet scan."""
        raise ScenarioError("streamsheet requires the multitime framework")


@dataclass
class RiemannScenario(Scenario):
    em: object

    framework = "riemann"

    def report(self, coords):
        return rm.riemann_report(self.state, self.space, self.em, coords)

    def invariants(self, coords):
        return riemann_invariants(self.state, self.space, self.em, coords)

    def connection(self, coords):
        return {"gamma": (rm.christoffel(self.space, coords), "gamma[i][j][k], upper index first")}

    def stream_line(self, x0, v0, step, count):
        phi = self.space.phi
        rows = rm.integrate_stream_line(
            self.state, self.space, self.em, x0, v0, step, count,
            [lambda x, v: float(np.array(v) @ np.array(phi(x)) @ np.array(v))])
        return ["velocity_norm"], rows


class LagrangeScenario(Scenario):
    framework = "lagrange"

    def report(self, coords):
        return lag.lagrange_residuals(self.state, self.space, coords)

    def invariants(self, coords):
        return lagrange_invariants(self.state, self.space, coords)

    def connection(self, coords):
        L, C = lag.cartan_connection(self.space, coords)
        return {"L": (L, "L[i][j][k], upper index first"),
                "C": (C, "C[i][j][k], upper index first")}

    def stream_line(self, x0, v0, step, count):
        g = self.space.g
        rows = lag.integrate_h_stream_line(
            self.state, self.space, x0, v0, step, count,
            [lambda x, v: float(scalar_value(quadratic_form(g(x + v), v, v)))])
        return ["vertical_constraint_norm", "velocity_norm"], rows


@dataclass
class MultitimeScenario(Scenario):
    p: int
    sheet_spec: object
    sheet_fields: object  # the compiled sheet.x, or None
    bsml: bool  # the bsml model, whose G and C blocks vanish

    framework = "multitime"

    def report(self, coords):
        return mt.multitime_residuals(self.state, self.space, coords)

    def invariants(self, coords):
        return multitime_invariants(self.state, self.space, coords, bsml=self.bsml)

    def connection(self, coords):
        labels = ("kappa[gamma][alpha][beta]", "G[k][j][gamma]", "L[i][j][k]", "C[i][j][k][gamma]")
        blocks = zip(mt.cartan_gamma(self.space, coords), labels)
        return dict(zip(("kappa", "G", "L", "C"), blocks))

    def sheet_columns(self, coefficients):
        p, n = self.p, self.n
        names = [f"horizontal_{k + 1}" for k in range(n)] + ["horizontal_norm"]
        names += [f"vertical_{k + 1}{mu + 1}" for k in range(n) for mu in range(p)]
        names += ["vertical_norm"]
        if coefficients:
            names += [f"H_{m + 1}" for m in range(n)]
            names += [f"V_{m + 1}{mu + 1}" for m in range(n) for mu in range(p)]
        return names

    def sheet_rows(self, nodes, coefficients):
        """Values of :meth:`sheet_columns` at each jet point of the sheet, or the
        GeoPlasmaError their evaluation raised; the nodes run in batches like
        riemann points."""
        return self._evaluate(nodes, lambda coords: self._sheet_values(coords, coefficients))

    def _sheet_values(self, coords, coefficients):
        """Rows of :meth:`sheet_columns` values, one per lane when the
        coordinates are lane arrays, or one row."""
        n, nv, size = self.n, self.n * self.p, np.size(coords[0])
        parts = mt.stream_sheet_residuals(self.state, self.space, coords, coefficients)
        h, v, *coeffs = (np.broadcast_to(np.reshape(a, (k, -1)), (k, size))
                         for a, k in zip(parts, (n, nv, n, nv)))
        norms = [np.abs(a).max(axis=0, keepdims=True) for a in (h, v)]
        return np.concatenate([h, norms[0], v, norms[1], *coeffs]).T.tolist()


def _lane_coords(points):
    """The coordinates of a batch of points: one lane array each, one lane per point."""
    return [np.array(lane) for lane in zip(*points)]


def _one_point(rows, coords):
    """``rows(coords)[0]``, or the GeoPlasmaError it raised."""
    try:
        return rows(coords)[0]
    except GeoPlasmaError as err:
        err.__traceback__ = err.__context__ = None  # hold no frames of the point
        return err


def load_scenario(path):
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    try:
        raw = json.loads(raw_bytes)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise ScenarioError(f"scenario {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    scenario = build_scenario(raw)
    scenario.hash = scenario_hash(raw_bytes)
    return scenario


def build_scenario(raw):
    _check_keys(raw, _TOP_KEYS, "scenario keys")
    framework = raw.get("framework")
    if framework not in FRAMEWORKS:
        raise ScenarioError(f"framework must be one of {FRAMEWORKS}, got {framework!r}")
    n = raw.get("n")
    if not isinstance(n, int) or not 1 <= n <= 8:
        raise ScenarioError("n must be an integer in 1..8")
    p = raw.get("p", 1)
    if framework == "multitime":
        if not isinstance(p, int) or not 1 <= p <= 2:
            raise ScenarioError("p must be 1 or 2 for the multitime framework")
    elif "p" in raw:
        raise ScenarioError("key 'p' is only valid for the multitime framework")
    c = raw.get("c", 1.0)
    try:
        valid = isinstance(c, (int, float)) and c > 0 and 0 < float(c) ** 2 < math.inf
    except OverflowError:
        valid = False
    if not valid:
        raise ScenarioError(f"c must be a positive number with a finite, nonzero square, got {c!r}")
    c = float(c)

    names = coordinate_names(framework, n, p)
    if "pressure" not in raw or "density" not in raw:
        raise ScenarioError("scenario needs 'pressure' and 'density' expressions")
    pressure = _field(raw["pressure"], names, "pressure")
    density = _field(raw["density"], names, "density")
    em_H, em_G = _parse_em(raw.get("em"), n, names)

    eval_spec = raw.get("eval", {})
    if not isinstance(eval_spec, dict):
        raise ScenarioError("'eval' must be an object")
    _check_keys(eval_spec, {"points", "box", "count", "seed", "grid"}, "eval keys")

    sheet_spec = raw.get("sheet")
    if sheet_spec is not None and framework != "multitime":
        raise ScenarioError("key 'sheet' is only valid for the multitime framework")

    model_name = None
    if "model" in raw:
        model = raw["model"]
        if not isinstance(model, dict) or "name" not in model:
            raise ScenarioError("'model' must be an object with a 'name'")
        _check_keys(model, {"name", "params"}, "model keys")
        model_name = model["name"]
        if not isinstance(model_name, str) or model_name not in _MODEL_NAMES:
            raise ScenarioError(
                f"'model.name' must be one of {sorted(_MODEL_NAMES)}, got {model_name!r}"
            )

    if framework == "riemann":
        space = SemiRiemannianSpace(n, _base_metric(raw, n, names, "riemann"))
        if "velocity" not in raw:
            raise ScenarioError("riemann scenarios need a 'velocity' expression list")
        vel = raw["velocity"]
        if not isinstance(vel, list) or len(vel) != n:
            raise ScenarioError(f"'velocity' must list {n} expressions")
        velocity = tuple(_field(v, names, f"velocity[{i}]") for i, v in enumerate(vel))
        state = FluidState(pressure, density, c, velocity)
        em = ElectromagneticPair(em_H, em_G)
        if "connection" in raw or "h_metric" in raw:
            raise ScenarioError("'connection'/'h_metric' are not riemann keys")
        return RiemannScenario(n, names, space, state, eval_spec, em)

    if "velocity" in raw:
        raise ScenarioError("'velocity' is only valid for the riemann framework")

    if framework == "lagrange":
        g = _base_metric(raw, n, names, "lagrange")
        space = GeneralizedLagrangeSpace(n, g, _connection_lagrange(raw, g, n, names))
        state = LagrangeFluidState(pressure, density, c, em_H, em_G)
        if "h_metric" in raw:
            raise ScenarioError("'h_metric' is not a lagrange key")
        return LagrangeScenario(n, names, space, state, eval_spec)

    space = _build_multitime_space(raw, n, p, names)
    state = MultiTimeFluidState(pressure, density, c, em_H, em_G)
    return MultitimeScenario(n, names, space, state, eval_spec, p, sheet_spec,
                             _sheet_fields(sheet_spec, n, p, names), model_name == "bsml")


def _sheet_fields(spec, n, p, names):
    """The compiled ``sheet.x`` of a sheet block, None where it has none."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ScenarioError("'sheet' must be an object")
    _check_keys(spec, {"x", "grid"}, "sheet keys")
    exprs = spec.get("x")
    if exprs is not None and (not isinstance(exprs, list) or len(exprs) != n):
        raise ScenarioError(f"'sheet.x' must list {n} expressions over t1..t{p}")
    fields = None if exprs is None else [
        _field(e, names[:p], f"sheet.x[{i}]") for i, e in enumerate(exprs)]
    _box_spec(spec.get("grid"), p, True, "sheet.grid")  # streamsheet checks its node count
    return fields


def _parse_em(config, n, names):
    if config is None:
        zero = constant_field([0.0] * (n * (n - 1) // 2))
        return antisymmetric_field(n, zero), antisymmetric_field(n, zero)
    if not isinstance(config, dict):
        raise ScenarioError("'em' must be an object with 'H' and optionally 'G'")
    _check_keys(config, {"H", "G"}, "em keys")
    if "H" not in config:
        raise ScenarioError("'em' needs an 'H' entry")
    H = _two_form_values(n, config["H"], names, "em.H")
    g_cfg = config.get("G", "self-dual")
    if g_cfg == "self-dual":
        G = lambda coords: [-v for v in H(coords)]
    else:
        G = _two_form_values(n, g_cfg, names, "em.G")
    return antisymmetric_field(n, H), antisymmetric_field(n, G)


def _base_metric(raw, n, names, framework):
    """The metric of a stock ``model`` or of inline ``metric`` rows."""
    if "model" in raw:
        name = raw["model"]["name"]
        if name not in STOCK_PARAMS:
            raise ScenarioError(f"model {name!r} is not available for the {framework} framework")
        return stock_metric(name, n, names, raw["model"].get("params"))
    if "metric" not in raw:
        raise ScenarioError(f"{framework} scenarios need 'metric' or 'model'")
    return _metric_from_rows(n, raw["metric"], names, "metric")


def _is_matrix(config, rows, cols):
    return isinstance(config, list) and len(config) == rows and all(
        isinstance(row, list) and len(row) == cols for row in config)


def _field_matrix(config, names, label):
    """A field of the values of a matrix of expression strings; entry [i][j]
    is labelled ``label[i][j]``."""
    fields = [[_field(e, names, f"{label}[{i}][{j}]") for j, e in enumerate(row)]
              for i, row in enumerate(config)]
    return lambda coords: [[f(coords) for f in row] for row in fields]


def _connection_lagrange(raw, g, n, names):
    config = raw.get("connection", "canonical")
    if config == "canonical":
        return canonical_nonlinear_connection(g, n)
    if config == "zero":
        return constant_field([[0.0] * n for _ in range(n)])
    if not _is_matrix(config, n, n):
        raise ScenarioError("'connection' must be 'canonical', 'zero' or an n x n expression matrix")
    return _field_matrix(config, names, "connection")


def _connection_multitime(raw, g, p, n, names):
    config = raw.get("connection", "canonical")
    if config == "canonical":
        # generalized Christoffel symbols of g in the spatial directions
        return mt.canonical_connection(
            lambda coords: christoffel_of(g, coords, seeds=range(p, p + n), point=coords), p, n)
    if config == "zero":
        return constant_field([[[0.0] * n for _ in range(p)] for _ in range(n)])
    if not isinstance(config, list) or len(config) != n:
        raise ScenarioError(
            "'connection' must be 'canonical', 'zero' or an n x p x n expression array"
        )
    planes = []
    for i, plane in enumerate(config):  # plane i compiles before plane i + 1 is checked
        if not _is_matrix(plane, p, n):
            raise ScenarioError(f"connection[{i}] must be a p x n expression matrix")
        planes.append(_field_matrix(plane, names, f"connection[{i}]"))
    return lambda coords: [plane(coords) for plane in planes]


def _build_multitime_space(raw, n, p, names):
    tnames = names[:p]
    xnames = names[p:p + n]
    if "h_metric" not in raw:
        raise ScenarioError("multitime scenarios need 'h_metric'")
    h = _metric_from_rows(p, raw["h_metric"], tnames, "h_metric")
    model = raw.get("model", {})
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("model 'params' must be an object")
    name = model.get("name")
    if name not in _JET_MODEL_PARAMS:
        g = _base_metric(raw, n, names, "multitime")
        return MultiTimeSpace(p, n, h, g, _connection_multitime(raw, g, p, n, names))
    _check_keys(params, _JET_MODEL_PARAMS[name], f"params for model {name!r}")
    if "phi" not in params:
        raise ScenarioError(f"model {name!r} needs a 'phi' base metric")
    phi = _spatial_metric(params["phi"], n, xnames, "model.params.phi")
    if "connection" in raw and raw["connection"] != "canonical":
        raise ScenarioError(f"model {name!r} fixes its own connection")
    if name == "bsml":
        return build_bsml(h, phi, p, n)
    if name == "grgml":
        if "sigma" not in params:
            raise ScenarioError("grgml needs a 'sigma' expression")
        return build_grgml(h, _field(params["sigma"], names, "sigma"), phi, p, n)
    if name == "rgogml":
        for key in ("refractive_index", "X"):
            if key not in params:
                raise ScenarioError(f"rgogml needs {key!r}")
        X = params["X"]
        if not isinstance(X, list) or len(X) != p:
            raise ScenarioError(f"'X' must list {p} expressions over t")
        return build_rgogml(
            h, phi,
            _field(params["refractive_index"], names, "refractive_index"),
            [_field(x, tnames, f"X[{mu}]") for mu, x in enumerate(X)],
            p, n,
        )
    # edml
    U = params.get("U")
    if not _is_matrix(U, n, p):
        raise ScenarioError("'U' must be an n x p expression matrix over (t, x)")
    Phi = params.get("Phi", "0")
    return build_edml(
        h, phi,
        [[_field(U[i][a], names, f"U[{i}][{a}]") for a in range(p)] for i in range(n)],
        _field(Phi, names, "Phi"),
        p, n,
    )


def evaluation_points(scenario, seed=None, count=None):
    """Evaluation coordinates from the scenario's eval block.

    Returns (points, seed_used); the seed is recorded in outputs for
    reproducibility.  Explicit points must be finite and match the
    coordinate dimension; box sampling draws uniformly with the given
    non-negative 64-bit seed; a grid spec produces the lattice nodes in
    row-major order.
    """
    spec = scenario.eval_spec
    dim = len(scenario.names)
    if "points" in spec:
        pts = spec["points"]
        if not isinstance(pts, list) or not pts:
            raise ScenarioError("'eval.points' must be a non-empty list")
        for pt in pts:
            if not isinstance(pt, list) or len(pt) != dim:
                raise ScenarioError(
                    f"evaluation points must have {dim} coordinates ({scenario.names})"
                )
        try:
            points = [list(map(float, pt)) for pt in pts]
        except (TypeError, ValueError, OverflowError) as err:
            raise ScenarioError(f"'eval.points' coordinates must be numbers: {err}") from None
        if not all(math.isfinite(c) for pt in points for c in pt):
            raise ScenarioError("'eval.points' coordinates must be finite")
        return points, 0
    if "grid" in spec:
        grid = spec["grid"]
        lo, hi, shape = _box_spec(grid, dim, True, "eval.grid")
        axes = [np.linspace(lo[i], hi[i], shape[i]).tolist() for i in range(dim)]
        pts = [list(xs) for xs in itertools.product(*axes)]
        return pts, 0
    if "box" in spec:
        lo, hi, _ = _box_spec(spec["box"], dim, False, "eval.box")
        used_seed = seed if seed is not None else spec.get("seed", 0)
        used_count = count if count is not None else spec.get("count", 20)
        try:
            used_seed, used_count = int(used_seed), int(used_count)
        except (TypeError, ValueError, OverflowError) as err:
            raise ScenarioError(f"eval seed and count must be integers: {err}") from None
        if used_seed < 0:
            raise ScenarioError(
                f"sampling seed (--seed or 'eval.seed') must not be negative, got {used_seed}"
            )
        if used_count < 1:
            raise ScenarioError("eval count must be positive")
        rng = np.random.default_rng(used_seed)
        return rng.uniform(lo, hi, size=(used_count, dim)).tolist(), used_seed
    raise ScenarioError("'eval' needs 'points', 'box' or 'grid'")


def _box_spec(config, dim, need_shape, label):
    """(min, max, shape) of the box or grid object ``label`` names."""
    if not isinstance(config, dict):
        raise ScenarioError(f"'{label}' must be an object")
    _check_keys(config, {"min", "max"} | ({"shape"} if need_shape else set()), f"'{label}' keys")
    try:
        lo = [float(v) for v in config["min"]]
        hi = [float(v) for v in config["max"]]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScenarioError(f"'{label}' needs numeric 'min'/'max' lists: {err}") from err
    if len(lo) != dim or len(hi) != dim:
        raise ScenarioError(f"'{label}' bounds must have {dim} coordinates")
    if not all(math.isfinite(h - l) for l, h in zip(lo, hi)):
        raise ScenarioError(f"'{label}' bounds and their spans must be finite")
    if any(h <= l for l, h in zip(lo, hi)):
        raise ScenarioError(f"'{label}' max must exceed min in every coordinate")
    shape = None
    if need_shape:
        shape = config.get("shape")
        if not isinstance(shape, list) or len(shape) != dim or any(
            not isinstance(s, int) or s < 1 for s in shape
        ):
            raise ScenarioError(f"'{label}.shape' must list {dim} positive integers")
    return np.array(lo), np.array(hi), shape


def sheet_axes_and_values(scenario, refine=1, from_file=False):
    """Expression sheet evaluated on its grid: (axes, values array, fields).

    ``refine`` multiplies the node count per axis (shape 2k-1 for a
    doubling) so convergence studies reuse one scenario.  With
    ``from_file`` a sheet file gives the values: ``sheet.x`` may be absent
    (fields None) and is not evaluated (values None).
    """
    spec, fields = scenario.sheet_spec, scenario.sheet_fields
    if spec is None:
        raise ScenarioError("scenario has no 'sheet' block")
    if fields is None and not from_file:
        raise ScenarioError("the sheet needs 'sheet.x' expressions or a --sheet-file")
    p, n = scenario.p, scenario.n
    lo, hi, shape = _box_spec(spec.get("grid"), p, True, "sheet.grid")
    shape = [(s - 1) * refine + 1 for s in shape]
    if any(s < 3 for s in shape):
        raise ScenarioError("sheet grid needs at least 3 nodes per axis")
    axes = tuple(np.linspace(lo[a], hi[a], shape[a]) for a in range(p))
    if from_file:
        return axes, None, fields
    values = np.empty(tuple(shape) + (n,))
    for idx in np.ndindex(*shape):
        t = [float(axes[a][idx[a]]) for a in range(p)]
        values[idx] = [f(t) for f in fields]
    return axes, values, fields
