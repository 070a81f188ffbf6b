"""Scenario files: validation, and one scenario object per framework.

A scenario is a single JSON document.  Field expressions are strings in
the expression mini-language over the framework's coordinate names:
``x1..xn`` (base manifold), plus ``y1..yn`` on the tangent bundle, or
``t1..tp`` and ``x1_1..xn_p`` on the jet space.  Unknown keys are
rejected.  See the README for the full schema.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import lagrange as lag, multitime as mt, riemann as rm
from .dual import scalar_value
from .errors import BatchSplit, ExprError, GeoPlasmaError, ScenarioError
from .lagrange import (
    GeneralizedLagrangeSpace,
    LagrangeFluidState,
    canonical_nonlinear_connection,
    zero_connection,
)
from .models import (
    build_bsml,
    build_edml,
    build_grgml,
    build_rgogml,
    stock_metric,
)
from .multitime import MultiTimeFluidState, MultiTimeSpace, fiber_index, zero_jet_connection
from .riemann import ElectromagneticPair, FluidState, SemiRiemannianSpace
from .tensor_core import MetricField, TwoFormField, christoffel_of, quadratic_form, scalar_field
from .verify import lagrange_invariants, multitime_invariants, riemann_invariants

FRAMEWORKS = ("riemann", "lagrange", "multitime")
BATCH_POINTS = 256  # points per batch; its jet arrays grow with it
# Fewer points run one by one.  A lane batch costs about as much as 3-6
# one-point evaluations whatever its size, measured at B points (best of 9,
# 2-core x86-64 VM; cost in one-point evaluations, speed-up in brackets):
#   callable               B = 2       B = 4       B = 8       B = 12      B = 16
#   riemann reports        3.7 (x0.5)  3.6 (x1.1)  4.4 (x1.8)  4.3 (x2.8)  4.0 (x4.0)
#   multitime sheet_rows   5.6 (x0.4)  5.4 (x0.7)  5.9 (x1.3)  3.6 (x3.3)  5.3 (x3.0)
#   multitime invariants   3.2 (x0.6)  4.7 (x0.9)  3.8 (x2.1)  4.5 (x2.7)  3.1 (x5.2)
# From 8 points on, every batched callable wins.
MIN_BATCH = 8

_TOP_KEYS = {
    "framework", "n", "p", "c", "model", "metric", "h_metric", "connection",
    "pressure", "density", "velocity", "em", "eval", "sheet",
}

_STOCK_NAMES = {"flat", "polar", "conformal"}
_MODEL_NAMES = {"grgml", "rgogml", "edml", "bsml"} | _STOCK_NAMES


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
        return MetricField.from_exprs(dim, rows, names, label)
    except ExprError as err:
        raise ScenarioError(f"{label}: {err}") from err


def _two_form_from_rows(dim, rows, names, label):
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
        return TwoFormField.from_exprs(dim, rows, names, label)
    except ExprError as err:
        raise ScenarioError(f"{label}: {err}") from err


def _spatial_metric(config, n, names, label="metric"):
    """Spatial metric from a model name or inline rows (over ``names``)."""
    if isinstance(config, dict):
        name = config.get("name")
        if not isinstance(name, str) or name not in _STOCK_NAMES:
            raise ScenarioError(f"{label}: unknown stock metric {name!r}")
        return stock_metric(name, n, names, config.get("params"), label)
    return _metric_from_rows(n, config, names, label)


@dataclass
class Scenario:
    """A validated scenario and the point evaluations of its framework.

    A point is a flat list of plain floats in ``names`` order.  Each
    framework subclass evaluates ``report``, ``invariants`` and
    ``connection`` (block name -> (float array, index-order label)) at a
    point; the stream commands a framework lacks raise here.  A framework
    whose reports or invariant suites run as a batch, one lane per point,
    sets ``_batch_reports`` or ``_batch_invariants``.
    """

    n: int
    names: list
    space: object
    state: object
    eval_spec: dict

    hash = ""  # sha256 of the scenario file, set by load_scenario
    _batch_reports = None
    _batch_invariants = None

    def reports(self, points):
        """The report at each point, or the GeoPlasmaError its evaluation raised."""
        return self._evaluate(points, self.report, self._batch_reports)

    def invariant_suites(self, points):
        """The invariant suite at each point, or the GeoPlasmaError its evaluation raised."""
        return self._evaluate(points, self.invariants, self._batch_invariants)

    def _evaluate(self, points, one, batched):
        """``one(point)`` at each point, or the GeoPlasmaError it raised.

        ``batched``, when given, returns the results of a list of points from
        one evaluation with one lane per point; chunks of BATCH_POINTS points
        run through :meth:`_batch`.
        """
        for start in range(0, len(points), BATCH_POINTS):
            yield from self._batch(points[start:start + BATCH_POINTS], one, batched)

    def _batch(self, points, one, batched):
        """Results of a batch.  Points that disagree on a condition run as two
        batches, split by it; a batch that fails or overflows otherwise, and
        one of fewer than MIN_BATCH points, runs point by point."""
        lanes = None
        if batched is not None and len(points) >= MIN_BATCH:
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    return batched(points)
            except BatchSplit as split:
                lanes = split.lanes
            except (GeoPlasmaError, ArithmeticError):
                pass
        if lanes is None:
            return [_one_point(one, coords) for coords in points]
        out = {}
        for side in (lanes, ~lanes):  # past the handler: the failed batch is freed
            picked = np.flatnonzero(side).tolist()
            out.update(zip(picked, self._batch([points[k] for k in picked], one, batched)))
        return [out[k] for k in range(len(points))]

    def stream_line(self, x0, v0, step, count):
        """(monitor column names, rows [s, x, dx/ds, monitors]) of an RK4 stream line."""
        raise ScenarioError("streamline requires the riemann or lagrange framework")

    def sheet_columns(self, coefficients):
        """Names of the residual columns of a stream-sheet scan."""
        raise ScenarioError("streamsheet requires the multitime framework")

    def _with_norm(self, rows, norm):
        """Integrator rows with the velocity norm ``norm(x, dx/ds)`` appended."""
        n = self.n
        return [list(row) + [norm(row[1:1 + n].tolist(), row[1 + n:1 + 2 * n].tolist())]
                for row in rows]


@dataclass
class RiemannScenario(Scenario):
    em: object

    framework = "riemann"

    def report(self, coords):
        return rm.riemann_report(self.state, self.space, self.em, coords)

    def _batch_reports(self, points):
        return rm.riemann_reports(self.state, self.space, self.em, points)

    def invariants(self, coords):
        return riemann_invariants(self.state, self.space, self.em, coords)

    def connection(self, coords):
        return {"gamma": (rm.christoffel(self.space, coords), "gamma[i][j][k], upper index first")}

    def stream_line(self, x0, v0, step, count):
        phi = self.space.phi
        rows = rm.integrate_stream_line(self.state, self.space, self.em, x0, v0, step, count)
        return ["velocity_norm"], self._with_norm(
            rows, lambda x, v: float(np.array(v) @ np.array(phi.matrix(x)) @ np.array(v))
        )


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
        rows = lag.integrate_h_stream_line(self.state, self.space, x0, v0, step, count)
        return ["vertical_constraint_norm", "velocity_norm"], self._with_norm(
            rows, lambda x, v: float(scalar_value(quadratic_form(g.matrix(x + v), v, v)))
        )


@dataclass
class MultitimeScenario(Scenario):
    p: int
    sheet_spec: object
    bsml: bool  # the bsml model, whose G and C blocks vanish

    framework = "multitime"

    def report(self, coords):
        return mt.multitime_residuals(self.state, self.space, coords)

    def invariants(self, coords):
        return multitime_invariants(self.state, self.space, coords, bsml=self.bsml)

    def _batch_invariants(self, points):
        suite = multitime_invariants(self.state, self.space,
                                     [np.array(lane) for lane in zip(*points)], bsml=self.bsml)
        per_lane = zip(*(value.tolist() for value in suite.values()))
        return [OrderedDict(zip(suite, values)) for values in per_lane]

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

    def sheet_row(self, coords, coefficients):
        """Values of :meth:`sheet_columns` at one jet point of the sheet."""
        return self._sheet_values(coords, coefficients, 1)[0]

    def sheet_rows(self, nodes, coefficients):
        """:meth:`sheet_row` at each jet point, or the GeoPlasmaError it raised;
        the nodes run in batches like riemann points."""
        return self._evaluate(
            nodes,
            lambda coords: self.sheet_row(coords, coefficients),
            lambda batch: self._sheet_values(
                [np.array(lane) for lane in zip(*batch)], coefficients, len(batch)),
        )

    def _sheet_values(self, coords, coefficients, size):
        """Rows of :meth:`sheet_columns` values at ``size`` jet points, one lane
        each when the coordinates are lane arrays."""
        n, nv = self.n, self.n * self.p
        parts = mt.stream_sheet_residuals(self.state, self.space, coords, coefficients)
        h, v, *coeffs = (np.broadcast_to(np.reshape(a, (k, -1)), (k, size))
                         for a, k in zip(parts, (n, nv, n, nv)))
        norms = [np.abs(a).max(axis=0, keepdims=True) for a in (h, v)]
        return np.concatenate([h, norms[0], v, norms[1], *coeffs]).T.tolist()


def _one_point(one, coords):
    """``one(coords)``, or the GeoPlasmaError it raised."""
    try:
        return one(coords)
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
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
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
    unknown = set(eval_spec) - {"points", "box", "count", "seed", "grid"}
    if unknown:
        raise ScenarioError(f"unknown eval keys: {sorted(unknown)}")

    sheet_spec = raw.get("sheet")
    if sheet_spec is not None and framework != "multitime":
        raise ScenarioError("key 'sheet' is only valid for the multitime framework")

    model_name = None
    if "model" in raw:
        model = raw["model"]
        if not isinstance(model, dict) or "name" not in model:
            raise ScenarioError("'model' must be an object with a 'name'")
        unknown = set(model) - {"name", "params"}
        if unknown:
            raise ScenarioError(f"unknown model keys: {sorted(unknown)}")
        model_name = model["name"]
        if not isinstance(model_name, str) or model_name not in _MODEL_NAMES:
            raise ScenarioError(
                f"'model.name' must be one of {sorted(_MODEL_NAMES)}, got {model_name!r}"
            )

    if framework == "riemann":
        space = _build_riemann_space(raw, n, names)
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
        space = _build_lagrange_space(raw, n, names)
        state = LagrangeFluidState(pressure, density, c, em_H, em_G)
        if "h_metric" in raw:
            raise ScenarioError("'h_metric' is not a lagrange key")
        return LagrangeScenario(n, names, space, state, eval_spec)

    space = _build_multitime_space(raw, n, p, names)
    state = MultiTimeFluidState(pressure, density, c, em_H, em_G)
    return MultitimeScenario(n, names, space, state, eval_spec, p, sheet_spec,
                             model_name == "bsml")


def _parse_em(config, n, names):
    if config is None:
        return TwoFormField.zero(n), TwoFormField.zero(n)
    if not isinstance(config, dict):
        raise ScenarioError("'em' must be an object with 'H' and optionally 'G'")
    unknown = set(config) - {"H", "G"}
    if unknown:
        raise ScenarioError(f"unknown em keys: {sorted(unknown)}")
    if "H" not in config:
        raise ScenarioError("'em' needs an 'H' entry")
    H = _two_form_from_rows(n, config["H"], names, "em.H")
    g_cfg = config.get("G", "self-dual")
    if g_cfg == "self-dual":
        G = H.negated()
    else:
        G = _two_form_from_rows(n, g_cfg, names, "em.G")
    return H, G


def _build_riemann_space(raw, n, names):
    if "model" in raw:
        model = raw["model"]
        if model["name"] not in _STOCK_NAMES:
            raise ScenarioError(
                f"model {model['name']!r} is not available for the riemann framework"
            )
        phi = stock_metric(model["name"], n, names, model.get("params"))
    elif "metric" in raw:
        phi = _metric_from_rows(n, raw["metric"], names, "metric")
    else:
        raise ScenarioError("riemann scenarios need 'metric' or 'model'")
    return SemiRiemannianSpace(n, phi)


def _connection_lagrange(raw, g, n, names):
    config = raw.get("connection", "canonical")
    if config == "canonical":
        return canonical_nonlinear_connection(g, n)
    if config == "zero":
        return zero_connection(n)
    if not isinstance(config, list) or len(config) != n or any(
        not isinstance(row, list) or len(row) != n for row in config
    ):
        raise ScenarioError("'connection' must be 'canonical', 'zero' or an n x n expression matrix")
    fields = [
        [_field(config[i][j], names, f"connection[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]

    def fn(coords):
        return [[f(coords) for f in row] for row in fields]

    return fn


def _build_lagrange_space(raw, n, names):
    if "model" in raw:
        model = raw["model"]
        if model["name"] not in _STOCK_NAMES:
            raise ScenarioError(
                f"model {model['name']!r} is not available for the lagrange framework"
            )
        g = stock_metric(model["name"], n, names, model.get("params"))
    elif "metric" in raw:
        g = _metric_from_rows(n, raw["metric"], names, "metric")
    else:
        raise ScenarioError("lagrange scenarios need 'metric' or 'model'")
    return GeneralizedLagrangeSpace(n, g, _connection_lagrange(raw, g, n, names))


def _connection_multitime(raw, g, p, n, names):
    config = raw.get("connection", "canonical")
    if config == "zero":
        return zero_jet_connection(p, n)
    if config == "canonical":
        # generalized Christoffel symbols of g in the spatial directions,
        # contracted with the fiber coordinates
        def fn(coords):
            gamma = christoffel_of(g, coords, seeds=range(p, p + n))
            out = [[[0.0] * n for _ in range(p)] for _ in range(n)]
            for i in range(n):
                for a in range(p):
                    for j in range(n):
                        out[i][a][j] = sum(
                            gamma[i][j][m] * coords[fiber_index(p, n, m, a)]
                            for m in range(n)
                        )
            return out

        return fn
    if not isinstance(config, list) or len(config) != n:
        raise ScenarioError(
            "'connection' must be 'canonical', 'zero' or an n x p x n expression array"
        )
    fields = []
    for i, plane in enumerate(config):
        if not isinstance(plane, list) or len(plane) != p or any(
            not isinstance(row, list) or len(row) != n for row in plane
        ):
            raise ScenarioError(f"connection[{i}] must be a p x n expression matrix")
        fields.append([
            [_field(plane[a][j], names, f"connection[{i}][{a}][{j}]") for j in range(n)]
            for a in range(p)
        ])

    def fn(coords):
        return [[[f(coords) for f in row] for row in plane] for plane in fields]

    return fn


def _build_multitime_space(raw, n, p, names):
    tnames = names[:p]
    xnames = names[p:p + n]
    if "h_metric" not in raw:
        raise ScenarioError("multitime scenarios need 'h_metric'")
    h = _metric_from_rows(p, raw["h_metric"], tnames, "h_metric")

    if "model" in raw:
        model = raw["model"]
        name = model["name"]
        params = model.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioError("model 'params' must be an object")
        if name in _STOCK_NAMES:
            g = stock_metric(name, n, names, params or None)
            space = MultiTimeSpace(p, n, h, g, _connection_multitime(raw, g, p, n, names))
            return space
        known = {
            "grgml": {"phi", "sigma"},
            "rgogml": {"phi", "refractive_index", "X"},
            "edml": {"phi", "U", "Phi"},
            "bsml": {"phi"},
        }[name]
        unknown = set(params) - known
        if unknown:
            raise ScenarioError(f"unknown params for model {name!r}: {sorted(unknown)}")
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
        if not isinstance(U, list) or len(U) != n or any(
            not isinstance(row, list) or len(row) != p for row in U
        ):
            raise ScenarioError("'U' must be an n x p expression matrix over (t, x)")
        Phi = params.get("Phi", "0")
        return build_edml(
            h, phi,
            [[_field(U[i][a], names, f"U[{i}][{a}]") for a in range(p)] for i in range(n)],
            _field(Phi, names, "Phi"),
            p, n,
        )

    if "metric" not in raw:
        raise ScenarioError("multitime scenarios need 'metric' or 'model'")
    g = _metric_from_rows(n, raw["metric"], names, "metric")
    return MultiTimeSpace(p, n, h, g, _connection_multitime(raw, g, p, n, names))


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
        return [rng.uniform(lo, hi).tolist() for _ in range(used_count)], used_seed
    raise ScenarioError("'eval' needs 'points', 'box' or 'grid'")


def _box_spec(config, dim, need_shape, label):
    """(min, max, shape) of the box or grid object ``label`` names."""
    if not isinstance(config, dict):
        raise ScenarioError(f"'{label}' must be an object")
    allowed = {"min", "max"} | ({"shape"} if need_shape else set())
    unknown = set(config) - allowed
    if unknown:
        raise ScenarioError(f"unknown '{label}' keys: {sorted(unknown)}")
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
    spec = scenario.sheet_spec
    if spec is None:
        raise ScenarioError("scenario has no 'sheet' block")
    if not isinstance(spec, dict):
        raise ScenarioError("'sheet' must be an object")
    unknown = set(spec) - {"x", "grid"}
    if unknown:
        raise ScenarioError(f"unknown sheet keys: {sorted(unknown)}")
    p, n = scenario.p, scenario.n
    exprs = spec.get("x")
    if exprs is None and not from_file:
        raise ScenarioError("the sheet needs 'sheet.x' expressions or a --sheet-file")
    if exprs is not None and (not isinstance(exprs, list) or len(exprs) != n):
        raise ScenarioError(f"'sheet.x' must list {n} expressions over t1..t{p}")
    fields = None if exprs is None else [
        _field(e, scenario.names[:p], f"sheet.x[{i}]") for i, e in enumerate(exprs)]
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
