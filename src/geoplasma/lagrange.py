"""Plasma pipeline on the tangent bundle (non-isotropic media).

A generalized Lagrange space carries a metric g_ij(x, y) and a nonlinear
connection N^i_j(x, y).  The connection splits derivatives into a
horizontal channel (adapted derivative delta/delta x^i = d/dx^i -
N^m_i d/dy^m with Cartan coefficients L) and a vertical channel (plain
fiber derivative with coefficients C).  Every residual of the base
pipeline acquires an h- and a v-version; the unit velocity is y/eps
with eps^2 = g_pq y^p y^q, differentiated through.

Stream lines replay recorded code (:mod:`geoplasma.tape`): the body of the
eps0 Newton iteration and the curve frame with both stream-line equations
are recorded once per guard path and replayed at every later point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np
from .common import (
    FluidFrame,
    MetricJets,
    add_residuals,
    covariant_derivative,
    energy_divergence,
    energy_low_mixed,
    energy_mixed_paths,
    integrate_rk4,
    jet_block,
    jet_rows,
    lane_array,
    max_abs,
    mixed_stress_jets,
    point_memo,
    stress_lists,
    unit_norm_error,
    unit_vector,
)
from .dual import promote, scalar_value, seed
from .errors import DomainError, NormalizationError
from .tape import replayed
from .tensor_core import (
    Slot,
    christoffel_from,
    christoffel_of,
    eval_jets,
    fiber_contraction,
    quadratic_form,
    sum_product,
)


@dataclass(frozen=True)
class GeneralizedLagrangeSpace:
    n: int
    g: object  # metric field over (x, y)
    N: object  # callable coords -> n x n nested lists N^i_j


@dataclass(frozen=True)
class LagrangeFluidState:
    pressure: object
    density: object
    c: float
    em_H: object
    em_G: object


def canonical_nonlinear_connection(space_metric, n):
    """N^i_j = Gamma^i_jm y^m with the generalized Christoffel symbols.

    Gamma is the base-derivative Christoffel expression of g(x, y); for a
    fiber-independent metric this is the Levi-Civita choice.  Works at
    jet coordinates.
    """

    def fn(coords):
        gamma = christoffel_of(space_metric, coords, seeds=range(n), point=coords)
        return fiber_contraction(gamma, coords[n:])

    return fn


@point_memo
def _nonlinear_connection(space, coords):
    """N^i_j at a point, evaluated once per point for plain-float coordinates."""
    return space.N(list(coords))


def _adapted_partials(space, coords):
    """N^i_j values and the adapted partials over (x, y) at a point.

    Returns (N0, horizontal, vertical): ``horizontal(x, k)`` is
    delta/delta x^k = d/dx^k - N^m_k d/dy^m, ``vertical(x, k)`` is d/dy^k.
    Both act on coefficient rows: those of one jet, or a
    :func:`~geoplasma.common.jet_block` of many jets of one seeding.
    """
    n = space.n
    N0 = [[scalar_value(v) for v in row] for row in _nonlinear_connection(space, coords)]

    def horizontal(x, k):
        rows = jet_rows(x)
        acc = rows[1 + k]
        for r in range(n):
            acc = acc - N0[r][k] * rows[1 + n + r]
        return acc

    def vertical(x, k):
        return jet_rows(x)[1 + n + k]

    return N0, horizontal, vertical


@point_memo
def cartan_connection_lists(space, coords):
    """(L, C) coefficient blocks at a point, on its metric jets.

    delta g/delta x is summed as ``g.d(k) - sum(N^r_k * g.d(n + r))``, not by
    the frame's sequential subtraction: the two orders differ in the last bit.
    """
    n = space.n
    m = MetricJets(space.g, coords)
    g = m.g
    N0 = _nonlinear_connection(space, coords)
    dx_g = [
        [
            [
                g[i][j].d(k)
                - sum(N0[r][k] * g[i][j].d(n + r) for r in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for k in range(n)
    ]
    dy_g = [[[g[i][j].d(n + k) for j in range(n)] for i in range(n)] for k in range(n)]
    return christoffel_from(m.ginv0, dx_g), christoffel_from(m.ginv0, dy_g)


def cartan_connection(space, coords):
    """Cartan coefficients (L^i_jk, C^i_jk) as float arrays [i, j, k]."""
    L, C = cartan_connection_lists(space, coords)
    return np.array(L, dtype=float), np.array(C, dtype=float)


def _hv_covariant(block, slots, space, coords):
    """Both derivatives from the jet block of a latin tensor seeded at ``coords``."""
    _, horizontal, vertical = _adapted_partials(space, coords)
    rank = len(slots)
    out = []
    for partial, coeff in zip((horizontal, vertical), cartan_connection(space, coords)):
        partials = np.stack([partial(block, k) for k in range(space.n)], axis=rank)
        out.append(covariant_derivative(block, slots, partials, [coeff] * rank, partial_first=True))
    return out


def _unit_velocity(g, coords, point=None):
    """u^i = y^i/eps and u_i from the evaluated metric g, eps^2 = g_pq y^p y^q."""
    return unit_vector(g, coords[len(g):], "fiber", point)


@point_memo
class _Frame(FluidFrame):
    """Jet-level quantities of one tangent point, computed once, on the point's
    :class:`~geoplasma.common.MetricJets`.

    Two derivative channels: ``h`` (adapted base derivative, Cartan L)
    and ``v`` (fiber derivative, Cartan C).  The jets ``H``, ``G``,
    ``E_low`` and ``E_mix`` stay for the stress and the checks of verify.
    """

    def __init__(self, state, space, coords):
        n = space.n
        m = MetricJets(space.g, coords)
        cj, ctx, g = m.cj, m.ctx, m.g
        self.N0, horizontal, vertical = _adapted_partials(space, coords)
        self.H = eval_jets(state.em_H, cj, ctx)
        self.G = eval_jets(state.em_G, cj, ctx)
        self.E_low, self.E_mix = energy_low_mixed(g, m.ginv, self.H, self.G)
        u, u_low, _ = _unit_velocity(m.raw, cj, point=coords)
        super().__init__(
            state.c, g, m.ginv,
            [promote(e, ctx) for e in u],
            [promote(e, ctx) for e in u_low],
            promote(state.pressure(cj), ctx),
            promote(state.density(cj), ctx),
        )
        dx_g = [
            [[horizontal(g[i][j], k) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        self.dy_g = [
            [[vertical(g[i][j], k) for j in range(n)] for i in range(n)] for k in range(n)
        ]
        L = christoffel_from(self.ginv0, dx_g)
        C = christoffel_from(self.ginv0, self.dy_g)
        self.h = self.channel(L, horizontal, energy_divergence(self.E_mix, L, horizontal))
        self.v = self.channel(C, vertical, energy_divergence(self.E_mix, C, vertical))


def lagrange_residuals(state, space, coords):
    """Full two-channel residual report at a tangent point.

    Besides the residual channels the report carries the stress tensor in
    covariant and mixed form and the identity diagnostics used by verify.
    Coordinates that are lane arrays give each entry a trailing lane axis.
    """
    fr = _Frame(state, space, coords)
    lanes = np.shape(coords[0])
    T_low, T_mix = stress_lists(fr)
    report = {"stress": lane_array(T_low, lanes), "stress_mixed": lane_array(T_mix, lanes)}
    add_residuals(report, fr.channel_values(fr.h), "_h", lanes)
    add_residuals(report, fr.channel_values(fr.v), "_v", lanes)
    report["unit_norm_error"] = unit_norm_error(fr.u0, fr.ul0, lanes)
    return report


def conservation_divergence(state, space, coords):
    """Direct divergences (h, v) of the mixed stress d-tensor, built from the
    point's frame jets and differentiated through them."""
    n = space.n
    T = jet_block(mixed_stress_jets(_Frame(state, space, coords)), 2)
    return [
        np.array([sum(deriv[m, i, m] for m in range(n)) for i in range(n)])
        for deriv in _hv_covariant(T, (Slot.LU, Slot.LD), space, coords)
    ]


def energy_mixed(state, space, coords):
    """The mixed energy tensor at a tangent point two ways: the frame's, and by
    the delta-form path on the frame's values (see
    :func:`~geoplasma.common.energy_mixed_paths`)."""
    return energy_mixed_paths(_Frame(state, space, coords), np.shape(coords[0]))


def metric_compatibility(space, coords):
    """Max norms of g and its inverse under both covariant derivatives, per lane on lanes."""
    lanes, out = np.ndim(coords[0]) > 0, {}
    for name, (slots, block) in zip(("g", "ginv"), MetricJets(space.g, coords).blocks):
        out[f"{name}_h"], out[f"{name}_v"] = (
            max_abs(d, lanes) for d in _hv_covariant(block, slots, space, coords))
    return out


@replayed
def _fiber_form(space, x, w, eps0):
    """[g_ij(x, e*w) w^i w^j, its derivative in e] at e = eps0[0]."""
    (ej,), ctx = seed(list(eps0))
    coords = list(x) + [ej * wi for wi in w]
    val = promote(quadratic_form(space.g(coords), w, w), ctx)
    return [val.value, val.d(0)]


def resolve_epsilon0(space, x, w):
    """Scale factor eps0 relating the curve parameters: y = eps0 * dx/ds.

    Solves g_ij(x, eps0*w) w^i w^j = 1 by safeguarded Newton.  When the
    metric is fiber-independent the equation does not determine eps0; it
    is then taken as 1 provided w is already unit, otherwise the state is
    not normalizable and an error is raised.  A derivative that vanishes
    without being zero means the iteration stalled away from a root.  Where
    the metric is undefined at y = eps0*w, eps0 is halved; the first such
    error is raised if no root is found.
    """
    e, failure = 1.0, None
    for _ in range(60):
        try:
            value, df = _fiber_form(space, x, w, [e])
        except DomainError as err:
            failure = failure or err
            e *= 0.5
            continue
        f = value - 1.0
        if abs(f) < 1e-13:
            return e
        if abs(df) < 1e-12 * max(1.0, abs(value)):
            if abs(f) < 1e-8:
                return e
            if df == 0.0:
                cause = "fiber-independent metric with g(w, w) != 1"
            else:
                cause = (f"no root eps0 > 0 of g(x, eps0*w)(w, w) = 1 found "
                         f"(Newton stalled at eps0 = {e:.3e})")
            raise NormalizationError(
                f"stream-line velocity cannot be normalized: {cause}", point=x, value=value,
            )
        e_next = e - f / df
        e = 0.5 * e if e_next <= 0.0 else e_next
    raise failure or NormalizationError("eps0 iteration did not converge", point=x)


def _h_rhs(fr, w, eps0):
    """d^2 x^k / ds^2 of the horizontal stream-line equations from the curve frame."""
    n = fr.n
    out = fr.stream_line_core(fr.h, w)
    cubic = 0.0
    for m in range(n):
        for p_ in range(n):
            cubic += fr.N0[p_][m] * sum_product(fr.g0[p_], w) * w[m]
    quart = 0.0
    for r in range(n):
        nr = sum(fr.N0[r][m] * w[m] for m in range(n))
        quart += nr * quadratic_form(fr.dy_g[r], w, w)
    for k in range(n):
        acc = out[k]
        for m in range(n):
            acc += fr.N0[k][m] * w[m] / eps0
        acc -= cubic * w[k] / eps0
        acc -= 0.5 * quart * w[k]
        out[k] = acc
    return out


def _v_residual(fr, w):
    """Vertical constraint (left - right) from the curve frame: the vertical
    channel enters with the opposite sign of the horizontal stream-line core."""
    core = fr.stream_line_core(fr.v, w)
    quart = 0.0
    for r in range(fr.n):
        quart += quadratic_form(fr.dy_g[r], w, w) * w[r]
    return [-core[k] - 0.5 * quart * w[k] for k in range(fr.n)]


@replayed
def _curve_values(state, space, x, w, eps0):
    """The horizontal rhs, then the vertical constraint, at the curve jet y = eps0[0] * w."""
    (e,) = eps0
    fr = _Frame(state, space, list(x) + [e * wi for wi in w])
    return _h_rhs(fr, w, e) + _v_residual(fr, w)


@point_memo
def _stream_line_values(state, space, x, w):
    """The rhs and the vertical constraint at one stream-line point: a row's
    monitor and the next step's first stage share them."""
    return _curve_values(state, space, x, w, [resolve_epsilon0(space, x, w)])


def h_stream_line_rhs(state, space, x, w):
    """d^2 x^k / ds^2 of the horizontal stream-line equations.

    ``w`` is dx/ds; all fields are evaluated at the curve jet
    y = eps0 * w.
    """
    return _stream_line_values(state, space, x, w)[:space.n]


def v_stream_constraint_residual(state, space, x, w):
    """Algebraic vertical constraint along a stream line (left - right)."""
    return _stream_line_values(state, space, x, w)[space.n:]


def integrate_h_stream_line(state, space, x0, v0, step, count, monitors=()):
    """RK4 for the horizontal system; rows [s, x, dx/ds, vertical norm], each
    followed by the value of every one of ``monitors``, as lists of Python
    floats (see :func:`~geoplasma.common.integrate_rk4`).  The vertical norm
    is max |r| of the constraint residual r in plain Python: the bits of
    ``np.abs(r).max()`` on finite entries, NaN when an entry is NaN."""

    def vc_norm(x, v):
        sizes = [abs(r) for r in v_stream_constraint_residual(state, space, x, v)]
        return math.nan if any(map(math.isnan, sizes)) else float(max(sizes))

    return integrate_rk4(
        lambda x, v: h_stream_line_rhs(state, space, x, v), x0, v0, step, count,
        (vc_norm, *monitors),
    )
