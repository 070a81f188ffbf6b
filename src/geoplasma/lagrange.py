"""Plasma pipeline on the tangent bundle (non-isotropic media).

A generalized Lagrange space carries a metric g_ij(x, y) and a nonlinear
connection N^i_j(x, y).  The connection splits derivatives into a
horizontal channel (adapted derivative delta/delta x^i = d/dx^i -
N^m_i d/dy^m with Cartan coefficients L) and a vertical channel (plain
fiber derivative with coefficients C).  Every residual of the base
pipeline acquires an h- and a v-version; the unit velocity is y/eps
with eps^2 = g_pq y^p y^q, differentiated through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    FluidFrame,
    ResidualReport,
    covariant_derivative,
    energy_divergence,
    energy_low_mixed,
    integrate_rk4,
    mixed_stress,
    point_memo,
    unit_vector,
)
from .dual import promote, scalar_value, seed
from .errors import NormalizationError
from .tensor_core import (
    Slot,
    Tensor,
    TensorField,
    christoffel_from,
    christoffel_of,
    eval_matrix_jets,
    eval_tensor_jets,
    invert_symmetric,
    MatrixMetricField,
    quadratic_form,
    sum_product,
)


@dataclass(frozen=True)
class GeneralizedLagrangeSpace:
    n: int
    g: object  # MetricField or MatrixMetricField over (x, y)
    N: object  # callable coords -> n x n nested lists N^i_j


@dataclass(frozen=True)
class TangentPoint:
    x: tuple
    y: tuple

    @property
    def coords(self):
        return list(self.x) + list(self.y)


@dataclass(frozen=True)
class LagrangeFluidState:
    pressure: object
    density: object
    c: float
    em_H: object
    em_G: object


def _coords(pt):
    return pt.coords if isinstance(pt, TangentPoint) else list(pt)


def zero_connection(n):
    def fn(coords):
        return [[0.0] * n for _ in range(n)]

    return fn


def canonical_nonlinear_connection(space_metric, n):
    """N^i_j = Gamma^i_jm y^m with the generalized Christoffel symbols.

    Gamma is the base-derivative Christoffel expression of g(x, y); for a
    fiber-independent metric this is the Levi-Civita choice.  Works at
    jet coordinates.
    """

    def fn(coords):
        gamma = christoffel_of(space_metric, coords, seeds=range(n))
        y = coords[n:]
        return [
            [sum_product(gamma[i][j], y) for j in range(n)]
            for i in range(n)
        ]

    return fn


@point_memo
def _nonlinear_connection(space, coords):
    """N^i_j at a point, evaluated once per point for plain-float coordinates."""
    return space.N(list(coords))


def _adapted_partials(space, coords):
    """N^i_j values and the adapted partials of a jet over (x, y) at a point.

    Returns (N0, horizontal, vertical): ``horizontal(jet, k)`` is
    delta/delta x^k = d/dx^k - N^m_k d/dy^m, ``vertical(jet, k)`` is d/dy^k.
    """
    n = space.n
    N0 = [[scalar_value(v) for v in row] for row in _nonlinear_connection(space, coords)]

    def horizontal(jet, k):
        acc = jet.d(k)
        for r in range(n):
            acc -= N0[r][k] * jet.d(n + r)
        return acc

    def vertical(jet, k):
        return jet.d(n + k)

    return N0, horizontal, vertical


@point_memo
def cartan_connection_lists(space, coords):
    """(L, C) coefficient blocks at possibly-jet coordinates."""
    n = space.n
    cj, ctx = seed(list(coords))
    g = eval_matrix_jets(space.g, cj, ctx)
    g0 = [[e.value for e in row] for row in g]
    ginv0 = invert_symmetric(g0)
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
    L = christoffel_from(ginv0, dx_g)
    C = christoffel_from(ginv0, dy_g)
    return L, C


def cartan_connection(space, pt):
    """Cartan coefficients (L^i_jk, C^i_jk) as (1,2) tensors."""
    L, C = cartan_connection_lists(space, _coords(pt))
    return (
        Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD), L),
        Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD), C),
    )


def h_covariant(field, space, pt):
    """Horizontal covariant derivative of a latin tensor field on TM."""
    coords = _coords(pt)
    T = eval_tensor_jets(field, *seed(list(coords)))
    _, horizontal, _ = _adapted_partials(space, coords)
    return covariant_derivative(T, horizontal, cartan_connection_lists(space, coords)[0])


def v_covariant(field, space, pt):
    """Vertical covariant derivative of a latin tensor field on TM."""
    coords = _coords(pt)
    T = eval_tensor_jets(field, *seed(list(coords)))
    _, _, vertical = _adapted_partials(space, coords)
    return covariant_derivative(T, vertical, cartan_connection_lists(space, coords)[1])


def _unit_velocity(g, coords, point=None):
    """u^i = y^i/eps and u_i from the evaluated metric g, eps^2 = g_pq y^p y^q."""
    return unit_vector(g, coords[len(g):], "fiber", point)


@point_memo
class _Frame(FluidFrame):
    """Jet-level quantities of one tangent point, computed once.

    Two derivative channels: ``h`` (adapted base derivative, Cartan L)
    and ``v`` (fiber derivative, Cartan C).
    """

    def __init__(self, state, space, pt):
        coords = _coords(pt)
        n = space.n
        cj, ctx = seed(list(coords))
        graw = space.g.matrix(cj)
        g = [[promote(v, ctx) for v in row] for row in graw]
        ginv = invert_symmetric(g, coords)
        self.N0, horizontal, vertical = _adapted_partials(space, coords)
        H = eval_matrix_jets(state.em_H, cj, ctx)
        G = eval_matrix_jets(state.em_G, cj, ctx)
        E_low, E_mix = energy_low_mixed(g, ginv, H, G)
        u, u_low, _ = _unit_velocity(graw, cj, point=coords)
        super().__init__(
            state.c, g, ginv,
            [promote(e, ctx) for e in u],
            [promote(e, ctx) for e in u_low],
            promote(state.pressure(cj), ctx),
            promote(state.density(cj), ctx),
        )
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]
        dx_g = [
            [[horizontal(g[i][j], k) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        self.dy_g = [
            [[vertical(g[i][j], k) for j in range(n)] for i in range(n)] for k in range(n)
        ]
        L = christoffel_from(self.ginv0, dx_g)
        C = christoffel_from(self.ginv0, self.dy_g)
        self.h = self.channel(L, horizontal, energy_divergence(E_mix, L, horizontal))
        self.v = self.channel(C, vertical, energy_divergence(E_mix, C, vertical))


def lagrange_residuals(state, space, pt):
    """Full two-channel residual report at one tangent point.

    Besides the residual channels the report carries the stress tensor in
    covariant and mixed form and the identity diagnostics used by verify.
    """
    fr = _Frame(state, space, pt)
    report = ResidualReport(_coords(pt))
    n = fr.n
    T_low = [
        [
            fr.q0 * fr.ul0[i] * fr.ul0[j] + fr.p0 * fr.g0[i][j] + fr.E_low0[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    T_mix = [
        [
            fr.q0 * fr.u0[m] * fr.ul0[i] + fr.E_mix0[m][i] + (fr.p0 if m == i else 0.0)
            for i in range(n)
        ]
        for m in range(n)
    ]
    report.add("stress", T_low)
    report.add("stress_mixed", T_mix)
    fr.add_channel(report, fr.h, "_h")
    fr.add_channel(report, fr.v, "_v")
    report.add("unit_norm_error", fr.unit_norm_error())
    return report


def conservation_divergence(state, space, pt, channel):
    """Direct divergence of the mixed stress d-tensor, per channel."""
    n = space.n

    def fn(coords):
        g = space.g.matrix(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H.matrix(coords), state.em_G.matrix(coords))
        u, u_low, _ = _unit_velocity(g, coords)
        T = mixed_stress(E_mix, u, u_low, state.pressure(coords), state.density(coords), state.c)
        return Tensor.from_nested((Slot.LU, Slot.LD), T)

    field = TensorField((Slot.LU, Slot.LD), fn)
    deriv = h_covariant(field, space, pt) if channel == "h" else v_covariant(field, space, pt)
    return np.array([sum(deriv[m, i, m] for m in range(n)) for i in range(n)])


def metric_compatibility(space, pt):
    """Max norms of g and its inverse under both covariant derivatives."""
    coords = _coords(pt)
    cj, ctx = seed(list(coords))
    L, C = cartan_connection_lists(space, coords)
    _, horizontal, vertical = _adapted_partials(space, coords)
    g = space.g.matrix(cj)
    out = {}
    for name, slots, m in (
        ("g", (Slot.LD, Slot.LD), g),
        ("ginv", (Slot.LU, Slot.LU), invert_symmetric(g)),
    ):
        T = Tensor.from_nested(slots, [[promote(v, ctx) for v in row] for row in m])
        out[f"{name}_h"] = covariant_derivative(T, horizontal, L).max_abs()
        out[f"{name}_v"] = covariant_derivative(T, vertical, C).max_abs()
    return out


@point_memo
def resolve_epsilon0(space, x, w):
    """Scale factor eps0 relating the curve parameters: y = eps0 * dx/ds.

    Solves g_ij(x, eps0*w) w^i w^j = 1 by safeguarded Newton.  When the
    metric is fiber-independent the equation does not determine eps0; it
    is then taken as 1 provided w is already unit, otherwise the state is
    not normalizable and an error is raised.
    """
    e = 1.0
    for _ in range(60):
        (ej,), ctx = seed([e])
        coords = list(x) + [ej * wi for wi in w]
        val = promote(quadratic_form(space.g.matrix(coords), w, w), ctx)
        f = val.value - 1.0
        if abs(f) < 1e-13:
            return e
        df = val.d(0)
        if abs(df) < 1e-12 * max(1.0, abs(val.value)):
            if abs(f) < 1e-8:
                return e
            raise NormalizationError(
                "stream-line velocity cannot be normalized: fiber-independent "
                "metric with g(w, w) != 1", point=x, value=val.value,
            )
        e_next = e - f / df
        e = 0.5 * e if e_next <= 0.0 else e_next
    raise NormalizationError("eps0 iteration did not converge", point=x)


def _curve_frame(state, space, x, w):
    """Frame at the curve jet y = eps0 * w, and eps0."""
    eps0 = resolve_epsilon0(space, x, w)
    return _Frame(state, space, list(x) + [eps0 * wi for wi in w]), eps0


def h_stream_line_rhs(state, space, x, w):
    """d^2 x^k / ds^2 of the horizontal stream-line equations.

    ``w`` is dx/ds; all fields are evaluated at the curve jet
    y = eps0 * w.
    """
    n = space.n
    fr, eps0 = _curve_frame(state, space, x, w)
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


def v_stream_constraint_residual(state, space, x, w):
    """Algebraic vertical constraint along a stream line (left - right).

    The vertical channel enters with the opposite sign of the horizontal
    stream-line core.
    """
    n = space.n
    fr, _ = _curve_frame(state, space, x, w)
    core = fr.stream_line_core(fr.v, w)
    quart = 0.0
    for r in range(n):
        quart += quadratic_form(fr.dy_g[r], w, w) * w[r]
    return [-core[k] - 0.5 * quart * w[k] for k in range(n)]


def integrate_h_stream_line(state, space, x0, v0, step, count):
    """RK4 for the horizontal system; rows [s, x, dx/ds, vertical norm]."""

    def vc_norm(x, v):
        return float(np.abs(v_stream_constraint_residual(state, space, x, v)).max())

    return integrate_rk4(
        lambda x, v: h_stream_line_rhs(state, space, x, v), x0, v0, step, count,
        monitor=vc_norm,
    )


def finsler_space_from_F(F, n):
    """Generalized Lagrange space of a Finsler fundamental function.

    g_ij = (1/2) d^2 F^2 / dy^i dy^j via second-order fiber jets.  The
    returned spray fn gives G^k = (1/2) Gamma^k_pq y^p y^q with the
    generalized Christoffel symbols of g; the nonlinear connection is its
    fiber derivative N^i_j = dG^i/dy^j.
    """

    def f2(coords):
        v = F(coords)
        return v * v

    def g_matrix(coords):
        fiber = list(range(n, 2 * n))
        cj, ctx = seed(list(coords), seeds=fiber, order=2)
        val = promote(f2(cj), ctx)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = 0.5 * val.d(i, j)
                out[i][j] = entry
                out[j][i] = entry
        return out

    metric = MatrixMetricField(n, g_matrix)

    def spray(coords):
        gamma = christoffel_of(metric, coords, seeds=range(n))
        y = coords[n:]
        return [0.5 * quadratic_form(gamma[k], y, y) for k in range(n)]

    def N_fn(coords):
        fiber = list(range(n, 2 * n))
        cj, ctx = seed(list(coords), seeds=fiber)
        Gk = [promote(v, ctx) for v in spray(cj)]
        return [[Gk[i].d(j) for j in range(n)] for i in range(n)]

    return GeneralizedLagrangeSpace(n, metric, N_fn), spray, f2
