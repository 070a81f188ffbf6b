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

from . import dual
from .common import ResidualReport, energy_low_mixed, point_memo
from .dual import promote, scalar_value, seed
from .errors import (
    IntegrationError,
    NormalizationError,
    TensorError,
)
from .riemann import _inertial_factor
from .tensor_core import (
    Slot,
    Tensor,
    TensorField,
    christoffel_from,
    eval_matrix_jets,
    eval_tensor_jets,
    invert_symmetric,
    mat_vec,
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
        x_part = list(range(n))
        cj, ctx = seed(list(coords), seeds=x_part)
        g = eval_matrix_jets(space_metric, cj, ctx)
        g0 = [[e.value for e in row] for row in g]
        ginv0 = invert_symmetric(g0)
        dgx = [[[g[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
        gamma = christoffel_from(ginv0, dgx)
        y = coords[n:]
        return [
            [sum_product(gamma[i][j], y) for j in range(n)]
            for i in range(n)
        ]

    return fn


def adapted_x_derivative(field, space, pt):
    """delta f / delta x^i of a scalar field over (x, y)."""
    n = space.n
    coords = _coords(pt)
    cj, ctx = seed(list(coords))
    val = promote(field(cj), ctx)
    N0 = space.N(coords)
    out = []
    for i in range(n):
        acc = val.d(i)
        for m in range(n):
            acc = acc - scalar_value(N0[m][i]) * val.d(n + m)
        out.append(acc)
    return np.array(out)


@point_memo
def cartan_connection_lists(space, coords):
    """(L, C) coefficient blocks at possibly-jet coordinates."""
    n = space.n
    cj, ctx = seed(list(coords))
    g = eval_matrix_jets(space.g, cj, ctx)
    g0 = [[e.value for e in row] for row in g]
    ginv0 = invert_symmetric(g0)
    N0 = space.N(coords)
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


def _covariant(field, space, pt, vertical):
    if any(not s.latin for s in field.slots):
        raise TensorError("tangent-bundle derivative requires all-latin valence")
    n = space.n
    coords = _coords(pt)
    cj, ctx = seed(list(coords))
    T = eval_tensor_jets(field, cj, ctx)
    L, C = cartan_connection_lists(space, coords)
    coeff = C if vertical else L
    N0 = space.N(coords) if not vertical else None
    vals = T.map(lambda e: e.value)
    out = Tensor.zeros(T.slots + (Slot.LD,), T.extents + (n,))
    for idx in T.indices():
        for p in range(n):
            if vertical:
                acc = T[idx].d(n + p)
            else:
                acc = T[idx].d(p)
                for r in range(n):
                    acc -= scalar_value(N0[r][p]) * T[idx].d(n + r)
            for a, slot in enumerate(T.slots):
                pre, i, post = idx[:a], idx[a], idx[a + 1:]
                if slot.up:
                    for m in range(n):
                        acc += vals[pre + (m,) + post] * coeff[i][m][p]
                else:
                    for m in range(n):
                        acc -= vals[pre + (m,) + post] * coeff[m][i][p]
            out[idx + (p,)] = acc
    return out


def h_covariant(field, space, pt):
    """Horizontal covariant derivative of a latin tensor field on TM."""
    return _covariant(field, space, pt, vertical=False)


def v_covariant(field, space, pt):
    """Vertical covariant derivative of a latin tensor field on TM."""
    return _covariant(field, space, pt, vertical=True)


def _unit_velocity(space, coords, point=None):
    """u^i = y^i/eps and u_i, generic arithmetic, eps^2 = g_pq y^p y^q."""
    n = space.n
    g = space.g.matrix(coords)
    y = coords[n:]
    eps2 = quadratic_form(g, y, y)
    if scalar_value(eps2) <= 0.0:
        raise NormalizationError(
            "fiber quadratic form is not positive", point=point, value=scalar_value(eps2)
        )
    eps = dual.sqrt(eps2)
    u = [yi / eps for yi in y]
    u_low = mat_vec(g, u)
    return u, u_low, eps


@point_memo
class _Frame:
    """Jet-level quantities of one tangent point, computed once."""

    def __init__(self, state, space, pt):
        coords = _coords(pt)
        n = self.n = space.n
        self.c = state.c
        self.coords = coords
        cj, ctx = seed(list(coords))
        g = eval_matrix_jets(space.g, cj, ctx)
        ginv = invert_symmetric(g, coords)
        self.g0 = [[e.value for e in row] for row in g]
        self.ginv0 = [[e.value for e in row] for row in ginv]
        self.N0 = [[scalar_value(v) for v in row] for row in space.N(coords)]

        def delta_x(jet, k):
            acc = jet.d(k)
            for r in range(n):
                acc -= self.N0[r][k] * jet.d(n + r)
            return acc

        self._delta_x = delta_x
        dx_g = [
            [[delta_x(g[i][j], k) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        dy_g = [[[g[i][j].d(n + k) for j in range(n)] for i in range(n)] for k in range(n)]
        self.L = christoffel_from(self.ginv0, dx_g)
        self.C = christoffel_from(self.ginv0, dy_g)
        self.dy_g = dy_g

        H = eval_matrix_jets(state.em_H, cj, ctx)
        G = eval_matrix_jets(state.em_G, cj, ctx)
        E_low, E_mix = energy_low_mixed(g, ginv, H, G)
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]
        self.dE_h = [
            [[delta_x(E_mix[m][i], k) for k in range(n)] for i in range(n)]
            for m in range(n)
        ]
        self.dE_v = [
            [[E_mix[m][i].d(n + k) for k in range(n)] for i in range(n)]
            for m in range(n)
        ]

        u, u_low, eps = _unit_velocity(space, cj, point=coords)
        u = [promote(e, ctx) for e in u]
        u_low = [promote(e, ctx) for e in u_low]
        self.eps0 = scalar_value(eps)
        self.u0 = [e.value for e in u]
        self.ul0 = [e.value for e in u_low]
        self.du_h = [[delta_x(u[i], k) for k in range(n)] for i in range(n)]
        self.du_v = [[u[i].d(n + k) for k in range(n)] for i in range(n)]
        self.dul_h = [[delta_x(u_low[i], k) for k in range(n)] for i in range(n)]
        self.dul_v = [[u_low[i].d(n + k) for k in range(n)] for i in range(n)]

        p = promote(state.pressure(cj), ctx)
        rho = promote(state.density(cj), ctx)
        self.p0 = p.value
        self.rho0 = rho.value
        self.dp_h = [delta_x(p, k) for k in range(n)]
        self.dp_v = [p.d(n + k) for k in range(n)]
        q = rho + p / state.c**2
        self.q0 = q.value
        qu = [q * ui for ui in u]
        self.qu0 = [e.value for e in qu]
        self.dqu_h = [[delta_x(qu[m], k) for k in range(n)] for m in range(n)]
        self.dqu_v = [[qu[m].d(n + k) for k in range(n)] for m in range(n)]

    # channel = "h" uses (adapted derivative, L); "v" uses (fiber, C)

    def _blocks(self, channel):
        if channel == "h":
            return self.L, self.dE_h, self.du_h, self.dul_h, self.dp_h, self.dqu_h
        return self.C, self.dE_v, self.du_v, self.dul_v, self.dp_v, self.dqu_v

    def energy_divergence(self, channel):
        n = self.n
        coeff, dE = self._blocks(channel)[:2]
        out = []
        for s in range(n):
            acc = 0.0
            for m in range(n):
                acc += dE[m][s][m]
                for r in range(n):
                    acc += self.E_mix0[r][s] * coeff[m][r][m]
                    acc -= self.E_mix0[m][r] * coeff[r][s][m]
            out.append(acc)
        return out

    def lorentz_force(self, channel):
        div = self.energy_divergence(channel)
        return [-sum_product(self.ginv0[r], div) for r in range(self.n)]

    def lorentz_residual(self, channel):
        return sum_product(self.energy_divergence(channel), self.u0)

    def u_cov_low(self, channel, i, m):
        coeff, _, _, dul = self._blocks(channel)[:4]
        acc = dul[i][m]
        for r in range(self.n):
            acc -= coeff[r][i][m] * self.ul0[r]
        return acc

    def qu_divergence(self, channel):
        coeff = self.L if channel == "h" else self.C
        dqu = self.dqu_h if channel == "h" else self.dqu_v
        acc = 0.0
        for m in range(self.n):
            acc += dqu[m][m]
            for r in range(self.n):
                acc += self.qu0[r] * coeff[m][r][m]
        return acc

    def conservation(self, channel):
        n = self.n
        dp = self.dp_h if channel == "h" else self.dp_v
        force = self.lorentz_force(channel)
        div_qu = self.qu_divergence(channel)
        out = []
        for i in range(n):
            acc = div_qu * self.ul0[i] + dp[i]
            for m in range(n):
                acc += self.q0 * self.u0[m] * self.u_cov_low(channel, i, m)
            acc -= sum_product(self.g0[i], force)
            out.append(acc)
        return out

    def continuity(self, channel):
        dp = self.dp_h if channel == "h" else self.dp_v
        return self.qu_divergence(channel) + sum_product(dp, self.u0)

    def euler(self, channel):
        n = self.n
        dp = self.dp_h if channel == "h" else self.dp_v
        force = self.lorentz_force(channel)
        out = []
        for i in range(n):
            acc = 0.0
            for m in range(n):
                acc += self.q0 * self.u_cov_low(channel, i, m) * self.u0[m]
                acc -= dp[m] * (self.u0[m] * self.ul0[i] - (1.0 if m == i else 0.0))
            acc -= sum_product(self.g0[i], force)
            out.append(acc)
        return out


def lagrange_residuals(state, space, pt):
    """Full two-channel residual report at one tangent point.

    Besides the residual channels the report carries the stress tensor in
    covariant and mixed form and the identity diagnostics used by verify.
    """
    fr = _Frame(state, space, pt)
    report = ResidualReport(_coords(pt))
    u0 = np.array(fr.u0)
    ul0 = np.array(fr.ul0)
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
    for channel in ("h", "v"):
        cons = np.array(fr.conservation(channel))
        cont = fr.continuity(channel)
        lorentz = fr.lorentz_residual(channel)
        euler = np.array(fr.euler(channel))
        report.add(f"lorentz_{channel}", lorentz)
        report.add(f"conservation_{channel}", cons)
        report.add(f"continuity_{channel}", cont)
        report.add(f"euler_{channel}", euler)
        report.add(f"force_{channel}", fr.lorentz_force(channel))
        report.add(f"contraction_identity_{channel}", float(cons @ u0 - cont - lorentz))
        report.add(f"euler_decomposition_{channel}", euler - (cons - cont * ul0))
    report.add("unit_norm_error", float(ul0 @ u0 - 1.0))
    return report


def conservation_divergence(state, space, pt, channel):
    """Direct divergence of the mixed stress d-tensor, per channel."""
    n = space.n

    def fn(coords):
        g = space.g.matrix(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H.matrix(coords), state.em_G.matrix(coords))
        u, u_low, _ = _unit_velocity(space, coords)
        p = state.pressure(coords)
        q = state.density(coords) + p / state.c**2
        out = [[q * u[m] * u_low[i] + E_mix[m][i] for i in range(n)] for m in range(n)]
        for m in range(n):
            out[m][m] = out[m][m] + p
        return Tensor.from_nested((Slot.LU, Slot.LD), out)

    field = TensorField((Slot.LU, Slot.LD), fn)
    deriv = h_covariant(field, space, pt) if channel == "h" else v_covariant(field, space, pt)
    return np.array([sum(deriv[m, i, m] for m in range(n)) for i in range(n)])


def metric_compatibility(space, pt):
    """Max norms of g and its inverse under both covariant derivatives."""
    g_field = TensorField(
        (Slot.LD, Slot.LD),
        lambda coords: Tensor.from_nested((Slot.LD, Slot.LD), space.g.matrix(coords)),
    )
    ginv_field = TensorField(
        (Slot.LU, Slot.LU),
        lambda coords: Tensor.from_nested(
            (Slot.LU, Slot.LU), invert_symmetric(space.g.matrix(coords))
        ),
    )
    return {
        "g_h": h_covariant(g_field, space, pt).max_abs(),
        "g_v": v_covariant(g_field, space, pt).max_abs(),
        "ginv_h": h_covariant(ginv_field, space, pt).max_abs(),
        "ginv_v": v_covariant(ginv_field, space, pt).max_abs(),
    }


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


def h_stream_line_rhs(state, space, x, w):
    """d^2 x^k / ds^2 of the horizontal stream-line equations.

    ``w`` is dx/ds; all fields are evaluated at the curve jet
    y = eps0 * w.
    """
    n = space.n
    eps0 = resolve_epsilon0(space, x, w)
    y = [eps0 * wi for wi in w]
    fr = _Frame(state, space, list(x) + y)
    fac = _inertial_factor(fr.p0, fr.rho0, state.c)
    force = fr.lorentz_force("h")
    out = []
    for k in range(n):
        acc = 0.0
        for r in range(n):
            for m in range(n):
                bracket = fr.L[k][r][m]
                if r == k:
                    bracket -= fac * fr.dp_h[m]
                acc -= bracket * w[r] * w[m]
        acc += fac * (force[k] - sum_product(fr.ginv0[k], fr.dp_h))
        for m in range(n):
            acc += fr.N0[k][m] * w[m] / eps0
        cubic = 0.0
        for m in range(n):
            for p_ in range(n):
                cubic += fr.N0[p_][m] * sum_product(fr.g0[p_], w) * w[m]
        acc -= cubic * w[k] / eps0
        quart = 0.0
        for r in range(n):
            nr = sum(fr.N0[r][m] * w[m] for m in range(n))
            quart += nr * quadratic_form(fr.dy_g[r], w, w)
        acc -= 0.5 * quart * w[k]
        out.append(acc)
    return out


def v_stream_constraint_residual(state, space, x, w):
    """Algebraic vertical constraint along a stream line (left - right)."""
    n = space.n
    eps0 = resolve_epsilon0(space, x, w)
    y = [eps0 * wi for wi in w]
    fr = _Frame(state, space, list(x) + y)
    fac = _inertial_factor(fr.p0, fr.rho0, state.c)
    force = fr.lorentz_force("v")
    out = []
    for k in range(n):
        acc = 0.0
        for r in range(n):
            for m in range(n):
                bracket = fr.C[k][r][m]
                if r == k:
                    bracket -= fac * fr.dp_v[m]
                acc += bracket * w[r] * w[m]
        acc -= fac * (force[k] - sum_product(fr.ginv0[k], fr.dp_v))
        quart = 0.0
        for r in range(n):
            quart += quadratic_form(fr.dy_g[r], w, w) * w[r]
        acc -= 0.5 * quart * w[k]
        out.append(acc)
    return out


def integrate_h_stream_line(state, space, x0, v0, step, count):
    """RK4 for the horizontal system; rows [s, x, dx/ds, vertical norm]."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = space.n
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    rows = np.empty((count + 1, 2 + 2 * n))

    def vc_norm(xx, vv):
        residual = v_stream_constraint_residual(state, space, xx.tolist(), vv.tolist())
        return float(np.abs(residual).max())

    rows[0] = [0.0, *x, *v, vc_norm(x, v)]

    def accel(xx, vv):
        return np.array(h_stream_line_rhs(state, space, xx.tolist(), vv.tolist()))

    for k in range(count):
        try:
            k1v = accel(x, v)
            k2v = accel(x + 0.5 * step * v, v + 0.5 * step * k1v)
            k3v = accel(x + 0.5 * step * (v + 0.5 * step * k1v), v + 0.5 * step * k2v)
            k4v = accel(x + step * (v + 0.5 * step * k2v), v + step * k3v)
            k1x, k2x = v, v + 0.5 * step * k1v
            k3x, k4x = v + 0.5 * step * k2v, v + step * k3v
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise IntegrationError("state is not finite", step=k)
        rows[k + 1] = [(k + 1) * step, *x, *v, vc_norm(x, v)]
    return rows


def finsler_space_from_F(F, n, connection="spray"):
    """Generalized Lagrange space of a Finsler fundamental function.

    g_ij = (1/2) d^2 F^2 / dy^i dy^j via second-order fiber jets.  The
    returned spray fn gives G^k = (1/2) Gamma^k_pq y^p y^q with the
    generalized Christoffel symbols of g; the nonlinear connection is its
    fiber derivative N^i_j = dG^i/dy^j ("spray"), or zero.
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
        x_part = list(range(n))
        cj, ctx = seed(list(coords), seeds=x_part)
        g = eval_matrix_jets(metric, cj, ctx)
        g0 = [[e.value for e in row] for row in g]
        ginv0 = invert_symmetric(g0)
        dgx = [[[g[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
        gamma = christoffel_from(ginv0, dgx)
        y = coords[n:]
        return [0.5 * quadratic_form(gamma[k], y, y) for k in range(n)]

    if connection == "spray":
        def N_fn(coords):
            fiber = list(range(n, 2 * n))
            cj, ctx = seed(list(coords), seeds=fiber)
            Gk = [promote(v, ctx) for v in spray(cj)]
            return [[Gk[i].d(j) for j in range(n)] for i in range(n)]
    elif connection == "zero":
        N_fn = zero_connection(n)
    else:
        raise ValueError(f"unknown connection choice {connection!r}")

    return GeneralizedLagrangeSpace(n, metric, N_fn), spray, f2
