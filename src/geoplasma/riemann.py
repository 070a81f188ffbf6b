"""Plasma pipeline on a semi-Riemannian spatial manifold.

The metric phi_ij(x) generates Christoffel symbols and the Levi-Civita
covariant derivative.  A fluid state (pressure, proper density, speed of
light, space-like velocity field) together with the electromagnetic
two-forms H and G defines the plasma stress tensor; the conservation,
continuity and Euler residuals and the stream-line dynamics follow from
it.  The unit velocity u is always obtained by normalizing the supplied
v field, and every covariant derivative of u differentiates through that
normalization, which is what makes the contraction identities hold to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .common import ResidualReport, energy_low_mixed, energy_mixed_direct, point_memo
from .dual import promote, scalar_value, seed
from .errors import (
    IntegrationError,
    NormalizationError,
    SingularDynamicsError,
    TensorError,
)
from .tensor_core import (
    MetricField,
    Slot,
    Tensor,
    TensorField,
    TwoFormField,
    christoffel_from,
    eval_matrix_jets,
    eval_tensor_jets,
    invert_symmetric,
    mat_vec,
    quadratic_form,
    sum_product,
)


@dataclass(frozen=True)
class SemiRiemannianSpace:
    n: int
    phi: MetricField


@dataclass(frozen=True)
class ElectromagneticPair:
    H: TwoFormField
    G: TwoFormField


@dataclass(frozen=True)
class FluidState:
    pressure: object
    density: object
    c: float
    velocity: tuple

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("speed of light must be positive")


@point_memo
def christoffel_lists(space, x):
    """Connection coefficients gamma[i][j][k] at x (coordinates may be jets)."""
    coords, ctx = seed(list(x))
    phi = eval_matrix_jets(space.phi, coords, ctx)
    phinv0 = invert_symmetric([[e.value for e in row] for row in phi], x)
    n = space.n
    dphi = [[[phi[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
    return christoffel_from(phinv0, dphi)


def christoffel(space, x):
    """Christoffel symbols gamma^i_jk of the metric, as a (1,2) tensor."""
    return Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD), christoffel_lists(space, x))


def levi_civita_derivative(field, space, x):
    """Covariant derivative of a latin-valence tensor field at x.

    Returns the input tensor with one extra covariant slot: the adapted
    partial plus one gamma correction per slot, signed by variance.
    """
    if any(not s.latin for s in field.slots):
        raise TensorError("Levi-Civita derivative requires all-latin valence")
    n = space.n
    coords, ctx = seed(list(x))
    T = eval_tensor_jets(field, coords, ctx)
    gamma = christoffel_lists(space, x)
    out = Tensor.zeros(T.slots + (Slot.LD,), T.extents + (n,))
    vals = T.map(lambda e: e.value)
    for idx in T.indices():
        for p in range(n):
            acc = T[idx].d(p)
            for a, slot in enumerate(T.slots):
                pre, i, post = idx[:a], idx[a], idx[a + 1:]
                if slot.up:
                    for m in range(n):
                        acc = acc + vals[pre + (m,) + post] * gamma[i][m][p]
                else:
                    for m in range(n):
                        acc = acc - vals[pre + (m,) + post] * gamma[m][i][p]
            out[idx + (p,)] = acc
    return out


def _unit_velocity(state, space, coords, point=None):
    """u^i and u_i from the normalized v field, in generic arithmetic."""
    phi = space.phi.matrix(coords)
    v = [vf(coords) for vf in state.velocity]
    norm2 = quadratic_form(phi, v, v)
    if scalar_value(norm2) <= 0.0:
        raise NormalizationError(
            "velocity quadratic form is not positive",
            point=point, value=scalar_value(norm2),
        )
    eps = dual.sqrt(norm2)
    u = [vi / eps for vi in v]
    u_low = mat_vec(phi, u)
    return u, u_low


def normalize_velocity(state, space, x):
    """Unit velocity u^i at x; |u_i u^i - 1| is zero to rounding."""
    u, _ = _unit_velocity(state, space, list(x), point=x)
    return np.array([scalar_value(ui) for ui in u])


def unit_velocity_field(state, space):
    def fn(coords):
        u, _ = _unit_velocity(state, space, coords)
        return Tensor((Slot.LU,), (space.n,), u)

    return TensorField((Slot.LU,), fn)


def minkowski_energy(space, em, x):
    """Covariant and mixed Minkowski energy tensors at x."""
    coords = list(x)
    phi = space.phi.matrix(coords)
    phinv = invert_symmetric(phi, x)
    E_low, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
    return (
        Tensor.from_nested((Slot.LD, Slot.LD), E_low),
        Tensor.from_nested((Slot.LU, Slot.LD), E_mix),
    )


def minkowski_energy_direct(space, em, x):
    """Mixed energy tensor by the independent delta-form path."""
    coords = list(x)
    phinv = invert_symmetric(space.phi.matrix(coords), x)
    return Tensor.from_nested(
        (Slot.LU, Slot.LD),
        energy_mixed_direct(phinv, em.H.matrix(coords), em.G.matrix(coords)),
    )


def mixed_energy_field(space, em):
    def fn(coords):
        phi = space.phi.matrix(coords)
        phinv = invert_symmetric(phi)
        _, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
        return Tensor.from_nested((Slot.LU, Slot.LD), E_mix)

    return TensorField((Slot.LU, Slot.LD), fn)


def _mixed_stress(state, space, em, coords):
    """T^m_i = (rho + p/c^2) u^m u_i + p delta^m_i + E^m_i, generic scalars."""
    n = space.n
    phi = space.phi.matrix(coords)
    phinv = invert_symmetric(phi)
    _, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
    u, u_low = _unit_velocity(state, space, coords)
    p = state.pressure(coords)
    q = state.density(coords) + p / state.c**2
    out = [[q * u[m] * u_low[i] + E_mix[m][i] for i in range(n)] for m in range(n)]
    for m in range(n):
        out[m][m] = out[m][m] + p
    return out


def mixed_stress_field(state, space, em):
    def fn(coords):
        return Tensor.from_nested((Slot.LU, Slot.LD), _mixed_stress(state, space, em, coords))

    return TensorField((Slot.LU, Slot.LD), fn)


def stress_tensor(state, space, em, x):
    """Covariant and mixed plasma stress tensors at x."""
    coords = list(x)
    n = space.n
    phi = space.phi.matrix(coords)
    phinv = invert_symmetric(phi, x)
    E_low, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
    u, u_low = _unit_velocity(state, space, coords, point=x)
    p = state.pressure(coords)
    q = state.density(coords) + p / state.c**2
    T_low = [
        [q * u_low[i] * u_low[j] + p * phi[i][j] + E_low[i][j] for j in range(n)]
        for i in range(n)
    ]
    T_mix = [[q * u[m] * u_low[i] + E_mix[m][i] for i in range(n)] for m in range(n)]
    for m in range(n):
        T_mix[m][m] = T_mix[m][m] + p
    return (
        Tensor.from_nested((Slot.LD, Slot.LD), T_low),
        Tensor.from_nested((Slot.LU, Slot.LD), T_mix),
    )


class _Frame:
    """All jet-level quantities of one evaluation point, computed once."""

    def __init__(self, state, space, em, x):
        self.x = list(x)
        n = self.n = space.n
        self.c = state.c
        coords, ctx = seed(self.x)
        phi = eval_matrix_jets(space.phi, coords, ctx)
        phinv = invert_symmetric(phi, x)
        self.phi0 = [[e.value for e in row] for row in phi]
        self.phinv0 = [[e.value for e in row] for row in phinv]
        dphi = [[[phi[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
        self.gamma = christoffel_from(self.phinv0, dphi)

        H = eval_matrix_jets(em.H, coords, ctx)
        G = eval_matrix_jets(em.G, coords, ctx)
        E_low, E_mix = energy_low_mixed(phi, phinv, H, G)
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]

        u, u_low = _unit_velocity(state, space, coords, point=x)
        u = [promote(e, ctx) for e in u]
        u_low = [promote(e, ctx) for e in u_low]
        self.u0 = [e.value for e in u]
        self.ul0 = [e.value for e in u_low]
        self.du = [[u[i].d(k) for k in range(n)] for i in range(n)]
        self.dul = [[u_low[i].d(k) for k in range(n)] for i in range(n)]

        p = promote(state.pressure(coords), ctx)
        rho = promote(state.density(coords), ctx)
        self.p0 = p.value
        self.rho0 = rho.value
        self.dp = [p.d(k) for k in range(n)]
        q = rho + p / state.c**2
        self.q0 = q.value
        qu = [q * ui for ui in u]
        self.qu0 = [e.value for e in qu]
        self.dqu = [[qu[m].d(k) for k in range(n)] for m in range(n)]
        self.dE_mix = [
            [[E_mix[m][i].d(k) for k in range(n)] for i in range(n)] for m in range(n)
        ]

    def cov_div_mixed(self, m0, dm):
        """Divergence M^m_{i;m} of a mixed (1,1) tensor from values and partials."""
        n = self.n
        gamma = self.gamma
        out = []
        for i in range(n):
            acc = 0.0
            for m in range(n):
                acc += dm[m][i][m]
                for r in range(n):
                    acc += m0[r][i] * gamma[m][r][m] - m0[m][r] * gamma[r][i][m]
            out.append(acc)
        return out

    @property
    def energy_divergence(self):
        try:
            return self._ediv
        except AttributeError:
            self._ediv = self.cov_div_mixed(self.E_mix0, self.dE_mix)
            return self._ediv

    @property
    def lorentz_force(self):
        return [-sum_product(self.phinv0[r], self.energy_divergence) for r in range(self.n)]

    @property
    def lorentz_residual(self):
        return sum_product(self.energy_divergence, self.u0)

    def u_cov_low(self, i, m):
        """u_{i;m} with the normalization differentiated through."""
        acc = self.dul[i][m]
        for r in range(self.n):
            acc -= self.gamma[r][i][m] * self.ul0[r]
        return acc

    @property
    def qu_divergence(self):
        acc = 0.0
        for m in range(self.n):
            acc += self.dqu[m][m]
            for r in range(self.n):
                acc += self.qu0[r] * self.gamma[m][r][m]
        return acc

    @property
    def conservation(self):
        n = self.n
        force = self.lorentz_force
        div_qu = self.qu_divergence
        out = []
        for i in range(n):
            acc = div_qu * self.ul0[i] + self.dp[i]
            for m in range(n):
                acc += self.q0 * self.u0[m] * self.u_cov_low(i, m)
            acc -= sum_product(self.phi0[i], force)
            out.append(acc)
        return out

    @property
    def continuity(self):
        return self.qu_divergence + sum_product(self.dp, self.u0)

    @property
    def euler(self):
        n = self.n
        force = self.lorentz_force
        out = []
        for i in range(n):
            acc = 0.0
            for m in range(n):
                acc += self.q0 * self.u_cov_low(i, m) * self.u0[m]
                acc -= self.dp[m] * (self.u0[m] * self.ul0[i] - (1.0 if m == i else 0.0))
            acc -= sum_product(self.phi0[i], force)
            out.append(acc)
        return out


def lorentz_force(state, space, em, x):
    return np.array(_Frame(state, space, em, x).lorentz_force)


def lorentz_condition_residual(state, space, em, x):
    return float(_Frame(state, space, em, x).lorentz_residual)


def conservation_residual(state, space, em, x):
    """Left side of the local conservation equations (expanded form)."""
    return np.array(_Frame(state, space, em, x).conservation)


def conservation_divergence(state, space, em, x):
    """The same residual as the direct divergence T^m_{i;m}."""
    div = levi_civita_derivative(mixed_stress_field(state, space, em), space, x)
    n = space.n
    return np.array([sum(div[m, i, m] for m in range(n)) for i in range(n)])


def continuity_residual(state, space, em, x):
    return float(_Frame(state, space, em, x).continuity)


def euler_residual(state, space, em, x):
    return np.array(_Frame(state, space, em, x).euler)


def riemann_report(state, space, em, x):
    """Full residual report at one point, including identity diagnostics."""
    fr = _Frame(state, space, em, x)
    cons = np.array(fr.conservation)
    cont = fr.continuity
    lorentz = fr.lorentz_residual
    euler = np.array(fr.euler)
    u0 = np.array(fr.u0)
    ul0 = np.array(fr.ul0)
    report = ResidualReport(x)
    report.add("lorentz", lorentz)
    report.add("conservation", cons)
    report.add("continuity", cont)
    report.add("euler", euler)
    report.add("force", fr.lorentz_force)
    report.add("contraction_identity", float(cons @ u0 - cont - lorentz))
    report.add("euler_decomposition", euler - (cons - cont * ul0))
    report.add("unit_norm_error", float(ul0 @ u0 - 1.0))
    return report


def _inertial_factor(p0, rho0, c):
    s = p0 + rho0 * c * c
    if abs(s) <= 1e-12 * max(abs(p0), abs(rho0 * c * c), 1.0):
        raise SingularDynamicsError(
            f"inertial factor p + rho c^2 = {s} vanishes"
        )
    return c * c / s


def stream_line_rhs(state, space, em, x, xdot):
    """Second derivative d^2 x/ds^2 of the stream-line equations."""
    fr = _Frame(state, space, em, x)
    n = space.n
    fac = _inertial_factor(fr.p0, fr.rho0, state.c)
    force = fr.lorentz_force
    out = []
    for k in range(n):
        acc = 0.0
        for r in range(n):
            for m in range(n):
                bracket = fr.gamma[k][r][m]
                if r == k:
                    bracket -= fac * fr.dp[m]
                acc -= bracket * xdot[r] * xdot[m]
        acc += fac * (force[k] - sum_product(fr.phinv0[k], fr.dp))
        out.append(acc)
    return out


def integrate_stream_line(state, space, em, x0, v0, step, count):
    """Classical fixed-step RK4 for the stream-line system.

    Returns an array of count+1 rows [s, x^1..x^n, dx^1/ds..dx^n/ds].
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("need at least one step")
    n = space.n
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    rows = np.empty((count + 1, 1 + 2 * n))
    rows[0] = [0.0, *x, *v]

    def accel(xx, vv):
        return np.array(stream_line_rhs(state, space, em, xx.tolist(), vv.tolist()))

    for k in range(count):
        try:
            k1x, k1v = v, accel(x, v)
            k2x, k2v = v + 0.5 * step * k1v, accel(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
            k3x, k3v = v + 0.5 * step * k2v, accel(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
            k4x, k4v = v + step * k3v, accel(x + step * k3x, v + step * k3v)
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise IntegrationError("state is not finite", step=k)
        rows[k + 1] = [(k + 1) * step, *x, *v]
    return rows


def metric_compatibility(space, x):
    """Max norms of the covariant derivatives of phi and its inverse."""
    phi_field = TensorField(
        (Slot.LD, Slot.LD),
        lambda coords: Tensor.from_nested((Slot.LD, Slot.LD), space.phi.matrix(coords)),
    )
    inv_field = TensorField(
        (Slot.LU, Slot.LU),
        lambda coords: Tensor.from_nested(
            (Slot.LU, Slot.LU), invert_symmetric(space.phi.matrix(coords))
        ),
    )
    low = levi_civita_derivative(phi_field, space, x)
    up = levi_civita_derivative(inv_field, space, x)
    return low.max_abs(), up.max_abs()
