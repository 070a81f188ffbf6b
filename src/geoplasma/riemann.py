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

from .common import (
    FluidFrame,
    ResidualReport,
    covariant_derivative,
    energy_low_mixed,
    energy_mixed_direct,
    integrate_rk4,
    mixed_stress,
    point_memo,
    unit_vector,
)
from .dual import promote, seed
from .tensor_core import (
    MetricField,
    Slot,
    Tensor,
    TensorField,
    TwoFormField,
    christoffel_from,
    christoffel_of,
    eval_matrix_jets,
    eval_tensor_jets,
    invert_symmetric,
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
    return christoffel_of(space.phi, x, point=x)


def christoffel(space, x):
    """Christoffel symbols gamma^i_jk of the metric, as a (1,2) tensor."""
    return Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD), christoffel_lists(space, x))


def _partial(jet, k):
    return jet.d(k)


def levi_civita_derivative(field, space, x):
    """Covariant derivative of a latin-valence tensor field at x.

    Returns the input tensor with one extra covariant slot: the partial
    plus one gamma correction per slot, signed by variance.
    """
    T = eval_tensor_jets(field, *seed(list(x)))
    return covariant_derivative(T, _partial, christoffel_lists(space, x))


def _unit_velocity(state, phi, coords, point=None):
    """u^i and u_i from the normalized v field and the evaluated metric phi."""
    return unit_vector(phi, [vf(coords) for vf in state.velocity], "velocity", point)[:2]


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


def mixed_stress_field(state, space, em):
    def fn(coords):
        phi = space.phi.matrix(coords)
        _, E_mix = energy_low_mixed(
            phi, invert_symmetric(phi), em.H.matrix(coords), em.G.matrix(coords)
        )
        u, u_low = _unit_velocity(state, phi, coords)
        T = mixed_stress(E_mix, u, u_low, state.pressure(coords), state.density(coords), state.c)
        return Tensor.from_nested((Slot.LU, Slot.LD), T)

    return TensorField((Slot.LU, Slot.LD), fn)


def stress_tensor(state, space, em, x):
    """Covariant and mixed plasma stress tensors at x."""
    coords = list(x)
    n = space.n
    phi = space.phi.matrix(coords)
    phinv = invert_symmetric(phi, x)
    E_low, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
    u, u_low = _unit_velocity(state, phi, coords, point=x)
    p = state.pressure(coords)
    rho = state.density(coords)
    q = rho + p / state.c**2
    T_low = [
        [q * u_low[i] * u_low[j] + p * phi[i][j] + E_low[i][j] for j in range(n)]
        for i in range(n)
    ]
    T_mix = mixed_stress(E_mix, u, u_low, p, rho, state.c)
    return (
        Tensor.from_nested((Slot.LD, Slot.LD), T_low),
        Tensor.from_nested((Slot.LU, Slot.LD), T_mix),
    )


def _energy_divergence(E_mix, gamma):
    """E^m_{i;m} from the mixed energy jets.

    Each correction term adds ``a*b - c*d`` in one step; this summation
    order is part of the output bytes (lagrange adds and then subtracts).
    """
    n = len(gamma)
    E0 = [[e.value for e in row] for row in E_mix]
    out = []
    for i in range(n):
        acc = 0.0
        for m in range(n):
            acc += E_mix[m][i].d(m)
            for r in range(n):
                acc += E0[r][i] * gamma[m][r][m] - E0[m][r] * gamma[r][i][m]
        out.append(acc)
    return out


class _Frame(FluidFrame):
    """All jet-level quantities of one evaluation point, computed once.

    The base manifold has one derivative channel, ``h``: plain partials
    with the Christoffel symbols.
    """

    def __init__(self, state, space, em, x):
        n = space.n
        coords, ctx = seed(list(x))
        phiraw = space.phi.matrix(coords)
        phi = [[promote(v, ctx) for v in row] for row in phiraw]
        phinv = invert_symmetric(phi, x)
        H = eval_matrix_jets(em.H, coords, ctx)
        G = eval_matrix_jets(em.G, coords, ctx)
        _, E_mix = energy_low_mixed(phi, phinv, H, G)
        u, u_low = _unit_velocity(state, phiraw, coords, point=x)
        super().__init__(
            state.c, phi, phinv,
            [promote(e, ctx) for e in u],
            [promote(e, ctx) for e in u_low],
            promote(state.pressure(coords), ctx),
            promote(state.density(coords), ctx),
        )
        dphi = [[[phi[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
        gamma = christoffel_from(self.ginv0, dphi)
        self.h = self.channel(gamma, _partial, _energy_divergence(E_mix, gamma))


def conservation_divergence(state, space, em, x):
    """The same residual as the direct divergence T^m_{i;m}."""
    div = levi_civita_derivative(mixed_stress_field(state, space, em), space, x)
    n = space.n
    return np.array([sum(div[m, i, m] for m in range(n)) for i in range(n)])


def riemann_report(state, space, em, x):
    """Full residual report at one point, including identity diagnostics."""
    fr = _Frame(state, space, em, x)
    report = ResidualReport(x)
    fr.add_channel(report, fr.h)
    report.add("unit_norm_error", fr.unit_norm_error())
    return report


def stream_line_rhs(state, space, em, x, xdot):
    """Second derivative d^2 x/ds^2 of the stream-line equations."""
    fr = _Frame(state, space, em, x)
    return fr.stream_line_core(fr.h, xdot)


def integrate_stream_line(state, space, em, x0, v0, step, count):
    """Classical fixed-step RK4 for the stream-line system.

    Returns an array of count+1 rows [s, x^1..x^n, dx^1/ds..dx^n/ds].
    """
    return integrate_rk4(
        lambda x, v: stream_line_rhs(state, space, em, x, v), x0, v0, step, count
    )


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
