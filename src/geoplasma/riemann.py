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
    add_residuals,
    covariant_derivative,
    energy_low_mixed,
    energy_mixed_direct,
    integrate_rk4,
    lane_array,
    latin_block,
    max_abs,
    metric_blocks,
    mixed_stress,
    point_memo,
    unit_norm_error,
    unit_vector,
)
from .dual import promote, seed
from .tensor_core import (
    MetricField,
    Slot,
    TwoFormField,
    christoffel_from,
    christoffel_of,
    eval_jets,
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
    """Christoffel symbols gamma^i_jk of the metric, as a float array [i, j, k] (lanes last)."""
    return lane_array(christoffel_lists(space, x), np.shape(x[0]))


def _partial(jet, k):
    return jet.d(k)


def levi_civita_derivative(field, slots, space, x):
    """Covariant derivative of a latin-valence tensor field at x.

    ``field(coords)`` returns nested lists with one valence tag per level
    in ``slots``.  Returns a float array with one extra covariant axis:
    the partial plus one gamma correction per slot, signed by variance.
    """
    return _levi_civita(latin_block(field, slots, x), slots, christoffel(space, x))


def _levi_civita(block, slots, gamma):
    """The derivative from the jet block of a latin tensor, seeded at the point
    of the Christoffel array ``gamma``."""
    partials = np.moveaxis(block[1:], 0, len(slots))  # row 1 + k: the partial along k
    return covariant_derivative(block, slots, partials, [gamma] * len(slots), partial_first=True)


def _unit_velocity(state, phi, coords, point=None):
    """u^i and u_i from the normalized v field and the evaluated metric phi."""
    return unit_vector(phi, [vf(coords) for vf in state.velocity], "velocity", point)[:2]


def minkowski_energy(space, em, x):
    """Covariant and mixed Minkowski energy tensors at x."""
    coords = list(x)
    phi = space.phi.matrix(coords)
    phinv = invert_symmetric(phi, x)
    E_low, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
    return lane_array(E_low, np.shape(x[0])), lane_array(E_mix, np.shape(x[0]))


def minkowski_energy_direct(space, em, x):
    """Mixed energy tensor by the independent delta-form path."""
    coords = list(x)
    phinv = invert_symmetric(space.phi.matrix(coords), x)
    E_mix = energy_mixed_direct(phinv, em.H.matrix(coords), em.G.matrix(coords))
    return lane_array(E_mix, np.shape(x[0]))


def mixed_stress_field(state, space, em):
    """The mixed stress T^m_i as a nested-list field over coordinates."""

    def fn(coords):
        phi = space.phi.matrix(coords)
        _, E_mix = energy_low_mixed(
            phi, invert_symmetric(phi), em.H.matrix(coords), em.G.matrix(coords)
        )
        u, u_low = _unit_velocity(state, phi, coords)
        return mixed_stress(E_mix, u, u_low, state.pressure(coords), state.density(coords), state.c)

    return fn


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
    return lane_array(T_low, np.shape(x[0])), lane_array(T_mix, np.shape(x[0]))


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
        H = eval_jets(em.H.matrix, coords, ctx)
        G = eval_jets(em.G.matrix, coords, ctx)
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
    div = levi_civita_derivative(
        mixed_stress_field(state, space, em), (Slot.LU, Slot.LD), space, x
    )
    n = space.n
    return np.array([sum(div[m, i, m] for m in range(n)) for i in range(n)])


def riemann_report(state, space, em, x):
    """Full residual report at x, including identity diagnostics.

    Coordinates that are lane arrays, one lane per point, give every entry a
    trailing lane axis with the bits of each point's report; points that
    disagree on a condition raise ``BatchSplit``.
    """
    fr = _Frame(state, space, em, x)
    lanes = np.shape(x[0])
    report = {}
    add_residuals(report, fr.channel_values(fr.h), "", lanes)
    report["unit_norm_error"] = unit_norm_error(fr.u0, fr.ul0, lanes)
    return report


def stream_line_rhs(state, space, em, x, xdot):
    """Second derivative d^2 x/ds^2 of the stream-line equations."""
    fr = _Frame(state, space, em, x)
    return fr.stream_line_core(fr.h, xdot)


def integrate_stream_line(state, space, em, x0, v0, step, count, monitors=()):
    """Classical fixed-step RK4 for the stream-line system.

    Returns an array of count+1 rows [s, x^1..x^n, dx^1/ds..dx^n/ds], each
    followed by the value of every one of ``monitors`` (see
    :func:`~geoplasma.common.integrate_rk4`).
    """
    return integrate_rk4(
        lambda x, v: stream_line_rhs(state, space, em, x, v), x0, v0, step, count, monitors
    )


def metric_compatibility(space, x):
    """Max norms of the covariant derivatives of phi and its inverse, one per lane on lanes."""
    gamma = christoffel(space, x)
    return tuple(max_abs(_levi_civita(block, slots, gamma), np.ndim(x[0]) > 0)
                 for slots, block in metric_blocks(space.phi.matrix, x))
