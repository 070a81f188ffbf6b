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

from . import _numpy as np
from .common import (
    FluidFrame,
    MetricJets,
    add_residuals,
    covariant_derivative,
    energy_low_mixed,
    energy_mixed_paths,
    integrate_rk4,
    jet_block,
    lane_array,
    max_abs,
    mixed_stress_jets,
    point_memo,
    stress_lists,
    unit_norm_error,
    unit_vector,
)
from .dual import promote
from .tensor_core import Slot, christoffel_from, eval_jets


@dataclass(frozen=True)
class SemiRiemannianSpace:
    n: int
    phi: object  # metric field over x


@dataclass(frozen=True)
class ElectromagneticPair:
    H: object  # two-form fields over x
    G: object


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
    """Connection coefficients gamma[i][j][k] at x on the point's
    :class:`~geoplasma.common.MetricJets`: the riemann frame and the
    canonical nonlinear connection of the multitime models read them."""
    m, n = MetricJets(space.phi, x), space.n
    return christoffel_from(m.ginv0, [[[m.g[i][j].d(k) for j in range(n)] for i in range(n)]
                                      for k in range(n)])


def christoffel(space, x):
    """Christoffel symbols gamma^i_jk of the metric, as a float array [i, j, k] (lanes last)."""
    return lane_array(christoffel_lists(space, x), np.shape(x[0]))


def _partial(jet, k):
    return jet.d(k)


def _levi_civita(block, slots, gamma):
    """The derivative from the jet block of a latin tensor, seeded at the point
    of the Christoffel array ``gamma``."""
    partials = np.moveaxis(block[1:], 0, len(slots))  # row 1 + k: the partial along k
    return covariant_derivative(block, slots, partials, [gamma] * len(slots), partial_first=True)


def _unit_velocity(state, phi, coords, point=None):
    """u^i and u_i from the normalized v field and the evaluated metric phi."""
    return unit_vector(phi, [vf(coords) for vf in state.velocity], "velocity", point)[:2]


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


@point_memo
class _Frame(FluidFrame):
    """All jet-level quantities of one evaluation point, computed once, on the
    point's :class:`~geoplasma.common.MetricJets`.

    The base manifold has one derivative channel, ``h``: plain partials
    with the Christoffel symbols.  The jets ``H``, ``G``, ``E_low`` and
    ``E_mix`` stay for the two-path checks of verify.
    """

    def __init__(self, state, space, em, x):
        m = MetricJets(space.phi, x)
        self.H = eval_jets(em.H, m.cj, m.ctx)
        self.G = eval_jets(em.G, m.cj, m.ctx)
        self.E_low, self.E_mix = energy_low_mixed(m.g, m.ginv, self.H, self.G)
        u, u_low = _unit_velocity(state, m.raw, m.cj, point=x)
        super().__init__(
            state.c, m.g, m.ginv,
            [promote(e, m.ctx) for e in u],
            [promote(e, m.ctx) for e in u_low],
            promote(state.pressure(m.cj), m.ctx),
            promote(state.density(m.cj), m.ctx),
        )
        gamma = christoffel_lists(space, x)
        self.h = self.channel(gamma, _partial, _energy_divergence(self.E_mix, gamma))


def conservation_divergence(state, space, em, x):
    """The same residual as the direct divergence T^m_{i;m} of the mixed
    stress, built from the point's frame jets and differentiated through them."""
    T = jet_block(mixed_stress_jets(_Frame(state, space, em, x)), 2)
    div = _levi_civita(T, (Slot.LU, Slot.LD), christoffel(space, x))
    n = space.n
    return np.array([sum(div[m, i, m] for m in range(n)) for i in range(n)])


def stress_tensors(state, space, em, x):
    """Covariant and mixed plasma stress tensors at x, from the point's frame."""
    return tuple(lane_array(T, np.shape(x[0])) for T in stress_lists(_Frame(state, space, em, x)))


def energy_mixed(state, space, em, x):
    """The mixed energy tensor at x two ways: the frame's, and by the delta-form
    path on the frame's values (see :func:`~geoplasma.common.energy_mixed_paths`)."""
    return energy_mixed_paths(_Frame(state, space, em, x), np.shape(x[0]))


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

    Returns count+1 rows [s, x^1..x^n, dx^1/ds..dx^n/ds], each followed by
    the value of every one of ``monitors``, as lists of Python floats (see
    :func:`~geoplasma.common.integrate_rk4`).
    """
    return integrate_rk4(
        lambda x, v: stream_line_rhs(state, space, em, x, v), x0, v0, step, count, monitors
    )


def metric_compatibility(space, x):
    """Max norms of the covariant derivatives of phi and its inverse, one per lane on lanes."""
    gamma = christoffel(space, x)
    return tuple(max_abs(_levi_civita(block, slots, gamma), np.ndim(x[0]) > 0)
                 for slots, block in MetricJets(space.phi, x).blocks)
