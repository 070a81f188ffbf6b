"""Plasma pipeline on the first jet space of maps from multi-time.

Coordinates are (t^alpha, x^i, x^i_alpha) with greek indices running over
the temporal dimension p and latin over the spatial dimension n.  The
flat coordinate layout is [t^1..t^p, x^1..x^n, x^1_1..x^1_p, ..., x^n_p].

A nonlinear connection splits derivatives into a temporal-horizontal
channel (coefficients: temporal Christoffel symbols kappa and the mixed
block G), a spatial-horizontal channel (coefficients L) and a vertical
channel (coefficients C carrying a paired greek label); jet-fiber pairs
are adjacent elementary latin/greek slots.  The adapted derivatives act on
coefficient rows, those of one jet or a block stacking every component of
a tensor, so the connection blocks and the covariant derivative of
:mod:`geoplasma.common`, which this module feeds with the partials and
blocks of each kind, take each partial of all components at once.

The residuals run on the channel algebra of :mod:`geoplasma.common`: each
velocity label beta has a :class:`~geoplasma.common.FluidFrame` of the
column u^i_beta, with one horizontal channel (L, delta/delta x) and p
vertical channels (C[..][..][..][mu], d/dx^i_mu).  One conservation and
one continuity, contracted over the greek labels with h^-1, run over every
channel c: c = 0 is the horizontal one and c = 1 + mu the vertical one of
label mu.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import _numpy as np
from . import dual
from .common import (
    FluidFrame,
    covariant_derivative,
    energy_divergence,
    energy_low_mixed,
    inertial_factor,
    jet_block,
    jet_rows,
    lane_array,
    max_abs,
    point_memo,
)
from .dual import promote, scalar_value, seed
from .errors import GridError, NormalizationError, TensorError
from .tensor_core import (
    Slot,
    christoffel_from,
    christoffel_of,
    eval_jets,
    fiber_contraction,
    invert_symmetric,
    mat_vec,
    quadratic_form,
    sum_product,
)


@dataclass(frozen=True)
class MultiTimeSpace:
    p: int
    n: int
    h: object  # metric field over t
    g: object  # metric field over full jet coordinates
    N: object  # callable coords -> N[i][alpha][j]


@dataclass(frozen=True)
class MultiTimeFluidState:
    pressure: object
    density: object
    c: float
    em_H: object
    em_G: object


def fiber_index(p, n, i, alpha):
    return p + n + i * p + alpha


def canonical_connection(christoffel, p, n):
    """The canonical nonlinear connection N^(i)_(alpha)j = Gamma^i_jm x^m_alpha.

    ``christoffel(coords)`` gives Gamma[i][j][m] at a jet point: those of the
    jet-space metric along x, or those of a model's base metric phi.  The
    temporal block M = -kappa x is never stored, it enters through the
    adapted temporal derivative directly.
    """

    def fn(coords):
        gamma = christoffel(coords)
        planes = [fiber_contraction(gamma, [coords[fiber_index(p, n, m, a)] for m in range(n)])
                  for a in range(p)]
        return [[plane[i] for plane in planes] for i in range(n)]

    return fn


@point_memo
def temporal_christoffel_lists(space, t_coords):
    """kappa[gamma][alpha][beta] of the temporal metric at t."""
    return christoffel_of(space.h, t_coords, point=t_coords)


def _nested(a):
    """An (n, n[, B]) block as nested lists: Python floats at one point, lane rows on a batch."""
    return a.tolist() if a.ndim == 2 else [list(row) for row in a]


@point_memo
class _Derivatives:
    """Adapted derivative operators bound to one seeding of a jet point.

    Each operator acts on coefficient rows: those of one jet, or a stacked
    block [slot][*index][lane] of many jets of the seeding, on which one
    operation per term serves every component.  The terms of N != 0 and
    kappa != 0 of an index are decided on its first use; only
    :meth:`delta_t` reads kappa, which is built then: the residual and
    sheet frames take no temporal derivative.
    """

    def __init__(self, space, coords):
        p, n = space.p, space.n
        self.p, self.n = p, n
        self._space, self._t = space, coords[:p]
        self.N0 = [
            [[scalar_value(v) for v in row] for row in plane]
            for plane in space.N(list(coords))
        ]
        self.xd0 = [
            [scalar_value(coords[fiber_index(p, n, i, a)]) for a in range(p)]
            for i in range(n)
        ]
        self._dt, self._dx = {}, {}  # the terms of each index, decided on first use

    @functools.cached_property
    def kappa(self):
        return temporal_christoffel_lists(self._space, self._t)

    def _slot(self, i, alpha):
        return 1 + fiber_index(self.p, self.n, i, alpha)

    def _t_terms(self, alpha):
        """(kappa^gamma_alpha_mu x^m_gamma, slot of d/dx^m_mu) of delta/delta t^alpha."""
        if alpha not in self._dt:
            self._dt[alpha] = [(k * self.xd0[m][gamma], self._slot(m, mu))
                              for gamma in range(self.p) for mu in range(self.p)
                              if not dual.branch((k := self.kappa[gamma][alpha][mu]) == 0.0)
                              for m in range(self.n)]
        return self._dt[alpha]

    def _x_terms(self, i):
        """(N^m_mu_i, slot of d/dx^m_mu) of delta/delta x^i."""
        if i not in self._dx:
            self._dx[i] = [(self.N0[m][mu][i], self._slot(m, mu))
                          for m in range(self.n) for mu in range(self.p)
                          if dual.branch(self.N0[m][mu][i] != 0.0)]
        return self._dx[i]

    def fiber(self, x, i, alpha):
        return jet_rows(x)[self._slot(i, alpha)]

    def delta_t(self, x, alpha):
        rows = jet_rows(x)
        acc = rows[1 + alpha]
        for coeff, slot in self._t_terms(alpha):
            acc = acc + coeff * rows[slot]
        return acc

    def delta_x(self, x, i):
        rows = jet_rows(x)
        acc = rows[1 + self.p + i]
        for nval, slot in self._x_terms(i):
            acc = acc - nval * rows[slot]
        return acc


@point_memo
def cartan_gamma(space, coords):
    """Blocks (kappa, G, L, C) of the canonical connection at a jet point, as
    float arrays.

    G[k][j][gamma] = (g^{km}/2) delta g_mj / delta t^gamma,
    L[i][j][k] as on the base, C[i][j][k][gamma] from fiber derivatives;
    G, L and C are built on the point's :class:`_MetricJets`.
    """
    # kappa first: it splits a batch before any seeding, and h's error comes first
    kappa = temporal_christoffel_lists(space, coords[:space.p])
    m = _MetricJets(space, coords)
    ginv0 = [[e.value for e in row] for row in m.ginv]
    blocks = (kappa, _mixed_block(m.ops, m.gblock, ginv0), *_spatial_blocks(m.ops, m.gblock, ginv0))
    return tuple(np.array(b, dtype=float) for b in blocks)


def _mixed_block(ops, g, ginv0):
    """G[k][j][gamma] = (g^{km}/2) delta g_mj / delta t^gamma from the stacked
    metric block of one seeding and g^-1 values.

    The one block on :meth:`_Derivatives.delta_t`.  Only
    :func:`cartan_gamma` builds it; the per-point frame does not.
    """
    p, n = ops.p, ops.n
    Gt = [[[0.0] * p for _ in range(n)] for _ in range(n)]
    for gamma in range(p):
        dgt = _nested(ops.delta_t(g, gamma))
        for k in range(n):
            for j in range(n):
                Gt[k][j][gamma] = 0.5 * sum_product(ginv0[k], [dgt[m][j] for m in range(n)])
    return Gt


def _spatial_blocks(ops, g, ginv0):
    """(L, C) from the stacked metric block of one seeding and g^-1 values.

    L[i][j][k] is the Christoffel formula on the adapted derivatives
    delta g_ij / delta x^k, and C[i][j][k][gamma] on the fiber derivatives
    d g_ij / d x^k_gamma, one block per greek label.  Shared by
    :func:`cartan_gamma` and the per-point frame.
    """
    p, n = ops.p, ops.n
    L = christoffel_from(ginv0, [_nested(ops.delta_x(g, k)) for k in range(n)])

    C = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for gamma in range(p):
        block = christoffel_from(ginv0, [_nested(ops.fiber(g, k, gamma)) for k in range(n)])
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    C[i][j][k][gamma] = block[i][j][k]
    return L, C


def _jet_covariant(block, slots, space, coords, kind):
    """Covariant derivative of a d-tensor T at a jet point, from the
    :func:`~geoplasma.common.jet_block` of its jets.

    T has one valence tag per index in ``slots``.  ``kind`` is one of "hT"
    (adds a covariant greek axis), "hM" (adds a covariant latin axis) or "v"
    (adds the paired contravariant-greek and covariant-latin axes, in that
    order); the result is a float array.  Coefficients: kappa for greek and
    G for latin slots under hT, L for latin under hM, C for latin under v;
    greek slots are untouched by hM and v.  The corrections are summed from
    0.0 and the partial is added last.
    """
    p, n = space.p, space.n
    kappa, Gt, L, C = cartan_gamma(space, coords)  # kappa before N: h's error first
    ops = _Derivatives(space, coords)
    r = len(slots)
    # the latin and greek coefficients are indexed [i][m][*derivative index]
    if kind == "hT":
        partials, latin, greek = [ops.delta_t(block, eps) for eps in range(p)], Gt, kappa
    elif kind == "hM":
        partials, latin, greek = [ops.delta_x(block, q) for q in range(n)], L, None
    elif kind == "v":
        partials = [np.stack([ops.fiber(block, q, eps) for q in range(n)], axis=r)
                    for eps in range(p)]
        latin, greek = np.swapaxes(C, 2, 3), None
    else:
        raise TensorError(f"unknown derivative kind {kind!r}")
    coeffs = [latin if slot.latin else greek for slot in slots]
    return covariant_derivative(block, slots, np.stack(partials, axis=r), coeffs,
                                partial_first=False)


def _velocity(space, coords, g, hinv, point=None):
    """u_beta = x_beta/eps and u_{i beta} from the evaluated metric g.

    eps^2 = h^{mu nu} g_pq x^p_mu x^q_nu; both blocks are indexed [beta][i].
    """
    p, n = space.p, space.n
    xd = [[coords[fiber_index(p, n, i, a)] for i in range(n)] for a in range(p)]
    eps2 = 0.0
    for mu in range(p):
        for nu in range(p):
            eps2 = eps2 + hinv[mu][nu] * quadratic_form(g, xd[mu], xd[nu])
    if dual.branch(scalar_value(eps2) <= 0.0):
        raise NormalizationError(
            "jet fiber quadratic form is not positive",
            point=point, value=scalar_value(eps2),
        )
    eps = dual.sqrt(eps2)
    u = [[x / eps for x in col] for col in xd]
    return u, [mat_vec(g, col) for col in u], eps


@point_memo
class _MetricJets:
    """h, h^-1, g and g^-1 as jets of one seeding of a jet point, shared by
    the frame and the metric compatibilities; ``graw`` holds g as the field
    gives it (for the unit velocity), ``gblock`` its :func:`~geoplasma.common.jet_block`."""

    def __init__(self, space, coords):
        self.cj, self.ctx = cj, ctx = seed(list(coords))
        self.h = eval_jets(space.h, cj[:space.p], ctx)
        self.hinv = invert_symmetric(self.h, coords[:space.p])  # before N, which may invert g
        self.ops = _Derivatives(space, coords)
        self.graw = space.g(cj)
        self.g = [[promote(v, ctx) for v in row] for row in self.graw]
        self.ginv = invert_symmetric(self.g, coords)
        self.gblock = jet_block(self.g, 2)


@point_memo
class _Frame:
    """Jet-level quantities of one jet point, computed once.

    ``cols[beta]`` is the :class:`FluidFrame` of the velocity column
    u^i_beta with channels ``h`` (L, delta/delta x) and ``v[mu]``
    (C[..][..][..][mu], d/dx^i_mu); the connection blocks, the energy
    divergences and the pressure partials are shared by all columns.
    ``u0``/``ul0`` hold the velocity values indexed [i][beta]; the jets
    ``hinv``, ``E_mix``, ``u`` ([i][beta]), ``u_low`` ([beta][i]), ``pr`` and
    ``q`` build the mixed stress of the direct divergence.
    """

    def __init__(self, state, space, coords):
        p, n = space.p, space.n
        self.p, self.n = p, n
        self.c = state.c
        m = _MetricJets(space, coords)
        cj, ctx, g, ginv, self.hinv = m.cj, m.ctx, m.g, m.ginv, m.hinv
        self.hinv0 = [[e.value for e in row] for row in m.hinv]
        ops = self.ops = m.ops
        self.N0 = ops.N0
        self.xd0 = ops.xd0
        self.L, self.C = _spatial_blocks(ops, m.gblock, [[e.value for e in row] for row in ginv])

        H = eval_jets(state.em_H, cj, ctx)
        G = eval_jets(state.em_G, cj, ctx)
        E_low, E_mix = energy_low_mixed(g, ginv, H, G)
        self.E_mix = E_mix
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]

        u, u_low, eps = _velocity(space, cj, m.graw, m.hinv, point=coords)
        self.u = [[promote(u[a][i], ctx) for a in range(p)] for i in range(n)]
        self.u_low = [[promote(e, ctx) for e in col] for col in u_low]
        self.eps = promote(eps, ctx)
        self.eps0 = self.eps.value
        self.pr = pr = promote(state.pressure(cj), ctx)
        rho = promote(state.density(cj), ctx)
        self.q = rho + pr / state.c**2

        C_mu = [[[[c[mu] for c in row] for row in plane] for plane in self.C] for mu in range(p)]
        fibers = [functools.partial(ops.fiber, alpha=mu) for mu in range(p)]
        ediv_h = energy_divergence(E_mix, self.L, ops.delta_x)
        ediv_v = [energy_divergence(E_mix, C_mu[mu], fibers[mu]) for mu in range(p)]
        self.cols = []
        for b in range(p):
            col = FluidFrame(
                state.c, g, ginv,
                [self.u[i][b] for i in range(n)],
                self.u_low[b],
                pr, rho,
            )
            col.h = col.channel(self.L, ops.delta_x, ediv_h)
            col.v = [col.channel(C_mu[mu], fibers[mu], ediv_v[mu]) for mu in range(p)]
            self.cols.append(col)
        col = self.cols[0]
        self.g0, self.ginv0 = col.g0, col.ginv0
        self.p0, self.rho0, self.q0 = col.p0, col.rho0, col.q0
        self.u0 = [[c.u0[i] for c in self.cols] for i in range(n)]
        self.ul0 = [[c.ul0[i] for c in self.cols] for i in range(n)]
        # the label-independent channel parts: coeff, ediv and dp
        self.h, self.v = col.h, col.v
        self.force_h = col.lorentz_force(col.h)
        self.force_v = [col.lorentz_force(ch) for ch in col.v]  # [mu][k]


def multitime_residuals(state, space, coords):
    """Full multi-time residual report at one jet point.

    Conservation and continuity run over channel c: c = 0 is the horizontal
    channel (L, delta/delta x), c = 1 + mu the vertical one of label mu
    (C[..][..][..][mu], d/dx^i_mu).  The repeated greek label of the
    vertical conservation equations is read as a free index (an (i, mu)
    tensor); the vertical continuity residual is the fully contracted
    scalar.  The report maps entry names to float arrays; coordinates that
    are lane arrays give each entry a trailing lane axis.
    """
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    hinv0, u0, ul0, q0 = fr.hinv0, fr.u0, fr.ul0, fr.q0
    cols = fr.cols
    chans = [(col.h, *col.v) for col in cols]  # [b][c]
    dps = [ch.dp for ch in chans[0]]  # [c][i]: every column differentiates one p
    forces = [fr.force_h, *fr.force_v]  # [c][k]
    lorentz_h = [
        sum(fr.h.ediv[i] * u0[i][a] for i in range(n)) for a in range(p)
    ]
    lorentz_v = sum(
        fr.v[mu].ediv[i] * u0[i][mu] for i in range(n) for mu in range(p)
    )
    wdiv = [[col.qu_divergence(ch) for ch in chs] for col, chs in zip(cols, chans)]  # [a][c]

    def conservation(c, i):
        acc = dps[c][i] - sum_product(fr.g0[i], forces[c])
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                acc += hab * wdiv[a][c] * ul0[i][b]
                for m in range(n):
                    acc += q0 * hab * u0[m][a] * cols[b].u_cov_low(chans[b][c], i, m)
        return acc

    def continuity(acc, c, mu):
        """``acc`` plus the continuity of channel c projected on label mu."""
        acc += sum(dps[c][m] * u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                proj = sum(ul0[i][b] * u0[i][mu] for i in range(n))
                acc += hab * wdiv[a][c] * proj
                for m in range(n):
                    for i in range(n):
                        acc += (q0 * hab * u0[m][a] * cols[b].u_cov_low(chans[b][c], i, m)
                                * u0[i][mu])
        return acc

    cons_h = [conservation(0, i) for i in range(n)]
    cons_v = [[conservation(1 + mu, i) for mu in range(p)] for i in range(n)]
    cont_h = [continuity(0.0, 0, mu) for mu in range(p)]
    cont_v = 0.0
    for mu in range(p):
        cont_v = continuity(cont_v, 1 + mu, mu)

    T_low, T_mix = _stress_lists(fr)
    lanes = np.shape(coords[0])
    u = lane_array(u0, lanes)
    contraction_h = [
        sum(cons_h[i] * u[i][mu] for i in range(n)) - cont_h[mu] - lorentz_h[mu]
        for mu in range(p)
    ]
    contraction_v = (
        sum(cons_v[i][mu] * u[i][mu] for i in range(n) for mu in range(p))
        - cont_v - lorentz_v
    )
    norm = sum(
        hinv0[a][b] * ul0[i][a] * u0[i][b]
        for a in range(p) for b in range(p) for i in range(n)
    )
    return {name: lane_array(value, lanes) for name, value in (
        ("stress", T_low), ("stress_mixed", T_mix), ("lorentz_h", lorentz_h),
        ("lorentz_v", lorentz_v), ("conservation_h", cons_h), ("conservation_v", cons_v),
        ("continuity_h", cont_h), ("continuity_v", cont_v), ("force_h", forces[0]),
        ("force_v", [list(k) for k in zip(*forces[1:])]),  # [k][mu]
        ("contraction_identity_h", contraction_h), ("contraction_identity_v", contraction_v),
        ("unit_norm_error", norm - 1.0))}


def _stress_lists(fr):
    """Covariant and mixed stress components of a frame, as nested lists."""
    p, n = fr.p, fr.n
    T_low = [[0.0] * n for _ in range(n)]
    T_mix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    acc += fr.hinv0[a][b] * fr.ul0[i][a] * fr.ul0[j][b]
            T_low[i][j] = fr.q0 * acc + fr.p0 * fr.g0[i][j] + fr.E_low0[i][j]
    for m in range(n):
        for i in range(n):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    acc += fr.hinv0[a][b] * fr.u0[m][a] * fr.ul0[i][b]
            T_mix[m][i] = fr.q0 * acc + fr.E_mix0[m][i] + (fr.p0 if m == i else 0.0)
    return T_low, T_mix


def stress_tensors(state, space, coords):
    """Covariant and mixed stress d-tensors at a jet point."""
    T_low, T_mix = _stress_lists(_Frame(state, space, coords))
    return np.array(T_low, dtype=float), np.array(T_mix, dtype=float)


def stress_block_table(state, space, coords):
    """Adapted block components of the stress d-tensor.

    Returns the spatial block T_ij and the fiber block h^{eta nu} T_ij
    (indexed [eta][nu][i][j]); all other blocks vanish identically.
    """
    spatial, _ = stress_tensors(state, space, coords)
    _, hinv = frame_inverses(state, space, coords)
    fiber = np.einsum("ab...,ij...->abij...", hinv, spatial)
    return spatial, fiber


def frame_inverses(state, space, coords):
    """Values of g^-1 and h^-1 at a jet point, as float arrays: the point's
    frame has inverted both already."""
    fr = _Frame(state, space, coords)
    return np.array(fr.ginv0), np.array(fr.hinv0)


def _mixed_stress(fr):
    """The mixed stress T^m_i as jets of a frame's seeding."""
    p, n = fr.p, fr.n
    out = [[0.0] * n for _ in range(n)]
    for m in range(n):
        for i in range(n):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    acc = acc + fr.hinv[a][b] * fr.u[m][a] * fr.u_low[b][i]
            acc = fr.q * acc + fr.E_mix[m][i]
            out[m][i] = acc + fr.pr if m == i else acc
    return out


def conservation_divergence(state, space, coords):
    """Direct contracted divergences (h, v) of the mixed stress, built from the
    point's frame jets and differentiated through them."""
    n, p = space.n, space.p
    T = jet_block(_mixed_stress(_Frame(state, space, coords)), 2)
    d = _jet_covariant(T, (Slot.LU, Slot.LD), space, coords, "hM")
    h = np.array([sum(d[m, i, m] for m in range(n)) for i in range(n)])
    d = _jet_covariant(T, (Slot.LU, Slot.LD), space, coords, "v")
    return h, np.array(
        [[sum(d[m, i, mu, m] for m in range(n)) for mu in range(p)] for i in range(n)]
    )


def metric_compatibility(space, coords):
    """Metric compatibilities of h, g and their inverses, all channels, on the
    metric jets the point's frame is built on: max norms, one per lane when
    the coordinates are lane arrays."""
    lanes = np.ndim(coords[0]) > 0
    # the blocks build kappa before the metric jets: it splits a batch before
    # any seeding, and h's error comes first
    cartan_gamma(space, coords)
    m = _MetricJets(space, coords)
    out = {}
    for name, slots, block in (("h", (Slot.GD, Slot.GD), jet_block(m.h, 2)),
                               ("hinv", (Slot.GU, Slot.GU), jet_block(m.hinv, 2)),
                               ("g", (Slot.LD, Slot.LD), m.gblock),
                               ("ginv", (Slot.LU, Slot.LU), jet_block(m.ginv, 2))):
        for kind in ("hT", "hM", "v"):
            d = _jet_covariant(block, slots, space, coords, kind)
            out[f"{name}_{kind}"] = max_abs(d, lanes)
    return out


# -- stream sheets -----------------------------------------------------------


def stream_sheet_residuals(state, space, coords, coefficients=False):
    """Horizontal and vertical stream-sheet PDE residuals at a jet point.

    Evaluates the local displays: the horizontal residual carries the
    coefficient H_m built from adapted base derivatives of (rho+p/c^2)/eps0
    and 1/eps0, the vertical one the fiber-derivative analogue V^(mu)_(m)
    plus the dimension term n*delta^mu_alpha.  Returns (vector over k,
    matrix over (k, mu)), followed with ``coefficients`` by the values of
    H_m and V^(mu)_(m) (indexed [m][mu]).  Coordinates that are lane
    arrays give each array a trailing lane axis.
    """
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    inertial_factor(fr.p0, fr.rho0, fr.c)  # validates p + rho c^2 != 0
    eps0 = fr.eps0
    q0 = fr.q0
    xd = fr.xd0
    Hm, Vm = _sheet_coefficients(fr)
    force_h, force_v = fr.force_h, fr.force_v

    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                inner = 0.0
                for m in range(n):
                    inner += Hm[m] * xd[m][a] * xd[k][b]
                    bracket_k = sum(fr.L[k][r][m] * xd[r][b] for r in range(n))
                    bracket_k -= fr.N0[k][b][m]
                    inner += (q0 / eps0) * bracket_k * xd[m][a]
                trace_term = 0.0
                for m in range(n):
                    trace_term += sum(fr.L[m][r][m] * xd[r][a] for r in range(n))
                    trace_term -= fr.N0[m][a][m]
                inner += (q0 / eps0) * trace_term * xd[k][b]
                acc += hab * inner
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.h.dp))
        horizontal.append(acc)

    vertical = [[0.0] * p for _ in range(n)]
    for k in range(n):
        for mu in range(p):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    hab = fr.hinv0[a][b]
                    if dual.branch(hab == 0.0):
                        continue
                    inner = 0.0
                    for m in range(n):
                        inner += Vm[m][mu] * xd[m][a] * xd[k][b]
                    inner += (q0 / eps0) * (
                        (n if mu == a else 0.0) * xd[k][b]
                        + (xd[k][a] if mu == b else 0.0)
                    )
                    for r in range(n):
                        cterm = sum(fr.C[k][m][r][mu] * xd[m][b] for m in range(n))
                        cterm += sum(fr.C[m][r][m][mu] for m in range(n)) * xd[k][b]
                        inner += (q0 / eps0) * cterm * xd[r][a]
                    acc += hab * inner
            acc -= eps0 * (
                force_v[mu][k]
                - sum(fr.ginv0[k][m] * fr.v[mu].dp[m] for m in range(n))
            )
            vertical[k][mu] = acc
    lanes = np.shape(coords[0])
    out = (lane_array(horizontal, lanes), lane_array(vertical, lanes))
    if coefficients:
        out += (lane_array(Hm, lanes), lane_array(Vm, lanes))
    return out


def _sheet_coefficients(fr):
    """H_m and V^(mu)_(m): adapted derivatives of (rho+p/c^2)/eps0 and 1/eps0."""
    p, n = fr.p, fr.n
    A = fr.q / fr.eps
    B = 1.0 / fr.eps
    Hm = [fr.ops.delta_x(A, m) + fr.q0 * fr.ops.delta_x(B, m) for m in range(n)]
    Vm = [
        [fr.ops.fiber(A, m, mu) + fr.q0 * fr.ops.fiber(B, m, mu) for mu in range(p)]
        for m in range(n)
    ]
    return Hm, Vm


def stream_sheet_residuals_bsml(state, space, coords):
    """Simplified displays valid when the G and C blocks vanish."""
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    eps0 = fr.eps0
    q0 = fr.q0
    xd = fr.xd0
    Hm, Vm = _sheet_coefficients(fr)
    force_h, force_v = fr.force_h, fr.force_v
    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                for m in range(n):
                    acc += hab * Hm[m] * xd[m][a] * xd[k][b]
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.h.dp))
        horizontal.append(acc)
    vertical = [[0.0] * p for _ in range(n)]
    for k in range(n):
        for mu in range(p):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    hab = fr.hinv0[a][b]
                    inner = sum(Vm[m][mu] * xd[m][a] for m in range(n)) * xd[k][b]
                    inner += (q0 / eps0) * (
                        (n if mu == a else 0.0) * xd[k][b]
                        + (xd[k][a] if mu == b else 0.0)
                    )
                    acc += hab * inner
            acc -= eps0 * (
                force_v[mu][k]
                - sum(fr.ginv0[k][m] * fr.v[mu].dp[m] for m in range(n))
            )
            vertical[k][mu] = acc
    return np.array(horizontal), np.array(vertical)


@dataclass(frozen=True)
class StreamSheet:
    """Sampled map from a regular temporal grid to the spatial manifold.

    ``axes`` is one 1-D array of node coordinates per temporal dimension
    (regularly spaced); ``values`` has shape grid_shape + (n,).
    """

    axes: tuple
    values: object

    def __post_init__(self):
        for ax in self.axes:
            if len(ax) < 3:
                raise GridError("need at least 3 nodes per temporal axis")
            steps = np.diff(ax)
            if np.abs(steps - steps[0]).max() > 1e-12 * max(1.0, abs(steps[0])):
                raise GridError("grid axes must be regularly spaced")


def _d_axis(values, axis, step):
    """Second-order first derivative along one axis, one-sided at edges."""
    d = np.empty_like(values)
    src = np.moveaxis(values, axis, 0)
    dst = np.moveaxis(d, axis, 0)
    dst[1:-1] = (src[2:] - src[:-2]) / (2 * step)
    dst[0] = (-3 * src[0] + 4 * src[1] - src[2]) / (2 * step)
    dst[-1] = (3 * src[-1] - 4 * src[-2] + src[-3]) / (2 * step)
    return d


def prolong_sheet(sheet, space):
    """Jet prolongation of a sampled sheet by second-order stencils.

    Returns a float array of shape grid_shape + (p + n + n*p,): the flat
    jet coordinates of each node in :func:`fiber_index` order, with
    x^i_alpha from central differences inside and one-sided second-order
    stencils on the boundary.
    """
    p, n = space.p, space.n
    if len(sheet.axes) != p:
        raise GridError(f"sheet has {len(sheet.axes)} axes, space expects {p}")
    values = np.asarray(sheet.values, dtype=float)
    shape = tuple(len(ax) for ax in sheet.axes)
    if values.shape != shape + (n,):
        raise GridError(f"values shape {values.shape} does not match grid {shape} x {n}")
    derivs = [
        _d_axis(values, axis, sheet.axes[axis][1] - sheet.axes[axis][0])
        for axis in range(p)
    ]
    t = np.stack(np.meshgrid(*sheet.axes, indexing="ij"), axis=-1)
    xdot = np.stack(derivs, axis=-1).reshape(shape + (n * p,))  # [..., i*p + alpha]
    return np.concatenate([t, values, xdot], axis=-1)
