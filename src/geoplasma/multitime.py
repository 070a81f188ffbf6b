"""Plasma pipeline on the first jet space of maps from multi-time.

Coordinates are (t^alpha, x^i, x^i_alpha) with greek indices running over
the temporal dimension p and latin over the spatial dimension n.  The
flat coordinate layout is [t^1..t^p, x^1..x^n, x^1_1..x^1_p, ..., x^n_p].

A nonlinear connection splits derivatives into a temporal-horizontal
channel (coefficients: temporal Christoffel symbols kappa and the mixed
block G), a spatial-horizontal channel (coefficients L) and a vertical
channel (coefficients C carrying a paired greek label).  The covariant
derivative engine is generic over per-slot valence tags; jet-fiber pairs
are represented as adjacent elementary latin/greek slots.

The residuals run on the channel algebra of :mod:`geoplasma.common`: each
velocity label beta has a :class:`~geoplasma.common.FluidFrame` of the
column u^i_beta, with one horizontal channel (L, delta/delta x) and p
vertical channels (C[..][..][..][mu], d/dx^i_mu).  The conservation and
continuity assembly over the greek labels stays here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dual
from .common import (
    FluidFrame,
    ResidualReport,
    component_array,
    energy_divergence,
    energy_low_mixed,
    inertial_factor,
    jet_values,
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


def zero_jet_connection(p, n):
    def fn(coords):
        return [[[0.0] * n for _ in range(p)] for _ in range(n)]

    return fn


@point_memo
def temporal_christoffel_lists(space, t_coords):
    """kappa[gamma][alpha][beta] of the temporal metric at t."""
    return christoffel_of(space.h, t_coords, point=t_coords)


@point_memo
class _Derivatives:
    """Adapted derivative operators bound to one seeding of a jet point.

    Only :meth:`delta_t` reads kappa, which is built on first use: the
    residual and sheet frames take no temporal derivative.
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

    @functools.cached_property
    def kappa(self):
        return temporal_christoffel_lists(self._space, self._t)

    def fiber(self, jet, i, alpha):
        return jet.d(fiber_index(self.p, self.n, i, alpha))

    def delta_t(self, jet, alpha):
        acc = jet.d(alpha)
        for gamma in range(self.p):
            for mu in range(self.p):
                k = self.kappa[gamma][alpha][mu]
                if dual.branch(k == 0.0):
                    continue
                for m in range(self.n):
                    acc = acc + k * self.xd0[m][gamma] * self.fiber(jet, m, mu)
        return acc

    def delta_x(self, jet, i):
        acc = jet.d(self.p + i)
        for m in range(self.n):
            for mu in range(self.p):
                nval = self.N0[m][mu][i]
                if dual.branch(nval != 0.0):
                    acc = acc - nval * self.fiber(jet, m, mu)
        return acc


@point_memo
def cartan_gamma_lists(space, coords):
    """Blocks (kappa, G, L, C) of the canonical connection at a jet point.

    G[k][j][gamma] = (g^{km}/2) delta g_mj / delta t^gamma,
    L[i][j][k] as on the base, C[i][j][k][gamma] from fiber derivatives.
    """
    kappa = temporal_christoffel_lists(space, coords[:space.p])  # h's error before g's
    cj, ctx = seed(list(coords))
    ops = _Derivatives(space, coords)
    g = eval_jets(space.g.matrix, cj, ctx)
    ginv0 = invert_symmetric([[e.value for e in row] for row in g], coords)
    return (kappa, _mixed_block(ops, g, ginv0), *_spatial_blocks(ops, g, ginv0))


def _mixed_block(ops, g, ginv0):
    """G[k][j][gamma] = (g^{km}/2) delta g_mj / delta t^gamma from the metric
    jets of one seeding and g^-1 values.

    The one block on :meth:`_Derivatives.delta_t`.  Only
    :func:`cartan_gamma_lists` builds it; the per-point frame does not.
    """
    p, n = ops.p, ops.n
    Gt = [[[0.0] * p for _ in range(n)] for _ in range(n)]
    for gamma in range(p):
        dgt = [[ops.delta_t(g[m][j], gamma) for j in range(n)] for m in range(n)]
        for k in range(n):
            for j in range(n):
                Gt[k][j][gamma] = 0.5 * sum_product(ginv0[k], [dgt[m][j] for m in range(n)])
    return Gt


def _spatial_blocks(ops, g, ginv0):
    """(L, C) from the metric jets of one seeding and g^-1 values.

    L[i][j][k] is the Christoffel formula on the adapted derivatives
    delta g_ij / delta x^k, and C[i][j][k][gamma] on the fiber derivatives
    d g_ij / d x^k_gamma, one block per greek label.  Shared by
    :func:`cartan_gamma_lists` and the per-point frame.
    """
    p, n = ops.p, ops.n
    dxg = [
        [[ops.delta_x(g[i][j], k) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    L = christoffel_from(ginv0, dxg)

    C = [[[[0.0] * p for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for gamma in range(p):
        dvg = [
            [[ops.fiber(g[i][j], k, gamma) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        block = christoffel_from(ginv0, dvg)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    C[i][j][k][gamma] = block[i][j][k]
    return L, C


def cartan_gamma(space, coords):
    """The blocks of :func:`cartan_gamma_lists` as float arrays."""
    return tuple(np.array(b, dtype=float) for b in cartan_gamma_lists(space, coords))


def jet_covariant_derivative(field, slots, space, coords, kind):
    """Covariant derivative of a d-tensor field with mixed valence tags.

    ``field(coords)`` returns nested lists with one valence tag per level
    in ``slots``.  ``kind`` is one of "hT" (adds a covariant greek axis),
    "hM" (adds a covariant latin axis) or "v" (adds the paired
    contravariant-greek and covariant-latin axes, in that order); the
    result is a float array.  Coefficients: kappa for greek and G for
    latin slots under hT, L for latin under hM, C for latin under v;
    greek slots are untouched by hM and v.
    """
    return _jet_covariant(eval_jets(field, *seed(list(coords))), slots, space, coords, kind)


def _jet_covariant(T, slots, space, coords, kind):
    """jet_covariant_derivative of a field already evaluated as jets T."""
    p, n = space.p, space.n
    kappa, Gt, L, C = cartan_gamma_lists(space, coords)  # kappa before N: h's error first
    ops = _Derivatives(space, coords)
    T, vals = jet_values(T, slots)

    def corrections(idx, latin_coeff, greek_coeff):
        acc = 0.0
        for a, slot in enumerate(slots):
            pre, i, post = idx[:a], idx[a], idx[a + 1:]
            if slot.latin:
                if latin_coeff is None:
                    continue
                if slot.up:
                    for m in range(n):
                        acc += vals[pre + (m,) + post] * latin_coeff(idx[a], m)
                else:
                    for m in range(n):
                        acc -= vals[pre + (m,) + post] * latin_coeff(m, idx[a])
            else:
                if greek_coeff is None:
                    continue
                if slot.up:
                    for mu in range(p):
                        acc += vals[pre + (mu,) + post] * greek_coeff(idx[a], mu)
                else:
                    for mu in range(p):
                        acc -= vals[pre + (mu,) + post] * greek_coeff(mu, idx[a])
        return acc

    out = []
    if kind == "hT":
        for idx in np.ndindex(T.shape):
            for eps in range(p):
                acc = ops.delta_t(T[idx], eps)
                acc = acc + corrections(
                    idx,
                    lambda i, m, e=eps: Gt[i][m][e],
                    lambda a, mu, e=eps: kappa[a][mu][e],
                )
                out.append(acc)
        return component_array(out, T.shape + (p,))
    if kind == "hM":
        for idx in np.ndindex(T.shape):
            for q in range(n):
                acc = ops.delta_x(T[idx], q)
                acc = acc + corrections(idx, lambda i, m, q=q: L[i][m][q], None)
                out.append(acc)
        return component_array(out, T.shape + (n,))
    if kind == "v":
        for idx in np.ndindex(T.shape):
            for eps in range(p):
                for q in range(n):
                    acc = ops.fiber(T[idx], q, eps)
                    acc = acc + corrections(idx, lambda i, m, q=q, e=eps: C[i][m][q][e], None)
                    out.append(acc)
        return component_array(out, T.shape + (p, n))
    raise TensorError(f"unknown derivative kind {kind!r}")


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
class _Frame:
    """Jet-level quantities of one jet point, computed once.

    ``cols[beta]`` is the :class:`FluidFrame` of the velocity column
    u^i_beta with channels ``h`` (L, delta/delta x) and ``v[mu]``
    (C[..][..][..][mu], d/dx^i_mu); the connection blocks, the energy
    divergences and the pressure partials are shared by all columns.
    ``u0``/``ul0`` hold the velocity values indexed [i][beta].
    """

    def __init__(self, state, space, coords):
        p, n = space.p, space.n
        self.p, self.n = p, n
        self.c = state.c
        cj, ctx = seed(list(coords))
        h = eval_jets(space.h.matrix, cj[:p], ctx)
        hinv = invert_symmetric(h, coords[:p])  # before N, which may invert g: h's error first
        self.hinv0 = [[e.value for e in row] for row in hinv]
        ops = _Derivatives(space, coords)
        self.ops = ops
        self.N0 = ops.N0
        self.xd0 = ops.xd0

        graw = space.g.matrix(cj)
        g = [[promote(v, ctx) for v in row] for row in graw]
        ginv = invert_symmetric(g, coords)
        self.L, self.C = _spatial_blocks(ops, g, [[e.value for e in row] for row in ginv])

        H = eval_jets(state.em_H.matrix, cj, ctx)
        G = eval_jets(state.em_G.matrix, cj, ctx)
        E_low, E_mix = energy_low_mixed(g, ginv, H, G)
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]

        u, u_low, eps = _velocity(space, cj, graw, hinv, point=coords)
        self.u = [[promote(u[a][i], ctx) for a in range(p)] for i in range(n)]
        self.eps = promote(eps, ctx)
        self.eps0 = self.eps.value
        pr = promote(state.pressure(cj), ctx)
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
                [promote(e, ctx) for e in u_low[b]],
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

    The repeated greek label of the vertical conservation equations is
    read as a free index (an (i, mu) tensor); the vertical continuity
    residual is the fully contracted scalar.  Coordinates that are lane
    arrays give each entry a trailing lane axis.
    """
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    hinv0 = fr.hinv0
    cols = fr.cols
    report = ResidualReport()

    ediv_h = fr.h.ediv
    force_h, force_v = fr.force_h, fr.force_v
    dp_h = fr.h.dp
    lorentz_h = [
        sum(ediv_h[i] * fr.u0[i][a] for i in range(n)) for a in range(p)
    ]
    lorentz_v = sum(
        fr.v[mu].ediv[i] * fr.u0[i][mu] for i in range(n) for mu in range(p)
    )

    wdiv_h = [col.qu_divergence(col.h) for col in cols]
    wdiv_v = [[col.qu_divergence(ch) for ch in col.v] for col in cols]

    def ul_cov_h(i, b, m):
        return cols[b].u_cov_low(cols[b].h, i, m)

    def ul_cov_v(i, b, m, mu):
        return cols[b].u_cov_low(cols[b].v[mu], i, m)

    # conservation, horizontal channel (free latin index)
    cons_h = []
    for i in range(n):
        acc = dp_h[i] - sum_product(fr.g0[i], force_h)
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                acc += hab * wdiv_h[a] * fr.ul0[i][b]
                for m in range(n):
                    acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_h(i, b, m)
        cons_h.append(acc)

    # conservation, vertical channel (latin index i, greek label mu)
    cons_v = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for mu in range(p):
            acc = fr.v[mu].dp[i] - sum(
                fr.g0[i][r] * force_v[mu][r] for r in range(n)
            )
            for a in range(p):
                for b in range(p):
                    hab = hinv0[a][b]
                    if dual.branch(hab == 0.0):
                        continue
                    acc += hab * wdiv_v[a][mu] * fr.ul0[i][b]
                    for m in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_v(i, b, m, mu)
            cons_v[i][mu] = acc

    # continuity, horizontal channel (free greek index)
    cont_h = []
    for mu in range(p):
        acc = sum(dp_h[m] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                acc += hab * wdiv_h[a] * proj
                for m in range(n):
                    for i in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_h(i, b, m) * fr.u0[i][mu]
        cont_h.append(acc)

    # continuity, vertical channel (fully contracted scalar)
    cont_v = 0.0
    for mu in range(p):
        cont_v += sum(fr.v[mu].dp[m] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if dual.branch(hab == 0.0):
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                cont_v += hab * wdiv_v[a][mu] * proj
                for m in range(n):
                    for i in range(n):
                        cont_v += (
                            fr.q0 * hab * fr.u0[m][a] * ul_cov_v(i, b, m, mu) * fr.u0[i][mu]
                        )

    T_low, T_mix = _stress_lists(fr)
    report.add("stress", T_low)
    report.add("stress_mixed", T_mix)
    report.add("lorentz_h", lorentz_h)
    report.add("lorentz_v", lorentz_v)
    report.add("conservation_h", cons_h)
    report.add("conservation_v", cons_v)
    report.add("continuity_h", cont_h)
    report.add("continuity_v", cont_v)
    report.add("force_h", force_h)
    report.add("force_v", np.array(force_v).swapaxes(0, 1))  # [k][mu], lanes last

    u0 = np.array(fr.u0)
    contraction_h = [
        sum(cons_h[i] * u0[i][mu] for i in range(n)) - cont_h[mu] - lorentz_h[mu]
        for mu in range(p)
    ]
    contraction_v = (
        sum(cons_v[i][mu] * u0[i][mu] for i in range(n) for mu in range(p))
        - cont_v - lorentz_v
    )
    report.add("contraction_identity_h", contraction_h)
    report.add("contraction_identity_v", contraction_v)
    norm = sum(
        fr.hinv0[a][b] * fr.ul0[i][a] * fr.u0[i][b]
        for a in range(p) for b in range(p) for i in range(n)
    )
    report.add("unit_norm_error", norm - 1.0)
    return report


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


def mixed_stress_field(state, space):
    """The mixed stress as a d-tensor field, for the covariant engine."""
    p, n = space.p, space.n

    def fn(coords):
        hinv = invert_symmetric(space.h.matrix(coords[:p]))
        g = space.g.matrix(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H.matrix(coords), state.em_G.matrix(coords))
        u, u_low, _ = _velocity(space, coords, g, hinv)
        pr = state.pressure(coords)
        q = state.density(coords) + pr / state.c**2
        out = [[0.0] * n for _ in range(n)]
        for m in range(n):
            for i in range(n):
                acc = 0.0
                for a in range(p):
                    for b in range(p):
                        acc = acc + hinv[a][b] * u[a][m] * u_low[b][i]
                acc = q * acc + E_mix[m][i]
                if m == i:
                    acc = acc + pr
                out[m][i] = acc
        return out

    return fn


def conservation_divergence(state, space, coords):
    """Direct contracted divergences (h, v) of the mixed stress, evaluated once."""
    n, p = space.n, space.p
    T = eval_jets(mixed_stress_field(state, space), *seed(list(coords)))
    d = _jet_covariant(T, (Slot.LU, Slot.LD), space, coords, "hM")
    h = np.array([sum(d[m, i, m] for m in range(n)) for i in range(n)])
    d = _jet_covariant(T, (Slot.LU, Slot.LD), space, coords, "v")
    return h, np.array(
        [[sum(d[m, i, mu, m] for m in range(n)) for mu in range(p)] for i in range(n)]
    )


def metric_compatibility(space, coords):
    """Metric compatibilities of h, g and their inverses, all channels: max
    norms, one per lane when the coordinates are lane arrays."""
    lanes = any(isinstance(c, np.ndarray) for c in coords)
    cj, ctx = seed(list(coords))

    def metrics():  # lazy: inverses come after the connection blocks, whose errors name the point
        h = space.h.matrix(cj[:space.p])
        yield "h", (Slot.GD, Slot.GD), h
        yield "hinv", (Slot.GU, Slot.GU), invert_symmetric(h)
        g = space.g.matrix(cj)
        yield "g", (Slot.LD, Slot.LD), g
        yield "ginv", (Slot.LU, Slot.LU), invert_symmetric(g)

    out = {}
    for name, slots, m in metrics():
        T = [[promote(v, ctx) for v in row] for row in m]
        for kind in ("hT", "hM", "v"):
            d = _jet_covariant(T, slots, space, coords, kind)
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
    out = (component_array(horizontal, (n,)),
           component_array([v for row in vertical for v in row], (n, p)))
    if coefficients:
        out += (component_array(Hm, (n,)),
                component_array([v for row in Vm for v in row], (n, p)))
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
