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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .common import ResidualReport, energy_low_mixed, point_memo
from .dual import promote, scalar_value, seed
from .errors import GridError, NormalizationError, TensorError
from .riemann import _inertial_factor
from .tensor_core import (
    Slot,
    Tensor,
    TensorField,
    christoffel_from,
    eval_matrix_jets,
    eval_tensor_jets,
    invert_symmetric,
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
class JetPoint:
    t: tuple
    x: tuple
    xdot: tuple  # n rows of p entries, xdot[i][alpha] = x^i_alpha

    @property
    def coords(self):
        out = list(self.t) + list(self.x)
        for row in self.xdot:
            out.extend(row)
        return out

    @classmethod
    def from_coords(cls, p, n, coords):
        t = tuple(coords[:p])
        x = tuple(coords[p:p + n])
        fiber = coords[p + n:]
        xdot = tuple(tuple(fiber[i * p:(i + 1) * p]) for i in range(n))
        return cls(t, x, xdot)


@dataclass(frozen=True)
class MultiTimeFluidState:
    pressure: object
    density: object
    c: float
    em_H: object
    em_G: object


def _coords(jp):
    return jp.coords if isinstance(jp, JetPoint) else list(jp)


def fiber_index(p, n, i, alpha):
    return p + n + i * p + alpha


def zero_jet_connection(p, n):
    def fn(coords):
        return [[[0.0] * n for _ in range(p)] for _ in range(n)]

    return fn


def temporal_christoffel_lists(space, t_coords):
    """kappa[gamma][alpha][beta] of the temporal metric at t."""
    p = space.p
    cj, ctx = seed(list(t_coords))
    h = eval_matrix_jets(space.h, cj, ctx)
    h0 = [[e.value for e in row] for row in h]
    hinv0 = invert_symmetric(h0, t_coords)
    dh = [[[h[a][b].d(k) for b in range(p)] for a in range(p)] for k in range(p)]
    return christoffel_from(hinv0, dh)


def temporal_christoffel(space, t_coords):
    return Tensor.from_nested(
        (Slot.GU, Slot.GD, Slot.GD), temporal_christoffel_lists(space, t_coords)
    )


@point_memo
class _Derivatives:
    """Adapted derivative operators bound to one seeding of a jet point."""

    def __init__(self, space, coords):
        p, n = space.p, space.n
        self.p, self.n = p, n
        self.coords = list(coords)
        self.kappa = temporal_christoffel_lists(space, coords[:p])
        self.N0 = [
            [[scalar_value(v) for v in row] for row in plane]
            for plane in space.N(list(coords))
        ]
        self.xd0 = [
            [scalar_value(coords[fiber_index(p, n, i, a)]) for a in range(p)]
            for i in range(n)
        ]

    def fiber(self, jet, i, alpha):
        return jet.d(fiber_index(self.p, self.n, i, alpha))

    def delta_t(self, jet, alpha):
        acc = jet.d(alpha)
        for gamma in range(self.p):
            for mu in range(self.p):
                k = self.kappa[gamma][alpha][mu]
                if k == 0.0:
                    continue
                for m in range(self.n):
                    acc += k * self.xd0[m][gamma] * self.fiber(jet, m, mu)
        return acc

    def delta_x(self, jet, i):
        acc = jet.d(self.p + i)
        for m in range(self.n):
            for mu in range(self.p):
                nval = self.N0[m][mu][i]
                if nval != 0.0:
                    acc -= nval * self.fiber(jet, m, mu)
        return acc


def adapted_jet_derivatives(field, space, jp):
    """(delta f/delta t^a, delta f/delta x^i, df/dx^i_a) of a scalar field."""
    coords = _coords(jp)
    cj, ctx = seed(list(coords))
    ops = _Derivatives(space, coords)
    val = promote(field(cj), ctx)
    p, n = space.p, space.n
    dt = np.array([ops.delta_t(val, a) for a in range(p)])
    dx = np.array([ops.delta_x(val, i) for i in range(n)])
    dv = np.array([[ops.fiber(val, i, a) for a in range(p)] for i in range(n)])
    return dt, dx, dv


@point_memo
def cartan_gamma_lists(space, coords):
    """Blocks (kappa, G, L, C) of the canonical connection at a jet point.

    G[k][j][gamma] = (g^{km}/2) delta g_mj / delta t^gamma,
    L[i][j][k] as on the base, C[i][j][k][gamma] from fiber derivatives.
    """
    cj, ctx = seed(list(coords))
    ops = _Derivatives(space, coords)
    g = eval_matrix_jets(space.g, cj, ctx)
    ginv0 = invert_symmetric([[e.value for e in row] for row in g], coords)
    return (ops.kappa, *_connection_blocks(ops, g, ginv0))


def _connection_blocks(ops, g, ginv0):
    """(G, L, C) from the metric jets of one seeding and g^-1 values."""
    p, n = ops.p, ops.n
    Gt = [[[0.0] * p for _ in range(n)] for _ in range(n)]
    for gamma in range(p):
        dgt = [[ops.delta_t(g[m][j], gamma) for j in range(n)] for m in range(n)]
        for k in range(n):
            for j in range(n):
                Gt[k][j][gamma] = 0.5 * sum_product(ginv0[k], [dgt[m][j] for m in range(n)])

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
    return Gt, L, C


def cartan_gamma(space, jp):
    kappa, Gt, L, C = cartan_gamma_lists(space, _coords(jp))
    return (
        Tensor.from_nested((Slot.GU, Slot.GD, Slot.GD), kappa),
        Tensor.from_nested((Slot.LU, Slot.LD, Slot.GD), Gt),
        Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD), L),
        Tensor.from_nested((Slot.LU, Slot.LD, Slot.LD, Slot.GU), C),
    )


def jet_covariant_derivative(field, space, jp, kind):
    """Covariant derivative of a d-tensor field with mixed valence tags.

    ``kind`` is one of "hT" (adds a covariant greek slot), "hM" (adds a
    covariant latin slot) or "v" (adds the paired contravariant-greek and
    covariant-latin slots, in that order).  Coefficients: kappa for greek
    and G for latin slots under hT, L for latin under hM, C for latin
    under v; greek slots are untouched by hM and v.
    """
    coords = _coords(jp)
    return _jet_covariant(eval_tensor_jets(field, *seed(list(coords))), space, coords, kind)


def _jet_covariant(T, space, coords, kind):
    """jet_covariant_derivative of a field already evaluated as jets T."""
    p, n = space.p, space.n
    ops = _Derivatives(space, coords)
    kappa, Gt, L, C = cartan_gamma_lists(space, coords)
    vals = T.map(lambda e: e.value)

    def corrections(idx, latin_coeff, greek_coeff):
        acc = 0.0
        for a, slot in enumerate(T.slots):
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

    if kind == "hT":
        out = Tensor.zeros(T.slots + (Slot.GD,), T.extents + (p,))
        for idx in T.indices():
            for eps in range(p):
                acc = ops.delta_t(T[idx], eps)
                acc += corrections(
                    idx,
                    lambda i, m, e=eps: Gt[i][m][e],
                    lambda a, mu, e=eps: kappa[a][mu][e],
                )
                out[idx + (eps,)] = acc
        return out
    if kind == "hM":
        out = Tensor.zeros(T.slots + (Slot.LD,), T.extents + (n,))
        for idx in T.indices():
            for q in range(n):
                acc = ops.delta_x(T[idx], q)
                acc += corrections(idx, lambda i, m, q=q: L[i][m][q], None)
                out[idx + (q,)] = acc
        return out
    if kind == "v":
        out = Tensor.zeros(T.slots + (Slot.GU, Slot.LD), T.extents + (p, n))
        for idx in T.indices():
            for eps in range(p):
                for q in range(n):
                    acc = ops.fiber(T[idx], q, eps)
                    acc += corrections(idx, lambda i, m, q=q, e=eps: C[i][m][q][e], None)
                    out[idx + (eps, q)] = acc
        return out
    raise TensorError(f"unknown derivative kind {kind!r}")


def _velocity(space, coords, hinv, point=None):
    """u^i_alpha = x^i_alpha/eps, eps^2 = h^{mu nu} g_pq x^p_mu x^q_nu."""
    p, n = space.p, space.n
    g = space.g.matrix(coords)
    xd = [[coords[fiber_index(p, n, i, a)] for a in range(p)] for i in range(n)]
    eps2 = 0.0
    for mu in range(p):
        for nu in range(p):
            inner = 0.0
            for a in range(n):
                for b in range(n):
                    inner = inner + g[a][b] * xd[a][mu] * xd[b][nu]
            eps2 = eps2 + hinv[mu][nu] * inner
    if scalar_value(eps2) <= 0.0:
        raise NormalizationError(
            "jet fiber quadratic form is not positive",
            point=point, value=scalar_value(eps2),
        )
    eps = dual.sqrt(eps2)
    u = [[xd[i][a] / eps for a in range(p)] for i in range(n)]
    u_low = [
        [sum_product([g[i][m] for m in range(n)], [u[m][a] for m in range(n)]) for a in range(p)]
        for i in range(n)
    ]
    return u, u_low, eps


def multitime_velocity(state, space, jp):
    """Unit multi-time velocity (u^i_alpha, u_{i alpha}) at a jet point."""
    coords = _coords(jp)
    hinv = invert_symmetric(space.h.matrix(coords[:space.p]), coords[:space.p])
    u, u_low, _ = _velocity(space, coords, hinv, point=coords)
    return (
        np.array([[scalar_value(v) for v in row] for row in u]),
        np.array([[scalar_value(v) for v in row] for row in u_low]),
    )


@point_memo
class _Frame:
    """Jet-level quantities of one jet point, computed once."""

    def __init__(self, state, space, jp):
        coords = _coords(jp)
        p, n = space.p, space.n
        self.p, self.n = p, n
        self.c = state.c
        self.coords = coords
        cj, ctx = seed(list(coords))
        ops = _Derivatives(space, coords)
        self.ops = ops
        self.kappa = ops.kappa
        self.N0 = ops.N0
        self.xd0 = ops.xd0

        h = eval_matrix_jets(space.h, cj[:p], ctx)
        hinv = invert_symmetric(h, coords[:p])
        self.hinv0 = [[e.value for e in row] for row in hinv]

        g = eval_matrix_jets(space.g, cj, ctx)
        ginv = invert_symmetric(g, coords)
        self.g0 = [[e.value for e in row] for row in g]
        self.ginv0 = [[e.value for e in row] for row in ginv]
        self.Gt, self.L, self.C = _connection_blocks(ops, g, self.ginv0)

        H = eval_matrix_jets(state.em_H, cj, ctx)
        G = eval_matrix_jets(state.em_G, cj, ctx)
        E_low, E_mix = energy_low_mixed(g, ginv, H, G)
        self.E_low0 = [[e.value for e in row] for row in E_low]
        self.E_mix0 = [[e.value for e in row] for row in E_mix]
        self.E_mix = E_mix

        u, u_low, eps = _velocity(space, cj, hinv, point=coords)
        self.u = [[promote(v, ctx) for v in row] for row in u]
        self.u_low = [[promote(v, ctx) for v in row] for row in u_low]
        self.u0 = [[e.value for e in row] for row in self.u]
        self.ul0 = [[e.value for e in row] for row in self.u_low]
        self.eps = promote(eps, ctx)
        self.eps0 = self.eps.value

        pr = promote(state.pressure(cj), ctx)
        rho = promote(state.density(cj), ctx)
        self.p0 = pr.value
        self.rho0 = rho.value
        self.dp_h = [ops.delta_x(pr, i) for i in range(n)]
        self.dp_v = [[ops.fiber(pr, i, mu) for mu in range(p)] for i in range(n)]
        q = rho + pr / state.c**2
        self.q = q
        self.q0 = q.value
        self.W = [[q * self.u[m][a] for a in range(p)] for m in range(n)]
        self.W0 = [[e.value for e in row] for row in self.W]

    # divergences of the mixed energy tensor

    def energy_divergence_h(self):
        n = self.n
        out = []
        for s in range(n):
            acc = 0.0
            for m in range(n):
                acc += self.ops.delta_x(self.E_mix[m][s], m)
                for r in range(n):
                    acc += self.E_mix0[r][s] * self.L[m][r][m]
                    acc -= self.E_mix0[m][r] * self.L[r][s][m]
            out.append(acc)
        return out

    def energy_divergence_v(self):
        n, p = self.n, self.p
        out = [[0.0] * p for _ in range(n)]
        for s in range(n):
            for mu in range(p):
                acc = 0.0
                for m in range(n):
                    acc += self.ops.fiber(self.E_mix[m][s], m, mu)
                    for r in range(n):
                        acc += self.E_mix0[r][s] * self.C[m][r][m][mu]
                        acc -= self.E_mix0[m][r] * self.C[r][s][m][mu]
                out[s][mu] = acc
        return out

    def lorentz_force_h(self):
        div = self.energy_divergence_h()
        return [-sum_product(self.ginv0[r], div) for r in range(self.n)]

    def lorentz_force_v(self):
        div = self.energy_divergence_v()
        return [
            [-sum_product(self.ginv0[r], [div[s][mu] for s in range(self.n)]) for mu in range(self.p)]
            for r in range(self.n)
        ]

    # covariant derivatives of the velocity and momentum blocks

    def w_divergence_h(self):
        """[(rho + p/c^2) u^m_alpha]_{|m}, one value per alpha."""
        n, p = self.n, self.p
        out = []
        for a in range(p):
            acc = 0.0
            for m in range(n):
                acc += self.ops.delta_x(self.W[m][a], m)
                for r in range(n):
                    acc += self.W0[r][a] * self.L[m][r][m]
            out.append(acc)
        return out

    def w_divergence_v(self):
        """[(rho + p/c^2) u^m_alpha]|^{(mu)}_{(m)}, indexed [alpha][mu]."""
        n, p = self.n, self.p
        out = [[0.0] * p for _ in range(p)]
        for a in range(p):
            for mu in range(p):
                acc = 0.0
                for m in range(n):
                    acc += self.ops.fiber(self.W[m][a], m, mu)
                    for r in range(n):
                        acc += self.W0[r][a] * self.C[m][r][m][mu]
                out[a][mu] = acc
        return out

    def ul_cov_h(self, i, b, m):
        """u_{i beta | m}."""
        acc = self.ops.delta_x(self.u_low[i][b], m)
        for r in range(self.n):
            acc -= self.L[r][i][m] * self.ul0[r][b]
        return acc

    def ul_cov_v(self, i, b, m, mu):
        """u_{i beta} |^{(mu)}_{(m)}."""
        acc = self.ops.fiber(self.u_low[i][b], m, mu)
        for r in range(self.n):
            acc -= self.C[r][i][m][mu] * self.ul0[r][b]
        return acc


def multitime_residuals(state, space, jp, v_conservation="free"):
    """Full multi-time residual report at one jet point.

    ``v_conservation`` selects the reading of the repeated greek label in
    the vertical conservation equations: "free" keeps it as a free index
    (an (i, mu) tensor), "summed" contracts it with the derivative label.
    The vertical continuity residual is always the fully contracted
    scalar.
    """
    fr = _Frame(state, space, jp)
    p, n = fr.p, fr.n
    hinv0 = fr.hinv0
    report = ResidualReport(fr.coords)

    ediv_h = fr.energy_divergence_h()
    ediv_v = fr.energy_divergence_v()
    force_h = fr.lorentz_force_h()
    force_v = fr.lorentz_force_v()
    lorentz_h = [
        sum(ediv_h[i] * fr.u0[i][a] for i in range(n)) for a in range(p)
    ]
    lorentz_v = sum(
        ediv_v[i][mu] * fr.u0[i][mu] for i in range(n) for mu in range(p)
    )

    wdiv_h = fr.w_divergence_h()
    wdiv_v = fr.w_divergence_v()

    # conservation, horizontal channel (free latin index)
    cons_h = []
    for i in range(n):
        acc = fr.dp_h[i] - sum_product(fr.g0[i], force_h)
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if hab == 0.0:
                    continue
                acc += hab * wdiv_h[a] * fr.ul0[i][b]
                for m in range(n):
                    acc += fr.q0 * hab * fr.u0[m][a] * fr.ul_cov_h(i, b, m)
        cons_h.append(acc)

    # conservation, vertical channel (latin index i, greek label mu)
    cons_v = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for mu in range(p):
            acc = fr.dp_v[i][mu] - sum(
                fr.g0[i][r] * force_v[r][mu] for r in range(n)
            )
            for a in range(p):
                for b in range(p):
                    hab = hinv0[a][b]
                    if hab == 0.0:
                        continue
                    acc += hab * wdiv_v[a][mu] * fr.ul0[i][b]
                    for m in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * fr.ul_cov_v(i, b, m, mu)
            cons_v[i][mu] = acc

    # continuity, horizontal channel (free greek index)
    cont_h = []
    for mu in range(p):
        acc = sum(fr.dp_h[m] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if hab == 0.0:
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                acc += hab * wdiv_h[a] * proj
                for m in range(n):
                    for i in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * fr.ul_cov_h(i, b, m) * fr.u0[i][mu]
        cont_h.append(acc)

    # continuity, vertical channel (fully contracted scalar)
    cont_v = 0.0
    for mu in range(p):
        cont_v += sum(fr.dp_v[m][mu] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if hab == 0.0:
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                cont_v += hab * wdiv_v[a][mu] * proj
                for m in range(n):
                    for i in range(n):
                        cont_v += (
                            fr.q0 * hab * fr.u0[m][a] * fr.ul_cov_v(i, b, m, mu) * fr.u0[i][mu]
                        )

    T_low = [[0.0] * n for _ in range(n)]
    T_mix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            accm = 0.0
            for a in range(p):
                for b in range(p):
                    hab = hinv0[a][b]
                    acc += hab * fr.ul0[i][a] * fr.ul0[j][b]
                    accm += hab * fr.u0[i][a] * fr.ul0[j][b]
            T_low[i][j] = fr.q0 * acc + fr.p0 * fr.g0[i][j] + fr.E_low0[i][j]
            T_mix[i][j] = fr.q0 * accm + fr.E_mix0[i][j] + (fr.p0 if i == j else 0.0)
    report.add("stress", T_low)
    report.add("stress_mixed", T_mix)
    report.add("lorentz_h", lorentz_h)
    report.add("lorentz_v", lorentz_v)
    report.add("conservation_h", cons_h)
    if v_conservation == "free":
        report.add("conservation_v", cons_v)
    elif v_conservation == "summed":
        report.add("conservation_v", [sum(cons_v[i]) for i in range(n)])
    else:
        raise ValueError(f"unknown v_conservation reading {v_conservation!r}")
    report.add("continuity_h", cont_h)
    report.add("continuity_v", cont_v)
    report.add("force_h", force_h)
    report.add("force_v", force_v)

    u0 = np.array(fr.u0)
    contraction_h = [
        float(sum(cons_h[i] * u0[i][mu] for i in range(n)) - cont_h[mu] - lorentz_h[mu])
        for mu in range(p)
    ]
    contraction_v = float(
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


def stress_tensors(state, space, jp):
    """Covariant and mixed stress d-tensors at a jet point."""
    fr = _Frame(state, space, jp)
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
    return (
        Tensor.from_nested((Slot.LD, Slot.LD), T_low),
        Tensor.from_nested((Slot.LU, Slot.LD), T_mix),
    )


def stress_block_table(state, space, jp):
    """Adapted block components of the stress d-tensor.

    Returns the spatial block T_ij and the fiber block h^{eta nu} T_ij
    (indexed [eta][nu][i][j]); all other blocks vanish identically.
    """
    T_low, _ = stress_tensors(state, space, jp)
    coords = _coords(jp)
    hinv = invert_symmetric(space.h.matrix(coords[:space.p]))
    spatial = np.array(T_low.tolist())
    fiber = np.einsum("ab,ij->abij", np.array(hinv), spatial)
    return spatial, fiber


def mixed_stress_field(state, space):
    """The mixed stress as a d-tensor field, for the covariant engine."""
    p, n = space.p, space.n

    def fn(coords):
        hinv = invert_symmetric(space.h.matrix(coords[:p]))
        g = space.g.matrix(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H.matrix(coords), state.em_G.matrix(coords))
        u, u_low, _ = _velocity(space, coords, hinv)
        pr = state.pressure(coords)
        q = state.density(coords) + pr / state.c**2
        out = [[0.0] * n for _ in range(n)]
        for m in range(n):
            for i in range(n):
                acc = 0.0
                for a in range(p):
                    for b in range(p):
                        acc = acc + hinv[a][b] * u[m][a] * u_low[i][b]
                acc = q * acc + E_mix[m][i]
                if m == i:
                    acc = acc + pr
                out[m][i] = acc
        return Tensor.from_nested((Slot.LU, Slot.LD), out)

    return TensorField((Slot.LU, Slot.LD), fn)


def conservation_divergence(state, space, jp, channel):
    """Direct contracted covariant divergence of the mixed stress."""
    n, p = space.n, space.p
    field = mixed_stress_field(state, space)
    if channel == "h":
        d = jet_covariant_derivative(field, space, jp, "hM")
        return np.array([sum(d[m, i, m] for m in range(n)) for i in range(n)])
    d = jet_covariant_derivative(field, space, jp, "v")
    return np.array(
        [[sum(d[m, i, mu, m] for m in range(n)) for mu in range(p)] for i in range(n)]
    )


def metric_compatibility(space, jp):
    """Metric compatibilities of h, g and their inverses, all channels."""
    p, n = space.p, space.n

    def h_field(up):
        slots = (Slot.GU, Slot.GU) if up else (Slot.GD, Slot.GD)

        def fn(coords):
            m = space.h.matrix(coords[:p])
            if up:
                m = invert_symmetric(m)
            return Tensor.from_nested(slots, m)

        return TensorField(slots, fn)

    def g_field(up):
        slots = (Slot.LU, Slot.LU) if up else (Slot.LD, Slot.LD)

        def fn(coords):
            m = space.g.matrix(coords)
            if up:
                m = invert_symmetric(m)
            return Tensor.from_nested(slots, m)

        return TensorField(slots, fn)

    coords = _coords(jp)
    out = {}
    for name, field in [
        ("h", h_field(False)), ("hinv", h_field(True)),
        ("g", g_field(False)), ("ginv", g_field(True)),
    ]:
        T = eval_tensor_jets(field, *seed(list(coords)))
        for kind in ("hT", "hM", "v"):
            out[f"{name}_{kind}"] = _jet_covariant(T, space, coords, kind).max_abs()
    return out


# -- stream sheets -----------------------------------------------------------


def stream_sheet_residuals(state, space, jp):
    """Horizontal and vertical stream-sheet PDE residuals at a jet point.

    Evaluates the local displays: the horizontal residual carries the
    coefficient H_m built from adapted base derivatives of (rho+p/c^2)/eps0
    and 1/eps0, the vertical one the fiber-derivative analogue V^(mu)_(m)
    plus the dimension term n*delta^mu_alpha.  Returns (vector over k,
    matrix over (k, mu)).
    """
    fr = _Frame(state, space, jp)
    p, n = fr.p, fr.n
    _inertial_factor(fr.p0, fr.rho0, fr.c)  # validates p + rho c^2 != 0
    eps0 = fr.eps0
    q0 = fr.q0
    xd = fr.xd0
    A = fr.q / fr.eps
    B = 1.0 / fr.eps
    Hm = [fr.ops.delta_x(A, m) + q0 * fr.ops.delta_x(B, m) for m in range(n)]
    Vm = [
        [fr.ops.fiber(A, m, mu) + q0 * fr.ops.fiber(B, m, mu) for mu in range(p)]
        for m in range(n)
    ]
    force_h = fr.lorentz_force_h()
    force_v = fr.lorentz_force_v()

    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                if hab == 0.0:
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
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.dp_h))
        horizontal.append(acc)

    vertical = [[0.0] * p for _ in range(n)]
    for k in range(n):
        for mu in range(p):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    hab = fr.hinv0[a][b]
                    if hab == 0.0:
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
                force_v[k][mu]
                - sum(fr.ginv0[k][m] * fr.dp_v[m][mu] for m in range(n))
            )
            vertical[k][mu] = acc
    return np.array(horizontal), np.array(vertical)


def stream_sheet_residuals_covariant(state, space, jp):
    """Unreduced form of the stream-sheet residuals (oracle path).

    Applies the covariant derivatives directly to the momentum fields
    W^m_alpha = (rho+p/c^2) x^m_alpha/eps0 and V^k_beta = x^k_beta/eps0
    instead of the expanded coefficient displays.
    """
    fr = _Frame(state, space, jp)
    p, n = fr.p, fr.n
    xd = fr.xd0
    eps0 = fr.eps0
    q0 = fr.q0

    # momentum blocks as jets: x^m_alpha/eps0 is exactly the unit velocity
    # jet, whose fiber coordinates are seeded
    W = [[fr.q * fr.u[m][a] for a in range(p)] for m in range(n)]
    V = [[fr.u[k][b] for b in range(p)] for k in range(n)]
    W0 = [[e.value for e in row] for row in W]
    V0 = [[e.value for e in row] for row in V]

    def wdiv_h(a):
        acc = 0.0
        for m in range(n):
            acc += fr.ops.delta_x(W[m][a], m)
            for r in range(n):
                acc += W0[r][a] * fr.L[m][r][m]
        return acc

    def wdiv_v(a, mu):
        acc = 0.0
        for m in range(n):
            acc += fr.ops.fiber(W[m][a], m, mu)
            for r in range(n):
                acc += W0[r][a] * fr.C[m][r][m][mu]
        return acc

    def vcov_h(k, b, m):
        acc = fr.ops.delta_x(V[k][b], m)
        for r in range(n):
            acc += V0[r][b] * fr.L[k][r][m]
        return acc

    def vcov_v(k, b, m, mu):
        acc = fr.ops.fiber(V[k][b], m, mu)
        for r in range(n):
            acc += V0[r][b] * fr.C[k][r][m][mu]
        return acc

    force_h = fr.lorentz_force_h()
    force_v = fr.lorentz_force_v()

    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                if hab == 0.0:
                    continue
                acc += hab * wdiv_h(a) * xd[k][b]
                inner = 0.0
                for m in range(n):
                    inner += xd[m][a] * vcov_h(k, b, m)
                acc += hab * q0 * inner
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.dp_h))
        horizontal.append(acc)

    vertical = [[0.0] * p for _ in range(n)]
    for k in range(n):
        for mu in range(p):
            acc = 0.0
            for a in range(p):
                for b in range(p):
                    hab = fr.hinv0[a][b]
                    if hab == 0.0:
                        continue
                    acc += hab * wdiv_v(a, mu) * xd[k][b]
                    inner = 0.0
                    for m in range(n):
                        inner += xd[m][a] * vcov_v(k, b, m, mu)
                    acc += hab * q0 * inner
            acc -= eps0 * (
                force_v[k][mu]
                - sum(fr.ginv0[k][m] * fr.dp_v[m][mu] for m in range(n))
            )
            vertical[k][mu] = acc
    return np.array(horizontal), np.array(vertical)


def stream_sheet_coefficients(state, space, jp):
    """The H_m and V^(mu)_(m) coefficient values of the sheet displays."""
    fr = _Frame(state, space, jp)
    p, n = fr.p, fr.n
    A = fr.q / fr.eps
    B = 1.0 / fr.eps
    Hm = np.array([fr.ops.delta_x(A, m) + fr.q0 * fr.ops.delta_x(B, m) for m in range(n)])
    Vm = np.array(
        [
            [fr.ops.fiber(A, m, mu) + fr.q0 * fr.ops.fiber(B, m, mu) for mu in range(p)]
            for m in range(n)
        ]
    )
    return Hm, Vm


def stream_sheet_residuals_bsml(state, space, jp):
    """Simplified displays valid when the G and C blocks vanish."""
    fr = _Frame(state, space, jp)
    p, n = fr.p, fr.n
    eps0 = fr.eps0
    q0 = fr.q0
    xd = fr.xd0
    A = fr.q / fr.eps
    B = 1.0 / fr.eps
    Hm = [fr.ops.delta_x(A, m) + q0 * fr.ops.delta_x(B, m) for m in range(n)]
    Vm = [
        [fr.ops.fiber(A, m, mu) + q0 * fr.ops.fiber(B, m, mu) for mu in range(p)]
        for m in range(n)
    ]
    force_h = fr.lorentz_force_h()
    force_v = fr.lorentz_force_v()
    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                for m in range(n):
                    acc += hab * Hm[m] * xd[m][a] * xd[k][b]
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.dp_h))
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
                force_v[k][mu]
                - sum(fr.ginv0[k][m] * fr.dp_v[m][mu] for m in range(n))
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

    Returns an object array of :class:`JetPoint` over the grid nodes with
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
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        t = tuple(float(sheet.axes[a][idx[a]]) for a in range(p))
        x = tuple(values[idx].tolist())
        xdot = tuple(
            tuple(float(derivs[a][idx][i]) for a in range(p)) for i in range(n)
        )
        out[idx] = JetPoint(t, x, xdot)
    return out
