"""Shared builders, adapters and oracles for the test suite.

The independent oracles are written against numpy/einsum or finite
differences so they do not share code paths with the package internals
they check.  The reference implementations at the end are the package's
unreduced or former forms (``walk``, the recursive tree walker of the
expression language; seeded scalar-field evaluation, the covariant
stream-sheet residuals, the edml Lagrangian, the multi-time velocity, the
multi-time conservation and continuity of each channel spelled out by hand,
the mixed stress of each framework from every field, the RK4 integrator on numpy
arrays, the covariant derivatives of all three frameworks one component
at a time, the Finsler space of a fundamental function on the general jet
engine of :mod:`reference_dual`); only tests call them.
The adapters return what the tests read from the pieces the pipelines
use (``common.unit_vector``, the adapted partials, the connection lists,
the riemann and lagrange covariant derivatives of a latin field).
"""

import numpy as np

import reference_dual as ref
from geoplasma import expr as expr_mod
from geoplasma.common import energy_low_mixed, jet_block, mixed_stress, unit_vector
from geoplasma.dual import Jet, branch, power, promote, scalar_value, seed
from geoplasma.errors import DomainError, IntegrationError, TensorError, UnboundVariableError
from geoplasma.expr import BinOp, Call, Neg, Num, Var, compile_field, parse, pretty
from geoplasma.lagrange import GeneralizedLagrangeSpace, _adapted_partials, _hv_covariant
from geoplasma.multitime import (
    _Derivatives,
    _Frame,
    _jet_covariant,
    _velocity,
    cartan_gamma,
    fiber_index,
    temporal_christoffel_lists,
)
from geoplasma.riemann import (
    ElectromagneticPair,
    FluidState,
    SemiRiemannianSpace,
    _levi_civita,
    christoffel,
)
from geoplasma.tensor_core import (
    antisymmetric_field,
    christoffel_from,
    constant_field,
    eval_jets,
    invert_symmetric,
    metric_from_exprs,
    quadratic_form,
    scalar_field,
    sum_product,
    symmetric_field,
    triangle_values,
)


def xnames(n):
    return [f"x{i + 1}" for i in range(n)]


def flat_space(n):
    rows = [["1" if j == 0 else "0" for j in range(n - i)] for i in range(n)]
    return SemiRiemannianSpace(n, metric_from_exprs(rows, xnames(n)))


def polar_space():
    # diag(1, r^2) with r = x1
    return SemiRiemannianSpace(
        2, metric_from_exprs([["1", "0"], ["x1^2"]], xnames(2))
    )


def conformal_space(n, coeffs):
    names = xnames(n)
    sigma = " + ".join(f"{c!r}*{nm}" for c, nm in zip(coeffs, names))
    rows = []
    for i in range(n):
        row = []
        for j in range(i, n):
            row.append(f"exp(2*({sigma}))" if i == j else "0")
        rows.append(row)
    return SemiRiemannianSpace(n, metric_from_exprs(rows, names))


def zero_connection(n):
    """The zero nonlinear connection N^i_j of a tangent-bundle space."""
    def fn(coords):
        return [[0.0] * n for _ in range(n)]

    return fn


def zero_jet_connection(p, n):
    """The zero nonlinear connection N^(i)_(alpha)j of a jet space."""
    def fn(coords):
        return [[[0.0] * n for _ in range(p)] for _ in range(n)]

    return fn


def two_form(rows, names):
    """The two-form field of strict-upper rows of expression strings."""
    return antisymmetric_field(len(rows), triangle_values(rows, names, "two-form"))


def zero_two_form(n):
    return antisymmetric_field(n, constant_field([0.0] * (n * (n - 1) // 2)))


def zero_em(n):
    return ElectromagneticPair(zero_two_form(n), zero_two_form(n))


def const_state(n, p=0.2, rho=1.0, c=1.0, v=None):
    if v is None:
        v = [1.0] + [0.0] * (n - 1)
    return FluidState(
        constant_field(p), constant_field(rho), c,
        tuple(constant_field(vi) for vi in v),
    )


def _wave(rng, names, amp, base=0.0):
    """Random smooth bounded expression a + amp*sin(k.x + phase)."""
    ks = rng.uniform(0.4, 1.4, size=len(names))
    phase = float(rng.uniform(0, 6.28))
    arg = " + ".join(f"{float(k)!r}*{nm}" for k, nm in zip(ks, names))
    return f"{float(base)!r} + {float(amp)!r}*sin({arg} + {phase!r})"


def random_metric_rows(rng, dim, names, diag_base=1.2, diag_amp=0.2, off_amp=None):
    """Diagonally dominant symmetric expression matrix (upper-tri rows)."""
    if off_amp is None:
        off_amp = 0.3 / max(1, dim - 1)
    rows = []
    for i in range(dim):
        row = []
        for j in range(i, dim):
            if i == j:
                row.append(_wave(rng, names, diag_amp, base=diag_base))
            else:
                row.append(_wave(rng, names, off_amp))
        rows.append(row)
    return rows


def random_two_form_rows(rng, dim, names, amp=0.3):
    return [[_wave(rng, names, amp) for _ in range(dim - i - 1)] for i in range(dim)]


def random_riemann_scenario(rng, n):
    """Smooth expression-backed scenario with safe invertibility margins."""
    names = xnames(n)
    space = SemiRiemannianSpace(
        n, metric_from_exprs(random_metric_rows(rng, n, names), names)
    )
    em = ElectromagneticPair(
        two_form(random_two_form_rows(rng, n, names), names),
        two_form(random_two_form_rows(rng, n, names), names),
    )
    state = FluidState(
        scalar_field(_wave(rng, names, 0.1, base=0.4), names),
        scalar_field(_wave(rng, names, 0.2, base=1.1), names),
        1.0,
        tuple(
            scalar_field(_wave(rng, names, 0.25, base=1.0), names) for _ in range(n)
        ),
    )
    box = (np.full(n, -0.8), np.full(n, 0.8))
    return space, state, em, box


def sample_box(rng, box, count):
    lo, hi = box
    return [list(rng.uniform(lo, hi)) for _ in range(count)]


def xynames(n):
    return [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]


def random_lagrange_scenario(rng, n):
    """Expression-backed tangent-bundle scenario, fiber-dependent fields."""
    from geoplasma.lagrange import GeneralizedLagrangeSpace, LagrangeFluidState

    names = xynames(n)
    g = metric_from_exprs(random_metric_rows(rng, n, names), names)
    # smooth inline nonlinear connection, linear in the fiber
    nexprs = [
        [
            " + ".join(
                f"{float(rng.uniform(-0.15, 0.15))!r}*y{m + 1}*cos({float(rng.uniform(0.3, 1.0))!r}*x{(j % n) + 1})"
                for m in range(n)
            )
            for j in range(n)
        ]
        for _ in range(n)
    ]
    nfields = [[scalar_field(e, names) for e in row] for row in nexprs]

    def N_fn(coords):
        return [[f(coords) for f in row] for row in nfields]

    space = GeneralizedLagrangeSpace(n, g, N_fn)
    state = LagrangeFluidState(
        scalar_field(_wave(rng, names, 0.1, base=0.4), names),
        scalar_field(_wave(rng, names, 0.2, base=1.1), names),
        1.0,
        two_form(random_two_form_rows(rng, n, names), names),
        two_form(random_two_form_rows(rng, n, names), names),
    )
    # fiber part sampled away from zero so eps^2 stays positive
    lo = np.concatenate([np.full(n, -0.8), np.full(n, 0.6)])
    hi = np.concatenate([np.full(n, 0.8), np.full(n, 1.4)])
    box = (lo, hi)
    return space, state, box


def jetnames(p, n):
    names = [f"t{a + 1}" for a in range(p)] + [f"x{i + 1}" for i in range(n)]
    for i in range(n):
        for a in range(p):
            names.append(f"x{i + 1}_{a + 1}")
    return names


def random_multitime_scenario(rng, p, n):
    """Expression-backed jet-space scenario with fiber/time dependence."""
    from geoplasma.multitime import MultiTimeSpace, MultiTimeFluidState

    tnm = [f"t{a + 1}" for a in range(p)]
    names = jetnames(p, n)
    h = metric_from_exprs(random_metric_rows(rng, p, tnm, diag_base=1.3, diag_amp=0.2, off_amp=0.1),
        tnm,
    )
    g = metric_from_exprs(random_metric_rows(rng, n, names), names)
    nexprs = [
        [
            [_wave(rng, names, 0.12) for _ in range(n)]
            for _ in range(p)
        ]
        for _ in range(n)
    ]
    nfields = [
        [[scalar_field(e, names) for e in row] for row in plane]
        for plane in nexprs
    ]

    def N_fn(coords):
        return [[[f(coords) for f in row] for row in plane] for plane in nfields]

    space = MultiTimeSpace(p, n, h, g, N_fn)
    state = MultiTimeFluidState(
        scalar_field(_wave(rng, names, 0.1, base=0.4), names),
        scalar_field(_wave(rng, names, 0.2, base=1.1), names),
        1.0,
        two_form(random_two_form_rows(rng, n, names), names),
        two_form(random_two_form_rows(rng, n, names), names),
    )
    lo = np.concatenate([np.full(p, -0.5), np.full(n, -0.8), np.full(n * p, 0.6)])
    hi = np.concatenate([np.full(p, 0.5), np.full(n, 0.8), np.full(n * p, 1.4)])
    return space, state, (lo, hi)


def to_multitime_names(source, n):
    """Rewrite tangent-bundle fiber names y_i as single-time jet names."""
    for i in range(n, 0, -1):
        source = source.replace(f"y{i}", f"x{i}_1")
    return source


def paired_lagrange_multitime(rng, n):
    """Matching tangent-bundle and single-time jet-space scenarios."""
    from geoplasma.lagrange import GeneralizedLagrangeSpace, LagrangeFluidState
    from geoplasma.multitime import MultiTimeSpace, MultiTimeFluidState

    lag_names = xynames(n)
    mt_names = jetnames(1, n)
    rows = random_metric_rows(rng, n, lag_names)
    h_rows = random_two_form_rows(rng, n, lag_names)
    g_rows_em = random_two_form_rows(rng, n, lag_names)
    p_expr = _wave(rng, lag_names, 0.1, base=0.4)
    rho_expr = _wave(rng, lag_names, 0.2, base=1.1)
    nexprs = [
        [
            " + ".join(
                f"{float(rng.uniform(-0.15, 0.15))!r}*y{m + 1}*cos(x{(j % n) + 1})"
                for m in range(n)
            )
            for j in range(n)
        ]
        for _ in range(n)
    ]

    g_lag = metric_from_exprs(rows, lag_names)
    nf_lag = [[scalar_field(e, lag_names) for e in row] for row in nexprs]
    space_lag = GeneralizedLagrangeSpace(
        n, g_lag, lambda coords: [[f(coords) for f in row] for row in nf_lag]
    )
    state_lag = LagrangeFluidState(
        scalar_field(p_expr, lag_names),
        scalar_field(rho_expr, lag_names),
        1.0,
        two_form(h_rows, lag_names),
        two_form(g_rows_em, lag_names),
    )

    mt = lambda s: to_multitime_names(s, n)
    rows_mt = [[mt(e) for e in row] for row in rows]
    h_mt = metric_from_exprs([["1"]], ["t1"])
    g_mt = metric_from_exprs(rows_mt, mt_names)
    nf_mt = [[scalar_field(mt(e), mt_names) for e in row] for row in nexprs]

    def N_mt_fn(coords):
        return [[[nf_mt[i][j](coords) for j in range(n)]] for i in range(n)]

    space_mt = MultiTimeSpace(1, n, h_mt, g_mt, N_mt_fn)
    state_mt = MultiTimeFluidState(
        scalar_field(mt(p_expr), mt_names),
        scalar_field(mt(rho_expr), mt_names),
        1.0,
        two_form([[mt(e) for e in row] for row in h_rows], mt_names),
        two_form([[mt(e) for e in row] for row in g_rows_em], mt_names),
    )
    return space_lag, state_lag, space_mt, state_mt


def paired_riemann_lagrange(rng, n):
    """A fiber-independent tangent-bundle scenario and its base counterpart.

    Returns (riemann space/state/em, lagrange space factory taking an N
    choice, lagrange state, box over x).
    """
    from geoplasma.lagrange import GeneralizedLagrangeSpace, LagrangeFluidState

    xnm = xnames(n)
    full = xynames(n)
    metric_rows = random_metric_rows(rng, n, xnm)
    h_rows = random_two_form_rows(rng, n, xnm)
    g_rows = random_two_form_rows(rng, n, xnm)
    p_expr = _wave(rng, xnm, 0.1, base=0.4)
    rho_expr = _wave(rng, xnm, 0.2, base=1.1)

    space_r = SemiRiemannianSpace(n, metric_from_exprs(metric_rows, xnm))
    em_r = ElectromagneticPair(
        two_form(h_rows, xnm),
        two_form(g_rows, xnm),
    )
    state_lag = LagrangeFluidState(
        scalar_field(p_expr, full),
        scalar_field(rho_expr, full),
        1.0,
        two_form(h_rows, full),
        two_form(g_rows, full),
    )
    g_lag = metric_from_exprs(metric_rows, full)

    def make_space(N_fn):
        return GeneralizedLagrangeSpace(n, g_lag, N_fn)

    def make_riemann_state(velocity):
        return FluidState(
            scalar_field(p_expr, xnm), scalar_field(rho_expr, xnm), 1.0, tuple(velocity)
        )

    box = (np.full(n, -0.8), np.full(n, 0.8))
    return space_r, em_r, make_riemann_state, make_space, state_lag, box


# -- independent oracles -----------------------------------------------------


def oracle_energy(phi, H, G):
    """Minkowski energy tensors via einsum, independent of the package."""
    phi = np.asarray(phi)
    H = np.asarray(H)
    G = np.asarray(G)
    phinv = np.linalg.inv(phi)
    Gup = np.einsum("rp,sq,pq->rs", phinv, phinv, G)
    hg = np.einsum("rs,rs->", H, Gup)
    E_low = 0.25 * phi * hg + np.einsum("rs,ir,js->ij", phinv, H, G)
    E_mix = phinv @ E_low
    return E_low, E_mix


def fd_christoffel(metric_field, x, step=1e-5):
    """Christoffel symbols with metric derivatives by central differences."""
    n = len(x)
    g0 = np.array(metric_field(list(x)))
    dg = np.empty((n, n, n))
    for k in range(n):
        up = list(x)
        dn = list(x)
        up[k] += step
        dn[k] -= step
        dg[k] = (np.array(metric_field(up)) - np.array(metric_field(dn))) / (2 * step)
    ginv = np.linalg.inv(g0)
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma[i][j][k] = 0.5 * sum(
                    ginv[i][m] * (dg[k][j][m] + dg[j][k][m] - dg[m][j][k])
                    for m in range(n)
                )
    return gamma


def polar_geodesic_endpoint(x0, v0, s):
    """Exact polar-coordinate geodesic via the Cartesian straight line."""
    r0, th0 = x0
    dr, dth = v0
    cx = np.array([r0 * np.cos(th0), r0 * np.sin(th0)])
    cv = np.array(
        [
            dr * np.cos(th0) - r0 * np.sin(th0) * dth,
            dr * np.sin(th0) + r0 * np.cos(th0) * dth,
        ]
    )
    # geodesic parameter s is Euclidean arclength / |cv|
    end = cx + cv * s
    r = np.hypot(end[0], end[1])
    th = np.arctan2(end[1], end[0])
    return np.array([r, th])


# -- adapters ------------------------------------------------------------------


def normalize_velocity(state, space, x):
    """Unit velocity u^i at x; |u_i u^i - 1| is zero to rounding."""
    coords = list(x)
    v = [vf(coords) for vf in state.velocity]
    u, _, _ = unit_vector(space.phi(coords), v, "velocity", x)
    return np.array([scalar_value(ui) for ui in u])


def unit_velocity_field(state, space):
    def fn(coords):
        v = [vf(coords) for vf in state.velocity]
        u, _, _ = unit_vector(space.phi(coords), v, "velocity")
        return u

    return fn


def mixed_energy_field(space, em):
    def fn(coords):
        phi = space.phi(coords)
        phinv = invert_symmetric(phi)
        _, E_mix = energy_low_mixed(phi, phinv, em.H(coords), em.G(coords))
        return E_mix

    return fn


def adapted_x_derivative(field, space, coords):
    """delta f / delta x^i of a scalar field over (x, y)."""
    cj, ctx = seed(list(coords))
    val = promote(field(cj), ctx)
    _, horizontal, _ = _adapted_partials(space, coords)
    return np.array([horizontal(val, i) for i in range(space.n)])


def jet_point(t, x, xdot):
    """Flat jet coordinates [t, x, x^1_1..x^1_p, ..., x^n_p]; xdot[i][alpha] = x^i_alpha."""
    return [*t, *x, *(v for row in xdot for v in row)]


def jet_parts(coords, p, n):
    """(t, x, xdot) of flat jet coordinates, the inverse of :func:`jet_point`."""
    fiber = coords[p + n:]
    return coords[:p], coords[p:p + n], [fiber[i * p:(i + 1) * p] for i in range(n)]


def temporal_christoffel(space, t_coords):
    return np.array(temporal_christoffel_lists(space, t_coords), dtype=float)


def adapted_jet_derivatives(field, space, coords):
    """(delta f/delta t^a, delta f/delta x^i, df/dx^i_a) of a scalar field."""
    cj, ctx = seed(list(coords))
    ops = _Derivatives(space, coords)
    val = promote(field(cj), ctx)
    p, n = space.p, space.n
    dt = np.array([ops.delta_t(val, a) for a in range(p)])
    dx = np.array([ops.delta_x(val, i) for i in range(n)])
    dv = np.array([[ops.fiber(val, i, a) for a in range(p)] for i in range(n)])
    return dt, dx, dv


# -- reference implementations ---------------------------------------------------


def field_jet(field, coords, seeds=None):
    """Evaluate a scalar field with seeded coordinates.

    Returns the resulting :class:`~geoplasma.dual.Jet` (value plus the
    first partials with respect to the seeded coordinate positions).
    Constant fields are promoted to jets so the derivative accessors
    always work.
    """
    coords_j, ctx = seed(list(coords), seeds)
    return promote(field(coords_j), ctx)


def fd_partial(field, coords, i, step=1e-5):
    """Central finite-difference partial, the cross-check for field_jet."""
    up = list(coords)
    dn = list(coords)
    up[i] = up[i] + step
    dn[i] = dn[i] - step
    return (field(up) - field(dn)) / (2.0 * step)


def edml_lagrangian(h_metric, phi_metric, U, Phi, p, n):
    """The electrodynamic Lagrangian over jet coordinates.

    L = h^{alpha beta}(t) phi_ij(x) xdot^i_alpha xdot^j_beta
        + U^(alpha)_(i)(t, x) xdot^i_alpha + Phi(t, x).
    """

    def fn(coords):
        t = coords[:p]
        hinv = invert_symmetric(h_metric(t))
        phi = phi_metric(coords[p:p + n])
        acc = Phi(coords)
        for i in range(n):
            for a in range(p):
                acc = acc + U[i][a](coords) * coords[fiber_index(p, n, i, a)]
                for j in range(n):
                    for b in range(p):
                        acc = acc + (
                            hinv[a][b] * phi[i][j]
                            * coords[fiber_index(p, n, i, a)]
                            * coords[fiber_index(p, n, j, b)]
                        )
        return acc

    return fn


def multitime_velocity(state, space, coords):
    """Unit multi-time velocity (u^i_alpha, u_{i alpha}) at a jet point."""
    hinv = invert_symmetric(space.h(coords[:space.p]), coords[:space.p])
    u, u_low, _ = _velocity(space, coords, space.g(coords), hinv, point=coords)
    return (
        np.array([[scalar_value(v) for v in col] for col in u]).T,
        np.array([[scalar_value(v) for v in col] for col in u_low]).T,
    )


def riemann_mixed_stress_field(state, space, em):
    """The mixed stress T^m_i as a nested-list field, every field evaluated and
    phi inverted anew: the oracle of the stress that ``riemann`` builds from a
    frame's jets."""

    def fn(coords):
        phi = space.phi(coords)
        _, E_mix = energy_low_mixed(
            phi, invert_symmetric(phi), em.H(coords), em.G(coords)
        )
        u, u_low, _ = unit_vector(phi, [vf(coords) for vf in state.velocity], "velocity")
        return mixed_stress(E_mix, u, u_low, state.pressure(coords), state.density(coords), state.c)

    return fn


def lagrange_mixed_stress_field(state, space):
    """The mixed stress T^m_i as a d-tensor field on TM, every field evaluated
    and g inverted anew: the oracle of the stress that ``lagrange`` builds from
    a frame's jets."""

    def fn(coords):
        g = space.g(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H(coords), state.em_G(coords))
        u, u_low, _ = unit_vector(g, coords[space.n:], "fiber")
        return mixed_stress(E_mix, u, u_low, state.pressure(coords), state.density(coords), state.c)

    return fn


def multitime_mixed_stress_field(state, space):
    """The mixed stress T^m_i as a d-tensor field, every field evaluated and
    h and g inverted anew: the oracle of the stress that ``multitime`` builds
    from a frame's jets."""
    p, n = space.p, space.n

    def fn(coords):
        hinv = invert_symmetric(space.h(coords[:p]))
        g = space.g(coords)
        ginv = invert_symmetric(g)
        _, E_mix = energy_low_mixed(g, ginv, state.em_H(coords), state.em_G(coords))
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


def multitime_channel_residuals(state, space, coords):
    """(conservation_h, conservation_v, continuity_h, continuity_v) of the
    point's multitime frame, each channel spelled out by hand: the horizontal
    and the vertical conservation (free latin index, and latin index with
    greek label mu), the horizontal continuity (free greek index) and the
    fully contracted vertical continuity.  Nested lists of values, with the
    ``hinv0[a][b] == 0.0`` skips of the channel algebra in the same (a, b)
    order; the oracle of ``multitime.multitime_residuals``."""
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    hinv0 = fr.hinv0
    cols = fr.cols
    force_h, force_v = fr.force_h, fr.force_v
    dp_h = fr.h.dp
    wdiv_h = [col.qu_divergence(col.h) for col in cols]
    wdiv_v = [[col.qu_divergence(ch) for ch in col.v] for col in cols]

    def ul_cov_h(i, b, m):
        return cols[b].u_cov_low(cols[b].h, i, m)

    def ul_cov_v(i, b, m, mu):
        return cols[b].u_cov_low(cols[b].v[mu], i, m)

    cons_h = []
    for i in range(n):
        acc = dp_h[i] - sum_product(fr.g0[i], force_h)
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if branch(hab == 0.0):
                    continue
                acc += hab * wdiv_h[a] * fr.ul0[i][b]
                for m in range(n):
                    acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_h(i, b, m)
        cons_h.append(acc)

    cons_v = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for mu in range(p):
            acc = fr.v[mu].dp[i] - sum(fr.g0[i][r] * force_v[mu][r] for r in range(n))
            for a in range(p):
                for b in range(p):
                    hab = hinv0[a][b]
                    if branch(hab == 0.0):
                        continue
                    acc += hab * wdiv_v[a][mu] * fr.ul0[i][b]
                    for m in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_v(i, b, m, mu)
            cons_v[i][mu] = acc

    cont_h = []
    for mu in range(p):
        acc = sum(dp_h[m] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if branch(hab == 0.0):
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                acc += hab * wdiv_h[a] * proj
                for m in range(n):
                    for i in range(n):
                        acc += fr.q0 * hab * fr.u0[m][a] * ul_cov_h(i, b, m) * fr.u0[i][mu]
        cont_h.append(acc)

    cont_v = 0.0
    for mu in range(p):
        cont_v += sum(fr.v[mu].dp[m] * fr.u0[m][mu] for m in range(n))
        for a in range(p):
            for b in range(p):
                hab = hinv0[a][b]
                if branch(hab == 0.0):
                    continue
                proj = sum(fr.ul0[i][b] * fr.u0[i][mu] for i in range(n))
                cont_v += hab * wdiv_v[a][mu] * proj
                for m in range(n):
                    for i in range(n):
                        cont_v += (
                            fr.q0 * hab * fr.u0[m][a] * ul_cov_v(i, b, m, mu) * fr.u0[i][mu]
                        )
    return cons_h, cons_v, cont_h, cont_v


def stream_sheet_residuals_covariant(state, space, coords):
    """Unreduced form of the stream-sheet residuals (oracle path).

    Applies the covariant derivatives directly to the momentum fields
    W^m_alpha = (rho+p/c^2) x^m_alpha/eps0 and V^k_beta = x^k_beta/eps0
    instead of the expanded coefficient displays.
    """
    fr = _Frame(state, space, coords)
    p, n = fr.p, fr.n
    xd = fr.xd0
    eps0 = fr.eps0
    q0 = fr.q0

    # momentum blocks as jets: x^m_alpha/eps0 is exactly the unit velocity
    # jet, whose fiber coordinates are seeded; the divergence of W^m_alpha
    # is that of the column frame alpha
    V = fr.u
    V0 = fr.u0
    cols = fr.cols

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

    force_h, force_v = fr.force_h, fr.force_v

    horizontal = []
    for k in range(n):
        acc = 0.0
        for a in range(p):
            for b in range(p):
                hab = fr.hinv0[a][b]
                if hab == 0.0:
                    continue
                acc += hab * cols[a].qu_divergence(cols[a].h) * xd[k][b]
                inner = 0.0
                for m in range(n):
                    inner += xd[m][a] * vcov_h(k, b, m)
                acc += hab * q0 * inner
        acc -= eps0 * (force_h[k] - sum_product(fr.ginv0[k], fr.h.dp))
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
                    acc += hab * cols[a].qu_divergence(cols[a].v[mu]) * xd[k][b]
                    inner = 0.0
                    for m in range(n):
                        inner += xd[m][a] * vcov_v(k, b, m, mu)
                    acc += hab * q0 * inner
            acc -= eps0 * (
                force_v[mu][k]
                - sum(fr.ginv0[k][m] * fr.v[mu].dp[m] for m in range(n))
            )
            vertical[k][mu] = acc
    return np.array(horizontal), np.array(vertical)


def component_array(values, shape):
    """Components listed in ``np.ndindex(shape)`` order as a float array.

    Lane arrays (one lane per point) add a trailing lane axis, over which
    plain floats among them are repeated; plain floats alone give an array
    of ``shape``.
    """
    if any(isinstance(v, np.ndarray) for v in values):
        values = np.broadcast_arrays(*values)
    out = np.array(values, dtype=float)
    return out.reshape(shape + out.shape[1:])


def jet_values(T, slots):
    """``T`` as an object array of jets and its values keyed by index tuple."""
    T = np.array(T, dtype=object)
    if T.ndim != len(slots):
        raise TensorError(f"rank {T.ndim} tensor given {len(slots)} slots")
    return T, {idx: T[idx].value for idx in np.ndindex(T.shape)}


def covariant_per_component(T, slots, partial, coeff):
    """Covariant derivative of a latin tensor T given as jets at one point,
    one component at a time.

    The former riemann and lagrange form of ``common.covariant_derivative``:
    ``partial(jet, p)`` is the adapted partial along direction p and
    ``coeff[i][j][p]`` the connection block.  Each component starts from its
    partial and adds one coefficient correction per slot, signed by variance.
    """
    if any(not s.latin for s in slots):
        raise TensorError("covariant derivative requires all-latin valence")
    T, vals = jet_values(T, slots)
    n = len(coeff)
    out = []
    for idx in np.ndindex(T.shape):
        for p in range(n):
            acc = partial(T[idx], p)
            for a, slot in enumerate(slots):
                pre, i, post = idx[:a], idx[a], idx[a + 1:]
                if slot.up:
                    for m in range(n):
                        acc = acc + vals[pre + (m,) + post] * coeff[i][m][p]
                else:
                    for m in range(n):
                        acc = acc - vals[pre + (m,) + post] * coeff[m][i][p]
            out.append(acc)
    return component_array(out, T.shape + (n,))


def latin_block(field, slots, coords):
    """The jet block of a latin tensor field evaluated as jets at a point."""
    T = eval_jets(field, *seed(list(coords)))
    if any(not s.latin for s in slots):
        raise TensorError("covariant derivative requires all-latin valence")
    return jet_block(T, len(slots))


def levi_civita_derivative(field, slots, space, x):
    """Covariant derivative of a latin-valence tensor field at x.

    ``field(coords)`` returns nested lists with one valence tag per level
    in ``slots``.  Returns a float array with one extra covariant axis:
    the partial plus one gamma correction per slot, signed by variance.
    """
    return _levi_civita(latin_block(field, slots, x), slots, christoffel(space, x))


def hv_covariant(field, slots, space, coords):
    """Horizontal and vertical covariant derivatives of a latin tensor field on TM.

    ``field(coords)`` returns nested lists with one valence tag per level
    in ``slots``; it is evaluated once.  Each result is a float array with
    one extra covariant axis: (adapted partial delta/delta x, Cartan L),
    then (fiber partial d/dy, Cartan C).
    """
    return _hv_covariant(latin_block(field, slots, coords), slots, space, coords)


def jet_covariant_derivative(field, slots, space, coords, kind):
    """The multi-time covariant derivative of a d-tensor field at a jet point:
    ``multitime._jet_covariant`` of ``field(coords)`` evaluated as jets."""
    T = eval_jets(field, *seed(list(coords)))
    return _jet_covariant(jet_block(T, len(slots)), slots, space, coords, kind)


def jet_covariant_per_component(T, slots, space, coords, kind):
    """The multi-time covariant derivative of jets T, one component at a time.

    The former form of ``multitime._jet_covariant``: each component and
    derivative index runs the adapted partial of its own jet, and its
    corrections are summed from 0.0 in slot order and then m order.
    """
    p, n = space.p, space.n
    kappa, Gt, L, C = cartan_gamma(space, coords)  # kappa before N: h's error first
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


def jet_product_loop(ctx, ac, bc):
    """The jet product as a loop over the (a, b, out) slot triples.

    The triples table pairs coefficient slots whose key lengths sum to at
    most the order, in slot order of a then b; ``dual``'s generated
    product kernel must equal this loop bit for bit.
    """
    out = [0.0] * ctx.nkeys
    for ia, ka in enumerate(ctx.keys):
        for ib, kb in enumerate(ctx.keys):
            if len(ka) + len(kb) <= ctx.order:
                io = ctx.pos[tuple(sorted(ka + kb))]
                out[io] = out[io] + ac[ia] * bc[ib]
    return out


def coefficient_bits(x):
    """Type name and float.hex of a scalar, per lane of a lane array, nested
    through the coefficients of a jet of either engine."""
    if isinstance(x, (Jet, ref.Jet)):
        return [coefficient_bits(v) for v in x.c]
    if isinstance(x, np.ndarray):
        return ("ndarray", [v.hex() for v in x.ravel().tolist()])
    return (type(x).__name__, float(x).hex())


# -- the tree walker ---------------------------------------------------------------

def walk(node, binding):
    """Evaluate an expression tree recursively under a name -> scalar binding.

    The first evaluator of the expression language, kept as the oracle of
    its compiled code: scalars may be floats, lane arrays or jets, with the
    arithmetic of :mod:`geoplasma.dual`.  An unbound variable raises when
    it is reached, and a failing operation raises a DomainError naming the
    offending subexpression.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return binding[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
    if isinstance(node, Neg):
        return -walk(node.child, binding)
    if isinstance(node, BinOp):
        left = walk(node.left, binding)
        right = walk(node.right, binding)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if not isinstance(left, Jet) and not isinstance(right, Jet):
                    if branch(right == 0.0):
                        raise DomainError("division by zero")
                return left / right
            return power(left, right)
        except DomainError as err:
            if err.where is None:
                raise DomainError(str(err), where=pretty(node)) from None
            raise
        except ZeroDivisionError:
            raise DomainError("division by zero", where=pretty(node)) from None
        except (ArithmeticError, ValueError) as err:
            raise DomainError(str(err), where=pretty(node)) from None
    if isinstance(node, Call):
        fn = expr_mod.FUNCTIONS[node.name][0]
        args = [walk(a, binding) for a in node.args]
        try:
            return fn(*args)
        except (DomainError, ArithmeticError, ValueError) as err:
            if getattr(err, "where", None) is None:
                raise DomainError(str(err), where=pretty(node)) from None
            raise
    raise TypeError(f"not an expression node: {node!r}")


# -- the general jet engine ------------------------------------------------------

def compile_trees(trees, names):
    """The generated function of ``expr.compile_field`` alone: ``coords ->
    [value of each tree]``, raising the raw error of a failing operation."""
    return expr_mod._function(expr_mod._straight_line(trees, names)[0])


def _reference_div(left, right):
    """``expr._checked_div`` on the reference engine's jets."""
    if not isinstance(left, ref.Jet) and not isinstance(right, ref.Jet):
        if ref.branch(right == 0.0):
            raise DomainError("division by zero")
    return left / right


# the compiled-field names bound to the reference engine's functions
_REFERENCE_NAMESPACE = dict(expr_mod._NAMESPACE, _div=_reference_div, _pow=ref.power, **{
    "_" + name: getattr(ref, name) for name in ("sin", "cos", "exp", "log", "sqrt", "tanh")
})


def reference_trees(trees, names):
    """The package's straight-line code of ``trees`` on the reference engine.

    ``coords -> [value of each tree]`` for jets of any order and nested
    seedings, where the package's compiled fields take first-order jets.
    """
    namespace = dict(_REFERENCE_NAMESPACE)
    source, _ = expr_mod._straight_line(trees, names)
    exec(compile(source, "<reference field>", "exec"), namespace)
    return namespace["field"]


def reference_field(source, names):
    """A scalar expression field on the reference engine."""
    fn = reference_trees([parse(source)], names)
    return lambda coords: fn(coords)[0]


def reference_field_jet(field, coords, seeds=None, order=1):
    """:func:`field_jet` on the reference engine, partials up to ``order``."""
    coords_j, ctx = ref.seed(list(coords), seeds, order)
    out = field(coords_j)
    if not isinstance(out, ref.Jet) or out.ctx is not ctx:
        out = ref.Jet.constant(ctx, out)
    return out


def _reference_inverse(a):
    """Gauss-Jordan inverse of a positive-definite matrix of reference jets."""
    n = len(a)
    rows = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = rows[col][col]
        rows[col] = [x / piv for x in rows[col]]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def finsler_space_from_F(F, n):
    """Generalized Lagrange space of a Finsler fundamental function.

    ``F`` is a field on the reference engine (:func:`reference_field`).
    g_ij = (1/2) d^2 F^2 / dy^i dy^j via second-order fiber jets.  The
    returned spray fn gives G^k = (1/2) Gamma^k_pq y^p y^q with the
    generalized Christoffel symbols of g; the nonlinear connection is its
    fiber derivative N^i_j = dG^i/dy^j, taken through nested seedings.
    Evaluate it at plain coordinates: the package's frames need
    :func:`finsler_derived_space`.
    """
    fiber = list(range(n, 2 * n))

    def f2(coords):
        v = F(coords)
        return v * v

    def g_matrix(coords):
        cj, ctx = ref.seed(list(coords), seeds=fiber, order=2)
        val = ref.promote(f2(cj), ctx)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = 0.5 * val.d(i, j)
                out[i][j] = entry
                out[j][i] = entry
        return out

    def spray(coords):
        cj, ctx = ref.seed(list(coords), seeds=range(n))
        g = [[ref.promote(v, ctx) for v in row] for row in g_matrix(cj)]
        ginv0 = _reference_inverse([[e.value for e in row] for row in g])
        dg = [[[g[i][j].d(k) for j in range(n)] for i in range(n)] for k in range(n)]
        gamma = christoffel_from(ginv0, dg)
        y = coords[n:]
        return [0.5 * quadratic_form(gamma[k], y, y) for k in range(n)]

    def N_fn(coords):
        cj, ctx = ref.seed(list(coords), seeds=fiber)
        Gk = [ref.promote(v, ctx) for v in spray(cj)]
        return [[Gk[i].d(j) for j in range(n)] for i in range(n)]

    return GeneralizedLagrangeSpace(n, g_matrix, N_fn), spray, f2


def _sympy_of(node, symbols):
    """A sympy expression of a parsed expression tree."""
    import sympy

    if isinstance(node, Num):
        return sympy.Integer(int(node.value)) if node.value.is_integer() else sympy.Float(node.value)
    if isinstance(node, Var):
        return symbols[node.name]
    if isinstance(node, Neg):
        return -_sympy_of(node.child, symbols)
    args = [_sympy_of(a, symbols) for a in (node.args if isinstance(node, Call) else
                                             (node.left, node.right))]
    if isinstance(node, Call):
        return sympy.Pow(*args) if node.name == "pow" else getattr(sympy, node.name)(*args)
    a, b = args
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a**b}[node.op]


def _tree_of(e, memo):
    """An expression tree of a sympy expression; sums and products balanced."""
    import sympy

    if e in memo:
        return memo[e]
    if e.is_Symbol:
        tree = Var(e.name)
    elif e.is_Number:
        tree = Num(float(e))
    elif e.is_Pow and e.exp.is_Rational and e.exp.q == 2:
        root = Call("sqrt", (_tree_of(e.base, memo),))
        tree = root if e.exp.p == 1 else BinOp("^", root, Num(float(e.exp.p)))
    elif e.is_Pow:
        tree = BinOp("^", _tree_of(e.base, memo), _tree_of(e.exp, memo))
    elif e.is_Add or e.is_Mul:
        def balanced(parts):
            if len(parts) == 1:
                return parts[0]
            mid = len(parts) // 2
            return BinOp("+" if e.is_Add else "*", balanced(parts[:mid]), balanced(parts[mid:]))

        tree = balanced([_tree_of(a, memo) for a in e.args])
    elif isinstance(e, (sympy.sin, sympy.cos, sympy.exp, sympy.log, sympy.tanh)):
        tree = Call(type(e).__name__, (_tree_of(e.args[0], memo),))
    else:
        raise TypeError(f"no expression form for {e!r}")
    memo[e] = tree
    return tree


def finsler_derived_space(source, n):
    """The Finsler space of :func:`finsler_space_from_F` in closed form.

    ``source`` is F as an expression over x1..xn, y1..yn.  g, the spray G
    and N = dG/dy are derived with sympy and compiled as the package's
    expression fields, so the package's first-order frames run on the
    space.  Returns (space, spray), spray a field of the G^k list.
    """
    import sympy

    names = xynames(n)
    symbols = {name: sympy.Symbol(name) for name in names}
    xs, ys = [symbols[nm] for nm in names[:n]], [symbols[nm] for nm in names[n:]]
    f2 = _sympy_of(parse(source), symbols) ** 2
    g = sympy.Matrix(n, n, lambda i, j: sympy.diff(f2, ys[i], ys[j]) / 2)
    ginv = g.adjugate(method="berkowitz") / g.det(method="berkowitz")
    dg = [g.diff(x) for x in xs]
    # S_m = (1/2) Gamma_{m,pq} y^p y^q (first kind), G = g^-1 S, and
    # N = dG/dy by the product rule, d(g^-1) = -g^-1 dg g^-1
    S = sympy.Matrix([
        sum((dg[q][p, m] + dg[p][q, m] - dg[m][p, q]) * ys[p] * ys[q]
            for p in range(n) for q in range(n)) / 4
        for m in range(n)
    ])
    spray = ginv * S
    N = [
        (-ginv * g.diff(ys[j]) * spray + ginv * S.diff(ys[j]))[i]
        for i in range(n) for j in range(n)
    ]

    memo = {}

    def field(exprs, label):
        trees = [_tree_of(e, memo) for e in exprs]
        return compile_field(trees, names, [f"{label} {k}" for k in range(len(trees))])

    g_field = field([g[i, j] for i in range(n) for j in range(i, n)], "g")
    N_field = field(N, "N")

    def N_fn(coords):
        flat = N_field(coords)
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    space = GeneralizedLagrangeSpace(n, symmetric_field(n, g_field), N_fn)
    return space, field(spray, "spray")


def report_columns(report):
    """(labels, values) of a one-point report, flattened component by
    component in ``np.ndindex`` order, each entry followed by its max norm:
    the column layout of the ``residuals`` CSV."""
    labels, values = [], []
    for name, arr in report.items():
        for idx in np.ndindex(arr.shape):
            labels.append(name + "_" + "".join(str(i + 1) for i in idx) if idx else name)
            values.append(float(arr[idx]))
        labels.append(name + "_norm")
        values.append(float(np.abs(arr).max()))
    return labels, values


def numpy_rk4(accel, x0, v0, step, count, monitors=()):
    """``common.integrate_rk4`` in its former form, on numpy arrays of shape (n,):
    the oracle of the plain-float integrator's bits and errors."""
    if step <= 0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("need at least one step")
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)

    def row(s, x, v, k):
        xl, vl = x.tolist(), v.tolist()
        try:
            extra = [monitor(xl, vl) for monitor in monitors]
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        return [s, *xl, *vl, *extra]

    def f(xx, vv):
        return np.array(accel(xx.tolist(), vv.tolist()))

    first = row(0.0, x, v, 0)
    rows = np.empty((count + 1, len(first)))
    rows[0] = first
    for k in range(count):
        try:
            k1x, k1v = v, f(x, v)
            k2x, k2v = v + 0.5 * step * k1v, f(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
            k3x, k3v = v + 0.5 * step * k2v, f(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
            k4x, k4v = v + step * k3v, f(x + step * k3x, v + step * k3v)
        except Exception as err:
            raise IntegrationError(str(err), step=k) from err
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise IntegrationError("state is not finite", step=k)
        rows[k + 1] = row((k + 1) * step, x, v, k)
    return rows
