"""Shared builders, adapters and oracles for the test suite.

The independent oracles are written against numpy/einsum or finite
differences so they do not share code paths with the package internals
they check.  The reference implementations at the end are the package's
unreduced forms (the covariant stream-sheet residuals, the edml
Lagrangian, the multi-time velocity); only tests compare against them.
The adapters return what the tests read from the pieces the pipelines
use (``common.unit_vector``, the adapted partials, the connection lists).
"""

import numpy as np

from geoplasma.common import energy_low_mixed, unit_vector
from geoplasma.dual import promote, scalar_value, seed
from geoplasma.lagrange import _adapted_partials
from geoplasma.lagrange import _coords as _tangent_coords
from geoplasma.multitime import (
    _Derivatives,
    _Frame,
    _coords,
    _velocity,
    fiber_index,
    temporal_christoffel_lists,
)
from geoplasma.riemann import ElectromagneticPair, FluidState, SemiRiemannianSpace
from geoplasma.tensor_core import (
    MetricField,
    Slot,
    Tensor,
    TensorField,
    TwoFormField,
    constant_field,
    invert_symmetric,
    scalar_field,
    sum_product,
)


def xnames(n):
    return [f"x{i + 1}" for i in range(n)]


def flat_space(n):
    rows = [["1" if j == 0 else "0" for j in range(n - i)] for i in range(n)]
    return SemiRiemannianSpace(n, MetricField.from_exprs(n, rows, xnames(n)))


def polar_space():
    # diag(1, r^2) with r = x1
    return SemiRiemannianSpace(
        2, MetricField.from_exprs(2, [["1", "0"], ["x1^2"]], xnames(2))
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
    return SemiRiemannianSpace(n, MetricField.from_exprs(n, rows, names))


def zero_em(n):
    return ElectromagneticPair(TwoFormField.zero(n), TwoFormField.zero(n))


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
        n, MetricField.from_exprs(n, random_metric_rows(rng, n, names), names)
    )
    em = ElectromagneticPair(
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
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
    g = MetricField.from_exprs(n, random_metric_rows(rng, n, names), names)
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
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
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
    h = MetricField.from_exprs(
        p, random_metric_rows(rng, p, tnm, diag_base=1.3, diag_amp=0.2, off_amp=0.1),
        tnm,
    )
    g = MetricField.from_exprs(n, random_metric_rows(rng, n, names), names)
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
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
        TwoFormField.from_exprs(n, random_two_form_rows(rng, n, names), names),
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

    g_lag = MetricField.from_exprs(n, rows, lag_names)
    nf_lag = [[scalar_field(e, lag_names) for e in row] for row in nexprs]
    space_lag = GeneralizedLagrangeSpace(
        n, g_lag, lambda coords: [[f(coords) for f in row] for row in nf_lag]
    )
    state_lag = LagrangeFluidState(
        scalar_field(p_expr, lag_names),
        scalar_field(rho_expr, lag_names),
        1.0,
        TwoFormField.from_exprs(n, h_rows, lag_names),
        TwoFormField.from_exprs(n, g_rows_em, lag_names),
    )

    mt = lambda s: to_multitime_names(s, n)
    rows_mt = [[mt(e) for e in row] for row in rows]
    h_mt = MetricField.from_exprs(1, [["1"]], ["t1"])
    g_mt = MetricField.from_exprs(n, rows_mt, mt_names)
    nf_mt = [[scalar_field(mt(e), mt_names) for e in row] for row in nexprs]

    def N_mt_fn(coords):
        return [[[nf_mt[i][j](coords) for j in range(n)]] for i in range(n)]

    space_mt = MultiTimeSpace(1, n, h_mt, g_mt, N_mt_fn)
    state_mt = MultiTimeFluidState(
        scalar_field(mt(p_expr), mt_names),
        scalar_field(mt(rho_expr), mt_names),
        1.0,
        TwoFormField.from_exprs(n, [[mt(e) for e in row] for row in h_rows], mt_names),
        TwoFormField.from_exprs(n, [[mt(e) for e in row] for row in g_rows_em], mt_names),
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

    space_r = SemiRiemannianSpace(n, MetricField.from_exprs(n, metric_rows, xnm))
    em_r = ElectromagneticPair(
        TwoFormField.from_exprs(n, h_rows, xnm),
        TwoFormField.from_exprs(n, g_rows, xnm),
    )
    state_lag = LagrangeFluidState(
        scalar_field(p_expr, full),
        scalar_field(rho_expr, full),
        1.0,
        TwoFormField.from_exprs(n, h_rows, full),
        TwoFormField.from_exprs(n, g_rows, full),
    )
    g_lag = MetricField.from_exprs(n, metric_rows, full)

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
    g0 = np.array(metric_field.matrix(list(x)))
    dg = np.empty((n, n, n))
    for k in range(n):
        up = list(x)
        dn = list(x)
        up[k] += step
        dn[k] -= step
        dg[k] = (np.array(metric_field.matrix(up)) - np.array(metric_field.matrix(dn))) / (2 * step)
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
    u, _, _ = unit_vector(space.phi.matrix(coords), v, "velocity", x)
    return np.array([scalar_value(ui) for ui in u])


def unit_velocity_field(state, space):
    def fn(coords):
        v = [vf(coords) for vf in state.velocity]
        u, _, _ = unit_vector(space.phi.matrix(coords), v, "velocity")
        return Tensor((Slot.LU,), (space.n,), u)

    return TensorField((Slot.LU,), fn)


def mixed_energy_field(space, em):
    def fn(coords):
        phi = space.phi.matrix(coords)
        phinv = invert_symmetric(phi)
        _, E_mix = energy_low_mixed(phi, phinv, em.H.matrix(coords), em.G.matrix(coords))
        return Tensor.from_nested((Slot.LU, Slot.LD), E_mix)

    return TensorField((Slot.LU, Slot.LD), fn)


def adapted_x_derivative(field, space, pt):
    """delta f / delta x^i of a scalar field over (x, y)."""
    coords = _tangent_coords(pt)
    cj, ctx = seed(list(coords))
    val = promote(field(cj), ctx)
    _, horizontal, _ = _adapted_partials(space, coords)
    return np.array([horizontal(val, i) for i in range(space.n)])


def temporal_christoffel(space, t_coords):
    return Tensor.from_nested(
        (Slot.GU, Slot.GD, Slot.GD), temporal_christoffel_lists(space, t_coords)
    )


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


# -- reference implementations ---------------------------------------------------


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
        hinv = invert_symmetric(h_metric.matrix(t))
        phi = phi_metric.matrix(coords[p:p + n])
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


def multitime_velocity(state, space, jp):
    """Unit multi-time velocity (u^i_alpha, u_{i alpha}) at a jet point."""
    coords = _coords(jp)
    hinv = invert_symmetric(space.h.matrix(coords[:space.p]), coords[:space.p])
    u, u_low, _ = _velocity(space, coords, space.g.matrix(coords), hinv, point=coords)
    return (
        np.array([[scalar_value(v) for v in col] for col in u]).T,
        np.array([[scalar_value(v) for v in col] for col in u_low]).T,
    )


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
