import numpy as np
import pytest

import helpers
from geoplasma import lagrange
from geoplasma.dual import scalar_value
from geoplasma.errors import NormalizationError
from geoplasma.lagrange import (
    GeneralizedLagrangeSpace,
    LagrangeFluidState,
    TangentPoint,
    canonical_nonlinear_connection,
    cartan_connection,
    cartan_connection_lists,
    conservation_divergence,
    finsler_space_from_F,
    h_covariant,
    h_stream_line_rhs,
    integrate_h_stream_line,
    lagrange_residuals,
    metric_compatibility,
    resolve_epsilon0,
    v_covariant,
    v_stream_constraint_residual,
    zero_connection,
)
from geoplasma.riemann import christoffel_lists, riemann_report
from geoplasma.tensor_core import (
    MetricField,
    Slot,
    Tensor,
    TensorField,
    TwoFormField,
    constant_field,
    quadratic_form,
    scalar_field,
)

RNG = np.random.default_rng(515)


def generic_scenario(seed=3, n=2):
    rng = np.random.default_rng(seed)
    return helpers.random_lagrange_scenario(rng, n)


def const_lagrange_state(n, p=0.2, rho=1.0, c=1.0):
    return LagrangeFluidState(
        constant_field(p), constant_field(rho), c,
        TwoFormField.zero(n), TwoFormField.zero(n),
    )


def flat_lagrange_space(n):
    rows = [["1" if j == 0 else "0" for j in range(n - i)] for i in range(n)]
    g = MetricField.from_exprs(n, rows, helpers.xynames(n))
    return GeneralizedLagrangeSpace(n, g, zero_connection(n))


# -- adapted derivative --------------------------------------------------------

def test_adapted_derivative_reduces_to_plain_partial():
    n = 2
    names = helpers.xynames(n)
    f = scalar_field("sin(x1*x2) + x1^2", names)
    space = flat_lagrange_space(n)
    pt = TangentPoint((0.3, -0.7), (1.0, 0.5))
    out = helpers.adapted_x_derivative(f, space, pt)
    x = [0.3, -0.7]
    expected = [
        x[1] * np.cos(x[0] * x[1]) + 2 * x[0],
        x[0] * np.cos(x[0] * x[1]),
    ]
    assert np.abs(out - expected).max() < 1e-12


def test_adapted_derivative_chain_rule_oracle():
    n = 2
    space, state, box = generic_scenario(seed=8)
    names = helpers.xynames(n)
    f = scalar_field("x1*y1^2 + cos(x2)*y2", names)
    pt = helpers.sample_box(RNG, box, 1)[0]
    out = helpers.adapted_x_derivative(f, space, pt)
    # independent: finite differences in x and y combined with N at the point
    step = 1e-6
    N0 = space.N(list(pt))
    expected = np.zeros(n)
    for i in range(n):
        up, dn = list(pt), list(pt)
        up[i] += step
        dn[i] -= step
        expected[i] = (f(up) - f(dn)) / (2 * step)
        for m in range(n):
            upy, dny = list(pt), list(pt)
            upy[n + m] += step
            dny[n + m] -= step
            expected[i] -= N0[m][i] * (f(upy) - f(dny)) / (2 * step)
    assert np.abs(out - expected).max() < 1e-8


# -- cartan connection -----------------------------------------------------------

def test_cartan_flat_zero():
    space = flat_lagrange_space(2)
    L, C = cartan_connection(space, TangentPoint((0.1, 0.2), (1.0, -0.5)))
    assert L.max_abs() == 0.0
    assert C.max_abs() == 0.0


def test_cartan_y_independent_with_canonical_connection():
    # g = g(x): L must equal the Christoffel symbols of g, C must vanish
    n = 2
    rng = np.random.default_rng(77)
    xnm = helpers.xnames(n)
    rows = helpers.random_metric_rows(rng, n, xnm)
    g_base = MetricField.from_exprs(n, rows, xnm)
    g_tm = MetricField.from_exprs(n, rows, helpers.xynames(n))
    space = GeneralizedLagrangeSpace(
        n, g_tm, canonical_nonlinear_connection(g_tm, n)
    )
    from geoplasma.riemann import SemiRiemannianSpace

    base = SemiRiemannianSpace(n, g_base)
    for _ in range(3):
        x = list(RNG.uniform(-0.5, 0.5, n))
        y = list(RNG.uniform(0.6, 1.2, n))
        L, C = cartan_connection(space, TangentPoint(tuple(x), tuple(y)))
        gamma = christoffel_lists(base, x)
        assert np.abs(np.array(L.tolist()) - np.array(gamma)).max() < 1e-10
        assert C.max_abs() == 0.0


def test_cartan_symmetry_generic():
    space, _, box = generic_scenario(seed=13)
    pt = helpers.sample_box(RNG, box, 1)[0]
    L, C = cartan_connection(space, pt)
    for i, j, k in L.indices():
        assert abs(L[i, j, k] - L[i, k, j]) < 1e-12
        assert abs(C[i, j, k] - C[i, k, j]) < 1e-12


def test_cartan_vs_finite_differences():
    space, _, box = generic_scenario(seed=17)
    n = space.n
    pt = helpers.sample_box(RNG, box, 1)[0]
    L, C = cartan_connection_lists(space, pt)
    step = 1e-5
    g0 = np.array(space.g.matrix(list(pt)))
    ginv = np.linalg.inv(g0)
    N0 = np.array(space.N(list(pt)))
    dg = np.empty((2 * n, n, n))
    for k in range(2 * n):
        up, dn = list(pt), list(pt)
        up[k] += step
        dn[k] -= step
        dg[k] = (np.array(space.g.matrix(up)) - np.array(space.g.matrix(dn))) / (2 * step)
    dxg = np.array([dg[k] - sum(N0[r][k] * dg[n + r] for r in range(n)) for k in range(n)])
    dyg = dg[n:]

    def chris(dgs):
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i][j][k] = 0.5 * sum(
                        ginv[i][m] * (dgs[k][j][m] + dgs[j][k][m] - dgs[m][j][k])
                        for m in range(n)
                    )
        return out

    assert np.abs(np.array(L) - chris(dxg)).max() < 1e-6
    assert np.abs(np.array(C) - chris(dyg)).max() < 1e-6


# -- covariant derivatives and compatibility --------------------------------------

def test_metric_compatibility_generic():
    space, _, box = generic_scenario(seed=19)
    for pt in helpers.sample_box(RNG, box, 3):
        compat = metric_compatibility(space, pt)
        for name, val in compat.items():
            assert val < 1e-11, name


def test_covariant_constant_tensor_flat():
    space = flat_lagrange_space(2)
    field = TensorField(
        (Slot.LU, Slot.LD),
        lambda coords: Tensor.from_nested((Slot.LU, Slot.LD), [[1.0, 2.0], [3.0, 4.0]]),
    )
    pt = TangentPoint((0.0, 0.0), (1.0, 1.0))
    assert h_covariant(field, space, pt).max_abs() == 0.0
    assert v_covariant(field, space, pt).max_abs() == 0.0


def test_covariant_dual_path_oracle():
    # second implementation with reversed term accumulation and numpy
    space, _, box = generic_scenario(seed=23)
    n = space.n
    names = helpers.xynames(n)
    comps = [
        [scalar_field(f"sin(x{i + 1}*y{j + 1}) + x{(i + j) % n + 1}", names) for j in range(n)]
        for i in range(n)
    ]
    field = TensorField(
        (Slot.LU, Slot.LD),
        lambda coords: Tensor.from_nested(
            (Slot.LU, Slot.LD), [[comps[i][j](coords) for j in range(n)] for i in range(n)]
        ),
    )
    pt = helpers.sample_box(RNG, box, 1)[0]
    got_h = np.array(h_covariant(field, space, pt).tolist())
    got_v = np.array(v_covariant(field, space, pt).tolist())

    L, C = cartan_connection_lists(space, pt)
    N0 = np.array(space.N(list(pt)))
    step = 1e-6
    t0 = np.array([[comps[i][j](list(pt)) for j in range(n)] for i in range(n)])

    def fd_dir(k):
        up, dn = list(pt), list(pt)
        up[k] += step
        dn[k] -= step
        return (
            np.array([[comps[i][j](up) for j in range(n)] for i in range(n)])
            - np.array([[comps[i][j](dn) for j in range(n)] for i in range(n)])
        ) / (2 * step)

    for p in range(n):
        dT_h = fd_dir(p) - sum(N0[r][p] * fd_dir(n + r) for r in range(n))
        dT_v = fd_dir(n + p)
        for i in range(n):
            for j in range(n):
                ref_h = dT_h[i][j]
                ref_v = dT_v[i][j]
                for m in reversed(range(n)):
                    ref_h += t0[m][j] * L[i][m][p] - t0[i][m] * L[m][j][p]
                    ref_v += t0[m][j] * C[i][m][p] - t0[i][m] * C[m][j][p]
                assert abs(got_h[i][j][p] - ref_h) < 1e-7
                assert abs(got_v[i][j][p] - ref_v) < 1e-7


def test_dual_normalization_identities():
    space, _, box = generic_scenario(seed=29)
    n = space.n
    uf = TensorField(
        (Slot.LU,),
        lambda coords: Tensor((Slot.LU,), (n,), lagrange._unit_velocity(space.g.matrix(coords), coords)[0]),
    )
    ulf = TensorField(
        (Slot.LD,),
        lambda coords: Tensor((Slot.LD,), (n,), lagrange._unit_velocity(space.g.matrix(coords), coords)[1]),
    )
    for pt in helpers.sample_box(RNG, box, 3):
        u0, ul0, _ = lagrange._unit_velocity(space.g.matrix(list(pt)), list(pt))
        u0 = np.array([scalar_value(v) for v in u0])
        ul0 = np.array([scalar_value(v) for v in ul0])
        assert abs(u0 @ ul0 - 1.0) < 1e-13
        du_h = np.array(h_covariant(uf, space, pt).tolist())
        du_v = np.array(v_covariant(uf, space, pt).tolist())
        dul_h = np.array(h_covariant(ulf, space, pt).tolist())
        dul_v = np.array(v_covariant(ulf, space, pt).tolist())
        for m in range(n):
            assert abs(ul0 @ du_h[:, m]) < 1e-11
            assert abs(ul0 @ du_v[:, m]) < 1e-11
            assert abs(u0 @ dul_h[:, m]) < 1e-11
            assert abs(u0 @ dul_v[:, m]) < 1e-11


# -- residual report ----------------------------------------------------------------

def test_residuals_constant_scenario():
    # h-channel residuals vanish; the v-channel conservation/continuity do
    # not, because u = y/eps has fiber derivatives even with constant data:
    # the oracle expansion of the v-divergence of the stress gives
    # cons_v = Q (n-1) u_i / eps and cont_v = Q (n-1) / eps.
    n = 2
    p0, rho0 = 0.2, 1.0
    space = flat_lagrange_space(n)
    state = const_lagrange_state(n, p=p0, rho=rho0)
    y = np.array([1.0, 0.4])
    rep = lagrange_residuals(state, space, TangentPoint((0.3, 0.1), tuple(y)))
    for name in [
        "lorentz_h", "conservation_h", "continuity_h", "euler_h", "force_h",
        "lorentz_v", "euler_v", "force_v", "unit_norm_error",
    ]:
        assert rep.norm(name) < 1e-13, name
    eps = np.linalg.norm(y)
    q0 = rho0 + p0
    assert np.abs(rep["conservation_v"] - q0 * (n - 1) * (y / eps) / eps).max() < 1e-14
    assert rep["continuity_v"] == pytest.approx(q0 * (n - 1) / eps, rel=1e-13)


def test_contraction_and_euler_identities_generic():
    space, state, box = generic_scenario(seed=31)
    for pt in helpers.sample_box(RNG, box, 5):
        rep = lagrange_residuals(state, space, pt)
        assert abs(rep["contraction_identity_h"]) < 1e-10
        assert abs(rep["contraction_identity_v"]) < 1e-10
        assert rep.norm("euler_decomposition_h") < 1e-10
        assert rep.norm("euler_decomposition_v") < 1e-10


def test_conservation_divergence_two_paths():
    space, state, box = generic_scenario(seed=37)
    for pt in helpers.sample_box(RNG, box, 3):
        rep = lagrange_residuals(state, space, pt)
        for channel in ("h", "v"):
            div = conservation_divergence(state, space, pt, channel)
            assert np.abs(div - rep[f"conservation_{channel}"]).max() < 1e-10


def test_reduction_to_riemann_with_zero_connection():
    # fiber-independent scenario, N = 0: the h-channel at (x, y0) equals the
    # base pipeline with the constant velocity field v = y0
    n = 2
    rng = np.random.default_rng(41)
    space_r, em_r, make_riemann_state, make_space, state_lag, box = (
        helpers.paired_riemann_lagrange(rng, n)
    )
    space_l = make_space(zero_connection(n))
    for _ in range(5):
        x0 = list(RNG.uniform(-0.5, 0.5, n))
        y0 = list(RNG.uniform(0.7, 1.3, n))
        state_r = make_riemann_state([constant_field(v) for v in y0])
        rep_r = riemann_report(state_r, space_r, em_r, x0)
        rep_l = lagrange_residuals(state_lag, space_l, TangentPoint(tuple(x0), tuple(y0)))
        for base_name, lag_name in [
            ("conservation", "conservation_h"),
            ("continuity", "continuity_h"),
            ("euler", "euler_h"),
            ("lorentz", "lorentz_h"),
            ("force", "force_h"),
        ]:
            diff = np.abs(rep_r[base_name] - rep_l[lag_name]).max()
            assert diff < 1e-9, (base_name, diff)


def test_reduction_to_riemann_with_canonical_connection():
    # canonical N parallelizes the fiber; the matching base velocity field is
    # the first-order parallel extension of y0 at x0
    n = 2
    rng = np.random.default_rng(43)
    space_r, em_r, make_riemann_state, make_space, state_lag, box = (
        helpers.paired_riemann_lagrange(rng, n)
    )
    g_tm = make_space(zero_connection(n)).g
    space_l = make_space(canonical_nonlinear_connection(g_tm, n))
    for _ in range(5):
        x0 = list(RNG.uniform(-0.5, 0.5, n))
        y0 = list(RNG.uniform(0.7, 1.3, n))
        gamma0 = christoffel_lists(space_r, x0)

        def extension(r, x0=x0, y0=y0, gamma0=gamma0):
            def v(coords):
                acc = y0[r]
                for m in range(n):
                    for q in range(n):
                        acc -= gamma0[r][m][q] * y0[q] * (coords[m] - x0[m])
                return acc

            return v

        state_r = make_riemann_state([extension(r) for r in range(n)])
        rep_r = riemann_report(state_r, space_r, em_r, x0)
        rep_l = lagrange_residuals(state_lag, space_l, TangentPoint(tuple(x0), tuple(y0)))
        for base_name, lag_name in [
            ("conservation", "conservation_h"),
            ("continuity", "continuity_h"),
            ("euler", "euler_h"),
            ("lorentz", "lorentz_h"),
            ("force", "force_h"),
        ]:
            diff = np.abs(rep_r[base_name] - rep_l[lag_name]).max()
            assert diff < 1e-9, (base_name, diff)


def test_v_conservation_reduction_fiber_independent():
    # fiber-independent fields: the v-channel conservation collapses to
    # (rho + p/c^2) (n - 1) u_i / eps (frozen from the expansion oracle)
    n = 2
    rng = np.random.default_rng(47)
    _, _, _, make_space, state_lag, _ = helpers.paired_riemann_lagrange(rng, n)
    space_l = make_space(zero_connection(n))
    x0 = [0.2, -0.4]
    y0 = [1.1, 0.8]
    pt = TangentPoint(tuple(x0), tuple(y0))
    rep = lagrange_residuals(state_lag, space_l, pt)
    coords = list(x0) + list(y0)
    g = np.array(space_l.g.matrix(coords))
    eps = np.sqrt(np.array(y0) @ g @ np.array(y0))
    u_low = g @ (np.array(y0) / eps)
    p0 = state_lag.pressure(coords)
    q0 = state_lag.density(coords) + p0
    expected = q0 * (n - 1) * u_low / eps
    assert np.abs(rep["conservation_v"] - expected).max() < 1e-11


# -- stream lines ----------------------------------------------------------------------

def test_h_stream_rhs_constant_zero():
    n = 2
    space = flat_lagrange_space(n)
    state = const_lagrange_state(n)
    rhs = h_stream_line_rhs(state, space, [0.1, 0.2], [1.0, 0.0])
    assert np.abs(rhs).max() < 1e-13
    resid = v_stream_constraint_residual(state, space, [0.1, 0.2], [1.0, 0.0])
    assert np.abs(resid).max() < 1e-13


def test_resolve_epsilon0_fiber_dependent():
    space, _, box = generic_scenario(seed=53)
    n = space.n
    pt = helpers.sample_box(RNG, box, 1)[0]
    x, w = pt[:n], pt[n:]
    # start near the unit cone, as along a genuine stream line
    w = list(np.array(w) / np.sqrt(quadratic_form(space.g.matrix(pt), w, w)))
    eps0 = resolve_epsilon0(space, x, w)
    coords = list(x) + [eps0 * wi for wi in w]
    val = quadratic_form(space.g.matrix(coords), w, w)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_resolve_epsilon0_fiber_independent_requires_unit():
    n = 2
    space = flat_lagrange_space(n)
    assert resolve_epsilon0(space, [0.0, 0.0], [1.0, 0.0]) == 1.0
    with pytest.raises(NormalizationError):
        resolve_epsilon0(space, [0.0, 0.0], [2.0, 0.0])


def test_h_stream_rhs_dual_path():
    space, state, box = generic_scenario(seed=59)
    n = space.n
    pt = helpers.sample_box(RNG, box, 1)[0]
    x = pt[:n]
    w = list(np.array(pt[n:]) / np.sqrt(quadratic_form(space.g.matrix(pt), pt[n:], pt[n:])))
    # bring w close to the normalized cone so eps0 resolves
    rhs = np.array(h_stream_line_rhs(state, space, x, w))

    eps0 = resolve_epsilon0(space, x, w)
    y = [eps0 * wi for wi in w]
    fr = lagrange._Frame(state, space, list(x) + y)
    fac = state.c**2 / (fr.p0 + fr.rho0 * state.c**2)
    expected = np.zeros(n)
    for k in range(n):
        acc = fac * (fr.lorentz_force(fr.h)[k] - np.array(fr.ginv0[k]) @ fr.h.dp)
        acc += fac * sum(fr.h.dp[m] * w[m] for m in range(n)) * w[k]
        acc -= sum(fr.h.coeff[k][r][m] * w[r] * w[m] for r in range(n) for m in range(n))
        acc += sum(fr.N0[k][m] * w[m] for m in range(n)) / eps0
        acc -= (
            sum(
                fr.N0[p_][m] * fr.g0[p_][r] * w[r] * w[m]
                for p_ in range(n) for r in range(n) for m in range(n)
            )
            * w[k] / eps0
        )
        acc -= 0.5 * w[k] * sum(
            fr.N0[r][m] * w[m] * fr.dy_g[r][p_][q_] * w[p_] * w[q_]
            for r in range(n) for m in range(n) for p_ in range(n) for q_ in range(n)
        )
        expected[k] = acc
    assert np.abs(rhs - expected).max() < 1e-10


# -- finsler ---------------------------------------------------------------------------

def test_finsler_euclidean():
    n = 2
    names = helpers.xynames(n)
    F = scalar_field("sqrt(y1^2 + y2^2)", names)
    space, spray, _ = finsler_space_from_F(F, n)
    coords = [0.3, -0.2, 0.8, 0.6]
    g = np.array([[scalar_value(v) for v in row] for row in space.g.matrix(coords)])
    assert np.abs(g - np.eye(n)).max() < 1e-12
    assert np.abs(np.array(spray(coords))).max() < 1e-12
    assert np.abs(np.array(space.N(coords))).max() < 1e-10


def test_finsler_quadratic_recovers_riemann_spray():
    # F^2 = phi_ij(x) y^i y^j: g = phi and G^k = (1/2) gamma^k_pq y^p y^q
    n = 2
    space_r = helpers.polar_space()
    names = helpers.xynames(n)
    F = scalar_field("sqrt(y1^2 + x1^2*y2^2)", names)
    space, spray, _ = finsler_space_from_F(F, n)
    x = [1.3, 0.4]
    y = [0.7, 0.5]
    coords = x + y
    g = np.array([[scalar_value(v) for v in row] for row in space.g.matrix(coords)])
    phi = np.array(space_r.phi.matrix(x))
    assert np.abs(g - phi).max() < 1e-11
    gamma = christoffel_lists(space_r, x)
    expected = [
        0.5 * sum(gamma[k][p][q] * y[p] * y[q] for p in range(n) for q in range(n))
        for k in range(n)
    ]
    got = [scalar_value(v) for v in spray(coords)]
    assert np.abs(np.array(got) - expected).max() < 1e-9
    # spray-derived N matches gamma^k_m q y^q here
    N0 = np.array([[scalar_value(v) for v in row] for row in space.N(coords)])
    expected_N = np.array(
        [[sum(gamma[k][m][q] * y[q] for q in range(n)) for m in range(n)] for k in range(n)]
    )
    assert np.abs(N0 - expected_N).max() < 1e-9


def test_finsler_randers_fd_oracle():
    # Randers-type perturbation: g from order-2 jets vs finite differences of F^2
    n = 2
    names = helpers.xynames(n)
    F = scalar_field("sqrt(y1^2 + y2^2) + 0.2*(y1*cos(x1) + y2*sin(x1))", names)
    space, _, f2 = finsler_space_from_F(F, n)
    coords = [0.4, -0.1, 1.0, 0.35]
    g = np.array([[scalar_value(v) for v in row] for row in space.g.matrix(coords)])
    step = 1e-4
    fd = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pp, pm, mp, mm = (list(coords) for _ in range(4))
            pp[n + i] += step
            pp[n + j] += step
            pm[n + i] += step
            pm[n + j] -= step
            mp[n + i] -= step
            mp[n + j] += step
            mm[n + i] -= step
            mm[n + j] -= step
            fd[i][j] = 0.5 * (f2(pp) - f2(pm) - f2(mp) + f2(mm)) / (4 * step * step)
    rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-6


def test_finsler_vertical_constraint_cubic_vanishes():
    # 0-homogeneous metric, fiber-independent pressure, E = 0: the vertical
    # residual reduces to the Cartan-tensor contraction, which vanishes
    n = 2
    names = helpers.xynames(n)
    F = scalar_field("sqrt(y1^2 + x1^2*y2^2) + 0.15*y1*cos(x2)", names)
    space, _, _ = finsler_space_from_F(F, n)
    state = const_lagrange_state(n, p=0.3, rho=1.2)
    x = [1.2, 0.5]
    w0 = [0.8, 0.45]
    scale = np.sqrt(quadratic_form(
        [[scalar_value(v) for v in row] for row in space.g.matrix(x + w0)], w0, w0
    ))
    w = list(np.array(w0) / scale)
    resid = v_stream_constraint_residual(state, space, x, w)
    assert np.abs(resid).max() < 1e-9


def test_finsler_h_stream_matches_reduced_form():
    # general horizontal equations with the spray connection equal the
    # reduced Finsler form with the spray substituted
    n = 2
    names = helpers.xynames(n)
    F = scalar_field("sqrt(y1^2 + x1^2*y2^2) + 0.1*y2*sin(x1 + x2)", names)
    space, spray, f2 = finsler_space_from_F(F, n)
    state = LagrangeFluidState(
        scalar_field("0.4 + 0.05*sin(x1 + x2)", names),
        scalar_field("1.1 + 0.1*cos(x1)", names),
        1.0,
        TwoFormField.from_exprs(n, [["0.1*sin(x1)"], []], names),
        TwoFormField.from_exprs(n, [["0.08*cos(x2)"], []], names),
    )
    x = [1.1, 0.4]
    w0 = [0.9, 0.3]
    g0 = [[scalar_value(v) for v in row] for row in space.g.matrix(x + w0)]
    w = list(np.array(w0) / np.sqrt(quadratic_form(g0, w0, w0)))

    general = np.array(h_stream_line_rhs(state, space, x, w))

    eps0 = resolve_epsilon0(space, x, w)
    y = [eps0 * wi for wi in w]
    coords = list(x) + y
    fr = lagrange._Frame(state, space, coords)
    fac = state.c**2 / (fr.p0 + fr.rho0 * state.c**2)
    Gk = [scalar_value(v) for v in spray(coords)]
    F2 = scalar_value(f2(coords))
    reduced = np.zeros(n)
    for k in range(n):
        acc = fac * (fr.lorentz_force(fr.h)[k] - np.array(fr.ginv0[k]) @ fr.h.dp)
        acc -= sum(
            (fr.h.coeff[k][r][m] - (fac * fr.h.dp[m] if r == k else 0.0)) * w[r] * w[m]
            for r in range(n) for m in range(n)
        )
        acc += (2.0 / F2) * (
            Gk[k] - sum(fr.g0[p_][r] * Gk[p_] * w[r] for p_ in range(n) for r in range(n)) * w[k]
        )
        reduced[k] = acc
    assert np.abs(general - reduced).max() < 1e-9


def test_integrate_h_stream_line_monitor_column():
    n = 2
    space = flat_lagrange_space(n)
    state = const_lagrange_state(n)
    rows = integrate_h_stream_line(state, space, [0.0, 0.0], [1.0, 0.0], 0.05, 20)
    assert rows.shape == (21, 2 + 2 * n)
    assert np.abs(rows[-1][1:3] - [1.0, 0.0]).max() < 1e-12
    assert np.abs(rows[:, -1]).max() < 1e-12
