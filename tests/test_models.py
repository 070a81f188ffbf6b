import numpy as np
import pytest

import helpers
from geoplasma.errors import DegenerateMetricError, ScenarioError
from geoplasma.models import (
    build_bsml,
    build_edml,
    build_grgml,
    build_rgogml,
    stock_metric,
)
from geoplasma.multitime import (
    MultiTimeFluidState,
    cartan_gamma,
    fiber_index,
    metric_compatibility,
    multitime_residuals,
    stream_sheet_residuals,
    stream_sheet_residuals_bsml,
)
from geoplasma.riemann import SemiRiemannianSpace, christoffel_lists
from geoplasma.tensor_core import (
    constant_field,
    metric_from_exprs,
    scalar_field,
)

RNG = np.random.default_rng(1234)

P, N = 2, 2
TNM = ["t1", "t2"]
XNM = ["x1", "x2"]
JNM = helpers.jetnames(P, N)


def h_metric():
    return metric_from_exprs([["1 + 0.2*t1^2", "0.1*t2"], ["2"]], TNM)


def phi_polar():
    return metric_from_exprs([["1", "0"], ["x1^2"]], XNM)


def phi_flat():
    return metric_from_exprs([["1", "0"], ["1"]], XNM)


def random_jet_point():
    t = tuple(RNG.uniform(-0.4, 0.4, P))
    x = tuple(RNG.uniform(0.7, 1.5, N))
    xd = tuple(tuple(RNG.uniform(0.6, 1.2, P)) for _ in range(N))
    return helpers.jet_point(t, x, xd)


def mt_state():
    return MultiTimeFluidState(
        scalar_field("0.4 + 0.05*sin(x1 + t1)", JNM),
        scalar_field("1.1 + 0.1*cos(x2)", JNM),
        1.0,
        helpers.two_form([["0.2*sin(x1)*x1_1"], []], JNM),
        helpers.two_form([["0.15*cos(x2 + t2)"], []], JNM),
    )


# -- canonical connection --------------------------------------------------------

def test_canonical_connection_flat_is_zero():
    fn = build_bsml(h_metric(), phi_flat(), P, N).N
    jp = random_jet_point()
    assert np.abs(np.array(fn(jp))).max() == 0.0


def test_canonical_connection_polar_matches_christoffel():
    fn = build_bsml(h_metric(), phi_polar(), P, N).N
    jp = random_jet_point()
    N0 = np.array(fn(jp))
    gamma = christoffel_lists(SemiRiemannianSpace(N, phi_polar()), jp[P:P + N])
    xd = np.array(helpers.jet_parts(jp, P, N)[2])
    expected = np.einsum("ijm,ma->iaj", np.array(gamma), xd)
    assert np.abs(N0 - expected).max() < 1e-11
    # explicit entry: N^(1)_(a)2 = gamma^1_22 x^2_a = -x1 * x^2_a
    for a in range(P):
        assert N0[0][a][1] == pytest.approx(-jp[P] * xd[1][a], rel=1e-11)


# -- bsml --------------------------------------------------------------------------

@pytest.mark.parametrize("phi_fn", [phi_flat, phi_polar])
def test_bsml_connection_degeneracy(phi_fn):
    space = build_bsml(h_metric(), phi_fn(), P, N)
    jp = random_jet_point()
    kappa, Gt, L, C = cartan_gamma(space, jp)
    assert np.abs(Gt).max() < 1e-13
    assert np.abs(C).max() < 1e-13
    gamma = christoffel_lists(SemiRiemannianSpace(N, phi_fn()), jp[P:P + N])
    assert np.abs(np.array(L.tolist()) - np.array(gamma)).max() < 1e-11


def test_bsml_flat_connection_all_zero():
    h_flat = metric_from_exprs([["1", "0"], ["1"]], TNM)
    space = build_bsml(h_flat, phi_flat(), P, N)
    jp = random_jet_point()
    kappa, Gt, L, C = cartan_gamma(space, jp)
    for t in (kappa, Gt, L, C):
        assert np.abs(t).max() < 1e-13


def test_bsml_reduced_sheet_residuals_match_general():
    space = build_bsml(h_metric(), phi_polar(), P, N)
    state = mt_state()
    for _ in range(5):
        jp = random_jet_point()
        h1, v1 = stream_sheet_residuals(state, space, jp)
        h2, v2 = stream_sheet_residuals_bsml(state, space, jp)
        assert np.abs(h1 - h2).max() < 1e-10
        assert np.abs(v1 - v2).max() < 1e-10


def test_bsml_passes_compatibility_suite():
    space = build_bsml(h_metric(), phi_polar(), P, N)
    jp = random_jet_point()
    for name, val in metric_compatibility(space, jp).items():
        assert val < 1e-11, name


# -- grgml -------------------------------------------------------------------------

def test_grgml_zero_sigma_equals_bsml():
    sigma = constant_field(0.0)
    g1 = build_grgml(h_metric(), sigma, phi_polar(), P, N)
    g2 = build_bsml(h_metric(), phi_polar(), P, N)
    state = mt_state()
    jp = random_jet_point()
    r1 = multitime_residuals(state, g1, jp)
    r2 = multitime_residuals(state, g2, jp)
    for name in r1:
        assert np.abs(r1[name] - r2[name]).max() < 1e-12, name


def test_grgml_base_sigma_kills_c_block():
    sigma = scalar_field("0.3*x1 + 0.1*sin(x2)", JNM)
    space = build_grgml(h_metric(), sigma, phi_polar(), P, N)
    jp = random_jet_point()
    _, _, _, C = cartan_gamma(space, jp)
    assert np.abs(C).max() < 1e-12


def test_grgml_fiber_sigma_c_block_fd_oracle():
    sigma = scalar_field("0.2*x1_1 + 0.1*x2_2^2", JNM)
    space = build_grgml(h_metric(), sigma, phi_polar(), P, N)
    jp = random_jet_point()
    _, _, _, C = cartan_gamma(space, jp)
    coords = jp
    g0 = np.array(space.g(coords))
    ginv = np.linalg.inv(g0)
    step = 1e-5
    for gamma in range(P):
        dgv = np.empty((N, N, N))
        for k in range(N):
            up, dn = list(coords), list(coords)
            up[fiber_index(P, N, k, gamma)] += step
            dn[fiber_index(P, N, k, gamma)] -= step
            dgv[k] = (np.array(space.g(up)) - np.array(space.g(dn))) / (2 * step)
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    ref = 0.5 * sum(
                        ginv[i][m] * (dgv[k][j][m] + dgv[j][k][m] - dgv[m][j][k])
                        for m in range(N)
                    )
                    assert abs(C[i, j, k, gamma] - ref) < 1e-8


def test_grgml_passes_compatibility_suite():
    sigma = scalar_field("0.1*x1_1 + 0.2*x1", JNM)
    space = build_grgml(h_metric(), sigma, phi_polar(), P, N)
    for name, val in metric_compatibility(space, random_jet_point()).items():
        assert val < 1e-11, name


# -- rgogml ------------------------------------------------------------------------

def test_rgogml_unit_index_gives_base_metric():
    space = build_rgogml(
        h_metric(), phi_polar(), constant_field(1.0),
        [scalar_field("1 + t1", TNM), scalar_field("t2", TNM)], P, N,
    )
    jp = random_jet_point()
    assert np.abs(
        np.array(space.g(jp)) - np.array(phi_polar()(jp[P:P + N]))
    ).max() < 1e-14


def test_rgogml_zero_x_gives_base_metric():
    space = build_rgogml(
        h_metric(), phi_polar(), scalar_field("2 + 0.2*sin(x1_1)", JNM),
        [constant_field(0.0), constant_field(0.0)], P, N,
    )
    jp = random_jet_point()
    assert np.abs(
        np.array(space.g(jp)) - np.array(phi_polar()(jp[P:P + N]))
    ).max() < 1e-14


def test_rgogml_determinant_lemma_oracle():
    refr = scalar_field("2 + 0.2*sin(x1_1 + t1)", JNM)
    X = [scalar_field("1 + 0.5*t1", TNM), scalar_field("0.3 - t2", TNM)]
    space = build_rgogml(h_metric(), phi_polar(), refr, X, P, N)
    jp = random_jet_point()
    coords = jp
    g = np.array(space.g(coords))
    assert np.abs(g - g.T).max() == 0.0
    phi = np.array(phi_polar()(jp[P:P + N]))
    coef = 1.0 - 1.0 / refr(coords)
    xvals = [X[mu](jp[:P]) for mu in range(P)]
    y = phi @ np.array(
        [sum(helpers.jet_parts(jp, P, N)[2][m][mu] * xvals[mu] for mu in range(P)) for m in range(N)]
    )
    lemma = 1.0 + coef * (y @ np.linalg.inv(phi) @ y)
    assert np.linalg.det(g) == pytest.approx(np.linalg.det(phi) * lemma, rel=1e-10)


def test_rgogml_degenerate_update_raises():
    # refractive index tuned so the determinant factor crosses zero
    refr = constant_field(0.5)  # coef = -1, lemma = 1 - |Y|^2_phi
    X = [constant_field(1.0), constant_field(0.0)]
    space = build_rgogml(h_metric(), phi_flat(), refr, X, P, N)
    # pick xdot so that |Y| = 1 exactly: Y = (xd^1_1, xd^2_1)
    jp = helpers.jet_point((0.0, 0.0), (1.0, 1.0), ((1.0, 0.0), (0.0, 0.0)))
    with pytest.raises(DegenerateMetricError):
        space.g(jp)


def test_rgogml_passes_compatibility_suite():
    refr = scalar_field("2 + 0.2*sin(x1_1 + t1)", JNM)
    X = [scalar_field("0.4 + 0.2*t1", TNM), scalar_field("0.3*t2", TNM)]
    space = build_rgogml(h_metric(), phi_polar(), refr, X, P, N)
    for name, val in metric_compatibility(space, random_jet_point()).items():
        assert val < 1e-11, name


# -- edml --------------------------------------------------------------------------

def u_potential():
    return [
        [scalar_field("0.3*x2 + 0.1*t1", JNM), scalar_field("0.2*x1*x2", JNM)],
        [scalar_field("0.5*x1", JNM), scalar_field("0.1*x2 + 0.2*t2", JNM)],
    ]


def test_edml_zero_potentials_equal_bsml():
    U0 = [[constant_field(0.0)] * P for _ in range(N)]
    e = build_edml(h_metric(), phi_polar(), U0, constant_field(0.0), P, N)
    b = build_bsml(h_metric(), phi_polar(), P, N)
    state = mt_state()
    jp = random_jet_point()
    r1 = multitime_residuals(state, e, jp)
    r2 = multitime_residuals(state, b, jp)
    for name in r1:
        assert np.abs(r1[name] - r2[name]).max() < 1e-12, name
    assert np.abs(np.array(e.N(jp)) - np.array(b.N(jp))).max() < 1e-14


def test_edml_metric_is_second_fiber_derivative_of_lagrangian():
    U = u_potential()
    Phi = scalar_field("0.2*x1^2 + t1*t2", JNM)
    lag = helpers.edml_lagrangian(h_metric(), phi_polar(), U, Phi, P, N)
    space = build_edml(h_metric(), phi_polar(), U, Phi, P, N)
    jp = random_jet_point()
    coords = jp
    fiber = [fiber_index(P, N, i, a) for i in range(N) for a in range(P)]
    out = helpers.reference_field_jet(lag, coords, seeds=fiber, order=2)
    hinv = np.linalg.inv(h_metric()(jp[:P]))
    phi = np.array(phi_polar()(jp[P:P + N]))
    for ia, (i, a) in enumerate([(i, a) for i in range(N) for a in range(P)]):
        for jb, (j, b) in enumerate([(j, b) for j in range(N) for b in range(P)]):
            got = 0.5 * out.d(ia, jb)
            assert abs(got - hinv[a][b] * phi[i][j]) < 1e-10


def test_edml_symmetric_potential_gradient_no_correction():
    # U^(mu)_(m) = d(f_mu)/dx^m has a symmetric spatial derivative, so the
    # curl correction vanishes and the connection is canonical
    U = [
        [scalar_field("0.4*x2", JNM), scalar_field("0.2*x1", JNM)],
        [scalar_field("0.4*x1", JNM), scalar_field("0.2*x2", JNM)],
    ]
    # row m, column mu: dU^(mu)_(m)/dx^j symmetric in (m, j):
    # U^(1) = grad(0.4 x1 x2), U^(2) = grad(0.1 x1^2 + 0.1 x2^2)
    e = build_edml(h_metric(), phi_polar(), U, constant_field(0.0), P, N)
    b = build_bsml(h_metric(), phi_polar(), P, N)
    jp = random_jet_point()
    assert np.abs(np.array(e.N(jp)) - np.array(b.N(jp))).max() < 1e-13


def test_edml_passes_compatibility_suite():
    space = build_edml(h_metric(), phi_polar(), u_potential(),
                       scalar_field("0.1*x1", JNM), P, N)
    for name, val in metric_compatibility(space, random_jet_point()).items():
        assert val < 1e-11, name


# -- stock metrics --------------------------------------------------------------------

def test_stock_metrics():
    flat = stock_metric("flat", 3, ["x1", "x2", "x3"])
    assert np.allclose(flat([0.1, 0.2, 0.3]), np.eye(3))
    polar = stock_metric("polar", 2, XNM)
    assert np.allclose(polar([2.0, 0.5]), np.diag([1.0, 4.0]))
    conf = stock_metric("conformal", 2, XNM, {"sigma": "0.5*x1"})
    m = conf([0.4, 0.0])
    assert m[0][0] == pytest.approx(np.exp(0.4))
    with pytest.raises(ScenarioError):
        stock_metric("polar", 3, ["x1", "x2", "x3"])
    with pytest.raises(ScenarioError):
        stock_metric("conformal", 2, XNM)
    with pytest.raises(ScenarioError):
        stock_metric("weird", 2, XNM)
