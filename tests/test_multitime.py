import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from geoplasma import dual, lagrange, riemann
from geoplasma.common import jet_block, max_abs
from geoplasma.errors import GeoPlasmaError, GridError
from geoplasma.lagrange import lagrange_residuals
from geoplasma.multitime import (
    MultiTimeFluidState,
    MultiTimeSpace,
    StreamSheet,
    cartan_gamma,
    conservation_divergence,
    metric_compatibility,
    multitime_residuals,
    prolong_sheet,
    stream_sheet_residuals,
    stress_block_table,
    stress_tensors,
)
from geoplasma.multitime import _jet_covariant
from geoplasma.scenario import build_scenario, evaluation_points
from geoplasma.tensor_core import (
    Slot,
    constant_field,
    eval_jets,
    metric_from_exprs,
    scalar_field,
)
from test_output_bytes import LAGRANGE3, MULTITIME3, RIEMANN3, SCENARIOS

RNG = np.random.default_rng(929)


def generic_scenario(seed=3, p=2, n=2):
    rng = np.random.default_rng(seed)
    return helpers.random_multitime_scenario(rng, p, n)


def flat_mt_space(p, n):
    tnm = [f"t{a + 1}" for a in range(p)]
    names = helpers.jetnames(p, n)
    h_rows = [["1" if j == 0 else "0" for j in range(p - i)] for i in range(p)]
    g_rows = [["1" if j == 0 else "0" for j in range(n - i)] for i in range(n)]
    return MultiTimeSpace(
        p, n,
        metric_from_exprs(h_rows, tnm),
        metric_from_exprs(g_rows, names),
        helpers.zero_jet_connection(p, n),
    )


def const_mt_state(n, p_val=0.2, rho=1.0, c=1.0):
    return MultiTimeFluidState(
        constant_field(p_val), constant_field(rho), c,
        helpers.zero_two_form(n), helpers.zero_two_form(n),
    )


def sample_jet_points(space, box, count):
    pts = helpers.sample_box(RNG, box, count)
    return pts


# -- temporal christoffel ------------------------------------------------------

def test_temporal_christoffel_identity_metric():
    space = flat_mt_space(2, 2)
    k = helpers.temporal_christoffel(space, [0.3, -0.4])
    assert np.abs(k).max() == 0.0


def test_temporal_christoffel_exponential():
    h = metric_from_exprs([["exp(2*t1)"]], ["t1"])
    space = MultiTimeSpace(1, 2, h, None, helpers.zero_jet_connection(1, 2))
    k = helpers.temporal_christoffel(space, [0.7])
    assert k[0, 0, 0] == pytest.approx(1.0, abs=1e-10)


def test_temporal_christoffel_symmetry():
    space, _, box = generic_scenario(seed=7)
    t = list(RNG.uniform(-0.5, 0.5, space.p))
    k = helpers.temporal_christoffel(space, t)
    for g, a, b in np.ndindex(k.shape):
        assert abs(k[g, a, b] - k[g, b, a]) < 1e-13


# -- adapted derivatives ----------------------------------------------------------

def test_adapted_derivatives_reduce_to_plain():
    p, n = 2, 2
    space = flat_mt_space(p, n)
    names = helpers.jetnames(p, n)
    f = scalar_field("sin(t1*x1) + x2^2*t2", names)
    jp = helpers.jet_point((0.3, -0.2), (0.5, 1.1), ((0.9, 0.4), (0.2, 1.3)))
    dt, dx, dv = helpers.adapted_jet_derivatives(f, space, jp)
    t1, t2, x1, x2 = jp[:4]
    assert dt[0] == pytest.approx(x1 * np.cos(t1 * x1), rel=1e-12)
    assert dt[1] == pytest.approx(x2**2, rel=1e-12)
    assert dx[0] == pytest.approx(t1 * np.cos(t1 * x1), rel=1e-12)
    assert dx[1] == pytest.approx(2 * x2 * t2, rel=1e-12)
    assert np.abs(dv).max() == 0.0


def test_adapted_derivatives_chain_rule_oracle():
    space, _, box = generic_scenario(seed=11)
    p, n = space.p, space.n
    names = helpers.jetnames(p, n)
    f = scalar_field("x1_1*x1_2 + t1*x2_1^2 + x1*x2_2", names)
    jp = sample_jet_points(space, box, 1)[0]
    coords = jp
    dt, dx, dv = helpers.adapted_jet_derivatives(f, space, jp)

    step = 1e-6

    def fd(idx):
        up, dn = list(coords), list(coords)
        up[idx] += step
        dn[idx] -= step
        return (f(up) - f(dn)) / (2 * step)

    from geoplasma.multitime import fiber_index, temporal_christoffel_lists

    kappa = temporal_christoffel_lists(space, coords[:p])
    N0 = space.N(coords)
    xd = helpers.jet_parts(jp, p, n)[2]
    for a in range(p):
        ref = fd(a)
        for g in range(p):
            for mu in range(p):
                for m in range(n):
                    ref += kappa[g][a][mu] * xd[m][g] * fd(fiber_index(p, n, m, mu))
        assert dt[a] == pytest.approx(ref, abs=1e-7)
    for i in range(n):
        ref = fd(p + i)
        for m in range(n):
            for mu in range(p):
                ref -= N0[m][mu][i] * fd(fiber_index(p, n, m, mu))
        assert dx[i] == pytest.approx(ref, abs=1e-7)


# -- cartan connection --------------------------------------------------------------

def test_cartan_gamma_flat():
    space = flat_mt_space(2, 2)
    jp = helpers.jet_point((0.1, 0.2), (0.3, 0.4), ((1.0, 0.2), (0.1, 0.8)))
    kappa, Gt, L, C = cartan_gamma(space, jp)
    for t in (kappa, Gt, L, C):
        assert np.abs(t).max() == 0.0


def test_cartan_gamma_symmetry():
    space, _, box = generic_scenario(seed=13)
    jp = sample_jet_points(space, box, 1)[0]
    _, _, L, C = cartan_gamma(space, jp)
    n = space.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert abs(L[i, j, k] - L[i, k, j]) < 1e-12
                for g in range(space.p):
                    assert abs(C[i, j, k, g] - C[i, k, j, g]) < 1e-12


def test_cartan_gamma_fd_oracle():
    space, _, box = generic_scenario(seed=17)
    p, n = space.p, space.n
    jp = sample_jet_points(space, box, 1)[0]
    coords = jp
    kappa, Gt, L, C = cartan_gamma(space, coords)

    step = 1e-5
    g0 = np.array(space.g(coords))
    ginv = np.linalg.inv(g0)
    N0 = np.array(space.N(coords))
    from geoplasma.multitime import fiber_index, temporal_christoffel_lists

    nco = len(coords)
    dg = np.empty((nco, n, n))
    for k in range(nco):
        up, dn = list(coords), list(coords)
        up[k] += step
        dn[k] -= step
        dg[k] = (np.array(space.g(up)) - np.array(space.g(dn))) / (2 * step)
    kap = temporal_christoffel_lists(space, coords[:p])
    xd = helpers.jet_parts(jp, p, n)[2]
    # adapted temporal and spatial derivatives of g by the same splitting
    dgt = np.empty((p, n, n))
    for a in range(p):
        dgt[a] = dg[a]
        for g_ in range(p):
            for mu in range(p):
                for m in range(n):
                    dgt[a] += kap[g_][a][mu] * xd[m][g_] * dg[fiber_index(p, n, m, mu)]
    dgx = np.empty((n, n, n))
    for k in range(n):
        dgx[k] = dg[p + k]
        for m in range(n):
            for mu in range(p):
                dgx[k] -= N0[m][mu][k] * dg[fiber_index(p, n, m, mu)]

    Gt_ref = 0.5 * np.einsum("km,amj->kja", ginv, dgt)
    assert np.abs(np.array(Gt) - Gt_ref).max() < 1e-6
    L_ref = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                L_ref[i][j][k] = 0.5 * sum(
                    ginv[i][m] * (dgx[k][j][m] + dgx[j][k][m] - dgx[m][j][k])
                    for m in range(n)
                )
    assert np.abs(np.array(L) - L_ref).max() < 1e-6
    for g_ in range(p):
        C_ref = np.empty((n, n, n))
        dgv = np.array([dg[fiber_index(p, n, k, g_)] for k in range(n)])
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    C_ref[i][j][k] = 0.5 * sum(
                        ginv[i][m] * (dgv[k][j][m] + dgv[j][k][m] - dgv[m][j][k])
                        for m in range(n)
                    )
        got = np.array([[[C[i][j][k][g_] for k in range(n)] for j in range(n)] for i in range(n)])
        assert np.abs(got - C_ref).max() < 1e-6


# -- covariant derivatives ------------------------------------------------------------

def test_metric_compatibilities_all_channels():
    space, _, box = generic_scenario(seed=19)
    for jp in sample_jet_points(space, box, 3):
        compat = metric_compatibility(space, jp)
        for name, val in compat.items():
            assert val < 1e-11, (name, val)


def test_constant_scalar_derivatives_vanish():
    space, _, box = generic_scenario(seed=23)
    jp = sample_jet_points(space, box, 1)[0]
    field = lambda coords: 4.2
    for kind in ("hT", "hM", "v"):
        assert np.abs(helpers.jet_covariant_derivative(field, (), space, jp, kind)).max() < 1e-14


def test_covariant_dual_path_random_tensor():
    space, _, box = generic_scenario(seed=29)
    p, n = space.p, space.n
    names = helpers.jetnames(p, n)
    comps = [
        [scalar_field(f"sin(x{i + 1}*t1) + x{j + 1}_1*x{i + 1}", names) for j in range(n)]
        for i in range(n)
    ]
    field = lambda coords: [[comps[i][j](coords) for j in range(n)] for i in range(n)]
    slots = (Slot.LU, Slot.LD)
    jp = sample_jet_points(space, box, 1)[0]
    coords = jp
    kappa, Gt, L, C = cartan_gamma(space, coords)
    t0 = np.array([[comps[i][j](coords) for j in range(n)] for i in range(n)])

    got_hM = np.array(helpers.jet_covariant_derivative(field, slots, space, jp, "hM").tolist())
    got_v = np.array(helpers.jet_covariant_derivative(field, slots, space, jp, "v").tolist())
    got_hT = np.array(helpers.jet_covariant_derivative(field, slots, space, jp, "hT").tolist())

    # independent path: jets replaced by finite differences, reversed sums
    step = 1e-6
    from geoplasma.multitime import fiber_index, temporal_christoffel_lists

    def fd(idx):
        up, dn = list(coords), list(coords)
        up[idx] += step
        dn[idx] -= step
        return (
            np.array([[comps[i][j](up) for j in range(n)] for i in range(n)])
            - np.array([[comps[i][j](dn) for j in range(n)] for i in range(n)])
        ) / (2 * step)

    N0 = space.N(coords)
    xd = helpers.jet_parts(jp, p, n)[2]
    for q in range(n):
        dT = fd(p + q)
        for m in range(n):
            for mu in range(p):
                dT = dT - N0[m][mu][q] * fd(fiber_index(p, n, m, mu))
        for i in range(n):
            for j in range(n):
                ref = dT[i][j]
                for m in reversed(range(n)):
                    ref += t0[m][j] * L[i][m][q] - t0[i][m] * L[m][j][q]
                assert abs(got_hM[i][j][q] - ref) < 1e-7
    for eps in range(p):
        for q in range(n):
            dT = fd(fiber_index(p, n, q, eps))
            for i in range(n):
                for j in range(n):
                    ref = dT[i][j]
                    for m in reversed(range(n)):
                        ref += t0[m][j] * C[i][m][q][eps] - t0[i][m] * C[m][j][q][eps]
                    assert abs(got_v[i][j][eps][q] - ref) < 1e-7
    for eps in range(p):
        dT = fd(eps)
        for g_ in range(p):
            for mu in range(p):
                for m in range(n):
                    dT = dT + kappa[g_][eps][mu] * xd[m][g_] * fd(fiber_index(p, n, m, mu))
        for i in range(n):
            for j in range(n):
                ref = dT[i][j]
                for m in reversed(range(n)):
                    ref += t0[m][j] * Gt[i][m][eps] - t0[i][m] * Gt[m][j][eps]
                assert abs(got_hT[i][j][eps] - ref) < 1e-7


# nonzero N, kappa, G, L and C, and the bsml space, whose G and C vanish
ORACLE_SCENARIOS = {
    "multitime3": build_scenario(MULTITIME3),
    "bsml_sheet": build_scenario(json.loads((SCENARIOS / "bsml_sheet.json").read_text())),
}
ORACLE_SLOTS = [
    (), (Slot.GU,), (Slot.GD,), (Slot.LU,), (Slot.LD,), (Slot.LU, Slot.LD),
    (Slot.GD, Slot.GD), (Slot.LD, Slot.GU), (Slot.GU, Slot.LU, Slot.LD),
]


def _oracle_field(shape):
    """A tensor field of the given shape, each component its own product of
    the coordinates."""

    def field(coords):
        flat = [(0.3 + 0.1 * k) * coords[k % len(coords)] * coords[(3 * k + 1) % len(coords)]
                + dual.sin(coords[(k + 2) % len(coords)])
                for k in range(int(np.prod(shape)))]
        return np.array(flat, dtype=object).reshape(shape).tolist() if shape else flat[0]

    return field


def _oracle_tensor(coords, slots, p, n):
    """Jets of an oracle field with one valence level per slot."""
    cj, _ = dual.seed(list(coords))
    return _oracle_field(tuple(n if slot.latin else p for slot in slots))(cj)


def _layout(a):
    return a.shape, a.dtype, a.tobytes()


def _outcome(fn):
    try:
        out = fn()
    except GeoPlasmaError as err:
        return type(err).__name__
    return _layout(out)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_SCENARIOS)), slots=st.sampled_from(ORACLE_SLOTS),
       kind=st.sampled_from(["hT", "hM", "v"]), lanes=st.sampled_from([0, 3]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_block_covariant_derivative_matches_the_per_component_loop(
        name, slots, kind, lanes, fractions):
    scenario = ORACLE_SCENARIOS[name]
    lo, hi = (np.array(b) for b in (scenario.eval_spec["box"]["min"],
                                    scenario.eval_spec["box"]["max"]))
    points = [(lo + f * (hi - lo) * np.linspace(0.9, 1.0, len(lo))).tolist()
              for f in fractions[:max(lanes, 1)]]
    coords = [np.array(c) for c in zip(*points)] if lanes else points[0]
    space = scenario.space
    T = _oracle_tensor(coords, slots, space.p, space.n)
    got = _outcome(lambda: _jet_covariant(jet_block(T, len(slots)), slots, space, coords, kind))
    want = _outcome(lambda: helpers.jet_covariant_per_component(T, slots, space, coords, kind))
    assert got == want


BASE_SCENARIOS = {
    "polar_plasma": build_scenario(json.loads((SCENARIOS / "polar_plasma.json").read_text())),
    "riemann3": build_scenario(RIEMANN3),
    "tangent_bundle": build_scenario(json.loads((SCENARIOS / "tangent_bundle.json").read_text())),
    "lagrange3": build_scenario(LAGRANGE3),
}
LATIN_SLOTS = [
    (), (Slot.LU,), (Slot.LD,), (Slot.LU, Slot.LD), (Slot.LD, Slot.LD), (Slot.LU, Slot.LU),
    (Slot.LU, Slot.LD, Slot.LD), (Slot.LD, Slot.LU, Slot.LU),
]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(BASE_SCENARIOS)), slots=st.sampled_from(LATIN_SLOTS),
       lanes=st.sampled_from([0, 3]), picks=st.lists(st.integers(0, 19), min_size=3, max_size=3))
def test_block_covariant_derivative_matches_the_riemann_and_lagrange_loop(
        name, slots, lanes, picks):
    # riemann and lagrange add each component's corrections to its partial
    scenario = BASE_SCENARIOS[name]
    points = evaluation_points(scenario)[0]
    points = [points[k % len(points)] for k in picks[:max(lanes, 1)]]
    coords = [np.array(c) for c in zip(*points)] if lanes else points[0]
    space, n = scenario.space, scenario.space.n
    field = _oracle_field((n,) * len(slots))
    T = eval_jets(field, *dual.seed(list(coords)))
    if scenario.framework == "riemann":
        got = [helpers.levi_civita_derivative(field, slots, space, coords)]
        want = [helpers.covariant_per_component(
            T, slots, lambda jet, k: jet.d(k), riemann.christoffel_lists(space, coords))]
    else:
        got = helpers.hv_covariant(field, slots, space, coords)
        _, horizontal, vertical = lagrange._adapted_partials(space, coords)
        want = [helpers.covariant_per_component(T, slots, partial, coeff)
                for partial, coeff in zip((horizontal, vertical),
                                          lagrange.cartan_connection_lists(space, coords))]
    assert [_layout(d) for d in got] == [_layout(d) for d in want]


def test_greek_valence_under_hT():
    # the temporal metric as a (GD, GD) field must be kappa-parallel
    space, _, box = generic_scenario(seed=31)
    jp = sample_jet_points(space, box, 1)[0]
    field = lambda coords: space.h(coords[:space.p])
    out = helpers.jet_covariant_derivative(field, (Slot.GD, Slot.GD), space, jp, "hT")
    assert np.abs(out).max() < 1e-11


# -- velocity ----------------------------------------------------------------------------

def test_multitime_velocity_normalization():
    space, _, box = generic_scenario(seed=37)
    for jp in sample_jet_points(space, box, 5):
        u, u_low = helpers.multitime_velocity(None, space, jp)
        hinv = np.linalg.inv(space.h(jp[:space.p]))
        total = np.einsum("ab,ia,ib->", hinv, u_low, u)
        assert abs(total - 1.0) < 1e-13


def test_multitime_velocity_diag_oracle():
    p, n = 2, 2
    tnm = ["t1", "t2"]
    names = helpers.jetnames(p, n)
    h = metric_from_exprs([["1", "0"], ["4"]], tnm)
    g_rows = [["1", "0"], ["1"]]
    space = MultiTimeSpace(
        p, n, h, metric_from_exprs(g_rows, names), helpers.zero_jet_connection(p, n)
    )
    xd = np.array([[0.7, 0.4], [0.1, 1.2]])
    jp = helpers.jet_point((0.0, 0.0), (0.0, 0.0), tuple(map(tuple, xd)))
    u, _ = helpers.multitime_velocity(None, space, jp)
    hinv = np.diag([1.0, 0.25])
    eps2 = sum(
        hinv[mu][nu] * (xd[:, mu] @ xd[:, nu]) for mu in range(p) for nu in range(p)
    )
    assert np.abs(u - xd / np.sqrt(eps2)).max() < 1e-14


def test_velocity_single_time_reduces_to_tangent_normalization():
    # p = 1, h = 1: u = y / sqrt(g_pq y^p y^q)
    n = 2
    space = flat_mt_space(1, n)
    y = np.array([1.2, 0.5])
    jp = helpers.jet_point((0.0,), (0.3, 0.1), ((y[0],), (y[1],)))
    u, _ = helpers.multitime_velocity(None, space, jp)
    assert np.abs(u[:, 0] - y / np.linalg.norm(y)).max() < 1e-14


# -- residual report -----------------------------------------------------------------------

def test_residuals_constant_scenario():
    # all horizontal residuals vanish; the vertical channel keeps the
    # fiber-derivative terms of u = x/eps (dimension terms), as on TM
    p, n = 2, 2
    space = flat_mt_space(p, n)
    state = const_mt_state(n)
    jp = helpers.jet_point((0.1, -0.3), (0.2, 0.5), ((1.0, 0.1), (0.2, 0.9)))
    rep = multitime_residuals(state, space, jp)
    for name in ["lorentz_h", "lorentz_v", "conservation_h", "continuity_h",
                 "force_h", "force_v", "unit_norm_error"]:
        assert max_abs(rep[name]) < 1e-13, name
    assert max_abs(rep["contraction_identity_h"]) < 1e-13
    assert max_abs(rep["contraction_identity_v"]) < 1e-13


def test_contraction_identities_generic():
    space, state, box = generic_scenario(seed=41)
    for jp in sample_jet_points(space, box, 5):
        rep = multitime_residuals(state, space, jp)
        assert max_abs(rep["contraction_identity_h"]) < 1e-10
        assert max_abs(rep["contraction_identity_v"]) < 1e-10


def test_conservation_divergence_two_paths():
    space, state, box = generic_scenario(seed=43)
    for jp in sample_jet_points(space, box, 2):
        rep = multitime_residuals(state, space, jp)
        div_h = conservation_divergence(state, space, jp)[0]
        assert np.abs(div_h - rep["conservation_h"]).max() < 1e-10
        div_v = conservation_divergence(state, space, jp)[1]
        assert np.abs(div_v - rep["conservation_v"]).max() < 1e-10


def test_single_time_reduction_to_lagrange():
    rng = np.random.default_rng(53)
    n = 2
    space_lag, state_lag, space_mt, state_mt = helpers.paired_lagrange_multitime(rng, n)
    for _ in range(5):
        x = list(RNG.uniform(-0.5, 0.5, n))
        y = list(RNG.uniform(0.7, 1.3, n))
        rep_lag = lagrange_residuals(state_lag, space_lag, list(x) + list(y))
        jp = helpers.jet_point((0.0,), tuple(x), tuple((yi,) for yi in y))
        rep_mt = multitime_residuals(state_mt, space_mt, jp)
        pairs = [
            ("stress", "stress"), ("stress_mixed", "stress_mixed"),
            ("lorentz_h", "lorentz_h"), ("lorentz_v", "lorentz_v"),
            ("conservation_h", "conservation_h"),
            ("conservation_v", "conservation_v"),
            ("continuity_h", "continuity_h"), ("continuity_v", "continuity_v"),
            ("force_h", "force_h"), ("force_v", "force_v"),
        ]
        for lag_name, mt_name in pairs:
            a = np.asarray(rep_lag[lag_name], dtype=float).reshape(-1)
            b = np.asarray(rep_mt[mt_name], dtype=float).reshape(-1)
            assert np.abs(a - b).max() < 1e-9, (lag_name, np.abs(a - b).max())


def test_stress_mixed_consistency_and_blocks():
    space, state, box = generic_scenario(seed=59)
    jp = sample_jet_points(space, box, 1)[0]
    T_low, T_mix = stress_tensors(state, space, jp)
    coords = jp
    ginv = np.linalg.inv(space.g(coords))
    via = ginv @ np.array(T_low.tolist())
    assert np.abs(via - np.array(T_mix.tolist())).max() < 1e-12
    spatial, fiber = stress_block_table(state, space, jp)
    hinv = np.linalg.inv(space.h(jp[:space.p]))
    for a in range(space.p):
        for b in range(space.p):
            assert np.abs(fiber[a][b] - hinv[a][b] * spatial).max() < 1e-14


# -- stream sheets ----------------------------------------------------------------------------

def test_stream_sheet_dual_path_generic():
    space, state, box = generic_scenario(seed=61)
    for jp in sample_jet_points(space, box, 3):
        h1, v1 = stream_sheet_residuals(state, space, jp)
        h2, v2 = helpers.stream_sheet_residuals_covariant(state, space, jp)
        assert np.abs(h1 - h2).max() < 1e-10
        assert np.abs(v1 - v2).max() < 1e-10


def test_affine_sheet_flat_product_space_oracle():
    # constant state, flat metrics, affine sheet: the horizontal residual
    # vanishes (every adapted base derivative dies), while the vertical one
    # keeps the fiber derivatives of 1/eps0; the expansion oracle gives
    # v[k][mu] = (Q/eps0)(n+1) xd[k][mu] - (2Q/eps0^3) sum_a S[mu][a] xd[k][a]
    # with S[mu][a] = sum_m xd[m][mu] xd[m][a].
    p, n = 2, 2
    space = flat_mt_space(p, n)
    p0, rho0 = 0.2, 1.0
    state = const_mt_state(n, p_val=p0, rho=rho0)
    xd = np.array([[0.9, 0.3], [0.1, 1.2]])
    jp = helpers.jet_point((0.2, 0.4), (0.5, -0.1), tuple(map(tuple, xd)))
    hres, vres = stream_sheet_residuals(state, space, jp)
    assert np.abs(hres).max() < 1e-13
    q0 = rho0 + p0
    eps0 = np.sqrt((xd * xd).sum())
    S = xd.T @ xd
    expected = (q0 / eps0) * (n + 1) * xd - (2 * q0 / eps0**3) * xd @ S
    assert np.abs(vres - expected).max() < 1e-13


def test_prolong_affine_exact():
    space = flat_mt_space(2, 2)
    axes = (np.linspace(0, 1, 5), np.linspace(0, 2, 7))
    A = np.array([[0.7, -0.3], [0.2, 1.1]])
    b = np.array([0.1, -0.5])
    values = np.empty((5, 7, 2))
    for i, t1 in enumerate(axes[0]):
        for j, t2 in enumerate(axes[1]):
            values[i, j] = A @ [t1, t2] + b
    jets = prolong_sheet(StreamSheet(axes, values), space)
    for idx in np.ndindex(5, 7):
        xd = jets[idx][4:].reshape(2, 2)  # x^i_alpha
        assert np.abs(xd - A).max() < 1e-12


def test_prolong_quadratic_interior_exact():
    space = flat_mt_space(1, 1)
    axes = (np.linspace(0, 1, 9),)
    values = (3.0 * axes[0] ** 2 - axes[0] + 0.5).reshape(-1, 1)
    jets = prolong_sheet(StreamSheet(axes, values), space)
    for i in range(9):
        t = axes[0][i]
        assert jets[i][2] == pytest.approx(6 * t - 1, abs=1e-12)  # x^1_1


def test_prolong_trig_second_order():
    space = flat_mt_space(1, 1)
    errs = []
    for m in (17, 33):
        axes = (np.linspace(0, 1, m),)
        values = np.sin(3 * axes[0]).reshape(-1, 1)
        jets = prolong_sheet(StreamSheet(axes, values), space)
        err = max(
            abs(jets[i][2] - 3 * np.cos(3 * axes[0][i]))  # x^1_1
            for i in range(1, m - 1)
        )
        errs.append(err)
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_prolong_grid_too_small():
    space = flat_mt_space(1, 1)
    with pytest.raises(GridError):
        StreamSheet((np.array([0.0, 1.0]),), np.zeros((2, 1)))
    with pytest.raises(GridError):
        prolong_sheet(
            StreamSheet((np.linspace(0, 1, 4),), np.zeros((5, 1))), space
        )
