import numpy as np
import pytest

import helpers
from geoplasma import riemann
from geoplasma.common import max_abs
from geoplasma.errors import NormalizationError, SingularDynamicsError
from geoplasma.riemann import (
    ElectromagneticPair,
    FluidState,
    SemiRiemannianSpace,
    christoffel,
    christoffel_lists,
    conservation_divergence,
    energy_mixed,
    integrate_stream_line,
    metric_compatibility,
    riemann_report,
    stream_line_rhs,
    stress_tensors,
)
from geoplasma.tensor_core import (
    Slot,
    antisymmetric_field,
    constant_field,
    invert_symmetric,
    metric_from_exprs,
    scalar_field,
)

RNG = np.random.default_rng(2024)


def generic_scenario(seed=5, n=3):
    rng = np.random.default_rng(seed)
    return helpers.random_riemann_scenario(rng, n)


def report_entry(name, state, space, em, x):
    """One entry of the riemann residual report at x."""
    return riemann_report(state, space, em, x)[name]


# -- christoffel -------------------------------------------------------------

def test_christoffel_flat_is_zero():
    space = helpers.flat_space(3)
    gamma = christoffel(space, [0.3, -1.2, 0.5])
    assert np.abs(gamma).max() == 0.0


def test_christoffel_polar_known_values():
    space = helpers.polar_space()
    r = 1.7
    gamma = christoffel(space, [r, 0.4])
    assert gamma[0, 1, 1] == pytest.approx(-r, abs=1e-10)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-10)
    assert gamma[1, 1, 0] == pytest.approx(1.0 / r, abs=1e-10)
    # every other component vanishes
    for idx in np.ndindex(gamma.shape):
        if idx not in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert abs(gamma[idx]) < 1e-12


def test_christoffel_polar_vs_finite_differences():
    space = helpers.polar_space()
    x = [2.1, -0.3]
    ad = np.array(christoffel(space, x).tolist())
    fd = helpers.fd_christoffel(space.phi, x)
    assert np.abs(ad - fd).max() < 1e-10


def test_christoffel_conformal_hand_formula():
    n = 3
    coeffs = [0.3, -0.5, 0.2]
    space = helpers.conformal_space(n, coeffs)
    x = [0.2, 0.1, -0.3]
    gamma = np.array(christoffel(space, x).tolist())
    sig = np.array(coeffs)
    expected = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                expected[i][j][k] = (
                    (sig[k] if i == j else 0.0)
                    + (sig[j] if i == k else 0.0)
                    - (sig[i] if j == k else 0.0)
                )
    assert np.abs(gamma - expected).max() < 1e-9


def test_christoffel_symmetry_random_metric():
    space, _, _, box = generic_scenario(seed=9)
    for x in helpers.sample_box(RNG, box, 5):
        gamma = christoffel(space, x)
        for i, j, k in np.ndindex(gamma.shape):
            assert abs(gamma[i, j, k] - gamma[i, k, j]) < 1e-13


# -- levi-civita derivative ---------------------------------------------------

def test_metric_compatibility_polar_and_random():
    for space in [helpers.polar_space(), generic_scenario(seed=12)[0]]:
        x = [1.4, 0.7] if space.n == 2 else [0.3, -0.2, 0.5]
        low, up = metric_compatibility(space, x)
        assert low < 1e-11
        assert up < 1e-11


def test_constant_vector_field_flat_derivative_zero():
    space = helpers.flat_space(2)
    field = lambda coords: [1.0, -2.0]
    out = helpers.levi_civita_derivative(field, (Slot.LU,), space, [0.1, 0.2])
    assert np.abs(out).max() == 0.0


def test_levi_civita_reverse_order_oracle():
    # independent second implementation: same displayed formula, terms
    # accumulated in reverse slot order and with numpy arithmetic
    space, state, em, box = generic_scenario(seed=21)
    n = space.n
    names = helpers.xnames(n)
    comps = [
        [scalar_field(f"sin({names[i]}*{names[j]}) + {names[(i + j) % n]}", names)
         for j in range(n)]
        for i in range(n)
    ]
    field = lambda coords: [[comps[i][j](coords) for j in range(n)] for i in range(n)]
    x = helpers.sample_box(RNG, box, 1)[0]
    out = helpers.levi_civita_derivative(field, (Slot.LU, Slot.LD), space, x)

    gamma = christoffel_lists(space, x)
    step = 1e-6
    t0 = np.array([[comps[i][j](x) for j in range(n)] for i in range(n)])
    expected = np.zeros((n, n, n))
    for p in range(n):
        up = list(x)
        dn = list(x)
        up[p] += step
        dn[p] -= step
        dT = (
            np.array([[comps[i][j](up) for j in range(n)] for i in range(n)])
            - np.array([[comps[i][j](dn) for j in range(n)] for i in range(n)])
        ) / (2 * step)
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for m in range(n):
                    acc -= t0[i][m] * gamma[m][j][p]  # covariant slot first
                for m in range(n):
                    acc += t0[m][j] * gamma[i][m][p]
                expected[i][j][p] = acc + dT[i][j]
    got = np.array(out.tolist())
    assert np.abs(got - expected).max() < 1e-7  # limited by the FD partials


# -- velocity normalization ----------------------------------------------------

def test_normalize_velocity_examples():
    space = helpers.flat_space(2)
    state = helpers.const_state(2, v=[2.0, 0.0])
    u = helpers.normalize_velocity(state, space, [0.0, 0.0])
    assert np.allclose(u, [1.0, 0.0])

    diag = SemiRiemannianSpace(
        2, metric_from_exprs([["1", "0"], ["3"]], helpers.xnames(2))
    )
    state = helpers.const_state(2, v=[1.0, 1.0])
    u = helpers.normalize_velocity(state, diag, [0.0, 0.0])
    assert np.allclose(u, [0.5, 0.5])  # norm = sqrt(1 + 3) = 2


def test_unit_norm_contract_random():
    space, state, em, box = generic_scenario(seed=31)
    phi = space.phi
    for x in helpers.sample_box(RNG, box, 10):
        u = helpers.normalize_velocity(state, space, x)
        m = np.array(phi(x))
        assert abs(u @ m @ u - 1.0) < 1e-13


def test_normalization_error():
    space = SemiRiemannianSpace(
        2, metric_from_exprs([["-1", "0"], ["1"]], helpers.xnames(2))
    )
    state = helpers.const_state(2, v=[1.0, 0.0])
    with pytest.raises(NormalizationError):
        helpers.normalize_velocity(state, space, [0.0, 0.0])


# -- minkowski energy ----------------------------------------------------------

def frame_energy(state, space, em, x):
    """The values of the covariant and mixed energy jets of the point's frame."""
    fr = riemann._Frame(state, space, em, x)
    return tuple(np.array([[e.value for e in row] for row in E]) for E in (fr.E_low, fr.E_mix))


def test_energy_zero_fields():
    space, state, _, _ = generic_scenario(seed=41)
    em = helpers.zero_em(space.n)
    E_low, E_mix = frame_energy(state, space, em, [0.1, 0.2, 0.3])
    assert np.abs(E_low).max() == 0.0
    assert np.abs(E_mix).max() == 0.0


def test_energy_mixed_identity_random_draws():
    space, state, em, box = generic_scenario(seed=43)
    for x in helpers.sample_box(RNG, box, 10):
        E_mix, direct = energy_mixed(state, space, em, x)
        diff = np.array(E_mix.tolist()) - np.array(direct.tolist())
        assert np.abs(diff).max() < 1e-12


def test_energy_n2_bruteforce_oracle():
    a, b = 0.8, -1.3
    space = helpers.flat_space(2)
    em = ElectromagneticPair(
        antisymmetric_field(2, constant_field([a])),
        antisymmetric_field(2, constant_field([b])),
    )
    E_low, E_mix = frame_energy(helpers.const_state(2), space, em, [0.0, 0.0])
    ref_low, ref_mix = helpers.oracle_energy(np.eye(2), [[0, a], [-a, 0]], [[0, b], [-b, 0]])
    assert np.abs(np.array(E_low.tolist()) - ref_low).max() < 1e-14
    assert np.abs(np.array(E_mix.tolist()) - ref_mix).max() < 1e-14
    # frozen oracle values: E = (3/2) a b I, trace 3ab
    assert np.allclose(ref_low, 1.5 * a * b * np.eye(2))
    assert np.trace(ref_mix) == pytest.approx(3 * a * b, rel=1e-14)


def test_energy_vs_einsum_oracle_random():
    space, state, em, box = generic_scenario(seed=47)
    for x in helpers.sample_box(RNG, box, 5):
        E_low, E_mix = frame_energy(state, space, em, x)
        ref_low, ref_mix = helpers.oracle_energy(
            space.phi(x), em.H(x), em.G(x)
        )
        assert np.abs(np.array(E_low.tolist()) - ref_low).max() < 1e-12
        assert np.abs(np.array(E_mix.tolist()) - ref_mix).max() < 1e-12


# -- lorentz force --------------------------------------------------------------

def test_lorentz_force_zero_cases():
    space = helpers.flat_space(2)
    state = helpers.const_state(2)
    em = helpers.zero_em(2)
    assert np.allclose(report_entry("force", state, space, em, [0.4, 0.1]), 0.0)

    em_const = ElectromagneticPair(
        antisymmetric_field(2, constant_field([0.7])),
        antisymmetric_field(2, constant_field([-0.2])),
    )
    assert np.abs(report_entry("force", state, space, em_const, [0.4, 0.1])).max() < 1e-14


def test_lorentz_force_vs_fd_divergence():
    space, state, em, box = generic_scenario(seed=53)
    x = helpers.sample_box(RNG, box, 1)[0]
    force = report_entry("force", state, space, em, x)
    # finite-difference divergence of the mixed energy field on flat-ish terms
    n = space.n
    field = helpers.mixed_energy_field(space, em)
    gamma = christoffel_lists(space, x)
    step = 1e-5
    div = np.zeros(n)
    e0 = np.array(field(list(x)))
    for m in range(n):
        up = list(x)
        dn = list(x)
        up[m] += step
        dn[m] -= step
        dE = (np.array(field(up)) - np.array(field(dn))) / (2 * step)
        for i in range(n):
            div[i] += dE[m][i]
            for r in range(n):
                div[i] += e0[r][i] * gamma[m][r][m] - e0[m][r] * gamma[r][i][m]
    phinv = np.linalg.inv(space.phi(x))
    expected = -phinv @ div
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(force - expected).max() / scale < 1e-7


def test_lorentz_condition_sign_identity():
    space, state, em, box = generic_scenario(seed=59)
    for x in helpers.sample_box(RNG, box, 5):
        res = report_entry("lorentz", state, space, em, x)
        force = report_entry("force", state, space, em, x)
        u = helpers.normalize_velocity(state, space, x)
        phi = np.array(space.phi(x))
        assert res == pytest.approx(-(phi @ force) @ u, abs=1e-12)


# -- stress tensor ---------------------------------------------------------------

def test_stress_dust_case():
    space, state0, em0, _ = generic_scenario(seed=61)
    x = [0.1, -0.2, 0.3]
    state = FluidState(
        constant_field(0.0), state0.density, 1.0, state0.velocity
    )
    T_low, _ = stress_tensors(state, space, helpers.zero_em(space.n), x)
    u = helpers.normalize_velocity(state, space, x)
    phi = np.array(space.phi(x))
    ul = phi @ u
    rho = state.density(x)
    assert np.abs(np.array(T_low.tolist()) - rho * np.outer(ul, ul)).max() < 1e-13


def test_stress_trace_oracle():
    # rho = 0, E = 0: trace T^m_m = p (1/c^2 + n), frozen from the index-sum oracle
    space, state0, _, _ = generic_scenario(seed=67)
    x = [0.1, -0.2, 0.3]
    p = 0.37
    c = 2.0
    state = FluidState(constant_field(p), constant_field(0.0), c, state0.velocity)
    _, T_mix = stress_tensors(state, space, helpers.zero_em(space.n), x)
    trace = sum(T_mix[m, m] for m in range(space.n))
    assert trace == pytest.approx(p * (1.0 / c**2 + space.n), rel=1e-13)


def test_stress_symmetric_when_energy_symmetric():
    # with G = -H the energy tensor is symmetric, hence so is the stress
    space, state, em0, box = generic_scenario(seed=69)
    em = ElectromagneticPair(em0.H, lambda x: [[-v for v in row] for row in em0.H(x)])
    for x in helpers.sample_box(RNG, box, 3):
        T_low, _ = stress_tensors(state, space, em, x)
        t = np.array(T_low.tolist())
        assert np.abs(t - t.T).max() < 1e-13


def test_stress_mixed_two_paths():
    space, state, em, box = generic_scenario(seed=71)
    for x in helpers.sample_box(RNG, box, 5):
        T_low, T_mix = stress_tensors(state, space, em, x)
        phinv = invert_symmetric(space.phi(x))
        via = np.array(phinv) @ np.array(T_low.tolist())
        assert np.abs(via - np.array(T_mix.tolist())).max() < 1e-12


# -- conservation / continuity / euler -------------------------------------------

def test_residuals_vanish_for_constant_flat_scenario():
    space = helpers.flat_space(3)
    state = helpers.const_state(3, v=[1.0, 0.5, -0.2])
    em = helpers.zero_em(3)
    x = [0.3, 0.1, -0.7]
    assert np.abs(report_entry("conservation", state, space, em, x)).max() < 1e-14
    assert abs(report_entry("continuity", state, space, em, x)) < 1e-14
    assert np.abs(report_entry("euler", state, space, em, x)).max() < 1e-14
    assert abs(report_entry("lorentz", state, space, em, x)) < 1e-14


def test_conservation_two_paths_agree():
    space, state, em, box = generic_scenario(seed=73)
    for x in helpers.sample_box(RNG, box, 5):
        expanded = report_entry("conservation", state, space, em, x)
        direct = conservation_divergence(state, space, em, x)
        assert np.abs(expanded - direct).max() < 1e-10


def test_contraction_identity_random_points():
    space, state, em, box = generic_scenario(seed=79)
    for x in helpers.sample_box(RNG, box, 10):
        rep = riemann_report(state, space, em, x)
        assert abs(rep["contraction_identity"]) < 1e-10


def test_euler_decomposition_random_points():
    space, state, em, box = generic_scenario(seed=83)
    for x in helpers.sample_box(RNG, box, 10):
        rep = riemann_report(state, space, em, x)
        assert max_abs(rep["euler_decomposition"]) < 1e-10


def test_normalization_derivative_identities():
    space, state, em, box = generic_scenario(seed=89)
    from geoplasma.dual import seed as dseed
    from geoplasma.riemann import _unit_velocity

    for x in helpers.sample_box(RNG, box, 5):
        coords, ctx = dseed(list(x))
        u, ul = _unit_velocity(state, space.phi(coords), coords)
        gamma = christoffel_lists(space, x)
        n = space.n
        u0 = [c.value for c in u]
        ul0 = [c.value for c in ul]
        for m in range(n):
            a = sum(
                ul0[i] * (u[i].d(m) + sum(gamma[i][r][m] * u0[r] for r in range(n)))
                for i in range(n)
            )
            b = sum(
                (ul[i].d(m) - sum(gamma[r][i][m] * ul0[r] for r in range(n))) * u0[i]
                for i in range(n)
            )
            assert abs(a) < 1e-11
            assert abs(b) < 1e-11


def test_euler_reduction_when_p_const_e_zero():
    space, state0, _, box = generic_scenario(seed=97)
    state = FluidState(constant_field(0.3), state0.density, 1.0, state0.velocity)
    em = helpers.zero_em(space.n)
    x = helpers.sample_box(RNG, box, 1)[0]
    eul = report_entry("euler", state, space, em, x)
    # remaining term: (rho + p/c^2) u_{i;m} u^m
    fr = riemann._Frame(state, space, em, x)
    expected = [
        fr.q0 * sum(fr.u_cov_low(fr.h, i, m) * fr.u0[m] for m in range(space.n))
        for i in range(space.n)
    ]
    assert np.abs(eul - np.array(expected)).max() < 1e-13


# -- stream lines -----------------------------------------------------------------

def test_stream_line_rhs_flat_case_zero():
    space = helpers.flat_space(2)
    state = helpers.const_state(2)
    em = helpers.zero_em(2)
    rhs = stream_line_rhs(state, space, em, [0.1, 0.2], [0.7, -0.4])
    assert np.abs(rhs).max() < 1e-14


def test_stream_line_rhs_polar_geodesic_oracle():
    space = helpers.polar_space()
    state = helpers.const_state(2, p=0.5, rho=2.0)
    em = helpers.zero_em(2)
    x = [1.5, 0.3]
    xdot = [0.4, -0.2]
    rhs = stream_line_rhs(state, space, em, x, xdot)
    gamma = christoffel_lists(space, x)
    expected = [
        -sum(gamma[k][r][m] * xdot[r] * xdot[m] for r in range(2) for m in range(2))
        for k in range(2)
    ]
    assert np.abs(np.array(rhs) - expected).max() < 1e-12


def test_stream_line_rhs_dual_path():
    space, state, em, box = generic_scenario(seed=101)
    x = helpers.sample_box(RNG, box, 1)[0]
    xdot = [0.5, -0.3, 0.8]
    rhs = np.array(stream_line_rhs(state, space, em, x, xdot))
    # independent ordering: assemble from raw ingredients
    fr = riemann._Frame(state, space, em, x)
    fac = state.c**2 / (fr.p0 + fr.rho0 * state.c**2)
    n = space.n
    expected = np.zeros(n)
    for k in range(n):
        expected[k] += fac * (fr.lorentz_force(fr.h)[k] - np.array(fr.ginv0[k]) @ fr.h.dp)
        expected[k] += fac * sum(fr.h.dp[m] * xdot[m] for m in range(n)) * xdot[k]
        expected[k] -= sum(
            fr.h.coeff[k][r][m] * xdot[r] * xdot[m] for r in range(n) for m in range(n)
        )
    assert np.abs(rhs - expected).max() < 1e-11


def test_singular_inertial_factor():
    space = helpers.flat_space(2)
    state = FluidState(
        constant_field(-1.0), constant_field(1.0), 1.0,
        (constant_field(1.0), constant_field(0.0)),
    )
    with pytest.raises(SingularDynamicsError):
        stream_line_rhs(state, space, helpers.zero_em(2), [0.0, 0.0], [1.0, 0.0])


def test_integrate_flat_straight_line():
    space = helpers.flat_space(2)
    state = helpers.const_state(2)
    em = helpers.zero_em(2)
    rows = np.array(integrate_stream_line(state, space, em, [0.0, 0.0], [1.0, 0.0], 1e-2, 100),
                    dtype=float)
    assert rows.shape == (101, 5)
    assert np.abs(rows[-1][1:3] - [1.0, 0.0]).max() < 1e-10


def test_integrate_polar_step_halving_fourth_order():
    space = helpers.polar_space()
    state = helpers.const_state(2, p=0.1, rho=1.0)
    em = helpers.zero_em(2)
    x0 = [1.0, 0.2]
    v0 = [0.3, 0.9]
    exact = helpers.polar_geodesic_endpoint(x0, v0, 1.0)
    errs = []
    for count in (50, 100):
        rows = np.array(integrate_stream_line(state, space, em, x0, v0, 1.0 / count, count),
                        dtype=float)
        errs.append(np.abs(rows[-1][1:3] - exact).max())
    ratio = errs[0] / errs[1]
    assert 12 < ratio < 20


def test_integrate_first_integral_drift():
    space = helpers.polar_space()
    state = helpers.const_state(2, p=0.1, rho=1.0)
    em = helpers.zero_em(2)
    rows = np.array(integrate_stream_line(state, space, em, [1.0, 0.0], [0.2, 0.95], 1e-3, 1000),
                    dtype=float)
    norms = []
    for row in rows[:: 100]:
        x = row[1:3]
        v = row[3:5]
        m = np.array(space.phi(list(x)))
        norms.append(v @ m @ v)
    assert max(abs(n - norms[0]) for n in norms) < 1e-8


def test_report_velocity_field_helper():
    space, state, em, box = generic_scenario(seed=103)
    x = helpers.sample_box(RNG, box, 1)[0]
    uf = helpers.unit_velocity_field(state, space)
    t = uf(list(x))
    assert np.allclose(
        [t[i] for i in range(space.n)], helpers.normalize_velocity(state, space, x)
    )
