"""Acceptance suite: every binding criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
Expected values come from independent oracles: finite differences,
einsum-based index sums, exact Cartesian geodesics, exact sheet jets.
"""

import functools
import os

import numpy as np

import helpers
from geoplasma import lagrange as lag
from geoplasma import multitime as mt
from geoplasma import riemann as rm
from geoplasma.cli import main
from geoplasma.common import energy_low_mixed, energy_mixed_direct
from geoplasma.lagrange import TangentPoint, canonical_nonlinear_connection
from geoplasma.models import build_bsml
from geoplasma.multitime import JetPoint, StreamSheet, prolong_sheet
from geoplasma.riemann import christoffel_lists
from geoplasma.tensor_core import MetricField, TwoFormField, invert_symmetric, scalar_field

DATA = os.path.join(os.path.dirname(__file__), "data")


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {title}")
                raise
            print(f"[PASS] criterion {num:2d}: {title}")

        return wrapper

    return deco


@criterion(1, "metric compatibility < 1e-9 on 5 scenarios x 100 points per framework")
def test_c01_metric_compatibility():
    rng = np.random.default_rng(101)
    for k, n in enumerate([2, 2, 3, 3, 4]):
        space, _, _, box = helpers.random_riemann_scenario(
            np.random.default_rng(1000 + k), n
        )
        for x in helpers.sample_box(rng, box, 100):
            low, up = rm.metric_compatibility(space, x)
            assert low < 1e-9 and up < 1e-9
    for k, n in enumerate([2, 2, 2, 3, 4]):
        space, _, box = helpers.random_lagrange_scenario(
            np.random.default_rng(2000 + k), n
        )
        for ptv in helpers.sample_box(rng, box, 100):
            for name, val in lag.metric_compatibility(space, ptv).items():
                assert val < 1e-9, name
    for k, (p, n) in enumerate([(1, 2), (2, 2), (2, 2), (1, 3), (2, 3)]):
        space, _, box = helpers.random_multitime_scenario(
            np.random.default_rng(3000 + k), p, n
        )
        for coords in helpers.sample_box(rng, box, 100):
            jp = JetPoint.from_coords(p, n, coords)
            for name, val in mt.metric_compatibility(space, jp).items():
                assert val < 1e-9, name


def _rel_ok(ad, fd, tol=1e-6):
    ad = np.asarray(ad, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = max(1.0, np.abs(fd).max())
    return np.abs(ad - fd).max() / scale < tol


@criterion(2, "connection coefficients match central differences (1e-6 rel, 50 points)")
def test_c02_connection_fd_oracle():
    rng = np.random.default_rng(202)
    step = 1e-5

    space, _, _, box = helpers.random_riemann_scenario(np.random.default_rng(11), 3)
    for x in helpers.sample_box(rng, box, 50):
        ad = np.array(christoffel_lists(space, x))
        assert _rel_ok(ad, helpers.fd_christoffel(space.phi, x, step))

    space, _, box = helpers.random_lagrange_scenario(np.random.default_rng(13), 2)
    n = space.n
    for ptv in helpers.sample_box(rng, box, 50):
        L, C = lag.cartan_connection_lists(space, ptv)
        g0 = np.array(space.g.matrix(list(ptv)))
        ginv = np.linalg.inv(g0)
        N0 = np.array(space.N(list(ptv)))
        dg = np.empty((2 * n, n, n))
        for k in range(2 * n):
            up, dn = list(ptv), list(ptv)
            up[k] += step
            dn[k] -= step
            dg[k] = (np.array(space.g.matrix(up)) - np.array(space.g.matrix(dn))) / (2 * step)
        dxg = np.array([dg[k] - sum(N0[r][k] * dg[n + r] for r in range(n)) for k in range(n)])

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

        assert _rel_ok(np.array(L), chris(dxg))
        assert _rel_ok(np.array(C), chris(dg[n:]))

    p, n = 2, 2
    space, _, box = helpers.random_multitime_scenario(np.random.default_rng(17), p, n)
    for coords in helpers.sample_box(rng, box, 50):
        jp = JetPoint.from_coords(p, n, coords)
        kappa, Gt, L, C = mt.cartan_gamma_lists(space, coords)
        # temporal block against finite differences of h
        t = coords[:p]
        h0 = np.array(space.h.matrix(t))
        hinv = np.linalg.inv(h0)
        dh = np.empty((p, p, p))
        for k in range(p):
            up, dn = list(t), list(t)
            up[k] += step
            dn[k] -= step
            dh[k] = (np.array(space.h.matrix(up)) - np.array(space.h.matrix(dn))) / (2 * step)
        kap_fd = np.empty((p, p, p))
        for g_ in range(p):
            for a in range(p):
                for b in range(p):
                    kap_fd[g_][a][b] = 0.5 * sum(
                        hinv[g_][m] * (dh[b][a][m] + dh[a][b][m] - dh[m][a][b])
                        for m in range(p)
                    )
        assert _rel_ok(np.array(kappa), kap_fd)

        g0 = np.array(space.g.matrix(coords))
        ginv = np.linalg.inv(g0)
        N0 = np.array(space.N(coords))
        nco = len(coords)
        dg = np.empty((nco, n, n))
        for k in range(nco):
            up, dn = list(coords), list(coords)
            up[k] += step
            dn[k] -= step
            dg[k] = (np.array(space.g.matrix(up)) - np.array(space.g.matrix(dn))) / (2 * step)
        xd = jp.xdot
        dgt = np.empty((p, n, n))
        for a in range(p):
            dgt[a] = dg[a]
            for g_ in range(p):
                for mu in range(p):
                    for m in range(n):
                        dgt[a] += kappa[g_][a][mu] * xd[m][g_] * dg[mt.fiber_index(p, n, m, mu)]
        Gt_fd = 0.5 * np.einsum("km,amj->kja", ginv, dgt)
        assert _rel_ok(np.array(Gt), Gt_fd)
        dgx = np.empty((n, n, n))
        for k in range(n):
            dgx[k] = dg[p + k]
            for m in range(n):
                for mu in range(p):
                    dgx[k] -= N0[m][mu][k] * dg[mt.fiber_index(p, n, m, mu)]
        L_fd = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    L_fd[i][j][k] = 0.5 * sum(
                        ginv[i][m] * (dgx[k][j][m] + dgx[j][k][m] - dgx[m][j][k])
                        for m in range(n)
                    )
        assert _rel_ok(np.array(L), L_fd)
        for g_ in range(p):
            dgv = np.array([dg[mt.fiber_index(p, n, k, g_)] for k in range(n)])
            C_fd = np.empty((n, n, n))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        C_fd[i][j][k] = 0.5 * sum(
                            ginv[i][m] * (dgv[k][j][m] + dgv[j][k][m] - dgv[m][j][k])
                            for m in range(n)
                        )
            got = np.array(
                [[[C[i][j][k][g_] for k in range(n)] for j in range(n)] for i in range(n)]
            )
            assert _rel_ok(got, C_fd)


@criterion(3, "contraction identities < 1e-10 at 100 points, all frameworks/channels")
def test_c03_contraction_identities():
    rng = np.random.default_rng(303)
    space, state, em, box = helpers.random_riemann_scenario(np.random.default_rng(31), 3)
    for x in helpers.sample_box(rng, box, 100):
        rep = rm.riemann_report(state, space, em, x)
        assert abs(rep["contraction_identity"]) < 1e-10
    space, state, box = helpers.random_lagrange_scenario(np.random.default_rng(33), 2)
    for ptv in helpers.sample_box(rng, box, 100):
        rep = lag.lagrange_residuals(state, space, ptv)
        assert abs(rep["contraction_identity_h"]) < 1e-10
        assert abs(rep["contraction_identity_v"]) < 1e-10
    p, n = 2, 2
    space, state, box = helpers.random_multitime_scenario(np.random.default_rng(37), p, n)
    for coords in helpers.sample_box(rng, box, 100):
        rep = mt.multitime_residuals(state, space, JetPoint.from_coords(p, n, coords))
        assert rep.norm("contraction_identity_h") < 1e-10
        assert rep.norm("contraction_identity_v") < 1e-10


@criterion(4, "euler decomposition < 1e-10 at 100 points (riemann, lagrange)")
def test_c04_euler_decomposition():
    rng = np.random.default_rng(404)
    space, state, em, box = helpers.random_riemann_scenario(np.random.default_rng(41), 3)
    for x in helpers.sample_box(rng, box, 100):
        rep = rm.riemann_report(state, space, em, x)
        assert rep.norm("euler_decomposition") < 1e-10
    space, state, box = helpers.random_lagrange_scenario(np.random.default_rng(43), 2)
    for ptv in helpers.sample_box(rng, box, 100):
        rep = lag.lagrange_residuals(state, space, ptv)
        assert rep.norm("euler_decomposition_h") < 1e-10
        assert rep.norm("euler_decomposition_v") < 1e-10


@criterion(5, "framework reduction chain within 1e-9 (20 points per link)")
def test_c05_framework_reduction():
    rng = np.random.default_rng(505)
    n = 2
    # (a) fiber-independent tangent bundle -> base pipeline; the canonical
    # connection parallelizes the fiber so the matching base velocity is the
    # first-order parallel extension of y0 at x0
    space_r, em_r, make_riemann_state, make_space, state_lag, _ = (
        helpers.paired_riemann_lagrange(np.random.default_rng(51), n)
    )
    space_l = make_space(canonical_nonlinear_connection(make_space(None).g, n))
    for _ in range(20):
        x0 = list(rng.uniform(-0.5, 0.5, n))
        y0 = list(rng.uniform(0.7, 1.3, n))
        gamma0 = christoffel_lists(space_r, x0)

        def extension(r, x0=x0, y0=y0, gamma0=gamma0):
            def v(coords):
                acc = y0[r]
                for m in range(n):
                    for q in range(n):
                        acc -= gamma0[r][m][q] * y0[q] * (coords[m] - x0[m])
                return acc

            return v

        rep_r = rm.riemann_report(
            make_riemann_state([extension(r) for r in range(n)]), space_r, em_r, x0
        )
        rep_l = lag.lagrange_residuals(
            state_lag, space_l, TangentPoint(tuple(x0), tuple(y0))
        )
        for base_name, lag_name in [
            ("conservation", "conservation_h"), ("continuity", "continuity_h"),
            ("euler", "euler_h"), ("lorentz", "lorentz_h"), ("force", "force_h"),
        ]:
            assert np.abs(rep_r[base_name] - rep_l[lag_name]).max() < 1e-9

    # (b) single time, unit temporal metric -> tangent bundle pipeline
    space_lag, state_lag2, space_mt, state_mt = helpers.paired_lagrange_multitime(
        np.random.default_rng(53), n
    )
    for _ in range(20):
        x = list(rng.uniform(-0.5, 0.5, n))
        y = list(rng.uniform(0.7, 1.3, n))
        rep_lag = lag.lagrange_residuals(
            state_lag2, space_lag, TangentPoint(tuple(x), tuple(y))
        )
        rep_mt = mt.multitime_residuals(
            state_mt, space_mt, JetPoint((0.0,), tuple(x), tuple((yi,) for yi in y))
        )
        for name in ["stress", "stress_mixed",
                     "lorentz_h", "lorentz_v", "conservation_h", "conservation_v",
                     "continuity_h", "continuity_v", "force_h", "force_v"]:
            a = np.asarray(rep_lag[name], dtype=float).reshape(-1)
            b = np.asarray(rep_mt[name], dtype=float).reshape(-1)
            assert np.abs(a - b).max() < 1e-9, name


@criterion(6, "product-space degeneracy: G, C < 1e-11, L = christoffel, sheets < 1e-10")
def test_c06_bsml_degeneracy():
    rng = np.random.default_rng(606)
    p, n = 2, 2
    tnm = ["t1", "t2"]
    h = MetricField.from_exprs(p, [["1 + 0.2*t1^2", "0.1*t2"], ["2"]], tnm)
    jnm = helpers.jetnames(p, n)
    state = mt.MultiTimeFluidState(
        scalar_field("0.4 + 0.05*sin(x1 + t1)", jnm),
        scalar_field("1.1 + 0.1*cos(x2)", jnm),
        1.0,
        TwoFormField.from_exprs(n, [["0.2*sin(x1)*x1_1"], []], jnm),
        TwoFormField.from_exprs(n, [["0.15*cos(x2 + t2)"], []], jnm),
    )
    for phi_rows in [[["1", "0"], ["1"]], [["1", "0"], ["x1^2"]]]:
        phi = MetricField.from_exprs(n, phi_rows, ["x1", "x2"])
        space = build_bsml(h, phi, p, n)
        base = rm.SemiRiemannianSpace(n, phi)
        for _ in range(20):
            t = tuple(rng.uniform(-0.4, 0.4, p))
            x = tuple(rng.uniform(0.7, 1.5, n))
            xd = tuple(tuple(rng.uniform(0.6, 1.2, p)) for _ in range(n))
            jp = JetPoint(t, x, xd)
            kappa, Gt, L, C = mt.cartan_gamma(space, jp)
            assert Gt.max_abs() < 1e-11
            assert C.max_abs() < 1e-11
            gamma = christoffel_lists(base, list(x))
            assert np.abs(np.array(L.tolist()) - np.array(gamma)).max() < 1e-11
            h1, v1 = mt.stream_sheet_residuals(state, space, jp)
            h2, v2 = mt.stream_sheet_residuals_bsml(state, space, jp)
            assert np.abs(h1 - h2).max() < 1e-10
            assert np.abs(v1 - v2).max() < 1e-10


@criterion(7, "geodesic recovery: flat endpoint < 1e-10, step-halving ratio in [12, 20]")
def test_c07_geodesic_recovery():
    space = helpers.flat_space(2)
    state = helpers.const_state(2, p=0.3, rho=1.1)
    em = helpers.zero_em(2)
    rows = rm.integrate_stream_line(state, space, em, [0.0, 0.0], [0.6, 0.8], 1e-3, 1000)
    end = rows[-1]
    assert abs(end[0] - 1.0) < 1e-12
    assert np.abs(end[1:3] - [0.6, 0.8]).max() < 1e-10
    assert np.abs(end[3:5] - [0.6, 0.8]).max() < 1e-10

    # fourth-order convergence measured on the curved companion, where the
    # error is nonzero; the exact endpoint is the Cartesian straight line
    polar = helpers.polar_space()
    x0, v0 = [1.0, 0.2], [0.3, 0.9]
    exact = helpers.polar_geodesic_endpoint(x0, v0, 1.0)
    errs = []
    for count in (50, 100):
        rows = rm.integrate_stream_line(state, polar, em, x0, v0, 1.0 / count, count)
        errs.append(np.abs(rows[-1][1:3] - exact).max())
    ratio = errs[0] / errs[1]
    assert 12 < ratio < 20, ratio


@criterion(8, "mixed-form energy identity < 1e-12 on 100 random draws per framework")
def test_c08_energy_mixed_identity():
    rng = np.random.default_rng(808)

    def draws(metric_at):
        for _ in range(100):
            g0 = metric_at()
            nn = len(g0)
            H = np.zeros((nn, nn))
            G = np.zeros((nn, nn))
            for i in range(nn):
                for j in range(i + 1, nn):
                    H[i][j] = rng.uniform(-1, 1)
                    H[j][i] = -H[i][j]
                    G[i][j] = rng.uniform(-1, 1)
                    G[j][i] = -G[i][j]
            ginv = invert_symmetric(g0)
            _, E_mix = energy_low_mixed(g0, ginv, H.tolist(), G.tolist())
            direct = energy_mixed_direct(ginv, H.tolist(), G.tolist())
            assert np.abs(np.array(E_mix) - np.array(direct)).max() < 1e-12

    space_r, _, _, box_r = helpers.random_riemann_scenario(np.random.default_rng(81), 3)
    draws(lambda: space_r.phi.matrix(helpers.sample_box(rng, box_r, 1)[0]))
    space_l, _, box_l = helpers.random_lagrange_scenario(np.random.default_rng(83), 2)
    draws(lambda: space_l.g.matrix(helpers.sample_box(rng, box_l, 1)[0]))
    space_m, _, box_m = helpers.random_multitime_scenario(np.random.default_rng(87), 2, 2)
    draws(lambda: space_m.g.matrix(helpers.sample_box(rng, box_m, 1)[0]))


@criterion(9, "multi-time velocity normalization < 1e-13 on 100 jet points")
def test_c09_multitime_normalization():
    rng = np.random.default_rng(909)
    p, n = 2, 2
    space, _, box = helpers.random_multitime_scenario(np.random.default_rng(91), p, n)
    for coords in helpers.sample_box(rng, box, 100):
        jp = JetPoint.from_coords(p, n, coords)
        u, u_low = helpers.multitime_velocity(None, space, jp)
        hinv = np.linalg.inv(space.h.matrix(list(jp.t)))
        assert abs(np.einsum("ab,ia,ib->", hinv, u_low, u) - 1.0) < 1e-13


@criterion(10, "stream-sheet residual discretization drops ~4x on grid halving")
def test_c10_stream_sheet_convergence():
    p, n = 2, 2
    tnm = ["t1", "t2"]
    h = MetricField.from_exprs(p, [["1", "0"], ["1"]], tnm)
    phi = MetricField.from_exprs(n, [["1", "0"], ["1"]], ["x1", "x2"])
    space = build_bsml(h, phi, p, n)
    jnm = helpers.jetnames(p, n)
    state = mt.MultiTimeFluidState(
        scalar_field("0.4 + 0.1*sin(x1)", jnm),
        scalar_field("1.1 + 0.1*cos(x2)", jnm),
        1.0,
        TwoFormField.from_exprs(n, [["0.2*sin(x1)"], []], jnm),
        TwoFormField.from_exprs(n, [["0.1*cos(x2)"], []], jnm),
    )
    sheet_exprs = ["t1 + 0.3*sin(t2) + 0.1*t2^2", "t2 - 0.2*cos(t1) + 0.1*t1"]
    fields = [scalar_field(e, tnm) for e in sheet_exprs]

    def exact_jet(t):
        from geoplasma.dual import Jet, seed

        tj, ctx = seed(list(t))
        xs, xds = [], []
        for f in fields:
            val = f(tj)
            if not isinstance(val, Jet) or val.ctx is not ctx:
                val = Jet.constant(ctx, val)
            xs.append(val.value)
            xds.append(tuple(val.d(a) for a in range(p)))
        return JetPoint(tuple(t), tuple(xs), tuple(xds))

    def grid_error(shape):
        axes = tuple(np.linspace(0.2, 1.2, s) for s in shape)
        values = np.empty(shape + (n,))
        for idx in np.ndindex(*shape):
            t = [axes[a][idx[a]] for a in range(p)]
            for i in range(n):
                values[idx + (i,)] = fields[i](t)
        jets = prolong_sheet(StreamSheet(axes, values), space)
        worst = 0.0
        for idx in np.ndindex(*shape):
            if any(k == 0 or k == shape[a] - 1 for a, k in enumerate(idx)):
                continue
            t = [axes[a][idx[a]] for a in range(p)]
            h_g, v_g = mt.stream_sheet_residuals(state, space, jets[idx])
            h_e, v_e = mt.stream_sheet_residuals(state, space, exact_jet(t))
            worst = max(
                worst,
                np.abs(h_g - h_e).max(),
                np.abs(v_g - v_e).max(),
            )
        return worst

    coarse = grid_error((9, 9))
    fine = grid_error((17, 17))
    ratio = coarse / fine
    assert 3.5 < ratio < 4.5, ratio


@criterion(11, "CLI determinism and exit-code contract")
def test_c11_cli_contract(tmp_path):
    clean = os.path.join(DATA, "clean.json")
    violating = os.path.join(DATA, "violating.json")
    malformed = os.path.join(DATA, "malformed.json")

    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["residuals", "--scenario", clean, "--out", str(out1)]) == 0
    assert main(["residuals", "--scenario", clean, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    head = out1.read_text().splitlines()[0]
    assert head.startswith("# scenario=") and "version=" in head

    assert main(["verify", "--scenario", clean, "--tol", "1e-9"]) == 0
    assert main(["verify", "--scenario", violating, "--tol", "1e-9"]) == 1
    assert main(["verify", "--scenario", malformed]) == 2
    assert main(["residuals", "--scenario", malformed, "--out", str(tmp_path / "x.csv")]) == 2
