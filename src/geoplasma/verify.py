"""Machine-checkable invariant suites for the three frameworks.

Each function evaluates every algebraic identity of its pipeline at one
point and returns an ordered name -> |residual| mapping.  The CLI verify
command aggregates maxima over sampled points and compares against a
tolerance.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import lagrange as lag
from . import multitime as mt
from . import riemann as rm
from .common import energy_low_mixed, energy_mixed_direct
from .dual import scalar_value
from .tensor_core import invert_symmetric


def riemann_invariants(state, space, em, x):
    out = OrderedDict()
    low, up = rm.metric_compatibility(space, x)
    out["metric_compatibility"] = max(low, up)

    gamma = rm.christoffel(space, x)
    sym = 0.0
    for i, j, k in gamma.indices():
        sym = max(sym, abs(gamma[i, j, k] - gamma[i, k, j]))
    out["connection_symmetry"] = sym

    rep = rm.riemann_report(state, space, em, x)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    out["contraction_identity"] = abs(rep["contraction_identity"])
    out["euler_decomposition"] = rep.norm("euler_decomposition")

    expanded = rep["conservation"]
    direct = rm.conservation_divergence(state, space, em, x)
    out["conservation_two_path"] = float(np.abs(expanded - direct).max())

    _, E_mix = rm.minkowski_energy(space, em, x)
    direct_e = rm.minkowski_energy_direct(space, em, x)
    out["energy_mixed_identity"] = float(
        np.abs(np.array(E_mix.tolist()) - np.array(direct_e.tolist())).max()
    )

    T_low, T_mix = rm.stress_tensor(state, space, em, x)
    phinv = np.array(invert_symmetric(space.phi.matrix(list(x))))
    out["stress_mixed_identity"] = float(
        np.abs(phinv @ np.array(T_low.tolist()) - np.array(T_mix.tolist())).max()
    )
    return out


def lagrange_invariants(state, space, pt):
    out = OrderedDict()
    compat = lag.metric_compatibility(space, pt)
    out["metric_compatibility"] = max(compat.values())

    L, C = lag.cartan_connection(space, pt)
    sym = 0.0
    for i, j, k in L.indices():
        sym = max(sym, abs(L[i, j, k] - L[i, k, j]), abs(C[i, j, k] - C[i, k, j]))
    out["connection_symmetry"] = sym

    rep = lag.lagrange_residuals(state, space, pt)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    for ch in ("h", "v"):
        out[f"contraction_identity_{ch}"] = abs(rep[f"contraction_identity_{ch}"])
        out[f"euler_decomposition_{ch}"] = rep.norm(f"euler_decomposition_{ch}")
        direct = lag.conservation_divergence(state, space, pt, ch)
        out[f"conservation_two_path_{ch}"] = float(
            np.abs(direct - rep[f"conservation_{ch}"]).max()
        )

    coords = pt.coords if hasattr(pt, "coords") else list(pt)
    g0 = [[scalar_value(v) for v in row] for row in space.g.matrix(coords)]
    ginv = invert_symmetric(g0)
    H = state.em_H.matrix(coords)
    G = state.em_G.matrix(coords)
    _, E_mix = energy_low_mixed(g0, ginv, H, G)
    direct_e = energy_mixed_direct(ginv, H, G)
    out["energy_mixed_identity"] = float(
        np.abs(np.array(E_mix) - np.array(direct_e)).max()
    )
    return out


def multitime_invariants(state, space, jp, bsml=False):
    out = OrderedDict()
    compat = mt.metric_compatibility(space, jp)
    out["metric_compatibility"] = max(compat.values())

    kappa, Gt, L, C = mt.cartan_gamma(space, jp)
    sym = 0.0
    for g_, a, b in kappa.indices():
        sym = max(sym, abs(kappa[g_, a, b] - kappa[g_, b, a]))
    for i, j, k in L.indices():
        sym = max(sym, abs(L[i, j, k] - L[i, k, j]))
    for i, j, k, g_ in C.indices():
        sym = max(sym, abs(C[i, j, k, g_] - C[i, k, j, g_]))
    out["connection_symmetry"] = sym

    rep = mt.multitime_residuals(state, space, jp)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    out["contraction_identity_h"] = rep.norm("contraction_identity_h")
    out["contraction_identity_v"] = rep.norm("contraction_identity_v")
    for ch in ("h", "v"):
        direct = mt.conservation_divergence(state, space, jp, ch)
        out[f"conservation_two_path_{ch}"] = float(
            np.abs(direct - rep[f"conservation_{ch}"]).max()
        )

    T_low, T_mix = mt.stress_tensors(state, space, jp)
    coords = jp.coords if hasattr(jp, "coords") else list(jp)
    ginv = np.array(invert_symmetric(space.g.matrix(coords)))
    out["stress_mixed_identity"] = float(
        np.abs(ginv @ np.array(T_low.tolist()) - np.array(T_mix.tolist())).max()
    )
    spatial, fiber = mt.stress_block_table(state, space, jp)
    hinv = np.array(invert_symmetric(space.h.matrix(coords[:space.p])))
    block_err = 0.0
    for a in range(space.p):
        for b in range(space.p):
            block_err = max(
                block_err, float(np.abs(fiber[a][b] - hinv[a][b] * spatial).max())
            )
    out["stress_block_table"] = block_err

    if bsml:
        out["bsml_g_block"] = Gt.max_abs()
        out["bsml_c_block"] = C.max_abs()
        h1, v1 = mt.stream_sheet_residuals(state, space, jp)
        h2, v2 = mt.stream_sheet_residuals_bsml(state, space, jp)
        out["bsml_sheet_reduction"] = float(
            max(np.abs(h1 - h2).max(), np.abs(v1 - v2).max())
        )
    return out


def invariants_at(scenario, coords):
    """Dispatch to the framework suite for one evaluation point."""
    if scenario.framework == "riemann":
        return riemann_invariants(scenario.state, scenario.space, scenario.em, coords)
    if scenario.framework == "lagrange":
        return lagrange_invariants(scenario.state, scenario.space, coords)
    jp = mt.JetPoint.from_coords(scenario.p, scenario.n, coords)
    return multitime_invariants(
        scenario.state, scenario.space, jp, bsml=scenario.model_name == "bsml"
    )
