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


def _asymmetry(block):
    """max |B[i, j, k, ...] - B[i, k, j, ...]| of a connection block."""
    return float(np.abs(block - block.swapaxes(1, 2)).max())


def riemann_invariants(state, space, em, x):
    out = OrderedDict()
    low, up = rm.metric_compatibility(space, x)
    out["metric_compatibility"] = max(low, up)

    out["connection_symmetry"] = _asymmetry(rm.christoffel(space, x))

    rep = rm.riemann_report(state, space, em, x)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    out["contraction_identity"] = abs(rep["contraction_identity"])
    out["euler_decomposition"] = rep.norm("euler_decomposition")

    expanded = rep["conservation"]
    direct = rm.conservation_divergence(state, space, em, x)
    out["conservation_two_path"] = float(np.abs(expanded - direct).max())

    _, E_mix = rm.minkowski_energy(space, em, x)
    direct_e = rm.minkowski_energy_direct(space, em, x)
    out["energy_mixed_identity"] = float(np.abs(E_mix - direct_e).max())

    T_low, T_mix = rm.stress_tensor(state, space, em, x)
    phinv = np.array(invert_symmetric(space.phi.matrix(list(x))))
    out["stress_mixed_identity"] = float(np.abs(phinv @ T_low - T_mix).max())
    return out


def lagrange_invariants(state, space, coords):
    out = OrderedDict()
    compat = lag.metric_compatibility(space, coords)
    out["metric_compatibility"] = max(compat.values())

    L, C = lag.cartan_connection(space, coords)
    out["connection_symmetry"] = max(_asymmetry(L), _asymmetry(C))

    rep = lag.lagrange_residuals(state, space, coords)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    for ch, direct in zip(("h", "v"), lag.conservation_divergence(state, space, coords)):
        out[f"contraction_identity_{ch}"] = abs(rep[f"contraction_identity_{ch}"])
        out[f"euler_decomposition_{ch}"] = rep.norm(f"euler_decomposition_{ch}")
        out[f"conservation_two_path_{ch}"] = float(
            np.abs(direct - rep[f"conservation_{ch}"]).max()
        )

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


def multitime_invariants(state, space, coords, bsml=False):
    out = OrderedDict()
    compat = mt.metric_compatibility(space, coords)
    out["metric_compatibility"] = max(compat.values())

    kappa, Gt, L, C = mt.cartan_gamma(space, coords)
    out["connection_symmetry"] = max(_asymmetry(kappa), _asymmetry(L), _asymmetry(C))

    rep = mt.multitime_residuals(state, space, coords)
    out["unit_norm"] = abs(rep["unit_norm_error"])
    out["contraction_identity_h"] = rep.norm("contraction_identity_h")
    out["contraction_identity_v"] = rep.norm("contraction_identity_v")
    for ch, direct in zip(("h", "v"), mt.conservation_divergence(state, space, coords)):
        out[f"conservation_two_path_{ch}"] = float(
            np.abs(direct - rep[f"conservation_{ch}"]).max()
        )

    T_low, T_mix = mt.stress_tensors(state, space, coords)
    ginv, hinv = mt.frame_inverses(state, space, coords)
    out["stress_mixed_identity"] = float(np.abs(ginv @ T_low - T_mix).max())
    spatial, fiber = mt.stress_block_table(state, space, coords)
    block_err = 0.0
    for a in range(space.p):
        for b in range(space.p):
            block_err = max(
                block_err, float(np.abs(fiber[a][b] - hinv[a][b] * spatial).max())
            )
    out["stress_block_table"] = block_err

    if bsml:
        out["bsml_g_block"] = float(np.abs(Gt).max())
        out["bsml_c_block"] = float(np.abs(C).max())
        h1, v1 = mt.stream_sheet_residuals(state, space, coords)
        h2, v2 = mt.stream_sheet_residuals_bsml(state, space, coords)
        out["bsml_sheet_reduction"] = float(
            max(np.abs(h1 - h2).max(), np.abs(v1 - v2).max())
        )
    return out


def invariants_at(scenario, coords):
    """The scenario's invariant suite at one evaluation point."""
    return scenario.invariants(coords)
