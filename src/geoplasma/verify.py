"""Machine-checkable invariant suites for the three frameworks.

Each function evaluates every algebraic identity of its pipeline at one
point and returns an ordered name -> |residual| mapping.  The multitime
suite also runs on a lane batch, coordinates that are float64 lane arrays
with one lane per point: each value is then an array of the per-point
values, the bits of the one-point suite lane by lane.  The CLI verify
command aggregates maxima over sampled points and compares against a
tolerance.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from . import lagrange as lag
from . import multitime as mt
from . import riemann as rm
from .common import energy_low_mixed, energy_mixed_direct, max_abs
from .dual import scalar_value
from .tensor_core import invert_symmetric


def _asymmetry(block, lanes=False):
    """max |B[i, j, k, ...] - B[i, k, j, ...]| of a connection block."""
    return max_abs(block - block.swapaxes(1, 2), lanes)


def _largest(values, lanes):
    """The largest of non-negative maxima, lane by lane on a batch."""
    return functools.reduce(np.maximum, values) if lanes else max(values)


def _matmul(a, b, lanes):
    """a @ b; on a batch, of each lane's matrices, laid out as one point's."""
    if not lanes:
        return a @ b
    a, b = (np.ascontiguousarray(np.moveaxis(m, -1, 0)) for m in (a, b))
    return np.moveaxis(a @ b, 0, -1)


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
    lanes = any(isinstance(c, np.ndarray) for c in coords)
    out = OrderedDict()
    compat = mt.metric_compatibility(space, coords)
    out["metric_compatibility"] = _largest(compat.values(), lanes)

    kappa, Gt, L, C = mt.cartan_gamma(space, coords)
    out["connection_symmetry"] = _largest([_asymmetry(b, lanes) for b in (kappa, L, C)], lanes)

    rep = mt.multitime_residuals(state, space, coords)
    out["unit_norm"] = max_abs(rep["unit_norm_error"], lanes)
    out["contraction_identity_h"] = max_abs(rep["contraction_identity_h"], lanes)
    out["contraction_identity_v"] = max_abs(rep["contraction_identity_v"], lanes)
    for ch, direct in zip(("h", "v"), mt.conservation_divergence(state, space, coords)):
        out[f"conservation_two_path_{ch}"] = max_abs(direct - rep[f"conservation_{ch}"], lanes)

    T_low, T_mix = mt.stress_tensors(state, space, coords)
    ginv, hinv = mt.frame_inverses(state, space, coords)
    out["stress_mixed_identity"] = max_abs(_matmul(ginv, T_low, lanes) - T_mix, lanes)
    spatial, fiber = mt.stress_block_table(state, space, coords)
    block_err = 0.0
    for a in range(space.p):
        for b in range(space.p):
            block_err = _largest(
                [block_err, max_abs(fiber[a][b] - hinv[a][b] * spatial, lanes)], lanes
            )
    out["stress_block_table"] = block_err

    if bsml:
        out["bsml_g_block"] = max_abs(Gt, lanes)
        out["bsml_c_block"] = max_abs(C, lanes)
        h1, v1 = mt.stream_sheet_residuals(state, space, coords)
        h2, v2 = mt.stream_sheet_residuals_bsml(state, space, coords)
        out["bsml_sheet_reduction"] = _largest(
            [max_abs(h1 - h2, lanes), max_abs(v1 - v2, lanes)], lanes
        )
    return out


def invariants_at(scenario, coords):
    """The scenario's invariant suite at one evaluation point."""
    return scenario.invariants(coords)
