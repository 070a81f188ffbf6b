"""Machine-checkable invariant suites for the three frameworks.

Each function evaluates every algebraic identity of its pipeline and
returns an ordered name -> |residual| mapping, at one point or on a lane
batch: coordinates that are float64 lane arrays with one lane per point,
where each value is an array of the per-point values, the bits of the
one-point suite lane by lane.  The checks read the one frame of the point
or batch and the metric jets it is built on; each two-path check keeps a
path of its own.  The CLI verify command aggregates maxima over sampled
points and compares against a tolerance.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

from . import _numpy as np
from . import lagrange as lag
from . import multitime as mt
from . import riemann as rm
from .common import MetricJets, lane_array, max_abs


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
    lanes = np.ndim(x[0]) > 0
    out = OrderedDict()
    out["metric_compatibility"] = _largest(rm.metric_compatibility(space, x), lanes)

    out["connection_symmetry"] = _asymmetry(rm.christoffel(space, x), lanes)

    rep = rm.riemann_report(state, space, em, x)
    out["unit_norm"] = max_abs(rep["unit_norm_error"], lanes)
    out["contraction_identity"] = max_abs(rep["contraction_identity"], lanes)
    out["euler_decomposition"] = max_abs(rep["euler_decomposition"], lanes)

    expanded = rep["conservation"]
    direct = rm.conservation_divergence(state, space, em, x)
    out["conservation_two_path"] = max_abs(expanded - direct, lanes)

    E_mix, direct_e = rm.energy_mixed(state, space, em, x)
    out["energy_mixed_identity"] = max_abs(E_mix - direct_e, lanes)

    T_low, T_mix = rm.stress_tensors(state, space, em, x)
    phinv = lane_array(MetricJets(space.phi, x).ginv0, np.shape(x[0]))
    out["stress_mixed_identity"] = max_abs(_matmul(phinv, T_low, lanes) - T_mix, lanes)
    return out


def lagrange_invariants(state, space, coords):
    lanes = np.ndim(coords[0]) > 0
    out = OrderedDict()
    compat = lag.metric_compatibility(space, coords)
    out["metric_compatibility"] = _largest(compat.values(), lanes)

    L, C = lag.cartan_connection(space, coords)
    out["connection_symmetry"] = _largest([_asymmetry(L, lanes), _asymmetry(C, lanes)], lanes)

    rep = lag.lagrange_residuals(state, space, coords)
    out["unit_norm"] = max_abs(rep["unit_norm_error"], lanes)
    for ch, direct in zip(("h", "v"), lag.conservation_divergence(state, space, coords)):
        out[f"contraction_identity_{ch}"] = max_abs(rep[f"contraction_identity_{ch}"], lanes)
        out[f"euler_decomposition_{ch}"] = max_abs(rep[f"euler_decomposition_{ch}"], lanes)
        out[f"conservation_two_path_{ch}"] = max_abs(direct - rep[f"conservation_{ch}"], lanes)

    E_mix, direct_e = lag.energy_mixed(state, space, coords)
    out["energy_mixed_identity"] = max_abs(E_mix - direct_e, lanes)
    return out


def multitime_invariants(state, space, coords, bsml=False):
    lanes = np.ndim(coords[0]) > 0
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
    """The scenario's invariant suite at one evaluation point.  The package does
    not call it; it stays as the name that ``perfbench/tracer.py`` wraps."""
    return scenario.invariants(coords)
