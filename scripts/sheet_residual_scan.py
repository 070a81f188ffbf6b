#!/usr/bin/env python3
"""Stream-sheet residual scan on a two-time product space.

Samples a smooth non-affine sheet on successively finer grids, evaluates
the horizontal and vertical PDE residuals from finite-difference jet
prolongation, and compares against exact-derivative jets to isolate the
discretization error (second-order stencils: the gap shrinks ~4x per
halving).

Usage: python scripts/sheet_residual_scan.py [out.csv]
"""

import sys

import numpy as np

from geoplasma.dual import promote, seed
from geoplasma.models import build_bsml
from geoplasma.multitime import (
    MultiTimeFluidState,
    StreamSheet,
    prolong_sheet,
    stream_sheet_residuals,
)
from geoplasma.tensor_core import (
    antisymmetric_field,
    metric_from_exprs,
    scalar_field,
    triangle_values,
)

P, N = 2, 2
TNM = ["t1", "t2"]
JNM = ["t1", "t2", "x1", "x2", "x1_1", "x1_2", "x2_1", "x2_2"]

SHEET = ["t1 + 0.3*sin(t2) + 0.1*t2^2", "t2 - 0.2*cos(t1) + 0.1*t1"]


def build():
    h = metric_from_exprs([["1", "0"], ["1"]], TNM)
    phi = metric_from_exprs([["1", "0"], ["1"]], ["x1", "x2"])
    space = build_bsml(h, phi, P, N)
    state = MultiTimeFluidState(
        scalar_field("0.4 + 0.1*sin(x1)", JNM),
        scalar_field("1.1 + 0.1*cos(x2)", JNM),
        1.0,
        antisymmetric_field(N, triangle_values([["0.2*sin(x1)"], []], JNM, "two-form")),
        antisymmetric_field(N, triangle_values([["0.1*cos(x2)"], []], JNM, "two-form")),
    )
    return space, state


def exact_jet(fields, t):
    """Flat jet coordinates [t, x, x^1_1..x^N_P] of the sheet at t, exact derivatives."""
    tj, ctx = seed(list(t))
    x = [promote(f(tj), ctx) for f in fields]
    return list(t) + [v.value for v in x] + [v.d(a) for v in x for a in range(P)]


def main():
    space, state = build()
    fields = [scalar_field(e, TNM) for e in SHEET]

    print(f"{'grid':>8} {'max |residual|':>16} {'discretization gap':>20} {'ratio':>8}")
    prev = None
    rows = []
    for m in (9, 17, 33):
        axes = tuple(np.linspace(0.2, 1.2, m) for _ in range(P))
        values = np.empty((m, m, N))
        for idx in np.ndindex(m, m):
            t = [axes[a][idx[a]] for a in range(P)]
            for i in range(N):
                values[idx + (i,)] = fields[i](t)
        jets = prolong_sheet(StreamSheet(axes, values), space)
        worst_res = 0.0
        worst_gap = 0.0
        for idx in np.ndindex(m, m):
            if idx[0] in (0, m - 1) or idx[1] in (0, m - 1):
                continue
            t = [axes[a][idx[a]] for a in range(P)]
            h_g, v_g = stream_sheet_residuals(state, space, jets[idx].tolist())
            h_e, v_e = stream_sheet_residuals(state, space, exact_jet(fields, t))
            worst_res = max(worst_res, np.abs(h_g).max(), np.abs(v_g).max())
            worst_gap = max(worst_gap, np.abs(h_g - h_e).max(), np.abs(v_g - v_e).max())
            if m == 33:
                rows.append(list(t) + list(h_g) + list(v_g.reshape(-1)))
        ratio = f"{prev / worst_gap:8.2f}" if prev else "       -"
        print(f"{m:>4}x{m:<3} {worst_res:>16.4e} {worst_gap:>20.4e} {ratio}")
        prev = worst_gap

    out = sys.argv[1] if len(sys.argv) > 1 else "sheet_residuals.csv"
    header = "t1,t2,h1,h2,v11,v12,v21,v22"
    np.savetxt(out, np.array(rows), delimiter=",", header=header, comments="")
    print(f"\nwrote {len(rows)} interior-node rows (finest grid) to {out}")


if __name__ == "__main__":
    main()
