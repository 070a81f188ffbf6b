#!/usr/bin/env python3
"""Stream lines in a polar-coordinate plane: convergence experiment.

Integrates the same plasma stream line at a sequence of step sizes and
compares the endpoint against the exact geodesic (a straight line in
Cartesian coordinates), demonstrating fourth-order convergence of the
integrator; then repeats with a pressure gradient switched on and writes
the trajectory to CSV.

Usage: python scripts/polar_stream_line.py [out.csv]
"""

import sys

import numpy as np

from geoplasma.riemann import (
    ElectromagneticPair,
    FluidState,
    SemiRiemannianSpace,
    integrate_stream_line,
)
from geoplasma.tensor_core import (
    antisymmetric_field,
    constant_field,
    metric_from_exprs,
    scalar_field,
    triangle_values,
)


def polar_space():
    return SemiRiemannianSpace(2, metric_from_exprs([["1", "0"], ["x1^2"]], ["x1", "x2"]))


def exact_endpoint(x0, v0, s):
    r0, th0 = x0
    dr, dth = v0
    cx = np.array([r0 * np.cos(th0), r0 * np.sin(th0)])
    cv = np.array(
        [dr * np.cos(th0) - r0 * np.sin(th0) * dth,
         dr * np.sin(th0) + r0 * np.cos(th0) * dth]
    )
    end = cx + cv * s
    return np.array([np.hypot(*end), np.arctan2(end[1], end[0])])


def main():
    space = polar_space()
    zero = antisymmetric_field(2, constant_field([0.0]))
    em = ElectromagneticPair(zero, zero)
    geodesic_state = FluidState(
        constant_field(0.1), constant_field(1.0), 1.0,
        (constant_field(1.0), constant_field(0.0)),
    )
    x0, v0 = [1.0, 0.2], [0.3, 0.9]
    exact = exact_endpoint(x0, v0, 1.0)

    print("geodesic case (constant pressure, no electromagnetic field)")
    print(f"{'steps':>6} {'h':>10} {'endpoint error':>16} {'ratio':>8}")
    prev = None
    for count in (25, 50, 100, 200):
        rows = np.array(integrate_stream_line(geodesic_state, space, em, x0, v0, 1.0 / count,
                                              count), dtype=float)
        err = np.abs(rows[-1][1:3] - exact).max()
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"{count:>6} {1.0 / count:>10.4f} {err:>16.3e} {ratio}")
        prev = err

    names = ["x1", "x2"]
    forced_state = FluidState(
        scalar_field("0.3 + 0.1*sin(x2)", names),
        constant_field(1.0),
        1.0,
        (constant_field(1.0), constant_field(0.0)),
    )
    forced_em = ElectromagneticPair(
        antisymmetric_field(2, triangle_values([["0.2*x1"], []], names, "two-form")),
        antisymmetric_field(2, triangle_values([["0.1*sin(x2)"], []], names, "two-form")),
    )
    rows = np.array(integrate_stream_line(forced_state, space, forced_em, x0, v0, 1e-2, 150),
                    dtype=float)
    out = sys.argv[1] if len(sys.argv) > 1 else "polar_stream_line.csv"
    header = "s,x1,x2,xdot1,xdot2"
    np.savetxt(out, rows, delimiter=",", header=header, comments="")
    print(f"\nforced trajectory (pressure gradient + electromagnetic field)")
    print(f"wrote {rows.shape[0]} rows to {out}")
    print(f"endpoint: r = {rows[-1][1]:.6f}, theta = {rows[-1][2]:.6f}")


if __name__ == "__main__":
    main()
