"""Command-line front end.

Subcommands: verify, connection, residuals, streamline, streamsheet.
Every output embeds the scenario hash and the tool version; numbers are
serialized with their shortest round-trip decimal representation, so a
rerun with identical inputs is byte-identical.  Exit codes: 0 success,
1 invariant or integration failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import OrderedDict

import numpy as np

from . import __version__
from .dual import Jet, scalar_value, seed
from .errors import GeoPlasmaError, ScenarioError
from .lagrange import integrate_h_stream_line, lagrange_residuals
from .multitime import (
    JetPoint,
    StreamSheet,
    cartan_gamma,
    multitime_residuals,
    prolong_sheet,
    stream_sheet_coefficients,
    stream_sheet_residuals,
)
from .riemann import christoffel, integrate_stream_line, riemann_report
from .lagrange import cartan_connection
from .scenario import evaluation_points, load_scenario, sheet_axes_and_values
from .tensor_core import quadratic_form
from .verify import invariants_at


def _fmt(value):
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write_lines(path, lines):
    data = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(data)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(data)


def _csv_lines(scenario, header, rows):
    lines = [f"# scenario={scenario.hash} version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def _point_report(scenario, coords):
    if scenario.framework == "riemann":
        return riemann_report(scenario.state, scenario.space, scenario.em, coords)
    if scenario.framework == "lagrange":
        return lagrange_residuals(scenario.state, scenario.space, coords)
    jp = JetPoint.from_coords(scenario.p, scenario.n, coords)
    return multitime_residuals(scenario.state, scenario.space, jp)


def cmd_verify(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ScenarioError("--tol must be a finite positive number")
    scenario = load_scenario(args.scenario)
    points, seed = evaluation_points(scenario, seed=args.seed, count=args.points)
    worst = OrderedDict()
    worst_point = {}
    for coords in points:
        for name, value in invariants_at(scenario, coords).items():
            if name not in worst or value > worst[name]:
                worst[name] = value
                worst_point[name] = coords
    failed = [name for name, value in worst.items() if not value < args.tol]
    width = max(len(name) for name in worst)
    print(f"# scenario={scenario.hash} version={__version__} "
          f"points={len(points)} seed={seed} tol={args.tol!r}")
    for name, value in worst.items():
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<{width}}  {value:.3e}  {status}")
    if failed:
        print("worst offenders:")
        for name in failed:
            print(f"  {name} = {worst[name]:.6e} at {worst_point[name]}")
    if args.out:
        payload = {
            "scenario": scenario.hash,
            "version": __version__,
            "tolerance": args.tol,
            "points": len(points),
            "seed": seed,
            "invariants": {k: v for k, v in worst.items()},
            "failed": failed,
        }
        with open(args.out, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


def _parse_coords(text, expect, label):
    try:
        coords = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise ScenarioError(f"{label} must be comma-separated numbers: {err}") from None
    if len(coords) != expect:
        raise ScenarioError(f"{label} needs {expect} coordinates, got {len(coords)}")
    if not all(map(math.isfinite, coords)):
        raise ScenarioError(f"{label} coordinates must be finite")
    return coords


def cmd_connection(args):
    scenario = load_scenario(args.scenario)
    coords = _parse_coords(args.at, len(scenario.names), "--at")
    blocks = OrderedDict()
    if scenario.framework == "riemann":
        gamma = christoffel(scenario.space, coords)
        blocks["gamma"] = gamma.tolist()
        labels = {"gamma": "gamma[i][j][k], upper index first"}
    elif scenario.framework == "lagrange":
        L, C = cartan_connection(scenario.space, coords)
        blocks["L"] = L.tolist()
        blocks["C"] = C.tolist()
        labels = {
            "L": "L[i][j][k], upper index first",
            "C": "C[i][j][k], upper index first",
        }
    else:
        jp = JetPoint.from_coords(scenario.p, scenario.n, coords)
        kappa, Gt, L, C = cartan_gamma(scenario.space, jp)
        blocks["kappa"] = kappa.tolist()
        blocks["G"] = Gt.tolist()
        blocks["L"] = L.tolist()
        blocks["C"] = C.tolist()
        labels = {
            "kappa": "kappa[gamma][alpha][beta]",
            "G": "G[k][j][gamma]",
            "L": "L[i][j][k]",
            "C": "C[i][j][k][gamma]",
        }
    payload = {
        "scenario": scenario.hash,
        "version": __version__,
        "framework": scenario.framework,
        "point": coords,
        "index_order": labels,
        "blocks": blocks,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_residuals(args):
    scenario = load_scenario(args.scenario)
    points, seed = evaluation_points(scenario, seed=args.seed, count=args.points)
    results = []
    for coords in points:
        try:
            results.append((coords, _point_report(scenario, coords).columns(), ""))
        except GeoPlasmaError as err:
            results.append((coords, None, str(err).replace(",", ";")))
    first_ok = next((cols for _, cols, _ in results if cols is not None), None)
    if first_ok is None:
        header = scenario.names + ["error"]
    else:
        header = scenario.names + [label for label, _ in first_ok] + ["error"]
    rows = []
    for coords, cols, err in results:
        if cols is None:
            rows.append(list(coords) + ["nan"] * (len(header) - len(coords) - 1) + [err])
        else:
            rows.append(list(coords) + [v for _, v in cols] + [err])
    _write_lines(args.out, _csv_lines(scenario, header, rows))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out} (seed={seed})")
    return 1 if any(err for _, _, err in results) else 0


def cmd_streamline(args):
    scenario = load_scenario(args.scenario)
    n = scenario.n
    x0 = _parse_coords(args.x0, n, "--x0")
    v0 = _parse_coords(args.v0, n, "--v0")
    if args.steps < 1:
        raise ScenarioError("--steps must be at least 1")
    if not 0 < args.step < math.inf:
        raise ScenarioError("--step must be positive and finite")
    header = ["s"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    space = scenario.space
    if scenario.framework == "riemann":
        rows = integrate_stream_line(
            scenario.state, space, scenario.em, x0, v0, args.step, args.steps
        )

        def norm(x, v):
            return float(v @ np.array(space.phi.matrix(list(x))) @ v)
    elif scenario.framework == "lagrange":
        rows = integrate_h_stream_line(scenario.state, space, x0, v0, args.step, args.steps)
        header.append("vertical_constraint_norm")

        def norm(x, v):
            v = list(v)
            return float(scalar_value(quadratic_form(space.g.matrix(list(x) + v), v, v)))
    else:
        raise ScenarioError("streamline requires the riemann or lagrange framework")
    header.append("velocity_norm")
    out_rows = [list(row) + [norm(row[1:1 + n], row[1 + n:1 + 2 * n])] for row in rows]
    _write_lines(args.out, _csv_lines(scenario, header, out_rows))
    return 0


def _exact_jets(scenario, axes, fields):
    p, n = scenario.p, scenario.n
    shape = tuple(len(ax) for ax in axes)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        t = [float(axes[a][idx[a]]) for a in range(p)]
        tj, ctx = seed(t)
        x = []
        xdot = []
        for i in range(n):
            val = fields[i](tj)
            if not isinstance(val, Jet) or val.ctx is not ctx:
                val = Jet.constant(ctx, val)
            x.append(val.value)
            xdot.append(tuple(val.d(a) for a in range(p)))
        out[idx] = JetPoint(tuple(t), tuple(x), tuple(xdot))
    return out


def cmd_streamsheet(args):
    scenario = load_scenario(args.scenario)
    if scenario.framework != "multitime":
        raise ScenarioError("streamsheet requires the multitime framework")
    p, n = scenario.p, scenario.n
    axes, values, fields = sheet_axes_and_values(scenario, refine=args.refine)
    if args.sheet_file:
        values = _load_sheet_values(args.sheet_file, axes, p, n)
        jets = prolong_sheet(StreamSheet(axes, values), scenario.space)
    elif args.prolongation == "exact":
        jets = _exact_jets(scenario, axes, fields)
    else:
        jets = prolong_sheet(StreamSheet(axes, values), scenario.space)
    header = (
        [f"t{a + 1}" for a in range(p)] + [f"x{i + 1}" for i in range(n)]
        + [f"horizontal_{k + 1}" for k in range(n)] + ["horizontal_norm"]
        + [f"vertical_{k + 1}{mu + 1}" for k in range(n) for mu in range(p)]
        + ["vertical_norm"]
    )
    if args.dump_coefficients:
        header += [f"H_{m + 1}" for m in range(n)]
        header += [f"V_{m + 1}{mu + 1}" for m in range(n) for mu in range(p)]
    header += ["error"]
    rows = []
    any_error = False
    shape = tuple(len(ax) for ax in axes)
    for idx in np.ndindex(shape):
        jp = jets[idx]
        base = list(jp.t) + list(jp.x)
        try:
            hres, vres = stream_sheet_residuals(scenario.state, scenario.space, jp)
            row = base + list(hres) + [float(np.abs(hres).max())]
            row += list(vres.reshape(-1)) + [float(np.abs(vres).max())]
            if args.dump_coefficients:
                Hm, Vm = stream_sheet_coefficients(scenario.state, scenario.space, jp)
                row += list(Hm) + list(Vm.reshape(-1))
            row += [""]
            rows.append(row)
        except GeoPlasmaError as err:
            any_error = True
            rows.append(
                base + ["nan"] * (len(header) - len(base) - 1)
                + [str(err).replace(",", ";")]
            )
    _write_lines(args.out, _csv_lines(scenario, header, rows))
    return 1 if any_error else 0


def _load_sheet_values(path, axes, p, n):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as err:
        raise ScenarioError(f"cannot read sheet file: {err}") from err
    shape = tuple(len(ax) for ax in axes)
    expected = int(np.prod(shape))
    data = lines[1:] if lines and not _is_number_row(lines[0]) else lines
    if len(data) != expected:
        raise ScenarioError(
            f"sheet file has {len(data)} data rows, grid expects {expected}"
        )
    values = np.empty(shape + (n,))
    for row_idx, (idx, line) in enumerate(zip(np.ndindex(shape), data)):
        label = f"sheet file row {row_idx + 1} (t..., x...)"
        row = _parse_coords(line, p + n, label)
        node = [float(axes[a][idx[a]]) for a in range(p)]
        if any(abs(t - tn) > 1e-6 * max(1.0, abs(tn)) for t, tn in zip(row[:p], node)):
            raise ScenarioError(
                f"{label} has t = {row[:p]}, expected the grid node t = {node} "
                "(rows follow the sheet grid in row-major order)"
            )
        values[idx] = row[p:]
    return values


def _is_number_row(line):
    try:
        [float(v) for v in line.split(",")]
        return True
    except ValueError:
        return False


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoplasma",
        description="Tensor-calculus pipelines for relativistic plasma flows",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, sampled=False):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="output file path")
        if sampled:
            sp.add_argument("--seed", type=int, default=None, help="sampling seed")
            sp.add_argument("--points", type=int, default=None, help="sample count")

    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp, sampled=True)
    sp.add_argument("--tol", type=float, default=1e-9, help="tolerance")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("connection", help="dump connection coefficients")
    common(sp)
    sp.add_argument("--at", required=True, help="comma-separated coordinates")
    sp.set_defaults(fn=cmd_connection)

    sp = sub.add_parser("residuals", help="evaluate residual reports to CSV")
    common(sp, sampled=True)
    sp.set_defaults(fn=cmd_residuals)

    sp = sub.add_parser("streamline", help="integrate a stream line to CSV")
    common(sp)
    sp.add_argument("--x0", required=True, help="initial position")
    sp.add_argument("--v0", required=True, help="initial ds-velocity")
    sp.add_argument("--step", type=float, required=True, help="step size")
    sp.add_argument("--steps", type=int, required=True, help="step count")
    sp.set_defaults(fn=cmd_streamline)

    sp = sub.add_parser("streamsheet", help="stream-sheet residual scan to CSV")
    common(sp)
    sp.add_argument("--refine", type=int, default=1,
                    help="grid refinement factor (shape (s-1)*k+1)")
    sp.add_argument("--prolongation", choices=["stencil", "exact"], default="stencil",
                    help="jet prolongation: finite-difference stencils or exact derivatives")
    sp.add_argument("--sheet-file", default=None,
                    help="CSV of sampled nodes (t..., x...) instead of expressions")
    sp.add_argument("--dump-coefficients", action="store_true",
                    help="append the H and V coefficient columns")
    sp.set_defaults(fn=cmd_streamsheet)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GeoPlasmaError as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
