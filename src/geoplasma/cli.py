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
import os
import sys
from collections import OrderedDict

from . import _numpy as np
from . import __version__
from .dual import promote, seed
from .errors import DomainError, GeoPlasmaError, ScenarioError
from .multitime import StreamSheet, prolong_sheet
from .scenario import evaluation_points, load_scenario, sheet_axes_and_values


def _write_lines(path, lines):
    data = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(data)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(data)
    except OSError as err:
        raise ScenarioError(f"cannot write {path}: {err.strerror or err}") from None


def _check_out(path):
    """Refuse an ``--out`` path that cannot be a file before any work is done."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ScenarioError(f"cannot write {path}: not a file in an existing directory")


def _csv_lines(scenario, header, rows):
    """The CSV lines of rows of strings and Python floats, whose ``str`` is their
    shortest round-trip ``repr``."""
    lines = [f"# scenario={scenario.hash} version={__version__}"]
    lines.append(",".join(header))
    lines.extend(",".join(map(str, row)) for row in rows)
    return lines


def cmd_verify(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ScenarioError("--tol must be a finite positive number")
    scenario = load_scenario(args.scenario)
    points, seed = evaluation_points(scenario, seed=args.seed, count=args.points)
    worst = OrderedDict()
    worst_point = {}
    failed_points = []
    for coords, invariants in zip(points, scenario.invariant_suites(points)):
        if isinstance(invariants, GeoPlasmaError):
            failed_points.append({"point": coords, "error": str(invariants)})
            continue
        for name, value in invariants.items():
            if name not in worst or _worse(value, worst[name]):
                worst[name] = value
                worst_point[name] = coords
    failed = [name for name, value in worst.items() if not value < args.tol]
    width = max((len(name) for name in worst), default=0)
    print(f"# scenario={scenario.hash} version={__version__} "
          f"points={len(points)} seed={seed} tol={args.tol!r}")
    for name, value in worst.items():
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<{width}}  {value:.3e}  {status}")
    if failed:
        print("worst offenders:")
        for name in failed:
            print(f"  {name} = {worst[name]:.6e} at {worst_point[name]}")
    if failed_points:
        print(f"failed points ({len(failed_points)} of {len(points)}):")
        for entry in failed_points:
            print(f"  {entry['point']}: {entry['error']}")
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
        if failed_points:
            payload["failed_points"] = failed_points
        _write_lines(args.out, [json.dumps(payload, indent=2)])
    return 1 if failed or failed_points else 0


def _worse(value, current):
    """Whether an invariant value is worse than ``current``; non-finite is worst."""
    return (not math.isfinite(value), value) > (not math.isfinite(current), current)


def _result_rows(names, results, labels=()):
    """Header and CSV rows of per-point results, and whether a point failed.

    Each result pairs a point's coordinate prefix, named by ``names``, with
    its (labels, values) or the GeoPlasmaError its evaluation raised.  A row
    is the prefix, the values and an empty error.  A failed point, and as
    the last guard one whose row holds a non-finite number, gets ``nan`` in
    every value column and the error text: a non-finite number is never
    written as a result.  The header is ``names``, the labels of the first
    row written in full (``labels`` when there is none) and ``error``.
    """
    checked = []
    for prefix, result in results:
        if isinstance(result, GeoPlasmaError):
            checked.append((prefix, None, str(result)))
            continue
        row = prefix + result[1]
        bad = next((label for label, value in zip(names + result[0], row)
                    if not math.isfinite(value)), None)
        checked.append((prefix, None, f"non-finite value in column {bad}") if bad
                       else (prefix, result, ""))
    labels = next((result[0] for _, result, _ in checked if result), labels)
    rows = [prefix + (result[1] if result else ["nan"] * len(labels)) + [err.replace(",", ";")]
            for prefix, result, err in checked]
    return [*names, *labels, "error"], rows, any(err for _, _, err in checked)


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
    blocks = scenario.connection(coords)
    bad = next((name for name, (block, _) in blocks.items() if not np.isfinite(block).all()), None)
    if bad:
        raise DomainError(f"non-finite value in block {bad}")  # JSON has no such number
    payload = {
        "scenario": scenario.hash,
        "version": __version__,
        "framework": scenario.framework,
        "point": coords,
        "index_order": {name: label for name, (_, label) in blocks.items()},
        "blocks": {name: block.tolist() for name, (block, _) in blocks.items()},
    }
    _write_lines(args.out, [json.dumps(payload, indent=2)])
    return 0


def cmd_residuals(args):
    scenario = load_scenario(args.scenario)
    points, seed = evaluation_points(scenario, seed=args.seed, count=args.points)
    header, rows, failed = _result_rows(scenario.names, zip(points, scenario.reports(points)))
    _write_lines(args.out, _csv_lines(scenario, header, rows))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out} (seed={seed})")
    return 1 if failed else 0


def cmd_streamline(args):
    scenario = load_scenario(args.scenario)
    n = scenario.n
    x0 = _parse_coords(args.x0, n, "--x0")
    v0 = _parse_coords(args.v0, n, "--v0")
    if args.steps < 1:
        raise ScenarioError("--steps must be at least 1")
    if not 0 < args.step < math.inf:
        raise ScenarioError("--step must be positive and finite")
    monitors, rows = scenario.stream_line(x0, v0, args.step, args.steps)
    header = ["s"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    _write_lines(args.out, _csv_lines(scenario, header + monitors, rows))
    return 0


def _exact_jets(scenario, axes, fields):
    """Flat jet coordinates of each sheet node from exact derivatives of the fields."""
    p, n = scenario.p, scenario.n
    shape = tuple(len(ax) for ax in axes)
    out = np.empty(shape + (p + n + n * p,))
    for idx in np.ndindex(shape):
        t = [float(axes[a][idx[a]]) for a in range(p)]
        tj, ctx = seed(t)
        x = [promote(f(tj), ctx) for f in fields]
        out[idx] = t + [v.value for v in x] + [v.d(a) for v in x for a in range(p)]
    return out


def cmd_streamsheet(args):
    if args.sheet_file and args.prolongation == "exact":
        raise ScenarioError("--prolongation exact needs the sheet expressions: "
                            "a --sheet-file has no exact derivatives")
    scenario = load_scenario(args.scenario)
    columns = scenario.sheet_columns(args.dump_coefficients)
    p, n = scenario.p, scenario.n
    axes, values, fields = sheet_axes_and_values(scenario, args.refine, bool(args.sheet_file))
    if args.sheet_file:
        values = _load_sheet_values(args.sheet_file, axes, p, n)
    if args.prolongation == "exact":
        nodes = _exact_jets(scenario, axes, fields)
    else:
        nodes = prolong_sheet(StreamSheet(axes, values), scenario.space)
    points = nodes.reshape(-1, nodes.shape[-1]).tolist()  # row-major grid order
    results = [(coords[:p + n], values if isinstance(values, GeoPlasmaError) else (columns, values))
               for coords, values in zip(points, scenario.sheet_rows(points, args.dump_coefficients))]
    header, rows, failed = _result_rows(scenario.names[:p + n], results, columns)
    _write_lines(args.out, _csv_lines(scenario, header, rows))
    return 1 if failed else 0


def _load_sheet_values(path, axes, p, n):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read sheet file {path}: {err}") from err
    shape = tuple(len(ax) for ax in axes)
    expected = int(np.prod(shape))
    data = lines[1:] if lines and not _is_number_row(lines[0]) else lines
    if len(data) != expected:
        raise ScenarioError(f"sheet file has {len(data)} data rows, grid expects {expected}")
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
        if args.out is not None:
            _check_out(args.out)
        return args.fn(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GeoPlasmaError as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
