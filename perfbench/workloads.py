"""Workload definitions: seeded scenario generation, CLI arguments, unit
counting and the correctness gate.

Each workload turns a benchmark seed into a scenario JSON file (plus CLI
arguments) that the program reads; the program never sees the seed
itself.  The seed picks the sampled points, the stream-line initial state
and the sheet coefficients.  Scenario JSON is written with sorted keys
and fixed formatting so the scenario hash, and hence every output byte,
is reproducible for a given seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
TOL = 1e-9

# residuals columns that must stay below TOL in every row, at any seed
RESIDUAL_IDENTITY_PREFIXES = ("contraction_identity", "euler_decomposition")
RESIDUAL_IDENTITY_COLUMNS = ("unit_norm_error",)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    unit: str
    why: str
    size: int        # work units per CLI invocation at full size
    tiny_size: int   # work units per invocation in the self-test mode


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "residuals-riemann-n4", "residuals", "point",
            "many independent points on a dense n=4 riemann metric; "
            "point batching and jet arithmetic show here, verify redundancy does not",
            200, 8,
        ),
        Workload(
            "verify-bsml-n3", "verify", "point",
            "verify on multitime bsml p=2 n=3: 102 seedings and 106 inversions per point "
            "where the report needs 3 and 4, so a shared per-point frame shows",
            12, 2,
        ),
        Workload(
            "streamline-lagrange-n2", "streamline", "step",
            "sequential RK4 on a fiber-dependent lagrange metric: one point at a time, "
            "so point batching must show no change; expression evaluation peaks here",
            150, 6,
        ),
        Workload(
            "streamsheet-bsml-n3", "streamsheet", "node",
            "streamsheet --refine 4 on the bsml n=3 sheet: 169 grid nodes through "
            "prolong_sheet and stream_sheet_residuals, the grid batching target",
            169, 25,
        ),
    )
}


def _fmt(x):
    """Fixed short decimal for generated coefficients."""
    return f"{x:.6f}"


def dump_scenario(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# -- scenario generators ---------------------------------------------------


def _riemann_n4(rng, count):
    n = 4
    metric = []
    for i in range(1, n + 1):
        row = []
        for j in range(i, n + 1):
            if i == j:
                row.append(f"2 + 0.3*sin(x{i % n + 1}) + 0.1*x{i}^2")
            else:
                row.append(f"0.1*cos(x{i} + 0.5*x{j})")
        metric.append(row)
    return {
        "framework": "riemann",
        "n": n,
        "c": 1.0,
        "metric": metric,
        "pressure": "0.3 + 0.05*sin(x1 + x2) + 0.02*x3*x4",
        "density": "1.2 + 0.1*cos(x3) + 0.05*sin(x4)",
        "velocity": ["1", "0.4*cos(x2)", "0.2*sin(x3)", "0.3 + 0.1*x4"],
        "em": {
            "H": [["0.2*sin(x1)", "0.1*x3", "0.05*cos(x4)"],
                  ["0.1*sin(x2*x3)", "0.05"], ["0.1*cos(x1)"], []],
            "G": "self-dual",
        },
        "eval": {
            "box": {"min": [0.6, -0.5, -0.5, -0.5], "max": [1.6, 0.5, 0.5, 0.5]},
            "count": count,
            "seed": rng.randrange(2**31),
        },
    }


def _bsml_n3(rng, count, grid_shape):
    a, b, c, d, e, f = (rng.uniform(0.1, 0.25) for _ in range(6))
    return {
        "framework": "multitime",
        "n": 3,
        "p": 2,
        "c": 1.0,
        "h_metric": [["1", "0"], ["1 + 0.1*t1^2"]],
        "model": {"name": "bsml", "params": {"phi": [
            ["1.5 + 0.1*sin(x2)", "0.1*cos(x1)", "0.05*sin(x3)"],
            ["1.4 + 0.1*cos(x3)", "0.1*sin(x1*x2)"],
            ["1.3 + 0.1*x1^2"],
        ]}},
        "pressure": "0.4 + 0.02*x1_1 + 0.01*x2_2",
        "density": "1.2 + 0.05*cos(x3)",
        "em": {"H": [["0.1*x1", "0.05*x3"], ["0.02*cos(x2)"], []], "G": "self-dual"},
        "eval": {
            "box": {
                "min": [-0.3, -0.3, 0.8, -0.5, -0.5] + [0.6] * 6,
                "max": [0.3, 0.3, 1.5, 0.5, 0.5] + [1.2] * 6,
            },
            "count": count,
            "seed": rng.randrange(2**31),
        },
        "sheet": {
            "x": [
                f"1 + {_fmt(a)}*t1 + {_fmt(b / 2)}*sin(t2)",
                f"{_fmt(2 * c)}*t1 - {_fmt(d)}*cos(t2)",
                f"0.3 + {_fmt(e)}*t2 + {_fmt(f / 2)}*t1*t2",
            ],
            "grid": {"min": [0.0, 0.0], "max": [1.0, 1.0],
                     "shape": [grid_shape, grid_shape]},
        },
    }


# Fiber dependence through the factor (1 + |y|^2 / 2) makes
# g(x, e*w)(w, w) = 1 solvable for eps0 = e whenever g(x, 0)(w, w) < 1, so
# the normalization stays solvable while the RK4 state drifts.
_FIBER = "(1 + 0.5*(y1^2 + y2^2))"
_LAGRANGE_METRIC = [
    [f"(1.2 + 0.1*sin(x2))*{_FIBER}", f"0.05*cos(x1)*{_FIBER}"],
    [f"(1.1 + 0.1*cos(x1))*{_FIBER}"],
]


def _lagrange_n2(rng):
    x0 = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]
    theta = rng.uniform(0.2, 1.3)
    w = [math.cos(theta), math.sin(theta)]
    # scale v0 = s*w so that eps0 = 1 solves the normalization at x0:
    # s^2 a (1 + s^2 / 2) = 1 with a = g(x0, 0)(w, w)
    a = ((1.2 + 0.1 * math.sin(x0[1])) * w[0] ** 2
         + 2 * 0.05 * math.cos(x0[0]) * w[0] * w[1]
         + (1.1 + 0.1 * math.cos(x0[0])) * w[1] ** 2)
    u = (-a + math.sqrt(a * a + 2 * a)) / a
    v0 = [math.sqrt(u) * w[0], math.sqrt(u) * w[1]]
    doc = {
        "framework": "lagrange",
        "n": 2,
        "c": 1.0,
        "metric": _LAGRANGE_METRIC,
        "connection": "canonical",
        "pressure": "0.3 + 0.04*sin(x1)*y1",
        "density": "1.1 + 0.1*cos(x2)",
        "em": {"H": [["0.15*sin(x1)*y2"], []], "G": [["0.1*cos(x2)"], []]},
    }
    return doc, x0, v0


def prepare(workload, seed, scenario_path, out_path, tiny=False):
    """Write the scenario for (workload, seed) and return the CLI argv.

    Returns (argv, units) where units is the number of work units one
    invocation attempts.
    """
    wl = WORKLOADS[workload]
    size = wl.tiny_size if tiny else wl.size
    rng = random.Random(f"{workload}:{seed}")
    if workload == "residuals-riemann-n4":
        doc = _riemann_n4(rng, size)
        argv = ["residuals", "--scenario", scenario_path, "--out", out_path]
    elif workload == "verify-bsml-n3":
        doc = _bsml_n3(rng, size, grid_shape=7)
        argv = ["verify", "--scenario", scenario_path, "--out", out_path,
                "--tol", repr(TOL)]
    elif workload == "streamline-lagrange-n2":
        doc, x0, v0 = _lagrange_n2(rng)
        argv = ["streamline", "--scenario", scenario_path, "--out", out_path,
                "--x0=" + ",".join(repr(v) for v in x0),
                "--v0=" + ",".join(repr(v) for v in v0),
                "--step", "0.01", "--steps", str(size)]
    elif workload == "streamsheet-bsml-n3":
        refine = 4
        shape = round(math.sqrt(size) - 1) // refine + 1
        doc = _bsml_n3(rng, 1, grid_shape=shape)
        argv = ["streamsheet", "--scenario", scenario_path, "--out", out_path,
                "--refine", str(refine)]
    else:
        raise KeyError(workload)
    with open(scenario_path, "wb") as fh:
        fh.write(dump_scenario(doc))
    return argv, size


# -- correctness gate ------------------------------------------------------


@dataclass
class Verdict:
    correct: bool
    completed: int   # units with a valid result; failed = attempted - completed
    reason: str = ""


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_output(workload, data, exit_code, units):
    """Check one invocation's exit code and output bytes.

    Holds at any seed: exit code, row or point count, finite numbers, and
    the identities below TOL (every verify invariant; the
    contraction_identity*, euler_decomposition* and unit_norm_error
    columns of residuals).  Rows with a non-empty ``error`` column are
    failed units; they must come with exit code 1.  A verify or streamline
    failure (exit 1) leaves no complete output, so it fails the check.
    """
    wl = WORKLOADS[workload]
    if data is None:
        return Verdict(False, 0, f"exit {exit_code}, no output")
    if wl.subcommand == "verify":
        try:
            report = json.loads(data)
        except ValueError:
            return Verdict(False, 0, "verify report is not JSON")
        values = list(report.get("invariants", {}).values())
        if exit_code != 0 or report.get("failed"):
            return Verdict(False, 0, f"exit {exit_code}, failed {report.get('failed')}")
        if report.get("points") != units or len(values) < 10:
            return Verdict(False, 0, "verify report has wrong point/invariant count")
        if not all(isinstance(v, float) and math.isfinite(v) and v < TOL for v in values):
            return Verdict(False, 0, "verify invariant not finite or above tol")
        return Verdict(True, units)

    lines = data.decode(errors="replace").splitlines()
    if not lines or not lines[0].startswith("# scenario="):
        return Verdict(False, 0, "output is not a geoplasma CSV")
    rows = list(csv.reader(lines[1:]))
    header, rows = (rows[0], rows[1:]) if rows else ([], [])
    # streamline writes the initial state as an extra row
    initial = 1 if wl.subcommand == "streamline" else 0
    if len(rows) != units + initial:
        return Verdict(False, 0, f"exit {exit_code}, {len(rows)} rows, "
                                 f"expected {units + initial}")
    has_error = header[-1] == "error"
    identity = [k for k, name in enumerate(header)
                if name.startswith(RESIDUAL_IDENTITY_PREFIXES)
                or name in RESIDUAL_IDENTITY_COLUMNS]
    if wl.subcommand == "residuals" and not identity:
        return Verdict(False, 0, "identity columns missing")
    error_rows = 0
    for row in rows:
        if len(row) != len(header):
            return Verdict(False, 0, "ragged CSV row")
        if has_error and row[-1]:
            error_rows += 1
            continue
        if not all(_finite(v) for v in row[:len(header) - has_error]):
            return Verdict(False, 0, "non-finite number in a row without error")
        if any(not abs(float(row[k])) < TOL for k in identity):
            return Verdict(False, 0, "identity column at or above tol")
    if (exit_code != 0) != (error_rows > 0):
        return Verdict(False, 0, f"exit {exit_code} with {error_rows} error rows")
    return Verdict(True, units - error_rows)


def sha256(data):
    return hashlib.sha256(data).hexdigest()
