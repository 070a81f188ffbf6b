"""Where numpy loads: at the first array the program touches, not at import.

Each test runs a script in a fresh interpreter, since this process imported
numpy long ago.  A lagrange stream line (plain floats and replayed tapes)
never imports numpy.  The batch subcommands import it in their set-up, in
``load_scenario`` or the input generator, so its import time never lands
in their work.  The type tests of the engine decide "ndarray or not" once
per type without importing numpy; arrays of a numpy imported after
geoplasma still take the array paths.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from test_output_bytes import CASES, EXPECTED, SCENARIOS

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script, *args):
    """The last stdout line of ``script`` run with ``args`` in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


STREAMLINE = """
    import json, sys
    import geoplasma.cli as cli

    imported = "numpy" in sys.modules
    code = cli.main(json.loads(sys.argv[1]))
    print(json.dumps([imported, code, "numpy" in sys.modules]))
"""


def test_a_lagrange_stream_line_never_imports_numpy(tmp_path):
    name, argv, code = CASES["streamline-tangent_bundle"]
    out = tmp_path / "out.csv"
    argv = argv + ["--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)]
    assert run_fresh(STREAMLINE, json.dumps(argv)) == [False, code, False]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED["streamline-tangent_bundle"][0]


SETUP = """
    import json, sys
    import geoplasma.cli as cli

    loaded = []  # (set-up function, whether numpy is imported when it returns)

    def probe(name):
        fn = getattr(cli, name)

        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                loaded.append([name, "numpy" in sys.modules])

        setattr(cli, name, probed)

    imported = "numpy" in sys.modules
    for name in sys.argv[2:]:
        probe(name)
    code = cli.main(json.loads(sys.argv[1]))
    print(json.dumps([imported, code, loaded]))
"""


@pytest.mark.parametrize("case, setup", [
    ("residuals-polar_plasma", ["load_scenario", "evaluation_points"]),
    ("verify-polar_plasma", ["load_scenario", "evaluation_points"]),
    ("streamsheet-bsml_sheet", ["load_scenario", "sheet_axes_and_values"]),
])
def test_batch_subcommands_import_numpy_in_their_set_up(case, setup, tmp_path):
    name, argv, code = CASES[case]
    argv = argv + ["--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path / "out")]
    imported, exit_code, loaded = run_fresh(SETUP, json.dumps(argv), *setup)
    assert not imported and exit_code == code
    assert [name for name, _ in loaded] == setup
    assert loaded[-1][1], loaded


ARRAYS_AFTER_IMPORT = """
    import json, struct, sys
    import geoplasma.cli  # every module of the package, before numpy
    from geoplasma import common, dual, tape
    from geoplasma.scenario import load_scenario

    # every type test meets plain floats, lists, tuples, jets and traced
    # floats before numpy is imported
    tangent = load_scenario("scenarios/tangent_bundle.json")
    tangent.stream_line([0.1, 0.2], [0.9, 0.1], 0.01, 3)
    assert "numpy" not in sys.modules
    import numpy as np

    out = {}
    builds = []

    @common.point_memo
    def built(owner, coords):
        builds.append(1)
        return len(builds)

    owner = object()
    lanes = [np.array([0.1, 0.2]), np.array([0.3, 0.4])]
    built(owner, lanes)
    built(owner, [lane.copy() for lane in lanes])  # the same bytes: held
    built(owner, [np.array([0.1, 0.2]), np.array([0.3, 0.5])])
    lane_builds = len(builds)
    array = np.array([0.1, 0.2])
    built(owner, array)  # an array argument: its float64 items bypass the memo
    array[0] = 0.7
    built(owner, array)
    out["builds"] = [lane_builds, len(builds) - lane_builds]

    @tape.replayed
    def f(x):
        return [x[0] * x[1] + x[0] / x[1]]

    x = np.array([0.3, 0.7])
    plain = [float(v) for v in f.__wrapped__(x)]
    first = f(x)
    x[1] = 0.9
    second = f(x)
    out["replayed"] = [[float(v).hex() for v in first] == [v.hex() for v in plain],
                       second == [float(v) for v in f.__wrapped__(x)],
                       f.paths(), type(first[0]).__name__]

    coords, ctx = dual.seed([np.array([0.5, 0.8, 1.1]), 0.2])
    out["lanes"] = ctx.lanes

    def bits(rows):
        return [struct.pack("<%dd" % len(row), *row).hex() for row in rows]

    polar = load_scenario("scenarios/polar_plasma.json")
    points = [[0.7 + 0.1 * k, -0.4 + 0.09 * k] for k in range(9)]
    batch = [values for _, values in polar.reports(points)]
    alone = [next(polar.reports([p]))[1] for p in points]
    out["batch_equals_points"] = bits(batch) == bits(alone)
    print(json.dumps(out))
"""


def test_arrays_of_a_numpy_imported_after_geoplasma_take_the_array_paths():
    out = run_fresh(ARRAYS_AFTER_IMPORT)
    # lane arrays not keyed by their bytes would build 3 times, and an array
    # argument keyed by its id once
    assert out["builds"] == [2, 2]
    assert out["replayed"] == [True, True, [], "float64"]
    assert out["lanes"] == 3
    assert out["batch_equals_points"]
