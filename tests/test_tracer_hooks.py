"""The benchmark's tracer hooks name parts of the package that exist.

``perfbench/tracer.py`` wraps functions by (module, attribute) and the
jet operators by name; a rename in the package would break ``--trace 1``
only when the benchmark runs.  The tracer module is loaded from its file
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from geoplasma import dual

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_name_existing_package_parts():
    tracer = _tracer()
    assert tracer.JET_OPS
    for op in tracer.JET_OPS:
        assert op in dual.Jet.__dict__, op
    for module, attr in tracer.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"geoplasma.{module}"), attr)), (module, attr)


def test_tracer_counts_the_report_of_a_residuals_batch(tmp_path):
    # the 20 points of polar_plasma run as one lane batch through
    # riemann_report, the name the benchmark's per-layer report counts
    from geoplasma import cli

    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "polar_plasma.json"
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["residuals", "--scenario", str(scenario),
                         "--out", str(tmp_path / "r.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls.get("riemann.riemann_report", 0) >= 1
