"""The plain-float RK4 integrator against its former numpy form.

``common.integrate_rk4`` steps on lists of Python floats in the operation
order numpy used on arrays of shape (n,); ``helpers.numpy_rk4`` is that
former form.  Rows must agree byte for byte, and every failure must keep
its text and step.
"""

import math

import numpy as np
import pytest

from geoplasma import common, lagrange, riemann
from geoplasma.errors import IntegrationError

from helpers import numpy_rk4
from test_output_bytes import CASES, EXPECTED, run_case


@pytest.mark.parametrize("case", ["streamline-polar_plasma", "streamline-tangent_bundle",
                                  "streamline-lagrange3"])
def test_rows_match_the_numpy_integrator(case, monkeypatch, tmp_path, capsys):
    compared = []

    def both(accel, x0, v0, step, count, monitors=()):
        rows = common.integrate_rk4(accel, x0, v0, step, count, monitors)
        assert all(type(v) is float for row in rows for v in row)
        assert (np.array(rows, dtype=float).tobytes()
                == numpy_rk4(accel, x0, v0, step, count, monitors).tobytes())
        compared.append(len(rows))
        return rows

    for module in (riemann, lagrange):
        monkeypatch.setattr(module, "integrate_rk4", both)
    assert run_case(case, tmp_path, capsys) == (0, EXPECTED[case])
    argv = CASES[case][1]
    assert compared == [int(argv[argv.index("--steps") + 1]) + 1]


def failure(integrate, *args):
    with pytest.raises(IntegrationError) as info:
        integrate(*args)
    return str(info.value), info.value.step


@pytest.mark.parametrize("accel, x0, v0, monitors", [
    # x'' = c v^2 and x'' = c v^3 run to infinity within a few steps
    (lambda x, v: [1e3 * v[0] * v[0]], [0.0], [1.0], ()),
    (lambda x, v: [10 * v[0] * v[0] * v[0]], [0.0], [1.0], ()),
    # a stage, then a monitor, leaves its domain
    (lambda x, v: [math.log(1.0 - x[0])], [0.0], [3.0], ()),
    (lambda x, v: [0.0, 1.0], [0.0, 0.0], [1.0, 0.0], (lambda x, v: math.sqrt(0.5 - x[0]),)),
], ids=["non-finite-quadratic", "non-finite-cubic", "domain", "monitor"])
def test_failures_keep_their_text_and_step(accel, x0, v0, monitors):
    args = (accel, x0, v0, 0.01, 100, monitors)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = failure(numpy_rk4, *args)
    assert expected[1] > 0
    assert failure(common.integrate_rk4, *args) == expected
