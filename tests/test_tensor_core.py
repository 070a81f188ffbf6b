import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers

from geoplasma import dual
from geoplasma.dual import seed
from geoplasma.errors import DegenerateMetricError, TensorError
from geoplasma.tensor_core import (
    MAX_DIM,
    Slot,
    invert_symmetric,
    metric_from_exprs,
    scalar_field,
)


def test_dimension_above_max_dim_rejected():
    with pytest.raises(TensorError):
        invert_symmetric(np.eye(MAX_DIM + 1).tolist())


def test_slot_count_must_match_rank():
    space = helpers.flat_space(2)
    with pytest.raises(TensorError, match="^rank 2 tensor given 1 slots$"):
        helpers.levi_civita_derivative(lambda c: [[1.0, 0.0], [0.0, 1.0]], (Slot.LD,), space,
                                       [0.1, 0.2])


def test_invert_identity_and_diag():
    assert invert_symmetric([[1.0, 0.0], [0.0, 1.0]]) == [[1.0, 0.0], [0.0, 1.0]]
    inv = invert_symmetric([[2.0, 0.0], [0.0, 0.5]])
    assert inv[0][0] == pytest.approx(0.5)
    assert inv[1][1] == pytest.approx(2.0)


def test_invert_random_spd_multiply_back():
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = rng.normal(size=(4, 4))
        a = b @ b.T + 4 * np.eye(4)
        inv = invert_symmetric(a.tolist())
        err = np.abs(a @ np.array(inv) - np.eye(4)).max()
        assert err < 1e-12


def test_invert_indefinite():
    # off-diagonal Minkowski-like block needs pivoting
    inv = invert_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(inv, [[0.0, 1.0], [1.0, 0.0]])


def test_invert_singular_raises():
    with pytest.raises(DegenerateMetricError):
        invert_symmetric([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateMetricError):
        invert_symmetric([[0.0, 0.0], [0.0, 0.0]], point=(1.0, 2.0))
    # a NaN entry must not slip past the pivot test into a division by zero
    with pytest.raises(DegenerateMetricError):
        invert_symmetric([[float("nan"), 0.0], [0.0, 0.0]])


def test_invert_propagates_derivatives():
    # d(A^-1) = -A^-1 dA A^-1, checked against finite differences
    def a_matrix(t):
        return [[2.0 + dual.sin(t), 0.3 * t], [0.3 * t, 1.5 + t * t]]

    t0 = 0.4
    (tj,), _ = seed([t0])
    inv = invert_symmetric(a_matrix(tj))
    step = 1e-6
    up = invert_symmetric(a_matrix(t0 + step))
    dn = invert_symmetric(a_matrix(t0 - step))
    for i in range(2):
        for j in range(2):
            ref = (up[i][j] - dn[i][j]) / (2 * step)
            assert inv[i][j].d(0) == pytest.approx(ref, rel=1e-7, abs=1e-9)


def test_field_jet_constant_field():
    f = lambda coords: 3.5
    out = helpers.reference_field_jet(f, [1.0, 2.0], order=2)
    assert out.value == 3.5
    assert out.d(0) == 0.0
    assert out.d(0, 1) == 0.0


def test_field_jet_product():
    f = helpers.reference_field("x1*x2", ["x1", "x2"])
    out = helpers.reference_field_jet(f, [2.0, 3.0], order=2)
    assert out.value == 6.0
    assert out.d(0) == 3.0
    assert out.d(1) == 2.0
    assert out.d(0, 1) == 1.0


def test_field_jet_vs_finite_difference():
    f = scalar_field("sin(x1*x2) + x3^3/(1 + x2^2)", ["x1", "x2", "x3"])
    coords = [0.3, -0.7, 1.2]
    out = helpers.field_jet(f, coords)
    for i in range(3):
        ref = helpers.fd_partial(f, coords, i)
        assert abs(out.d(i) - ref) / max(1.0, abs(ref)) < 1e-7


def test_field_jet_mixed_partial_symmetry():
    f = helpers.reference_field("exp(x1*x2)*cos(x2*x3)", ["x1", "x2", "x3"])
    out = helpers.reference_field_jet(f, [0.2, 0.5, -0.4], order=2)
    for i in range(3):
        for j in range(3):
            assert abs(out.d(i, j) - out.d(j, i)) < 1e-12


def test_metric_field_symmetric_storage():
    g = metric_from_exprs([["1", "x1*x2"], ["2 + x1^2"]], ["x1", "x2"])
    m = g([2.0, 3.0])
    assert m[0][1] == m[1][0] == 6.0
    assert m[1][1] == 6.0


@pytest.mark.parametrize("rows", [[["1"], ["1"]], [["1", "0"]], [["1", "0"], ["1", "0"]]])
def test_metric_from_malformed_rows_raises(rows):
    with pytest.raises(TensorError) as err:
        metric_from_exprs(rows, ["x1", "x2"])
    assert str(err.value) == "upper-triangle entries must have rows of length dim - i"


def test_two_form_antisymmetry():
    h = helpers.two_form([["x1", "2"], ["x2"], []], ["x1", "x2", "x3"])
    m = h([1.5, -2.0, 0.0])
    for i in range(3):
        assert m[i][i] == 0.0
        for j in range(3):
            assert m[i][j] == -m[j][i]


spd_entries = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


@given(st.lists(spd_entries, min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_invert_multiply_back_property(vals):
    a = np.array(vals).reshape(3, 3)
    m = (a + a.T) / 2 + 2 * np.eye(3)
    inv = invert_symmetric(m.tolist())
    err = np.abs(m @ np.array(inv) - np.eye(3)).max()
    assert err < 1e-12
