import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from geoplasma import dual
from geoplasma.dual import Jet, SeedContext, scalar_value, seed
from geoplasma.errors import DomainError
from helpers import coefficient_bits, jet_product_loop


def fd(f, x, i, step=1e-5):
    """Central finite difference of f at x along coordinate i."""
    up = list(x)
    dn = list(x)
    up[i] += step
    dn[i] -= step
    return (f(up) - f(dn)) / (2 * step)


def test_variable_and_constant():
    ctx = SeedContext(2, 1)
    x = Jet.variable(ctx, 0, 3.0)
    c = Jet.constant(ctx, 5.0)
    assert x.value == 3.0
    assert x.d(0) == 1.0
    assert x.d(1) == 0.0
    assert c.d(0) == 0.0


def test_product_rule():
    (x, y), _ = seed([2.0, 3.0])
    z = x * y
    assert z.value == 6.0
    assert z.d(0) == 3.0
    assert z.d(1) == 2.0


def test_second_order_exp():
    (x,), _ = seed([0.0], order=2)
    z = dual.exp(x)
    assert z.value == 1.0
    assert z.d(0) == pytest.approx(1.0, abs=1e-15)
    assert z.d(0, 0) == pytest.approx(1.0, abs=1e-15)


def test_third_order_polynomial_exact():
    (x,), _ = seed([1.5], order=3)
    z = x * x * x
    assert z.d(0) == pytest.approx(3 * 1.5**2, rel=1e-15)
    assert z.d(0, 0) == pytest.approx(6 * 1.5, rel=1e-15)
    assert z.d(0, 0, 0) == pytest.approx(6.0, rel=1e-15)


def test_mixed_partial_symmetry():
    (x, y, z), _ = seed([0.7, -0.3, 1.1], order=2)
    f = dual.sin(x * y) * dual.exp(z) + x / (y * y + 2.0)
    for i in range(3):
        for j in range(3):
            assert f.d(i, j) == f.d(j, i)


def test_division_value_bit_exact():
    (x, y), _ = seed([0.7123456, 3.14159])
    q = x / y
    assert q.value == 0.7123456 / 3.14159
    r = 2.5 / y
    assert r.value == 2.5 / 3.14159


def test_division_derivatives():
    vals = [1.3, -0.4]

    def f(v):
        return v[0] / (v[1] + 2.0)

    (x, y), _ = seed(vals)
    q = x / (y + 2.0)
    assert q.d(0) == pytest.approx(fd(f, vals, 0), rel=1e-9)
    assert q.d(1) == pytest.approx(fd(f, vals, 1), rel=1e-9)


def test_division_by_zero_raises():
    (x,), _ = seed([0.0])
    with pytest.raises(DomainError):
        1.0 / x


@pytest.mark.parametrize(
    "fn,ref,dref",
    [
        (dual.sin, math.sin, math.cos),
        (dual.cos, math.cos, lambda v: -math.sin(v)),
        (dual.exp, math.exp, math.exp),
        (dual.log, math.log, lambda v: 1.0 / v),
        (dual.sqrt, math.sqrt, lambda v: 0.5 / math.sqrt(v)),
        (dual.tanh, math.tanh, lambda v: 1.0 - math.tanh(v) ** 2),
    ],
)
def test_unary_functions(fn, ref, dref):
    v = 0.8321
    (x,), _ = seed([v], order=2)
    z = fn(x)
    assert z.value == ref(v)
    assert z.d(0) == pytest.approx(dref(v), rel=1e-12)


def test_log_domain_error():
    (x,), _ = seed([-1.0])
    with pytest.raises(DomainError):
        dual.log(x)
    with pytest.raises(DomainError):
        dual.log(-1.0)


def test_sqrt_domain_error():
    (x,), _ = seed([0.0])
    with pytest.raises(DomainError):
        dual.sqrt(x)


def test_integer_power_negative_base():
    (x,), _ = seed([-2.0])
    z = dual.power(x, 3)
    assert z.value == -8.0
    assert z.d(0) == pytest.approx(12.0, rel=1e-14)
    z = dual.power(x, -2)
    assert z.value == 1.0 / ((-2.0) * (-2.0))
    assert z.d(0) == pytest.approx(-2.0 / (-2.0) ** 3, rel=1e-12)


def test_fractional_power():
    (x,), _ = seed([4.0])
    z = dual.power(x, 0.5)
    assert z.value == pytest.approx(2.0, rel=1e-15)
    assert z.d(0) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(DomainError):
        dual.power(-1.0 * x, 0.5)


def test_jet_exponent():
    (x, y), _ = seed([2.0, 3.0])
    z = dual.power(x, y)
    assert z.value == pytest.approx(8.0, rel=1e-14)
    # d/dx x^y = y x^(y-1); d/dy = x^y log x
    assert z.d(0) == pytest.approx(3 * 4.0, rel=1e-12)
    assert z.d(1) == pytest.approx(8.0 * math.log(2.0), rel=1e-12)


def test_order_cap():
    with pytest.raises(ValueError):
        SeedContext(2, 4)
    (x,), _ = seed([1.0], order=2)
    with pytest.raises(ValueError):
        (x * x).d(0, 0, 0)


def test_nested_jets_second_derivative_via_nesting():
    # d^2/dx^2 of sin(x) at 0.6 computed by seeding twice
    outer, _ = seed([0.6])
    inner, _ = seed(outer)
    z = dual.sin(inner[0])
    first = z.d(0)  # jet in the outer context
    assert scalar_value(first) == pytest.approx(math.cos(0.6), rel=1e-14)
    assert first.d(0) == pytest.approx(-math.sin(0.6), rel=1e-14)


def test_nested_contexts_do_not_collide():
    # Same (nseeds, order) signature in both layers must still nest correctly:
    # f(x) = x^2 * x = x^3, split as outer x seeding and inner square.
    (x,), _ = seed([2.0])

    def square(v):
        (w,), _ = seed([v])
        r = w * w
        return r.value, r.d(0)

    sq, dsq = square(x)
    # sq is x^2 as an outer jet, dsq is 2x as an outer jet
    assert scalar_value(sq) == 4.0
    assert sq.d(0) == pytest.approx(4.0)
    assert scalar_value(dsq) == 4.0
    assert dsq.d(0) == pytest.approx(2.0)


def test_outer_jet_as_inner_constant():
    # An outer jet flowing through an inner seeding is constant for the
    # inner derivatives.
    (x,), _ = seed([1.5])
    (y,), _ = seed([2.0])
    z = y * y + x
    assert z.d(0) == pytest.approx(4.0)  # d/dy only
    assert scalar_value(z.value) == pytest.approx(5.5)


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(finite, finite, finite, finite)
@settings(max_examples=100, deadline=None)
def test_derivative_linearity(a, b, v0, v1):
    (x, y), _ = seed([v0, v1])
    f = dual.sin(x) * y
    g = x * x + dual.tanh(y)
    combo = a * f + b * g
    for i in range(2):
        assert combo.d(i) == pytest.approx(a * f.d(i) + b * g.d(i), rel=1e-12, abs=1e-12)


@given(finite, finite)
@settings(max_examples=100, deadline=None)
def test_value_matches_plain(v0, v1):
    def compute(x, y):
        return (x * y + 2.0) * dual.cos(x - y) - y / (x * x + 1.0)

    plain = compute(v0, v1)
    (x, y), _ = seed([v0, v1], order=2)
    jet = compute(x, y)
    assert jet.value == plain


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("nseeds", range(1, 12))
def test_product_kernel_equals_triples_loop(nseeds, order):
    rng = random.Random(nseeds * 10 + order)
    ctx = SeedContext(nseeds, order)
    (outer,), _ = seed([0.3])

    def coeff():
        pick = rng.random()
        if pick < 0.1:
            return -0.0
        if pick < 0.2:
            return 0.0
        if pick < 0.3:
            return outer * rng.uniform(-2, 2) + rng.uniform(-1, 1)
        return rng.uniform(-2, 2)

    for _ in range(3):
        ac = [coeff() for _ in range(ctx.nkeys)]
        bc = [coeff() for _ in range(ctx.nkeys)]
        kernel = (Jet(ctx, ac) * Jet(ctx, bc)).c
        loop = jet_product_loop(ctx, ac, bc)
        assert coefficient_bits(Jet(ctx, kernel)) == coefficient_bits(Jet(ctx, loop))
