"""The first-order jet engine, and the general engine it is checked against.

Tests of mixed partials, higher orders and nested seedings run on the
general engine in ``reference_dual``; the package's engine must give the
bits of that engine at order 1 (see the property at the end).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_dual as ref
from geoplasma import dual
from geoplasma.dual import Jet, SeedContext, seed
from geoplasma.errors import DomainError, SeedingError
from geoplasma.expr import BinOp, Call, Neg, Num, Var, compile_trees
from helpers import coefficient_bits, jet_product_loop, reference_trees


def fd(f, x, i, step=1e-5):
    """Central finite difference of f at x along coordinate i."""
    up = list(x)
    dn = list(x)
    up[i] += step
    dn[i] -= step
    return (f(up) - f(dn)) / (2 * step)


def test_variable_and_constant():
    ctx = SeedContext(2)
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
    (x,), _ = ref.seed([0.0], order=2)
    z = ref.exp(x)
    assert z.value == 1.0
    assert z.d(0) == pytest.approx(1.0, abs=1e-15)
    assert z.d(0, 0) == pytest.approx(1.0, abs=1e-15)


def test_third_order_polynomial_exact():
    (x,), _ = ref.seed([1.5], order=3)
    z = x * x * x
    assert z.d(0) == pytest.approx(3 * 1.5**2, rel=1e-15)
    assert z.d(0, 0) == pytest.approx(6 * 1.5, rel=1e-15)
    assert z.d(0, 0, 0) == pytest.approx(6.0, rel=1e-15)


def test_mixed_partial_symmetry():
    (x, y, z), _ = ref.seed([0.7, -0.3, 1.1], order=2)
    f = ref.sin(x * y) * ref.exp(z) + x / (y * y + 2.0)
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
    "fn,ref_fn,dref",
    [
        (dual.sin, math.sin, math.cos),
        (dual.cos, math.cos, lambda v: -math.sin(v)),
        (dual.exp, math.exp, math.exp),
        (dual.log, math.log, lambda v: 1.0 / v),
        (dual.sqrt, math.sqrt, lambda v: 0.5 / math.sqrt(v)),
        (dual.tanh, math.tanh, lambda v: 1.0 - math.tanh(v) ** 2),
    ],
)
def test_unary_functions(fn, ref_fn, dref):
    v = 0.8321
    (x,), _ = seed([v])
    (rx,), _ = ref.seed([v], order=2)
    for z in (fn(x), getattr(ref, fn.__name__)(rx)):
        assert z.value == ref_fn(v)
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
        ref.SeedContext(2, 4)
    (x,), _ = ref.seed([1.0], order=2)
    with pytest.raises(ValueError):
        (x * x).d(0, 0, 0)


def test_nested_jets_second_derivative_via_nesting():
    # d^2/dx^2 of sin(x) at 0.6 computed by seeding twice
    outer, _ = ref.seed([0.6])
    inner, _ = ref.seed(outer)
    z = ref.sin(inner[0])
    first = z.d(0)  # jet in the outer context
    assert ref.scalar_value(first) == pytest.approx(math.cos(0.6), rel=1e-14)
    assert first.d(0) == pytest.approx(-math.sin(0.6), rel=1e-14)


def test_nested_contexts_do_not_collide():
    # Same (nseeds, order) signature in both layers must still nest correctly:
    # f(x) = x^2 * x = x^3, split as outer x seeding and inner square.
    (x,), _ = ref.seed([2.0])

    def square(v):
        (w,), _ = ref.seed([v])
        r = w * w
        return r.value, r.d(0)

    sq, dsq = square(x)
    # sq is x^2 as an outer jet, dsq is 2x as an outer jet
    assert ref.scalar_value(sq) == 4.0
    assert sq.d(0) == pytest.approx(4.0)
    assert ref.scalar_value(dsq) == 4.0
    assert dsq.d(0) == pytest.approx(2.0)


def test_outer_jet_as_inner_constant():
    # An outer jet flowing through an inner seeding is constant for the
    # inner derivatives.
    (x,), _ = ref.seed([1.5])
    (y,), _ = ref.seed([2.0])
    z = y * y + x
    assert z.d(0) == pytest.approx(4.0)  # d/dy only
    assert ref.scalar_value(z.value) == pytest.approx(5.5)


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
    def compute(x, y, cos=dual.cos):
        return (x * y + 2.0) * cos(x - y) - y / (x * x + 1.0)

    plain = compute(v0, v1)
    (x, y), _ = seed([v0, v1])
    assert compute(x, y).value == plain
    (x, y), _ = ref.seed([v0, v1], order=2)
    assert compute(x, y, ref.cos).value == plain


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("nseeds", range(1, 12))
def test_product_kernel_equals_triples_loop(nseeds, order):
    rng = random.Random(nseeds * 10 + order)
    ctx = ref.SeedContext(nseeds, order)
    (outer,), _ = ref.seed([0.3])

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
        kernel = (ref.Jet(ctx, ac) * ref.Jet(ctx, bc)).c
        loop = jet_product_loop(ctx, ac, bc)
        assert coefficient_bits(ref.Jet(ctx, kernel)) == coefficient_bits(ref.Jet(ctx, loop))


def test_jets_of_two_seedings_never_meet():
    (x,), _ = seed([1.5])
    (y,), ctx = seed([2.0])
    for a, b in ((x, y), (y, x)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a / b, dual.power):
            with pytest.raises(SeedingError):
                op(a, b)
    with pytest.raises(SeedingError):
        dual.promote(x, ctx)
    with pytest.raises(SeedingError):
        seed([x, 1.0], seeds=[1])
    assert dual.promote(y, ctx) is y


# -- the first-order engine against the general one -------------------------------

_VARS = ["x1", "x2", "y1"]
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-3, 1e200, -1e200, 1e308, 5e-324]
_values = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0))
_leaves = st.one_of(st.sampled_from(_SPECIAL).map(Num), st.sampled_from(_VARS).map(Var))


def _nodes(children):
    exponents = st.one_of(
        st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.0, 0.5, -0.5, 1.5]).map(Num), children
    )
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        st.tuples(children, exponents).map(lambda t: BinOp("^", *t)),
        st.tuples(
            st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "tanh"]), children
        ).map(lambda t: Call(t[0], (t[1],))),
    )


def _outcome(field, coords):
    try:
        return [coefficient_bits(v) for v in field(coords)]
    except Exception as err:  # compared below, type, text and split lanes
        lanes = getattr(err, "lanes", None)
        return type(err), str(err), None if lanes is None else lanes.tolist()


@given(
    st.lists(st.recursive(_leaves, _nodes, max_leaves=12), min_size=1, max_size=3),
    st.lists(st.lists(_values, min_size=3, max_size=3), min_size=3, max_size=3),
    st.sets(st.integers(0, 2), min_size=1),
    st.booleans(),
)
# an infinite quotient and an infinite derivative turn the value slot into
# NaN; -0.0 times a positive seed, in scalars and in lanes
@example([BinOp("/", Var("x1"), Var("x2"))], [[1e308] * 3, [1e-300, 2.0, -0.0], [1.0] * 3],
         {0, 1}, False)
@example([Call("log", (Var("x1"),)), BinOp("*", Num(-0.0), Var("y1"))],
         [[5e-324, 1.0, 2.0], [1.0] * 3, [0.5, 0.0, 3.0]], {0, 2}, True)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_order_jets_give_the_bits_of_the_general_engine(trees, rows, seeded, lanes):
    coords = [np.array(row) for row in rows] if lanes else [row[0] for row in rows]
    seeds = sorted(seeded)
    ours = _outcome(compile_trees(trees, _VARS), seed(coords, seeds)[0])
    general = _outcome(reference_trees(trees, _VARS), ref.seed(coords, seeds, order=1)[0])
    assert ours == general
