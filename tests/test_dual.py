"""The first-order jet engine, and the general engine it is checked against.

Tests of mixed partials, higher orders and nested seedings run on the
general engine in ``reference_dual``; the package's engine must give the
bits of that engine at order 1, and each lane of a lane jet the bits of
the scalar jet of that lane (see the two properties at the end).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_dual as ref
from geoplasma import dual
from geoplasma.dual import Jet, SeedContext, seed
from geoplasma.errors import BatchSplit, DomainError, SeedingError
from geoplasma.expr import BinOp, Call, Neg, Num, Var
from helpers import coefficient_bits, compile_trees, jet_product_loop, reference_trees


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
        return field(coords)
    except Exception as err:  # compared below, type, text and split lanes
        lanes = getattr(err, "lanes", None)
        return type(err), str(err), None if lanes is None else lanes.tolist()


def _at_lane(value, lane):
    """float.hex of a value, or of each coefficient of a jet, at one lane; a
    plain float is the value of every lane."""
    if isinstance(value, (Jet, ref.Jet)):
        return [_at_lane(v, lane) for v in value.c]
    if isinstance(value, np.ndarray):
        value = value[lane]
    return float(value).hex()


@given(
    st.lists(st.recursive(_leaves, _nodes, max_leaves=12), min_size=1, max_size=3),
    st.lists(st.lists(_values, min_size=3, max_size=3), min_size=3, max_size=3),
    st.sets(st.integers(0, 2), min_size=1),
    st.booleans(),
)
# an infinite quotient and an infinite derivative turn the value slot into
# NaN; -0.0 times a positive seed, in scalars and in lanes; a jet over a
# plain zero
@example([BinOp("/", Var("x1"), Var("x2"))], [[1e308] * 3, [1e-300, 2.0, -0.0], [1.0] * 3],
         {0, 1}, False)
@example([Call("log", (Var("x1"),)), BinOp("*", Num(-0.0), Var("y1"))],
         [[5e-324, 1.0, 2.0], [1.0] * 3, [0.5, 0.0, 3.0]], {0, 2}, True)
@example([BinOp("/", Var("x1"), Var("x2"))], [[1.0, 2.0, 3.0], [0.0, -0.0, 0.0], [1.0] * 3],
         {0}, True)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_order_jets_give_the_bits_of_the_general_engine(trees, rows, seeded, lanes):
    seeds = sorted(seeded)
    field = compile_trees(trees, _VARS)
    general = reference_trees(trees, _VARS)

    def bits(outcome):
        if isinstance(outcome, tuple):
            return outcome
        return [coefficient_bits(v) for v in outcome]

    if not lanes:
        coords = [row[0] for row in rows]
        ours = _outcome(field, seed(coords, seeds)[0])
        assert bits(ours) == bits(_outcome(general, ref.seed(coords, seeds, order=1)[0]))
        return
    # lanes: the general engine on the same lane arrays (a plain slot there
    # stands for every lane), and on each lane alone
    coords = [np.array(row) for row in rows]
    ours = _outcome(field, seed(coords, seeds)[0])
    on_lanes = _outcome(general, ref.seed(coords, seeds, order=1)[0])
    if isinstance(ours, tuple):
        assert ours == on_lanes
        return
    assert not isinstance(on_lanes, tuple), on_lanes
    for value in ours:
        if isinstance(value, Jet):  # one (1 + m, B) float64 array per jet
            assert type(value.c) is np.ndarray and value.c.dtype == np.float64
            assert value.c.shape == (len(seeds) + 1, 3)
    for lane in range(3):
        one = [float(row[lane]) for row in rows]
        alone = _outcome(general, ref.seed(one, seeds, order=1)[0])
        assert not isinstance(alone, tuple), alone
        expected = [_at_lane(v, 0) for v in alone]
        assert [_at_lane(v, lane) for v in ours] == expected
        assert [_at_lane(v, lane) for v in on_lanes] == expected


# -- each lane of a lane jet against the scalar jet of that lane ------------------

_EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 0.5,
         -2.0, 3.0, 1e154, 1e308, -1e308, math.inf, -math.inf]
_lane_values = st.one_of(st.sampled_from(_EDGE), st.floats(-4.0, 4.0))
_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "power": dual.power,
    "neg": lambda a: -a,
    **{name: getattr(dual, name) for name in ("sin", "cos", "exp", "log", "sqrt", "tanh")},
}
_EXPONENTS = [0, 1, 2, 3, -1, -2, 0.0, 2.0, -3.0, 0.5, -0.5, 1.5, math.inf, -math.inf]


def _operands(draw, name, nseeds):
    """Operands of one operation: ("jet", (1 + m, 3) coefficients) or
    ("plain", a float or a (3,) lane array)."""
    def coeffs():
        return np.array(draw(st.lists(_lane_values, min_size=3 * (nseeds + 1),
                                      max_size=3 * (nseeds + 1)))).reshape(nseeds + 1, 3)

    def plain():
        if draw(st.booleans()):
            return draw(_lane_values)
        return np.array(draw(st.lists(_lane_values, min_size=3, max_size=3)))

    if name in ("neg", "sin", "cos", "exp", "log", "sqrt", "tanh"):
        return [("jet", coeffs())]
    if name == "power":
        exponent = draw(st.sampled_from(["int/float", "lanes", "jet", "plain base"]))
        if exponent == "int/float":
            return [("jet", coeffs()), ("plain", draw(st.sampled_from(_EXPONENTS)))]
        if exponent == "lanes":  # equal integers, different integers, or any lanes
            lanes = draw(st.one_of(
                st.sampled_from([2.0, -1.0, 3.0]).map(lambda e: [e] * 3),
                st.lists(st.sampled_from([2.0, 3.0, -1.0]), min_size=3, max_size=3),
                st.lists(st.sampled_from(_EXPONENTS).map(float), min_size=3, max_size=3),
            ))
            return [("jet", coeffs()), ("plain", np.array(lanes))]
        if exponent == "jet":
            return [("jet", coeffs()), ("jet", coeffs())]
        return [("plain", plain()), ("jet", coeffs())]
    sides = draw(st.sampled_from(["jj", "jp", "pj"]))
    return [("jet", coeffs()) if side == "j" else ("plain", plain()) for side in sides]


def _scalar_outcome(fn, operands, lane, nseeds):
    ctx = SeedContext(nseeds)
    args = []
    for kind, value in operands:
        if kind == "jet":
            args.append(Jet(ctx, value[:, lane].tolist()))
        else:
            args.append(value[lane].item() if isinstance(value, np.ndarray) else value)
    try:
        return _at_lane(fn(*args), 0)
    except Exception as err:
        return type(err), str(err)


def _check_lanes(fn, operands, lanes, scalars, nseeds):
    """The lane operation on ``lanes``: each lane has the bits of its scalar
    run; a split runs both sides again, as a batch does."""
    ctx = SeedContext(nseeds, len(lanes))
    args = []
    for kind, value in operands:
        if kind == "jet":
            args.append(Jet(ctx, value[:, lanes]))
        else:
            args.append(value[lanes] if isinstance(value, np.ndarray) else value)
    try:
        out = fn(*args)
    except BatchSplit as split:
        assert split.lanes is not None and split.lanes.any() and not split.lanes.all()
        for side in (split.lanes, ~split.lanes):
            _check_lanes(fn, operands, lanes[side], scalars, nseeds)
        return
    except Exception as err:  # a failed batch runs its points alone: one of them fails so
        assert (type(err), str(err)) in [scalars[b] for b in lanes]
        return
    if isinstance(out, Jet):
        assert out.ctx is ctx and type(out.c) is np.ndarray and out.c.dtype == np.float64
        assert out.c.shape == (nseeds + 1, len(lanes))
    for k, b in enumerate(lanes.tolist()):
        assert _at_lane(out, k) == scalars[b], (k, b)


@given(st.sampled_from(sorted(_OPS)), st.integers(1, 3), st.data())
@example("/", 1, None)  # a jet over a plain zero: ZeroDivisionError, also in lanes
@settings(max_examples=600, deadline=None)
def test_each_lane_of_a_lane_jet_has_the_bits_of_the_scalar_jet(name, nseeds, data):
    if data is None:
        operands = [("jet", np.array([[1.0, -2.0, 0.0], [0.5, 1.0, -0.0]])), ("plain", -0.0)]
    else:
        operands = _operands(data.draw, name, nseeds)
    fn = _OPS[name]
    with np.errstate(all="ignore"):  # inf and NaN lanes: the scalar run's silent floats
        scalars = [_scalar_outcome(fn, operands, lane, nseeds) for lane in range(3)]
        _check_lanes(fn, operands, np.arange(3), scalars, nseeds)
