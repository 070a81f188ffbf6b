import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoplasma import dual, expr
from geoplasma.errors import DomainError, ExprSyntaxError, UnboundVariableError
from geoplasma.expr import (
    BinOp, Call, Neg, Num, Var, _straight_line, compile_field, evaluate, parse, pretty,
)
import reference_dual
from helpers import coefficient_bits, compile_trees, reference_trees, walk


def ev(source, **binding):
    return evaluate(parse(source), binding)


def test_precedence():
    assert ev("1+2*3") == 7.0
    assert ev("2*3+1") == 7.0
    assert ev("6/2/3") == 1.0
    assert ev("1-2-3") == -4.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_pythagorean_identity():
    assert ev("sin(x1)^2 + cos(x1)^2", x1=0.7) == pytest.approx(1.0, abs=1e-15)


def test_unary_minus_binds_into_power_base():
    # grammar: factor := unary ('^' factor)?, so -x^2 is (-x)^2
    assert ev("-2^2") == 4.0
    assert ev("-(2^2)") == -4.0
    assert ev("2^-1") == 0.5


def test_function_calls():
    assert ev("pow(2, 10)") == 1024.0
    assert ev("exp(log(5))") == pytest.approx(5.0, rel=1e-15)
    assert ev("tanh(0)") == 0.0


@pytest.mark.parametrize("source, offset", [("1e999", 0), ("x + 2.5e400*y", 4), ("-1e309", 1)])
def test_overflowing_literal_is_a_syntax_error(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.offset == offset
    assert "overflows to infinity" in str(err.value)
    assert evaluate(parse("1e308 + 1e-999"), {}) == 1e308


def test_parse_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    assert err.value.expected

    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4

    with pytest.raises(ExprSyntaxError):
        parse("sin(1, 2)")

    with pytest.raises(ExprSyntaxError) as err:
        parse("frob(1)")
    assert "unknown function" in str(err.value)

    with pytest.raises(ExprSyntaxError):
        parse("1 2")

    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")


def test_unbound_variable_is_error():
    with pytest.raises(UnboundVariableError):
        ev("x1 + x2", x1=1.0)


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as err:
        ev("1 + log(x1 - 2)", x1=1.0)
    assert "log(x1 - 2.0)" in str(err.value)
    with pytest.raises(DomainError) as err:
        ev("1/(x1 - 1)", x1=1.0)
    assert "x1 - 1.0" in str(err.value)
    # float arithmetic errors of plain coordinates surface the same way
    for source, where in [
        ("1 + pow(x1 - 1, -1)", "pow(x1 - 1.0, -1.0)"),
        ("1 + (x1 + 1)^2000.5", "(x1 + 1.0)^2000.5"),
        ("1 + exp(1000*x1)", "exp(1000.0*x1)"),
        ("1 + sin(x1*1e308*10)", "sin(x1*1e+308*10.0)"),
    ]:
        with pytest.raises(DomainError) as err:
            ev(source, x1=1.0)
        assert where in str(err.value)


def test_dual_evaluation_product_rule():
    tree = parse("x1*x2")
    (x1, x2), _ = dual.seed([2.0, 3.0])
    out = evaluate(tree, {"x1": x1, "x2": x2})
    assert out.value == 6.0
    assert out.d(0) == 3.0


def test_dual_evaluation_second_order():
    field = reference_trees([parse("exp(x1)")], ["x1"])
    (x1,), _ = reference_dual.seed([0.0], order=2)
    (out,) = field([x1])
    assert out.value == 1.0
    assert out.d(0) == pytest.approx(1.0, abs=1e-15)
    assert out.d(0, 0) == pytest.approx(1.0, abs=1e-15)


def test_random_polynomial_derivatives_vs_finite_differences():
    import random

    rng = random.Random(20240811)
    names = ["x1", "x2", "x3"]
    terms = []
    for _ in range(8):
        coeff = rng.uniform(-2, 2)
        powers = [rng.randint(0, 2) for _ in names]
        while sum(powers) > 4:
            powers[rng.randrange(3)] = 0
        term = f"{coeff!r}"
        for nm, pw in zip(names, powers):
            for _ in range(pw):
                term += f"*{nm}"
        terms.append(term)
    source = " + ".join(terms)
    tree = parse(source)
    point = [rng.uniform(-1, 1) for _ in names]

    jets, _ = dual.seed(point)
    out = evaluate(tree, dict(zip(names, jets)))
    step = 1e-5
    for i in range(3):
        up = dict(zip(names, point))
        dn = dict(zip(names, point))
        up[names[i]] += step
        dn[names[i]] -= step
        ref = (evaluate(tree, up) - evaluate(tree, dn)) / (2 * step)
        scale = max(1.0, abs(ref))
        assert abs(out.d(i) - ref) / scale < 1e-7


# -- round-trip properties --------------------------------------------------

_numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num)
_vars = st.sampled_from(["x1", "x2", "y1", "t1", "x1_1"]).map(Var)


def _trees(children):
    unary = children.map(Neg)
    binop = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda t: BinOp(t[0], t[1], t[2])
    )
    call1 = st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), children).map(
        lambda t: Call(t[0], (t[1],))
    )
    call2 = st.tuples(children, children).map(lambda t: Call("pow", (t[0], t[1])))
    return st.one_of(unary, binop, call1, call2)


expression_trees = st.recursive(st.one_of(_numbers, _vars), _trees, max_leaves=25)


@given(expression_trees)
@settings(max_examples=200, deadline=None)
def test_pretty_print_round_trip(tree):
    assert parse(pretty(tree)) == tree


@given(expression_trees)
@settings(max_examples=100, deadline=None)
def test_double_round_trip_is_stable(tree):
    text = pretty(tree)
    again = pretty(parse(text))
    assert again == text


def test_round_trip_of_parsed_source():
    for source in [
        "1+2*3",
        "2^3^2",
        "-x1^2",
        "sin(x1)^2 + cos(x1)^2",
        "pow(x1, 2) - 1/(1 + x2)",
        "-(x1 - x2)*(x1 + x2)",
        "x1/-x2",
    ]:
        tree = parse(source)
        assert parse(pretty(tree)) == tree


# -- compiled fields against the walker ----------------------------------------

_FIELD_NAMES = ["x1", "x2", "y1"]
_leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1.5, 0.25, 1e-3]).map(Num),
    st.sampled_from(_FIELD_NAMES).map(Var),
)


def _compiled_trees(children):
    calls = st.tuples(
        st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "tanh"]), children
    ).map(lambda t: Call(t[0], (t[1],)))
    exponents = st.one_of(
        st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.0, 0.5, 1.5, -0.5]).map(Num), children
    )
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(children, exponents).map(lambda t: BinOp("^", t[0], t[1])),
        st.tuples(children, exponents).map(lambda t: Call("pow", t)),
        # the same subtree twice, as in a repeated factor
        children.map(lambda c: BinOp("*", c, BinOp("+", c, Num(1.0)))),
    )


_field_trees = st.recursive(_leaves, _compiled_trees, max_leaves=10)


@st.composite
def _fields(draw):
    """Several entries built over a shared pool of subtrees."""
    pool = draw(st.lists(_field_trees, min_size=1, max_size=3))
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        entries.append(draw(st.sampled_from([a, b, BinOp("+", a, b), BinOp("/", a, b)])))
    return entries


def _scalars(kind, values, lanes):
    if kind == "float":
        return list(values)
    if kind == "numpy":
        return [np.float64(v) for v in values]
    if kind == "lanes":  # three points of a batch
        return [np.array(row) for row in lanes]
    return dual.seed(values, seeds=[0, 1])[0]


def _walk(trees, coords):
    binding = dict(zip(_FIELD_NAMES, coords))
    return [walk(tree, binding) for tree in trees]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as err:  # compared below, type and text
        return None, err


def _split_lanes(err):
    lanes = getattr(err, "lanes", None)
    return None if lanes is None else lanes.tolist()


_lane_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
                         st.floats(min_value=-2.0, max_value=2.0))


@given(
    _fields(),
    st.sampled_from(["float", "numpy", "order1", "lanes"]),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
    st.lists(st.lists(_lane_values, min_size=3, max_size=3), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compiled_field_is_bit_identical_to_walker(trees, kind, values, lanes):
    coords = _scalars(kind, values, lanes)
    labels = [f"entry {k}" for k in range(len(trees))]
    # lanes run under the floating-point traps of a scenario batch
    traps = {"divide": "raise", "over": "raise", "invalid": "raise"} if kind == "lanes" else {}
    with np.errstate(**traps):
        walked, walk_err = _outcome(_walk, trees, coords)
        straight, straight_err = _outcome(compile_trees(trees, _FIELD_NAMES), coords)
        field, field_err = _outcome(compile_field(trees, _FIELD_NAMES, labels), coords)
    if walk_err is not None:
        # the straight-line code fails too, and the field raises the walker's error
        assert straight_err is not None
        assert type(field_err) is type(walk_err)
        assert str(field_err) == str(walk_err)
        assert getattr(field_err, "where", None) == getattr(walk_err, "where", None)
        assert _split_lanes(field_err) == _split_lanes(walk_err)
        return
    assert straight_err is None
    assert [coefficient_bits(v) for v in straight] == [coefficient_bits(v) for v in walked]
    if all(dual.is_finite(v) for v in walked):
        assert [coefficient_bits(v) for v in field] == [coefficient_bits(v) for v in walked]
    else:
        bad = next(k for k, v in enumerate(walked) if not dual.is_finite(v))
        assert isinstance(field_err, DomainError)
        assert str(field_err) == f"non-finite value or derivative in entry {bad}"


@pytest.mark.parametrize("sources, coords", [
    (["1 + x1", "2*log(x1 - x2)"], [0.5, 1.0]),
    (["x2", "1/(x1 - 0.5)"], [0.5, 1.0]),
    (["x2", "1/(x1 - 0.5)"], [np.float64(0.5), np.float64(1.0)]),
    (["x2", "sqrt(x1)", "x1/x2"], [0.5, 0.0]),
    # a zero base to a negative integer power: the call keeps the
    # ZeroDivisionError's text, the operator reads "division by zero"
    (["x2", "pow(x1 - 0.5, -1)"], [0.5, 1.0]),
    (["x2", "(x1 - 0.5)^-1"], [0.5, 1.0]),
])
def test_compiled_field_errors_match_walker(sources, coords):
    trees = [parse(source) for source in sources]
    binding = dict(zip(["x1", "x2"], coords))
    with pytest.raises(Exception) as walked:
        [walk(tree, binding) for tree in trees]
    field = compile_field(trees, ["x1", "x2"], sources)
    with pytest.raises(Exception) as compiled:
        field(coords)
    assert type(compiled.value) is type(walked.value)
    assert str(compiled.value) == str(walked.value)
    assert getattr(compiled.value, "where", None) == getattr(walked.value, "where", None)
    assert isinstance(walked.value, DomainError)


@pytest.mark.parametrize("sources, coords", [
    (["x1 + x2", "z3*x1"], [0.5, 1.0]),
    (["x1^2", "x1^2 + q"], dual.seed([0.5, 1.0])[0]),
])
def test_an_unbound_name_fails_when_the_field_compiles(sources, coords):
    # the walker raises the same error at every point it is given
    trees = [parse(source) for source in sources]
    with pytest.raises(UnboundVariableError) as walked:
        [walk(tree, dict(zip(["x1", "x2"], coords))) for tree in trees]
    with pytest.raises(UnboundVariableError) as compiled:
        compile_field(trees, ["x1", "x2"], sources)
    assert str(compiled.value) == str(walked.value)


def test_a_failing_field_is_evaluated_once(monkeypatch):
    trees = [parse("1 + x1"), parse("2*log(x1 - 1)")]
    with pytest.raises(DomainError) as walked:
        [walk(tree, {"x1": 0.5}) for tree in trees]
    calls = []

    def log(x):
        calls.append(x)
        return dual.log(x)

    # the compiled code and any walk of the trees call this log
    monkeypatch.setitem(expr._NAMESPACE, "_log", log)
    monkeypatch.setitem(expr.FUNCTIONS, "log", (log, 1))
    field = compile_field(trees, ["x1"], ["f 1", "f 2"])
    with pytest.raises(DomainError) as compiled:
        field([0.5])
    assert str(compiled.value) == str(walked.value)
    assert calls == [-0.5]


def test_compiled_field_computes_a_shared_subtree_once():
    scale = "(1 + 0.5*(y1^2 + y2^2))"
    trees = [parse(f"{scale}*(1.2 + 0.1*sin(x2))"), parse(f"{scale}*0.05*cos(x1)"),
             parse(f"{scale}*(1.1 + 0.1*cos(x1))")]
    source, nodes = _straight_line(trees, ["x1", "x2", "y1", "y2"])
    assert len(nodes) == len(source.splitlines())
    assert source.count("_pow(") == 2  # y1^2 and y2^2, once each
    assert source.count("0.5 * ") == 1
    # 0.0 and -0.0 compare equal but are different literals
    source, _ = _straight_line([BinOp("+", Var("x1"), Num(0.0)),
                                BinOp("+", Var("x1"), Num(-0.0))], ["x1"])
    assert "+ 0.0" in source and "+ (-0.0)" in source
    assert compile_trees([BinOp("*", Num(-0.0), Var("x1"))], ["x1"])([2.0])[0].hex() == "-0x0.0p+0"


def test_compiled_field_names_a_non_finite_entry():
    trees = [parse("1"), parse("1 + (1e306*x1*1e3 - 1e306*x1*1e3)")]
    field = compile_field(trees, ["x1"], ["metric row 1 entry 1", "metric row 1 entry 2"])
    assert field([0.0]) == [1.0, 1.0]
    with pytest.raises(DomainError, match="non-finite value or derivative in metric row 1 entry 2"):
        field([0.5])
    # a finite value whose derivative overflows
    jets, _ = dual.seed([0.0])
    with pytest.raises(DomainError, match="entry 2"):
        field(jets)
