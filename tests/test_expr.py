import pytest
from hypothesis import given, settings, strategies as st

from geoplasma import dual
from geoplasma.errors import DomainError, ExprSyntaxError, UnboundVariableError
from geoplasma.expr import BinOp, Call, Neg, Num, Var, evaluate, parse, pretty


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
    tree = parse("exp(x1)")
    (x1,), _ = dual.seed([0.0], order=2)
    out = evaluate(tree, {"x1": x1})
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
