"""Closed-form scalar-field mini-language.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is a decimal literal with optional exponent (one that overflows
to infinity is a syntax error), IDENT matches
``[A-Za-z][A-Za-z0-9_]*``.  ``^`` is right-associative and its base is a
unary, so ``-x^2`` parses as ``(-x)^2``; write ``-(x^2)`` for the other
reading.  Known functions: sin, cos, exp, log, sqrt, tanh (one argument)
and pow (two arguments).

Expressions are immutable after parsing; evaluation is pure and works
over any scalar type the arithmetic helpers in :mod:`geoplasma.dual`
accept (plain floats, lane arrays or jets).

One evaluator runs these semantics.  :func:`compile_field` turns the
trees of one field (say all upper-triangle entries of a metric) into one
straight-line Python function of the coordinate list, generated once from
the parsed trees.  It runs the operations tree by tree, children before
their node and left before right, and computes identical subtrees once,
which changes no bit since evaluation is pure.  Names resolve when a field
is compiled: a name outside its coordinate list is an
:class:`UnboundVariableError` then, never at a point.  A failing operation
raises a :class:`DomainError` naming its subexpression; the line of the
generated code that raised gives the node.  Lines run in tree order, so a
shared subtree that fails does so at its first use, the node a walk of the
trees fails at.  The recursive tree walker, the first form of these
semantics, is the oracle the tests compare the compiled code with
(``walk`` in ``tests/helpers.py``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import dual
from .errors import DomainError, ExprError, ExprSyntaxError, UnboundVariableError

# Deepest expression accepted (deeper ones are an ExprError), in tree levels
# and in frames of parser recursion, where a group or call argument recurses
# through all five grammar rules.  The recursive parser, compiler and printer
# (and the tests' tree walker) then stay well under Python's default recursion
# limit of 1000.
MAX_DEPTH = 800
_GROUP = 5

FUNCTIONS = {
    "sin": (dual.sin, 1),
    "cos": (dual.cos, 1),
    "exp": (dual.exp, 1),
    "log": (dual.log, 1),
    "sqrt": (dual.sqrt, 1),
    "tanh": (dual.tanh, 1),
    "pow": (dual.power, 2),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Node = Num | Var | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(
                f"unexpected character {source[bad]!r}", bad,
                ("number", "identifier", "operator"),
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        found = "end of input" if kind == "end" else repr(text)
        raise ExprSyntaxError(f"unexpected {found}", offset, expected)

    def descend(self, frames):
        """Count the ``frames`` of recursion about to be entered (undone on return)."""
        self.depth += frames
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  self.peek()[2], ())

    def expect_op(self, op):
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail((f"'{op}'",))

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return node

    def expr(self):
        self.descend(_GROUP)
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            node = BinOp(self.advance()[1], node, self.term())
        self.depth -= _GROUP
        return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            self.descend(1)
            node = BinOp("^", node, self.factor())
            self.depth -= 1
        return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.descend(1)
            node = Neg(self.unary())
            self.depth -= 1
            return node
        return self.atom()

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number {text!r} overflows to infinity", offset, ())
            self.advance()
            return Num(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function '{text}'", offset,
                        tuple(sorted(FUNCTIONS)),
                    )
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == "op" and self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                arity = FUNCTIONS[text][1]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"function '{text}' takes {arity} argument(s), got {len(args)}",
                        offset, (),
                    )
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(source):
    """Parse a source string into an immutable expression tree."""
    tree = _Parser(source).parse()
    height, stack = 0, [(tree, 1)]  # levels of the tree, counted without recursion
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, Neg):
            stack.append((node.child, level + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, Call):
            stack += [(arg, level + 1) for arg in node.args]
    if height > MAX_DEPTH:
        raise ExprError(f"expression nests deeper than {MAX_DEPTH} levels ({height})")
    return tree


def evaluate(node, binding):
    """The value of one tree under a name -> scalar binding, as a field of
    :func:`compile_field` gives it (the tree's text labels a non-finite value)."""
    names = tuple(binding)
    return compile_field([node], names, [f"'{pretty(node)}'"])([binding[k] for k in names])[0]


def _checked_div(left, right):
    """left/right; a zero divisor that is no jet raises "division by zero"
    whatever its type (a lane array zero on some lanes splits its batch)."""
    if not isinstance(left, dual.Jet) and not isinstance(right, dual.Jet):
        if dual.branch(right == 0.0):
            raise DomainError("division by zero")
    return left / right


# Names the generated code calls; only these strings and the ones built
# below from integers and float reprs reach compile().
_NAMESPACE = {"_div": _checked_div, "_pow": dual.power}
_NAMESPACE.update({"_" + name: fn for name, (fn, _) in FUNCTIONS.items()})
_CALLS = {name: "_" + name for name in FUNCTIONS}


def _straight_line(trees, names):
    """Source of ``def field(c)`` returning the list of the trees' values,
    and the node of each source line (None on the first and last).

    Each node that is not a literal becomes one assignment, children
    first, left before right, in the order the trees are read.  A node
    whose right-hand side text was emitted already reuses that temporary:
    the text is built from temporaries and literal reprs only, so it keys
    equal subtrees exactly and never merges ``0.0`` with ``-0.0``.  A name
    missing from ``names`` raises :class:`UnboundVariableError`.
    """
    index = {name: k for k, name in enumerate(names)}
    temps = {}
    lines = ["def field(c):"]
    nodes = [None]

    def operand(node):
        if isinstance(node, Num):
            text = repr(node.value)
            return f"({text})" if text.startswith("-") else text
        if isinstance(node, Var):
            if node.name not in index:
                raise UnboundVariableError(node.name)
            rhs = f"c[{index[node.name]}]"
        elif isinstance(node, Neg):
            rhs = "-" + operand(node.child)
        elif isinstance(node, BinOp):
            a, b = operand(node.left), operand(node.right)
            if node.op == "^":
                rhs = f"_pow({a}, {b})"
            elif node.op == "/" and not (isinstance(node.right, Num) and node.right.value != 0.0):
                rhs = f"_div({a}, {b})"
            else:
                rhs = f"{a} {node.op} {b}"
        elif isinstance(node, Call):
            args = ", ".join(operand(arg) for arg in node.args)
            rhs = f"{_CALLS[node.name]}({args})"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        name = temps.get(rhs)
        if name is None:
            name = temps[rhs] = f"t{len(temps)}"
            lines.append(f"    {name} = {rhs}")
            nodes.append(node)
        return name

    results = [operand(tree) for tree in trees]
    lines.append("    return [" + ", ".join(results) + "]")
    nodes.append(None)
    return "\n".join(lines), nodes


def _function(source):
    """The ``field`` that generated ``source`` defines."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<field>", "exec"), namespace)
    return namespace["field"]


def compile_field(trees, names, labels):
    """One function of the coordinate list giving every tree's value, in order.

    ``names[k]`` binds to ``coords[k]``; a tree naming anything else raises
    :class:`UnboundVariableError` here, once.  A value, or any jet
    coefficient of it, that is not finite raises :class:`DomainError`
    naming the tree by its entry in ``labels``.  A ``DomainError``,
    ``ArithmeticError`` or ``ValueError`` of a binary operation or call
    becomes a :class:`DomainError` naming that subexpression ("division by
    zero" for a zero divisor of an operator), unless it names one already;
    the line of the generated code that raised gives the node.  Every other
    exception, a :class:`BatchSplit` included, passes through.
    """
    source, nodes = _straight_line(trees, names)
    straight = _function(source)
    labels = tuple(labels)
    is_finite = dual.is_finite

    def field(coords):
        try:
            values = straight(coords)
        except (DomainError, ArithmeticError, ValueError) as err:
            # the frame below this one is the generated code's
            node = nodes[err.__traceback__.tb_next.tb_lineno - 1]
            if not isinstance(node, (BinOp, Call)) or getattr(err, "where", None) is not None:
                raise
            zero = isinstance(err, ZeroDivisionError) and isinstance(node, BinOp)
            raise DomainError("division by zero" if zero else str(err),
                              where=pretty(node)) from None
        for value, label in zip(values, labels):
            if not is_finite(value):
                raise DomainError(f"non-finite value or derivative in {label}")
        return values

    return field


# Precedence levels used by the printer; must mirror the grammar.
_LEVEL_ADD = 0
_LEVEL_MUL = 1
_LEVEL_POW = 2
_LEVEL_UNARY = 3
_LEVEL_ATOM = 4


def _level(node):
    if isinstance(node, (Num, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if node.op in "+-":
        return _LEVEL_ADD
    if node.op in "*/":
        return _LEVEL_MUL
    return _LEVEL_POW


def _render(node, minimum):
    """Text of ``node``, parenthesised below level ``minimum``; one frame per level."""
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _render(node.child, _LEVEL_UNARY)
    elif isinstance(node, Call):
        text = node.name + "(" + ", ".join(_render(a, _LEVEL_ADD) for a in node.args) + ")"
    elif node.op in "+-":
        # left-associative: right operand needs the next level up
        text = _render(node.left, _LEVEL_ADD) + " " + node.op + " " + _render(node.right, _LEVEL_MUL)
    elif node.op in "*/":
        text = _render(node.left, _LEVEL_MUL) + node.op + _render(node.right, _LEVEL_POW)
    else:
        # '^' is right-associative with a unary base
        text = _render(node.left, _LEVEL_UNARY) + "^" + _render(node.right, _LEVEL_POW)
    return "(" + text + ")" if _level(node) < minimum else text


def pretty(node):
    """Render an expression to a string that re-parses to the same tree."""
    return _render(node, _LEVEL_ADD)
