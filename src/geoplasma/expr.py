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
accept (plain floats or jets).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import dual
from .errors import DomainError, ExprSyntaxError, UnboundVariableError

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
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
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
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
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
    return _Parser(source).parse()


def evaluate(node, binding):
    """Evaluate an expression under a name -> scalar binding.

    Scalars may be floats or jets; arithmetic is dispatched through
    :mod:`geoplasma.dual`.  Unbound variables raise, and math domain
    failures are re-raised with the offending subexpression attached.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return binding[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
    if isinstance(node, Neg):
        return -evaluate(node.child, binding)
    if isinstance(node, BinOp):
        left = evaluate(node.left, binding)
        right = evaluate(node.right, binding)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if not isinstance(left, dual.Jet) and not isinstance(right, dual.Jet):
                    if right == 0.0:
                        raise DomainError("division by zero")
                return left / right
            return dual.power(left, right)
        except DomainError as err:
            if err.where is None:
                raise DomainError(str(err), where=pretty(node)) from None
            raise
        except ZeroDivisionError:
            raise DomainError("division by zero", where=pretty(node)) from None
        except (ArithmeticError, ValueError) as err:
            raise DomainError(str(err), where=pretty(node)) from None
    if isinstance(node, Call):
        fn = FUNCTIONS[node.name][0]
        args = [evaluate(a, binding) for a in node.args]
        try:
            return fn(*args)
        except (DomainError, ArithmeticError, ValueError) as err:
            if getattr(err, "where", None) is None:
                raise DomainError(str(err), where=pretty(node)) from None
            raise
    raise TypeError(f"not an expression node: {node!r}")


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
    text = _render_bare(node)
    if _level(node) < minimum:
        return "(" + text + ")"
    return text


def _render_bare(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _render(node.child, _LEVEL_UNARY)
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(_render(a, _LEVEL_ADD) for a in node.args) + ")"
    if node.op in "+-":
        # left-associative: right operand needs the next level up
        return _render(node.left, _LEVEL_ADD) + " " + node.op + " " + _render(node.right, _LEVEL_MUL)
    if node.op in "*/":
        return _render(node.left, _LEVEL_MUL) + node.op + _render(node.right, _LEVEL_POW)
    # '^' is right-associative with a unary base
    return _render(node.left, _LEVEL_UNARY) + "^" + _render(node.right, _LEVEL_POW)


def pretty(node):
    """Render an expression to a string that re-parses to the same tree."""
    return _render(node, _LEVEL_ADD)
