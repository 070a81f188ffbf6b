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

Two evaluators share these semantics.  :func:`compile_field` turns the
trees of one field (say all upper-triangle entries of a metric) into one
straight-line Python function of the coordinate list, generated once from
the parsed trees: it runs every operation of the trees with the same
operands in the same order, computes identical subtrees once, and so
returns the same bits as the tree walker :func:`evaluate`.  The walker
stays the reference: the compiled field re-runs it whenever the compiled
code raises, so every error and its subexpression text are the walker's
(a batch split passes through: the walker would raise the same one).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import dual
from .errors import BatchSplit, DomainError, ExprError, ExprSyntaxError, UnboundVariableError

# Deepest expression accepted (deeper ones are an ExprError), in tree levels
# and in frames of parser recursion, where a group or call argument recurses
# through all five grammar rules.  The recursive parser, compiler, walker and
# printer then stay well under Python's default recursion limit of 1000.
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
                    if dual.branch(right == 0.0):
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


def _checked_div(left, right):
    """left/right with the walker's zero check on a plain divisor."""
    if not isinstance(left, dual.Jet) and not isinstance(right, dual.Jet):
        if dual.branch(right == 0.0):
            raise DomainError("division by zero")
    return left / right


def _unbound():
    raise LookupError("unbound variable")


# Names the generated code calls; only these strings and the ones built
# below from integers and float reprs reach compile().
_NAMESPACE = {"_div": _checked_div, "_pow": dual.power, "_unbound": _unbound}
_NAMESPACE.update({"_" + name: fn for name, (fn, _) in FUNCTIONS.items()})
_CALLS = {name: "_" + name for name in FUNCTIONS}


def _straight_line(trees, names):
    """Source of ``def field(c)`` returning the list of the trees' values.

    Each node that is not a literal becomes one assignment, children
    first, left before right, as the walker visits them.  A node whose
    right-hand side text was emitted already reuses that temporary: the
    text is built from temporaries and literal reprs only, so it keys
    equal subtrees exactly and never merges ``0.0`` with ``-0.0``.
    """
    index = {name: k for k, name in enumerate(names)}
    temps = {}
    lines = ["def field(c):"]

    def operand(node):
        if isinstance(node, Num):
            text = repr(node.value)
            return f"({text})" if text.startswith("-") else text
        if isinstance(node, Var):
            k = index.get(node.name)
            rhs = "_unbound()" if k is None else f"c[{k}]"
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
        return name

    results = [operand(tree) for tree in trees]
    lines.append("    return [" + ", ".join(results) + "]")
    return "\n".join(lines)


def compile_trees(trees, names):
    """The generated function alone: ``coords -> [value of each tree]``.

    Bit-identical to the walker wherever the walker returns; where the
    walker raises, this raises too, but not necessarily the same error.
    """
    namespace = dict(_NAMESPACE)
    exec(compile(_straight_line(trees, names), "<field>", "exec"), namespace)
    return namespace["field"]


def compile_field(trees, names, labels):
    """One function of the coordinate list giving every tree's value, in order.

    ``names[k]`` binds to ``coords[k]``.  A value, or any jet coefficient
    of it, that is not finite raises :class:`DomainError` naming the tree
    by its entry in ``labels``.  When the generated code raises, the walker
    evaluates the trees one by one in order and raises exactly what
    evaluating them with :func:`evaluate` raises; a :class:`BatchSplit`
    passes through, since the walker would raise the same split.
    """
    trees = tuple(trees)
    names = tuple(names)
    labels = tuple(labels)
    straight = compile_trees(trees, names)
    is_finite = dual.is_finite

    def field(coords):
        try:
            values = straight(coords)
        except BatchSplit:
            raise
        except Exception:
            # the reference walker, in entry order, raises the error with
            # its subexpression text
            binding = dict(zip(names, coords))
            values = [evaluate(tree, binding) for tree in trees]
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
