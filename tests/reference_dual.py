"""Forward-mode automatic differentiation on truncated multivariate jets.

The general engine: mixed partials up to order 3 and nested seedings.
The package's ``geoplasma.dual`` is its first-order, single-seeding
restriction; tests keep this one as the reference to compare against
and for the derivatives the package does not take (second fiber
derivatives of a Finsler function or a Lagrangian).

A :class:`Jet` stores the Taylor coefficients of a scalar quantity with
respect to a declared set of seed variables, truncated at a fixed order
(at most 3).  Arithmetic propagates all mixed partial derivatives exactly
(to rounding).  Coefficients may themselves be jets from an *earlier*
seeding, which is what makes nested differentiation work: an inner jet
treats every outer jet as a constant.

The value slot of every composite mirrors the plain-float computation
operation for operation, so evaluating with jets and evaluating with
floats agree bit for bit on the value part.

The product of two jets of one context runs a straight-line kernel
generated once per (seed count, order) from the table of slot triples
and cached with the key tables; it adds the same terms in the same order
as a loop over that table would.

Coordinates entering the engine are plain Python floats, converted at
the input boundary: a ``numpy.float64`` costs about twice as much per
scalar operation and spreads into every coefficient.

A batch of points runs through the same code with a float64 *lane array*
(one lane per point) wherever a point value stands; each lane gets the
bits of the scalar run, and :func:`branch` splits a batch whose lanes
disagree on a condition.  Here a lane jet is a list whose coefficients
may be lane arrays or plain floats; the package's lane jets hold one
(1 + m, B) array.
"""

from __future__ import annotations

import itertools
import math
from itertools import combinations_with_replacement

import numpy as np

from geoplasma.errors import BatchSplit, DomainError

MAX_ORDER = 3

_TABLE_CACHE = {}


def _tables(nseeds, order):
    """Key list, key->position map and product kernel for (m, k), cached."""
    try:
        return _TABLE_CACHE[(nseeds, order)]
    except KeyError:
        pass
    keys = [()]
    for length in range(1, order + 1):
        keys.extend(combinations_with_replacement(range(nseeds), length))
    pos = {key: i for i, key in enumerate(keys)}
    triples = []
    for ia, ka in enumerate(keys):
        for ib, kb in enumerate(keys):
            if len(ka) + len(kb) <= order:
                triples.append((ia, ib, pos[tuple(sorted(ka + kb))]))
    tables = (tuple(keys), pos, _product_kernel(len(keys), triples))
    _TABLE_CACHE[(nseeds, order)] = tables
    return tables


def _product_kernel(nkeys, triples):
    """Straight-line coefficient product generated from the triples table.

    One flat statement per triple, in table order: the first term of an
    output slot is ``0.0 + a*b`` and each later one ``o + a*b``, exactly
    the accumulation of ``out[io] = out[io] + ac[ia] * bc[ib]`` over a
    zero-filled ``out``.  The source is built from integers only.
    """
    lines = [
        "def mul(ac, bc):",
        "    " + ", ".join(f"a{i}" for i in range(nkeys)) + ", = ac",
        "    " + ", ".join(f"b{i}" for i in range(nkeys)) + ", = bc",
    ]
    started = set()
    for ia, ib, io in triples:
        acc = f"o{io}" if io in started else "0.0"
        started.add(io)
        lines.append(f"    o{io} = {acc} + a{ia}*b{ib}")
    lines.append("    return [" + ", ".join(f"o{i}" for i in range(nkeys)) + "]")
    namespace = {}
    exec(compile("\n".join(lines), f"<jet product {nkeys}>", "exec"), namespace)
    return namespace["mul"]


class SeedContext:
    """Identity token for one seeding event.

    Jets interoperate coefficient-wise only when they share the same
    context object.  A context created later is *inner*: its arithmetic
    treats jets of earlier contexts as constants.  This ordering is what
    keeps nested differentiation sound; never reuse a context across two
    independent seedings.
    """

    __slots__ = ("nseeds", "order", "level", "keys", "pos", "mul", "nkeys")

    _counter = itertools.count(1)

    def __init__(self, nseeds, order):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(
                f"derivative order must be between 1 and {MAX_ORDER}, got {order}"
            )
        if nseeds < 1:
            raise ValueError("need at least one seed variable")
        self.nseeds = nseeds
        self.order = order
        self.keys, self.pos, self.mul = _tables(nseeds, order)
        self.nkeys = len(self.keys)
        self.level = next(SeedContext._counter)


class Jet:
    """Truncated Taylor expansion of a scalar in the seeds of one context."""

    __slots__ = ("ctx", "c")
    __array_ufunc__ = None  # an ndarray operand is a lane array: ndarray + jet defers here

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.c = coeffs

    @classmethod
    def variable(cls, ctx, seed, value):
        c = [0.0] * ctx.nkeys
        c[0] = value
        c[ctx.pos[(seed,)]] = 1.0
        return cls(ctx, c)

    @classmethod
    def constant(cls, ctx, value):
        c = [0.0] * ctx.nkeys
        c[0] = value
        return cls(ctx, c)

    @property
    def value(self):
        return self.c[0]

    def d(self, *seeds):
        """Partial derivative with respect to the given seed indices.

        Repeated indices give higher derivatives: ``j.d(0, 0)`` is the
        second derivative in seed 0.  The coefficient is rescaled by the
        multiplicity factorials, so this returns the true derivative.
        """
        key = tuple(sorted(seeds))
        if len(key) > self.ctx.order:
            raise ValueError(
                f"derivative of order {len(key)} not tracked (order {self.ctx.order})"
            )
        coeff = self.c[self.ctx.pos[key]]
        mult = 1
        run = 1
        for a, b in zip(key, key[1:]):
            run = run + 1 if a == b else 1
            mult *= run
        return coeff * mult if mult != 1 else coeff

    def __repr__(self):
        return f"Jet(order={self.ctx.order}, value={self.c[0]!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return Jet(self.ctx, [a + b for a, b in zip(self.c, other.c)])
            if other.ctx.level > self.ctx.level:
                return other.__radd__(self)
            # fall through: other is an outer-level constant
        elif not isinstance(other, (int, float, np.ndarray)):
            return NotImplemented
        c = list(self.c)
        c[0] = c[0] + other
        return Jet(self.ctx, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return Jet(self.ctx, [a - b for a, b in zip(self.c, other.c)])
            if other.ctx.level > self.ctx.level:
                return other.__rsub__(self)
        elif not isinstance(other, (int, float, np.ndarray)):
            return NotImplemented
        c = list(self.c)
        c[0] = c[0] - other
        return Jet(self.ctx, c)

    def __rsub__(self, other):
        c = [-x for x in self.c]
        c[0] = other + c[0]
        return Jet(self.ctx, c)

    def __neg__(self):
        return Jet(self.ctx, [-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return Jet(self.ctx, self.ctx.mul(self.c, other.c))
            if other.ctx.level > self.ctx.level:
                return other.__rmul__(self)
        elif not isinstance(other, (int, float, np.ndarray)):
            return NotImplemented
        return Jet(self.ctx, [x * other for x in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return _div(self.ctx, self.c, other)
            if other.ctx.level > self.ctx.level:
                return other.__rtruediv__(self)
        elif not isinstance(other, (int, float, np.ndarray)):
            return NotImplemented
        elif branch(other == 0.0):  # a plain zero: the scalar run's error, also on lanes
            raise ZeroDivisionError("float division by zero")
        return Jet(self.ctx, [x / other for x in self.c])

    def __rtruediv__(self, other):
        num = [0.0] * self.ctx.nkeys
        num[0] = other
        return _div(self.ctx, num, self)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def _compose(self, derivs):
        """Evaluate f(self) from the derivatives of f at the value slot.

        ``derivs[k]`` is the k-th derivative of f at ``self.value``
        (entries may be outer jets).  Horner evaluation in the deviation
        w = self - value keeps the value slot bit-exact.
        """
        order = self.ctx.order
        w = list(self.c)
        w[0] = 0.0
        w = Jet(self.ctx, w)
        acc = derivs[order] * _INV_FACT[order]
        for k in range(order - 1, -1, -1):
            acc = w * acc + derivs[k] * _INV_FACT[k]
        return acc


_INV_FACT = (1.0, 1.0, 0.5, 1.0 / 6.0)


def _div(ctx, num_coeffs, den):
    """Series division num/den inside one context.

    Fixed-point refinement q <- (num - (den - den0) q) / den0 gains one
    correct order per sweep; the value slot stays num0/den0 exactly.
    """
    den0 = den.c[0]
    if branch(scalar_value(den0) == 0.0):
        raise DomainError("division by zero")
    w = list(den.c)
    w[0] = 0.0
    w = Jet(ctx, w)
    q = Jet(ctx, [x / den0 for x in num_coeffs])
    num = Jet(ctx, list(num_coeffs))
    for _ in range(ctx.order):
        r = num - w * q
        q = Jet(ctx, [x / den0 for x in r.c])
    return q


def scalar_value(x):
    """Innermost plain value of a possibly nested jet."""
    while isinstance(x, Jet):
        x = x.c[0]
    return x


def is_finite(x):
    """True when x, or every coefficient of a jet at any depth, is finite."""
    if not isinstance(x, Jet):
        return math.isfinite(x) if not isinstance(x, np.ndarray) else bool(np.isfinite(x).all())
    try:
        # a finite exact sum of floats has only finite terms; a jet
        # coefficient, an overflowing sum or inf - inf take the long way
        if math.isfinite(math.fsum(x.c)):
            return True
    except (TypeError, OverflowError, ValueError):
        pass
    return all(map(is_finite, x.c))


def promote(x, ctx):
    """Lift a scalar into ``ctx`` as a constant unless it already lives there."""
    if isinstance(x, Jet) and x.ctx is ctx:
        return x
    return Jet.constant(ctx, x)


def seed(values, seeds=None, order=1):
    """Wrap selected entries of ``values`` as jet variables.

    Returns ``(wrapped_values, ctx)``.  Entries not listed in ``seeds``
    are left untouched (they behave as constants).  Incoming entries may
    already be jets from an outer seeding.
    """
    if seeds is None:
        seeds = range(len(values))
    seeds = list(seeds)
    ctx = SeedContext(len(seeds), order)
    out = list(values)
    for k, i in enumerate(seeds):
        out[i] = Jet.variable(ctx, k, values[i])
    return out, ctx


def branch(cond):
    """Truth of a condition on point values; a lane array's lanes must agree."""
    if isinstance(cond, np.ndarray):
        if cond.all():
            return True
        if cond.any():
            raise BatchSplit(cond)
        return False
    return cond


# -- elementary functions, generic over floats, lane arrays and jets -------


def _plain(fn, x):
    """``fn`` of a plain value; of a lane array, ``fn`` of each lane."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.tolist()])


def sin(x):
    if isinstance(x, Jet):
        v = x.c[0]
        s, c = sin(v), cos(v)
        return x._compose((s, c, -s, -c)[: x.ctx.order + 1])
    return _plain(math.sin, x)


def cos(x):
    if isinstance(x, Jet):
        v = x.c[0]
        s, c = sin(v), cos(v)
        return x._compose((c, -s, -c, s)[: x.ctx.order + 1])
    return _plain(math.cos, x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.c[0])
        return x._compose((e,) * (x.ctx.order + 1))
    return _plain(math.exp, x)


def log(x):
    if isinstance(x, Jet):
        v = x.c[0]
        if branch(scalar_value(v) <= 0.0):
            raise DomainError("log of non-positive value")
        iv = 1.0 / v
        iv2 = iv * iv
        return x._compose((log(v), iv, -iv2, 2.0 * iv2 * iv)[: x.ctx.order + 1])
    if branch(x <= 0.0):
        raise DomainError("log of non-positive value")
    return _plain(math.log, x)


def sqrt(x):
    if isinstance(x, Jet):
        v = x.c[0]
        if branch(scalar_value(v) <= 0.0):
            raise DomainError("sqrt of non-positive value")
        s = sqrt(v)
        h = 0.5 / s
        d2 = -0.5 * h / v
        d3 = -1.5 * d2 / v
        return x._compose((s, h, d2, d3)[: x.ctx.order + 1])
    if branch(x < 0.0):
        raise DomainError("sqrt of negative value")
    return _plain(math.sqrt, x)


def tanh(x):
    if isinstance(x, Jet):
        t = tanh(x.c[0])
        sech2 = 1.0 - t * t
        d2 = -2.0 * t * sech2
        d3 = sech2 * (6.0 * t * t - 2.0)
        return x._compose((t, sech2, d2, d3)[: x.ctx.order + 1])
    return _plain(math.tanh, x)


def _ipow(x, e):
    """x**e for integer e >= 1 by binary exponentiation (generic scalars)."""
    acc = None
    base = x
    while True:
        if e & 1:
            acc = base if acc is None else acc * base
        e >>= 1
        if not e:
            return acc
        base = base * base


def power(base, exponent):
    """base ** exponent over floats, lane arrays and jets.

    Integer exponents use repeated multiplication (valid for negative
    bases); everything else goes through exp(exponent * log(base)).  The
    lanes of an exponent must agree on which, and on the integer.
    """
    if isinstance(exponent, Jet):
        return exp(exponent * log(base))
    if isinstance(exponent, int):
        e = exponent
    elif isinstance(exponent, float) and exponent.is_integer():
        e = int(exponent)
    elif isinstance(exponent, np.ndarray) and branch(
            np.isfinite(exponent) & (exponent == np.trunc(exponent))):
        e = exponent.flat[0]
        branch(exponent == e)  # lanes of another integer run apart
        e = int(e)
    else:
        return exp(exponent * log(base))
    if e == 0:
        return 1.0
    if e < 0:
        d = _ipow(base, -e)
        if not isinstance(d, Jet) and branch(d == 0.0):  # lanes: the scalar run's error
            raise ZeroDivisionError("float division by zero")
        return 1.0 / d
    return _ipow(base, e)
