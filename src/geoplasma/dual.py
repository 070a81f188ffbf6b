"""First-order forward-mode automatic differentiation.

A :class:`Jet` holds a value and one partial derivative per seed of one
seeding, ``c = [value, d/ds_0, ..., d/ds_{m-1}]``.  Jets combine only with
plain scalars and with jets of the same seeding; mixing two seedings, or
seeding a value that is already a jet, raises :class:`SeedingError`.

The value slot of every composite mirrors the plain-float computation
operation for operation, so evaluating with jets and evaluating with
floats agree bit for bit on the value part.

Coordinates entering the engine are plain Python floats, converted at
the input boundary: a ``numpy.float64`` costs about twice as much per
scalar operation and spreads into every coefficient.  On plain floats a
jet's coefficients are a list, and the product of two jets runs a
straight-line kernel generated once per seed count.

A batch of points runs through the same code with a float64 *lane array*
of shape (B,), one lane per point, wherever a point value stands.  Seeding
values that include lane arrays gives a context of B lanes, and every jet
of it holds its coefficients as one (1 + m, B) float64 array: row 0 the
values, row 1 + k the partials along seed k, constants broadcast into
their rows.  Each operation applies the plain-float formula of every slot
to whole rows, in the same order, so each lane gets the bits of the scalar
run; :func:`branch` splits a batch whose lanes disagree on a condition.
A recording (:mod:`geoplasma.tape`) runs the same code with a traced float
wherever a plain float stands.
"""

from __future__ import annotations

import functools
import math

from . import _numpy as np
from ._numpy import ARRAY_TYPES
from .errors import BatchSplit, DomainError, SeedingError
from .tape import Escape, Traced, finite

# what a jet combines with besides jets of its seeding: plain scalars, the
# traced floats of a recording (see tape.py) and lane arrays (ARRAY_TYPES)
_SCALARS = (int, float, Traced)


@functools.cache
def _product_kernel(nseeds):
    """Straight-line product of two coefficient lists of ``nseeds`` seeds.

    The value slot is ``0.0 + a0*b0`` and gradient slot j is
    ``(0.0 + a0*bj) + aj*b0``.  The source is built from integers only.
    """
    m = nseeds + 1
    slots = ["0.0 + a0*b0"] + [f"0.0 + a0*b{j} + a{j}*b0" for j in range(1, m)]
    source = "\n".join([
        "def mul(ac, bc):",
        "    " + ", ".join(f"a{i}" for i in range(m)) + ", = ac",
        "    " + ", ".join(f"b{i}" for i in range(m)) + ", = bc",
        "    return [" + ", ".join(slots) + "]",
    ])
    namespace = {}
    exec(compile(source, f"<jet product {nseeds}>", "exec"), namespace)
    return namespace["mul"]


def _lane_product(a, b):
    """The product kernel on (1 + m, B) coefficient arrays, slot for slot:
    ``0.0 + a0*b0`` and ``(0.0 + a0*bj) + aj*b0``."""
    out = a[0] * b
    out += 0.0
    out[1:] += a[1:] * b[0]
    return out


class SeedContext:
    """Identity token for one seeding event: jets interoperate only within it.

    ``lanes`` is the lane count B of a batch, whose jets hold (1 + m, B)
    arrays, or None for plain floats, whose jets hold lists.
    """

    __slots__ = ("nkeys", "lanes", "mul")

    def __init__(self, nseeds, lanes=None):
        if nseeds < 1:
            raise ValueError("need at least one seed variable")
        self.nkeys = nseeds + 1
        self.lanes = lanes
        self.mul = _product_kernel(nseeds) if lanes is None else _lane_product

    def zeros(self):
        """Coefficients of the zero jet."""
        if self.lanes is None:
            return [0.0] * self.nkeys
        return np.zeros((self.nkeys, self.lanes))


def _mixed():
    return SeedingError("jets of two different seedings meet in one operation")


class Jet:
    """Value and first partials of a scalar in the seeds of one context."""

    __slots__ = ("ctx", "c")
    __array_ufunc__ = None  # an ndarray operand is a lane array: ndarray + jet defers here

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.c = coeffs

    @classmethod
    def variable(cls, ctx, seed, value):
        c = ctx.zeros()
        c[0] = value
        c[seed + 1] = 1.0
        return cls(ctx, c)

    @classmethod
    def constant(cls, ctx, value):
        c = ctx.zeros()
        c[0] = value
        return cls(ctx, c)

    @property
    def value(self):
        return self.c[0]

    def d(self, seed):
        """Partial derivative with respect to seed index ``seed``."""
        return self.c[seed + 1]

    def __repr__(self):
        return f"Jet(value={self.c[0]!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                if self.ctx.lanes is None:
                    return Jet(self.ctx, [a + b for a, b in zip(self.c, other.c)])
                return Jet(self.ctx, self.c + other.c)
            raise _mixed()
        elif not (isinstance(other, _SCALARS) or ARRAY_TYPES[type(other)]):
            return NotImplemented
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet(self.ctx, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                if self.ctx.lanes is None:
                    return Jet(self.ctx, [a - b for a, b in zip(self.c, other.c)])
                return Jet(self.ctx, self.c - other.c)
            raise _mixed()
        elif not (isinstance(other, _SCALARS) or ARRAY_TYPES[type(other)]):
            return NotImplemented
        c = self.c.copy()
        c[0] = c[0] - other
        return Jet(self.ctx, c)

    def __rsub__(self, other):
        c = [-x for x in self.c] if self.ctx.lanes is None else -self.c
        c[0] = other + c[0]
        return Jet(self.ctx, c)

    def __neg__(self):
        return Jet(self.ctx, [-x for x in self.c] if self.ctx.lanes is None else -self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return Jet(self.ctx, self.ctx.mul(self.c, other.c))
            raise _mixed()
        elif not (isinstance(other, _SCALARS) or ARRAY_TYPES[type(other)]):
            return NotImplemented
        if self.ctx.lanes is None:
            return Jet(self.ctx, [x * other for x in self.c])
        return Jet(self.ctx, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.ctx is self.ctx:
                return _div(self.ctx, self.c, other)
            raise _mixed()
        elif not (isinstance(other, _SCALARS) or ARRAY_TYPES[type(other)]):
            return NotImplemented
        if self.ctx.lanes is None:
            return Jet(self.ctx, [x / other for x in self.c])
        if branch(other == 0.0):  # the error of the scalar run, lane by lane
            raise ZeroDivisionError("float division by zero")
        return Jet(self.ctx, self.c / other)

    def __rtruediv__(self, other):
        num = self.ctx.zeros()
        num[0] = other
        return _div(self.ctx, num, self)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)


def _compose(x, d0, d1):
    """f(x) from f = d0 and f' = d1 at the value slot of x.

    The first-order Taylor sum in the deviation from the value: the value
    slot is ``0.0*d1 + d0``, so an infinite or NaN derivative reaches it.
    """
    if x.ctx.lanes is None:
        return Jet(x.ctx, [0.0 * d1 + d0] + [v * d1 for v in x.c[1:]])
    c = x.c * d1
    c[0] = 0.0 * d1 + d0
    return Jet(x.ctx, c)


def _div(ctx, num, den):
    """Series division num/den inside one context.

    One refinement sweep q <- (num - (den - den0) q) / den0 through the
    product kernel: the value slot stays num0/den0 exactly where that is
    finite, and becomes NaN where it is not.
    """
    den0 = den.c[0]
    if branch(den0 == 0.0):
        raise DomainError("division by zero")
    if ctx.lanes is None:
        q = [x / den0 for x in num]
        wq = ctx.mul([0.0] + den.c[1:], q)
        return Jet(ctx, [(a - b) / den0 for a, b in zip(num, wq)])
    dev = den.c.copy()
    dev[0] = 0.0
    return Jet(ctx, (num - ctx.mul(dev, num / den0)) / den0)


def scalar_value(x):
    """Plain value of a jet, or x itself."""
    return x.c[0] if isinstance(x, Jet) else x


def _finite(x):
    if type(x) is float:
        return math.isfinite(x)
    if ARRAY_TYPES[type(x)]:
        return bool(np.isfinite(x).all())
    return finite([x]) if isinstance(x, Traced) else math.isfinite(x)


def is_finite(x):
    """True when x, or every coefficient of a jet, is finite."""
    if not isinstance(x, Jet):
        return _finite(x)
    if x.ctx.lanes is not None:
        return _finite(x.c)
    if any(isinstance(v, Traced) for v in x.c):
        return finite(x.c)
    try:
        # a finite exact sum of floats has only finite terms; an
        # overflowing sum or inf - inf takes the long way
        if math.isfinite(math.fsum(x.c)):
            return True
    except (OverflowError, ValueError):
        pass
    return all(map(math.isfinite, x.c))


def promote(x, ctx):
    """Lift a scalar into ``ctx`` as a constant unless it already lives there."""
    if isinstance(x, Jet):
        if x.ctx is ctx:
            return x
        raise _mixed()
    return Jet.constant(ctx, x)


def seed(values, seeds=None):
    """Wrap selected entries of ``values`` as jet variables.

    Returns ``(wrapped_values, ctx)``.  Entries not listed in ``seeds``
    are left untouched (they behave as constants); none may be a jet.
    When any entry is a lane array, the context has its lane count.
    """
    if any(isinstance(v, Jet) for v in values):
        raise SeedingError("seeding values that are already jets")
    if seeds is None:
        seeds = range(len(values))
    seeds = list(seeds)
    lanes = next((len(v) for v in values
                  if type(v) is not float and ARRAY_TYPES[type(v)]), None)
    ctx = SeedContext(len(seeds), lanes)
    out = list(values)
    for k, i in enumerate(seeds):
        out[i] = Jet.variable(ctx, k, values[i])
    return out, ctx


def branch(cond):
    """Truth of a condition on point values; a lane array's lanes must agree."""
    if type(cond) is bool or not ARRAY_TYPES[type(cond)]:
        return cond
    if cond.all():
        return True
    if cond.any():
        raise BatchSplit(cond)
    return False


# -- elementary functions, generic over floats, lane arrays and jets -------


def _plain(fn, x):
    """``fn`` of a plain value; of a lane array, ``fn`` of each lane; of a
    traced float, the recorded call."""
    if type(x) is float:
        return fn(x)
    if ARRAY_TYPES[type(x)]:
        return np.array([fn(v) for v in x.tolist()])
    return x.apply(fn) if isinstance(x, Traced) else fn(x)


def sin(x):
    if isinstance(x, Jet):
        v = x.c[0]
        return _compose(x, sin(v), cos(v))
    return _plain(math.sin, x)


def cos(x):
    if isinstance(x, Jet):
        v = x.c[0]
        return _compose(x, cos(v), -sin(v))
    return _plain(math.cos, x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.c[0])
        return _compose(x, e, e)
    return _plain(math.exp, x)


def log(x):
    if isinstance(x, Jet):
        v = x.c[0]
        if branch(v <= 0.0):
            raise DomainError("log of non-positive value")
        return _compose(x, log(v), 1.0 / v)
    if branch(x <= 0.0):
        raise DomainError("log of non-positive value")
    return _plain(math.log, x)


def sqrt(x):
    if isinstance(x, Jet):
        v = x.c[0]
        if branch(v <= 0.0):
            raise DomainError("sqrt of non-positive value")
        s = sqrt(v)
        return _compose(x, s, 0.5 / s)
    if branch(x < 0.0):
        raise DomainError("sqrt of negative value")
    return _plain(math.sqrt, x)


def tanh(x):
    if isinstance(x, Jet):
        t = tanh(x.c[0])
        return _compose(x, t, 1.0 - t * t)
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
    if isinstance(exponent, Traced):  # its integer test would decide a branch unguarded
        raise Escape("a recorded exponent")
    if isinstance(exponent, int):
        e = exponent
    elif isinstance(exponent, float) and exponent.is_integer():
        e = int(exponent)
    elif ARRAY_TYPES[type(exponent)] and branch(
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
