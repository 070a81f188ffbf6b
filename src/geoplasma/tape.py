"""Record a point function once on traced floats, replay it as straight-line float code.

:func:`replayed` wraps a function of framework objects and lists of plain
floats that returns a list of floats.  Its first call runs the function on
:class:`Traced` floats, each of which carries the float of the plain run and
appends the operation that made it to a tape; the recording therefore
computes the plain run's bits.  Every condition decided on a traced value
becomes a guard: comparisons (so ``dual.branch`` and a pivot choice) and
finite tests; a :func:`largest` is one line.  A line that repeats an
earlier line's operation is that line, and ``x*1.0``, ``1.0*x``, ``x/1.0``
and ``x-0.0`` are ``x``.  The tape keeps what its outputs, its guards and
its operations that can raise need, writes a temporary read once into its
reader with only the parentheses that precedence needs, and compiles in
segments of about SEGMENT tape lines into a *path*: the same float
operations on the same operands, returning None where a guard fails; a
path of one segment is that segment's function.  Later calls replay the
paths, the last one that held first; a guard miss records another path, up
to MAX_PATHS recordings per entry.  The first call pays for the recording:
for the n = 2 stream-line frame (393 statements in 2 segments) about 13 ms
in process on a 2-core VM (tracing 4.6, the inline and dead-code pass 3.4,
``compile()`` 4.9), where a replay takes about 28 us.

The plain function runs instead, so every error text is the plain run's:

* when a replay raises;
* when a recording fails.  A traced value that meets ``float()``, ``math``,
  numpy, a truth test or a format raises :class:`Escape` and never becomes a
  constant; so does a recording past MAX_STATEMENTS operations.  If the
  plain run then succeeds, the entry records no more;
* once the entry's recordings are spent.

Like ``common.point_memo``, an entry is one set of framework objects keyed
by identity, and one entry is held.  Precedents: taping in Griewank &
Walther, *Evaluating Derivatives*, ch. 6; the trace-and-replay of ``jax.jit``.
"""

from __future__ import annotations

import functools
import math
import operator

from ._numpy import ARRAY_TYPES

# Operations a recording may trace.  The stream-line frame of an n = 2 tangent
# bundle traces about 3,000 (2,300 tape lines, 400 statements once inlined);
# an n = 3 frame would trace about 13,700 and gain too little to repay its
# recording and memory: its recording stops here, and it runs plain.
MAX_STATEMENTS = 4000
MAX_PATHS = 4
# tape lines compiled at once, which bounds the memory compile() takes: the n = 2
# stream line peaks at 34.4 MB RSS at 256, 34.6 at 512, 35.1 at 1024, 35.9 whole
SEGMENT = 1024
# deepest expression that writing temporaries into their readers builds
MAX_DEPTH = 12

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq, "!=": operator.ne}
_BINARY = {op: f"{{}} {op} {{}}" for op in _OPS}
# how tightly an emitted expression binds, loosest first; an operand binding
# less tightly than its slot of a template needs is parenthesized
_SUM, _PRODUCT, _UNARY, _ATOM = range(4)
# template -> (its binding, what each slot needs); any other template is an
# atom (a call or a name) or a statement, whose slots take any expression
_PRECEDENCE = {"-{}": (_UNARY, (_UNARY,)),
               **{_BINARY[op]: (_SUM, (_SUM, _PRODUCT)) for op in "+-"},
               **{_BINARY[op]: (_PRODUCT, (_PRODUCT, _UNARY)) for op in "*/"}}
_CALL = (_ATOM, None)
# kinds of tape line
_INPUT, _PURE, _RAISES, _DIVIDE, _GUARD = range(5)


class Escape(Exception):
    """A traced value left the recorded operations."""


class Traced:
    """A float of a recording: its plain value and the index of its tape line."""

    __slots__ = ("tape", "value", "ref")
    __array_ufunc__ = None  # numpy ufuncs refuse it; ndarray operands defer here
    __hash__ = None

    def __init__(self, tape, value, ref):
        self.tape = tape
        self.value = value
        self.ref = ref

    def __repr__(self):
        return f"Traced(t{self.ref})"

    def __neg__(self):
        return self.tape.emit(-self.value, _PURE, "-{}", (self.ref,))

    def __abs__(self):
        return self.tape.emit(abs(self.value), _PURE, "abs({})", (self.ref,))

    def apply(self, fn):
        """``fn`` (a one-argument function of floats, say ``math.sin``) of this value."""
        return self.tape.call(fn, self)

    def _escape(self, *args, **kwargs):
        raise Escape(f"the recorded value t{self.ref} left the recorded operations")

    __bool__ = __float__ = __int__ = __index__ = __complex__ = __str__ = __format__ = _escape
    __round__ = __trunc__ = __floor__ = __ceil__ = __array__ = __pow__ = __rpow__ = _escape


for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(Traced, f"__{_name}__", lambda a, b, op=_op: a.tape.binary(op, a, b))
    setattr(Traced, f"__r{_name}__", lambda a, b, op=_op: a.tape.binary(op, b, a))
for _name, _op in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="), ("eq", "=="),
                   ("ne", "!=")):
    setattr(Traced, f"__{_name}__", lambda a, b, op=_op: a.tape.compare(op, a, b))


def finite(values):
    """True when every value (plain or traced) is finite; traced ones are guarded."""
    traced = [v for v in values if isinstance(v, Traced)]
    if not all(math.isfinite(v) for v in values if not isinstance(v, Traced)):
        return False
    outcome = all(math.isfinite(v.value) for v in traced)
    if traced:
        # a finite exact sum has finite terms; where the sum overflows, the
        # replay raises and the plain run decides
        traced[0].tape.guard(f"_isfinite(_fsum(({'{}, ' * len(traced)})))", outcome,
                             [v.ref for v in traced])
    return outcome


def largest(values):
    """``max(values)``, 0.0 when empty; over traced values one tape line, whose
    replay calls ``max`` on the same operands in the same order, unguarded."""
    tape = next((v.tape for v in values if isinstance(v, Traced)), None)
    if tape is None:
        return max(values, default=0.0)
    refs = tuple(map(tape.operand, values))
    value = max(v.value if isinstance(v, Traced) else v for v in values)
    return tape.emit(value, _PURE, f"_max({', '.join(['{}'] * len(refs))})", refs)


class _Tape:
    """The lines of one recording.

    A line is (kind, template, operands); an operand is the index of the
    line that computed a traced value, or the source text of a number.
    Line k computes ``t{k}``, unless it is a guard, whose template returns
    when the condition that held at recording fails.  A division's divisor
    is its second operand.
    """

    def __init__(self):
        self.lines = []
        self.inputs = []
        self.namespace = {"_isfinite": math.isfinite, "_fsum": math.fsum, "_max": max}
        self.functions = {}
        self.numbers = {}  # (template, operands) -> the line that computes it
        self.operations = 0  # operations traced: the cost of the recording

    def input(self, value):
        self.inputs.append(len(self.lines))
        self.lines.append((_INPUT, "", ()))
        return Traced(self, value, len(self.lines) - 1)

    def operand(self, x):
        """Line index of a traced value, source text of a number, or None."""
        if isinstance(x, Traced):
            if x.tape is not self:
                raise Escape("values of two recordings meet")
            return x.ref
        if isinstance(x, float):
            if not math.isfinite(x):
                name = f"_k{len(self.namespace)}"  # inf and nan keep their object
                self.namespace[name] = x
                return name
            return float.__repr__(x)
        if isinstance(x, int):
            return int.__repr__(x)
        return None

    def emit(self, value, kind, template, operands):
        self.operations += 1
        if self.operations > MAX_STATEMENTS:
            raise Escape(f"the recording exceeds {MAX_STATEMENTS} operations")
        key = template, operands
        ref = self.numbers.get(key)
        if ref is None:  # else an earlier line computes the same operation
            ref = self.numbers[key] = len(self.lines)
            self.lines.append((kind, template, operands))
        return Traced(self, value, ref)

    def guard(self, condition, outcome, operands):
        self.lines.append((_GUARD, f"if {'not ' if outcome else ''}{condition}: return",
                           tuple(operands)))

    def binary(self, op, a, b):
        if type(a) is Traced is type(b) and a.tape is self is b.tape:
            return self.emit(_OPS[op](a.value, b.value), _DIVIDE if op == "/" else _PURE,
                             _BINARY[op], (a.ref, b.ref))
        ra, rb = self.operand(a), self.operand(b)
        if ra is None or rb is None:
            return NotImplemented
        # x*1.0, 1.0*x, x/1.0 and x-0.0 are x on every double; 0.0+x and x*0.0 are not
        if rb == "1.0" and op in "*/" or rb == "0.0" and op == "-":
            return a
        if ra == "1.0" and op == "*":
            return b
        value = _OPS[op](a.value if isinstance(a, Traced) else a,
                         b.value if isinstance(b, Traced) else b)
        # a division raises on a zero divisor only, which a constant is not here
        kind = _DIVIDE if op == "/" and isinstance(b, Traced) else _PURE
        return self.emit(value, kind, _BINARY[op], (ra, rb))

    def compare(self, op, a, b):
        ra, rb = self.operand(a), self.operand(b)
        if ra is None or rb is None:
            return NotImplemented
        outcome = _OPS[op](a.value if isinstance(a, Traced) else a,
                           b.value if isinstance(b, Traced) else b)
        self.guard(_BINARY[op], outcome, (ra, rb))
        return outcome

    def call(self, fn, x):
        name = self.functions.get(fn)
        if name is None:
            name = self.functions[fn] = f"_f{len(self.functions)}"
            self.namespace[name] = fn
        return self.emit(fn(x.value), _RAISES, name + "({})", (x.ref,))

    def compile(self, outputs):
        """The path from the tape's inputs to ``outputs``, None on a guard miss."""
        results = [self.operand(v) for v in outputs]
        if None in results:
            raise Escape("an output is not a float")
        lines = self.lines
        # keep guards, what can raise and what outputs read; a division that
        # nothing reads keeps the check of its divisor only
        needed = bytearray(len(lines))
        uses = [0] * len(lines)
        for k in range(len(lines), -1, -1):  # k = len(lines): the outputs
            if k == len(lines):
                operands = results
            else:
                kind, _, operands = lines[k]
                if not needed[k]:
                    if kind == _DIVIDE:
                        operands = operands[1:]
                        lines[k] = (_GUARD, "if {} == 0.0: return", operands)
                    elif kind != _GUARD and kind != _RAISES:
                        continue
                    needed[k] = 1
            for ref in operands:
                if type(ref) is int:
                    needed[ref] = 1
                    uses[ref] += 1
        # statements (target or None, text, temporaries read, tape lines in
        # it); a temporary read once is written into its reader
        statements = []
        inline = {}
        guards = set()  # a guard with an earlier guard's text tests what has held

        def expand(template, operands):
            """``template`` on ``operands``: text, reads, depth, tape lines, binding."""
            binding, needs = _PRECEDENCE.get(template, _CALL)
            parts, reads, depth, size = [], [], 0, 1
            for slot, ref in enumerate(operands):
                if type(ref) is str:  # a number binds as tightly as any slot needs
                    parts.append(ref)
                elif ref in inline:
                    text, more, inner, lines_in, level = inline.pop(ref)
                    parts.append(f"({text})" if needs and level < needs[slot] else text)
                    reads += more
                    if inner > depth:
                        depth = inner
                    size += lines_in
                else:
                    parts.append(f"t{ref}")
                    reads.append(ref)
            return template.format(*parts), reads, depth, size, binding

        for k, (kind, template, operands) in enumerate(lines):
            if not needed[k] or kind == _INPUT:
                continue
            text, reads, depth, size, binding = expand(template, operands)
            if kind == _GUARD:
                if text not in guards:
                    guards.add(text)
                    statements.append((None, text, reads, size))
            elif uses[k] == 1 and depth < MAX_DEPTH:
                inline[k] = (text, reads, depth + 1, size, binding)
            else:
                statements.append((k, f"t{k} = {text}", reads, size))
        text, reads, _, size, _ = expand("return [" + ", ".join(["{}"] * len(results)) + "]",
                                         results)
        statements.append((None, text, reads, size))
        return _link(statements, self.inputs, self.namespace)


def _link(statements, inputs, namespace):
    """The path running ``statements`` (the last one returns the outputs),
    compiled in segments of about SEGMENT tape lines that hand on the
    temporaries later segments read."""
    last = {}  # temporary -> index of the last statement reading it
    for index, (_, _, reads, _) in enumerate(statements):
        for ref in reads:
            last[ref] = index
    cuts = [0]
    size = 0
    for index, statement in enumerate(statements):
        if size >= SEGMENT:
            cuts.append(index)
            size = 0
        size += statement[3]
    cuts.append(len(statements))
    segments = []
    carried = inputs
    for start, end in zip(cuts, cuts[1:]):
        chunk = statements[start:end]
        params = carried
        body = [f"    {text}" for _, text, _, _ in chunk]
        if end < len(statements):
            defined = params + [target for target, _, _, _ in chunk if target is not None]
            carried = [ref for ref in defined if last.get(ref, -1) >= end]
            body.append(f"    return ({''.join(f't{ref}, ' for ref in carried)})")
        source = f"def segment({', '.join(f't{ref}' for ref in params)}):\n" + "\n".join(body)
        scope = dict(namespace)
        exec(compile(source, "<replay>", "exec"), scope)
        segments.append(scope["segment"])

    if len(segments) == 1:
        path = segments[0]
    else:
        def path(*state):
            for segment in segments:
                state = segment(*state)
                if state is None:
                    return None
            return state

    path.statements = len(statements) - 1
    return path


class _Entry:
    """The compiled paths of one entry, most recently used first."""

    def __init__(self, statics):
        self.statics = statics  # keeps the keyed ids alive
        self.paths = []
        self.recordings = 0

    def record(self, fn, args):
        """``fn(*args)``, recording a new path while recordings are left."""
        if self.recordings >= MAX_PATHS:
            return fn(*args)
        self.recordings += 1
        tape = _Tape()
        traced = [[tape.input(v) for v in arg] if _holds_inputs(arg) else arg
                  for arg in args]
        try:
            outputs = fn(*traced)
            path = tape.compile(outputs)
        except Exception:
            out = fn(*args)  # raises where the point fails
            self.recordings = MAX_PATHS  # fn does not record: stop trying
            return out
        self.paths.insert(0, path)
        return [v.value if isinstance(v, Traced) else v for v in outputs]


def _holds_inputs(arg):
    """Whether a call argument holds inputs: a list, tuple or array."""
    return isinstance(arg, (list, tuple)) or ARRAY_TYPES[type(arg)]


def replayed(fn):
    """``fn`` replayed from recorded paths; see the module docstring.

    ``fn(*args)`` returns a list of floats.  Its list, tuple and ndarray
    arguments are the inputs; the others are framework objects, keyed by
    identity.  A call whose inputs are not all plain floats (jets, traced
    values, lane arrays, or the numpy scalars of an ndarray argument) runs
    ``fn`` itself.  Telling an ndarray argument apart imports no numpy
    (``geoplasma._numpy.ARRAY_TYPES``).
    """
    memo = {}

    @functools.wraps(fn, updated=())
    def run(*args):
        key = []
        inputs = []
        for arg in args:
            if isinstance(arg, (list, tuple)) or ARRAY_TYPES[type(arg)]:  # _holds_inputs
                key.append(len(arg))
                inputs.extend(arg)  # += on an ndarray would broadcast
            else:
                key.append(id(arg))
        for v in inputs:
            if type(v) is not float:
                return fn(*args)
        key = tuple(key)
        entry = memo.get(key)
        if entry is None:
            memo.clear()
            entry = memo[key] = _Entry([a for a in args if not _holds_inputs(a)])
        paths = entry.paths
        for path in paths:
            try:
                out = path(*inputs)
            except Exception:  # the plain run raises its own error, or returns
                return fn(*args)
            if out is not None:
                if path is not paths[0]:
                    paths.remove(path)
                    paths.insert(0, path)
                return out
        return entry.record(fn, args)

    def paths():
        """Statement counts of the held entry's paths, most recently used first."""
        return [path.statements for entry in memo.values() for path in entry.paths]

    run.cache_clear = memo.clear
    run.paths = paths
    return run
