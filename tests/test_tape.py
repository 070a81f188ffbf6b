"""Recorded stream-line paths replay the interpreted frame bit for bit.

``tape.replayed`` runs the stream-line frame of ``lagrange`` once on traced
floats and replays what it recorded as straight-line float code.  The
oracle is the same entry point with recording switched off
(``tape.MAX_PATHS = 0``), which runs the interpreted code: every replayed
value must have its bits, and every failure its error text.  The rules of
the tape itself (``largest``, value numbering and exact folds) are held to
the plain float operations on every double.
"""

import ast
import dataclasses
import hashlib
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoplasma import lagrange, tape
from geoplasma.dual import scalar_value
from geoplasma.errors import GeoPlasmaError
from geoplasma.scenario import build_scenario

from test_output_bytes import CASES, EXPECTED, LAGRANGE2, LAGRANGE2_LOG, run_case


# statements of the compiled frame path of the n = 2 benchmark line; 396
# while a guard whose text repeated an earlier guard's was kept when its
# template differed (a comparison and a divisor check, both `t == 0.0`)
FRAME_STATEMENTS = 393
# sha256 of the per-statement ast.dump of the eps0 form and of the frame
# recorded at the seed-1 start of the n = 2 benchmark line: how a statement
# is spelled may change, the operations it parses to may not
PROGRAM_AST_SHA256 = [
    "49b3436d773b46ee6dcad432f6e58adfae8d0d6c37ce192a8eef3fd34ac95c75",
    "fbc4a420f16d9bd2072eb81d7445e38efa17ce6ff3597b2df1f7383a8408efa9",
]


def clear_memos():
    for obj in vars(lagrange).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def outcome(call):
    """float.hex of every value ``call()`` returns, or its error type and text."""
    try:
        value = call()
    except GeoPlasmaError as err:
        return type(err).__name__, str(err)
    return [float.hex(v) for v in np.atleast_1d(value).tolist()]


def stream_line_outcomes(scenario, points):
    """eps0, the rhs and the vertical constraint at each (x, w)."""
    clear_memos()
    out = []
    for x, w in points:
        for fn in (lambda: lagrange.resolve_epsilon0(scenario.space, x, w),
                   lambda: lagrange.h_stream_line_rhs(scenario.state, scenario.space, x, w),
                   lambda: lagrange.v_stream_constraint_residual(
                       scenario.state, scenario.space, x, w)):
            out.append(outcome(fn))
    return out


def interpreted(run):
    """``run()`` with recording switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tape, "MAX_PATHS", 0)
        clear_memos()
        result = run()
    clear_memos()
    return result


def lagrange2(a, b, c, d, e, f):
    """The benchmark's fiber metric with coefficients (a, b, c, d, f) and pressure slope e."""
    fiber = f"(1 + {c!r}*(y1^2 + y2^2))"
    return build_scenario(dict(
        LAGRANGE2,
        metric=[[f"({a!r} + {b!r}*sin(x2))*{fiber}", f"{d!r}*cos(x1)*{fiber}"],
                [f"({f!r} + {b!r}*cos(x1))*{fiber}"]],
        pressure=f"0.3 + {e!r}*sin(x1)*y1",
    ))


coefficient = st.floats(-0.3, 0.3)
start = st.tuples(st.floats(-1.5, 1.5), st.floats(-0.6, 0.6),
                  st.floats(0.0, 2 * math.pi), st.floats(0.1, 0.9))


@given(
    # |g12| = |d cos(x1)| against g11 ~ a: the pivot row of the inversion,
    # the one decision that changes the bits of the frame, differs between
    # points; g22 ~ f keeps most of these metrics positive definite
    a=st.floats(0.8, 1.4), b=coefficient, c=st.floats(0.05, 1.0), d=st.floats(-1.5, 1.5),
    e=coefficient, f=st.floats(0.9, 3.0), starts=st.lists(start, min_size=2, max_size=5),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_replay_equals_interpretation(a, b, c, d, e, f, starts):
    scenario = lagrange2(a, b, c, d, e, f)
    # the first point records; each later one replays, or misses a guard and records
    points = [([x1, x2], [size * math.cos(angle), size * math.sin(angle)])
              for x1, x2, angle, size in starts]
    replayed = stream_line_outcomes(scenario, points)
    assert replayed == interpreted(lambda: stream_line_outcomes(scenario, points))


def segment_returns(call):
    """``outcome(call)`` and what each replayed segment returned, in order:
    "carry" (the temporaries it hands on), "out" (the outputs) or "miss"
    (None on a guard miss, or an exception)."""
    returns = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_name == "segment":
            returns.append("miss" if arg is None else "carry" if type(arg) is tuple else "out")

    sys.setprofile(profile)
    try:
        return outcome(call), returns
    finally:
        sys.setprofile(None)


def test_small_segments_hand_on_temporaries(monkeypatch):
    """Segments of 16 tape lines cut the frames at many places: the
    temporaries each hands on replay the interpreted bits and error texts,
    and a guard that misses after a cut records a new path."""
    monkeypatch.setattr(tape, "SEGMENT", 16)
    # |g12| = 1.4 cos(x1) exceeds g11 ~ 1 at x1 = 0.05 and 0.1, not at 1.4 and
    # 1.3: the pivot row of the inversion changes; w = 0 cannot be normalized
    pivot = lagrange2(1.0, 0.2, 0.5, 1.4, 0.1, 3.0)
    pivot_points = [([1.4, 0.3], [0.2, 0.3]), ([1.3, 0.2], [0.3, 0.2]),
                    ([0.05, 0.1], [0.2, 0.3]), ([0.1, 0.1], [0.3, -0.2]),
                    ([0.0, 0.3], [0.0, 0.0])]
    # log(x2 + 0.05) raises inside the replay at x2 = -0.1
    log = build_scenario(LAGRANGE2_LOG)
    log_points = [([0.1, 0.3], [0.3, 0.8]), ([0.1, -0.1], [0.3, 0.8]), ([0.1, -0.04], [0.3, 0.8])]
    for scenario, points in ((pivot, pivot_points), (log, log_points)):
        assert stream_line_outcomes(scenario, points) == interpreted(
            lambda: stream_line_outcomes(scenario, points))
    clear_memos()
    rhs = lagrange.h_stream_line_rhs
    first, _ = segment_returns(lambda: rhs(pivot.state, pivot.space, *pivot_points[0]))
    value, returns = segment_returns(lambda: rhs(pivot.state, pivot.space, *pivot_points[2]))
    assert ("carry", "miss") in zip(returns, returns[1:])
    assert len(lagrange._curve_values.paths()) == 2
    assert [first, value] == interpreted(lambda: [
        outcome(lambda: rhs(pivot.state, pivot.space, *point)) for point in pivot_points[::2][:2]])
    clear_memos()


def test_benchmark_line_replays_every_frame(monkeypatch, tmp_path, capsys):
    """The benchmark lines at seeds 1 and 13 build no interpreted frame: one
    recording builds the only frame, on traced coordinates, and every other
    point replays its one path."""
    builds = []
    frame = lagrange._Frame

    def counted(state, space, coords):
        builds.append("interpreted" if all(type(c) is float for c in coords) else "recorded")
        return frame(state, space, coords)

    monkeypatch.setattr(lagrange, "_Frame", counted)
    for seed in (1, 13):
        builds.clear()
        clear_memos()
        case = f"streamline-seed-{seed}-lagrange2"
        assert run_case(case, tmp_path, capsys) == (0, EXPECTED[case])
        assert builds == ["recorded"]
        # one path although the largest metric entry of the inversion changes
        # along the seed-13 line: tape.largest records max as one line.  The
        # statement count is exact, so a recording that grows fails here
        assert lagrange._curve_values.paths() == [FRAME_STATEMENTS]
        assert len(lagrange._fiber_form.paths()) == 1


def benchmark_start(seed):
    """(x0, v0) of the benchmark line at ``seed``."""
    options = dict(arg[2:].split("=") for arg in CASES[f"streamline-seed-{seed}-lagrange2"][1]
                   if "=" in arg)
    return ([float(c) for c in options["x0"].split(",")],
            [float(c) for c in options["v0"].split(",")])


def test_recorded_program_parses_as_pinned(monkeypatch):
    """The statements each recording hands to the linker parse to the
    pinned syntax trees, so a change of spelling alters no operation."""
    linked = []
    link = tape._link

    def capture(statements, inputs, namespace):
        linked.append(statements)
        return link(statements, inputs, namespace)

    monkeypatch.setattr(tape, "_link", capture)
    scenario = build_scenario(LAGRANGE2)
    clear_memos()
    lagrange.h_stream_line_rhs(scenario.state, scenario.space, *benchmark_start(1))
    digests = [hashlib.sha256("\n".join(ast.dump(ast.parse(text)) for _, text, _, _ in statements)
                              .encode()).hexdigest() for statements in linked]
    assert digests == PROGRAM_AST_SHA256
    assert len(linked[1]) == FRAME_STATEMENTS + 1  # with the return of the outputs
    clear_memos()


@pytest.mark.parametrize("leak", [
    lambda value: float(value),
    lambda value: np.exp(0.0 * value),
    lambda value: math.cos(value),
], ids=["float", "numpy", "math"])
def test_escaping_recording_runs_plain(monkeypatch, leak):
    """A field that reads a coordinate as a float aborts the recording once;
    the line runs interpreted, with the bytes of a run that never records."""
    scenario = build_scenario(LAGRANGE2)
    pressure = scenario.state.pressure

    def leaking(coords):
        return pressure(coords) * (1.0 + 0.0 * leak(scalar_value(coords[0])))

    state = dataclasses.replace(scenario.state, pressure=leaking)
    tapes = []

    class Counted(tape._Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    def rows():
        clear_memos()
        return np.array(lagrange.integrate_h_stream_line(
            state, scenario.space, [-0.15, -0.11], [0.26, 0.74], 0.01, 10), dtype=float).tobytes()

    expected = interpreted(rows)
    monkeypatch.setattr(tape, "_Tape", Counted)
    assert rows() == expected
    assert lagrange._curve_values.paths() == []
    # the eps0 form, which does not read the pressure, records; the frame tries once
    assert len(tapes) == 2
    assert len(lagrange._fiber_form.paths()) == 1


def test_traced_value_never_becomes_a_constant():
    recording = tape._Tape()
    value = recording.input(0.5)
    for leak in (float, int, bool, math.sin, np.asarray, "{:.3e}".format, str):
        with pytest.raises(tape.Escape):
            leak(value)
    with pytest.raises(TypeError):
        np.sqrt(value)


def test_guard_miss_records_a_new_path():
    calls = []

    @tape.replayed
    def sign(scale, x):
        calls.append(type(x[0]).__name__)
        return [x[0] * scale[0]] if x[0] > 0.0 else [-x[0]]

    assert sign([2.0], [3.0]) == [6.0]
    assert sign([2.0], [5.0]) == [10.0]
    assert sign([2.0], [-1.5]) == [1.5]
    assert sign([2.0], [-2.5]) == [2.5]
    assert sign([2.0], [0.25]) == [0.5]
    assert calls == ["Traced", "Traced"]
    assert sign.paths() == [1, 1]


def test_over_budget_recording_runs_plain(monkeypatch):
    monkeypatch.setattr(tape, "MAX_STATEMENTS", 20)

    @tape.replayed
    def long_sum(x):
        acc = 0.0
        for k in range(30):
            acc = acc + k * x[0]
        return [acc]

    plain = long_sum.__wrapped__([0.1])
    assert long_sum([0.1]) == plain
    assert long_sum([0.1]) == plain
    assert long_sum.paths() == []


def test_budget_counts_operations_traced(monkeypatch):
    """A repeated operation is one tape line, but tracing it costs each time."""
    monkeypatch.setattr(tape, "MAX_STATEMENTS", 20)

    @tape.replayed
    def repeated(x):
        return [x[0] * x[1] for _ in range(30)][:1]

    assert repeated([0.5, 3.0]) == [1.5]
    assert repeated.paths() == []


def test_inputs_other_than_plain_floats_run_plain():
    calls = []

    @tape.replayed
    def double(x):
        calls.append(type(x[0]).__name__)
        return [2.0 * x[0]]

    assert double([1.5]) == [3.0]
    assert double(np.array([1.5])) == [3.0]
    assert double([np.float64(1.5)]) == [3.0]
    assert double([1]) == [2.0]
    assert double([2.5]) == [5.0]
    assert calls == ["Traced", "float64", "float64", "int"]


def bits(values):
    """The bit pattern of each float: unlike float.hex, it tells NaNs apart."""
    return [struct.pack("<d", v).hex() for v in values]


def test_largest_is_one_line_that_replays_builtin_max():
    largest = tape.replayed(lambda x: [tape.largest(x)])
    assert largest([1.0, 3.0, 2.0]) == [3.0]
    recording = tape._Tape()
    tape.largest([recording.input(1.0), 2.0, recording.input(0.5)])
    assert [kind for kind, _, _ in recording.lines] == [tape._INPUT, tape._INPUT, tape._PURE]
    # ties, signed zeros and NaN first or later pick what max picks
    nan = math.nan
    for x in ([2.0, 2.0, 1.0], [-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [nan, 1.0, 2.0],
              [1.0, nan, 2.0], [1.0, 2.0, nan], [nan, -nan, 0.0], [-math.inf, -math.inf, -0.0]):
        assert bits(largest(x)) == bits([max(x)])
    assert len(largest.paths()) == 1
    assert tape.largest([]) == 0.0
    assert bits([tape.largest([-0.0, 0.0])]) == bits([-0.0])


def test_exact_folds_and_value_numbering():
    recording = tape._Tape()
    x, y = recording.input(0.5), recording.input(2.0)
    # x*1.0, 1.0*x, x/1.0 and x-0.0 are x on every double
    assert all(v is x for v in (x * 1.0, 1.0 * x, x / 1.0, x - 0.0))
    # these are not: 0.0 + -0.0 is 0.0, and x*0.0 is NaN at inf and -0.0 at x < 0
    for unfolded in (0.0 + x, x + 0.0, x * 0.0, 0.0 * x, x - (-0.0), x * (-1.0)):
        assert unfolded.ref not in (x.ref, y.ref)
    # one line per distinct operation on the same operands
    size = len(recording.lines)
    assert (x * y).ref == (x * y).ref and (x / y).ref == (x / y).ref
    assert (-x).ref == (-x).ref and abs(x).ref == abs(x).ref
    assert (x * y).ref != (y * x).ref
    assert len(recording.lines) == size + 5


special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e308, 5e-324,
                           math.inf, -math.inf, math.nan])
number = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
# (operation, first operand, second operand, a constant in place of the
# second operand, whether the constant stands on the left); the constants
# are mostly the ones an exact fold would take
step = st.tuples(st.sampled_from(["+", "-", "*", "/", "neg", "abs", "max"]),
                 st.integers(0, 63), st.integers(0, 63),
                 st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0]), special), st.booleans())


def run_program(program, x):
    pool = list(x)
    for op, i, j, constant, left in program:
        a = pool[i % len(pool)]
        b = pool[j % len(pool)] if constant is None else constant
        if left:
            a, b = b, a
        if op == "neg":
            pool.append(-pool[i % len(pool)])
        elif op == "abs":
            pool.append(abs(pool[i % len(pool)]))
        elif op == "max":
            pool.append(tape.largest([a, b, pool[-1]]))
        else:
            pool.append({"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b)
    return pool


def program_outcome(fn, x):
    try:
        return bits(fn(x))
    except ZeroDivisionError as err:
        return str(err)


@given(program=st.lists(step, min_size=1, max_size=30),
       inputs=st.lists(st.tuples(number, number, number), min_size=2, max_size=4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_replayed_arithmetic_keeps_the_plain_bits(program, inputs):
    """Traced arithmetic, with its folds and value numbering, replays to the
    bits of the plain run on every double, signed zeros, infinities and NaN
    included; a zero divisor raises the plain error."""
    replay = tape.replayed(lambda x: run_program(program, x))
    for x in inputs:
        assert program_outcome(replay, list(x)) == program_outcome(
            lambda x: run_program(program, x), list(x))
