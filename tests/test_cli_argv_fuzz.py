"""Property: no command line ends in a traceback.

Argument vectors for the five subcommands are drawn from their own flags,
with values that are valid, out of range, non-finite or not numbers at
all, plus junk tokens at any position.  Paths are the shipped scenarios,
a missing file, a directory and an ``--out`` under a missing directory.
Whatever the argv, ``main`` must return 0, 1 or 2, or exit through
``SystemExit`` with one of those codes (argparse errors, ``--help``).
Count-like values (``--points``, ``--steps``, ``--refine``) stay at 3 or
below so that no example starts large work.
"""

import contextlib
import io
import pathlib

from hypothesis import HealthCheck, example, given, settings, strategies as st

from geoplasma.cli import main

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = [str(path) for path in sorted(SCENARIOS.glob("*.json"))]

# placeholders, replaced by paths under a fresh directory per example
MISSING, DIRECTORY, OUT_FILE, OUT_UNDER_MISSING = "<missing>", "<dir>", "<out>", "<out-missing>"

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "abc", "", "1,2", "0x10"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
COORDINATES = st.sampled_from([2, 4, 8]).flatmap(  # the shipped scenarios' dimensions
    lambda k: st.lists(st.sampled_from(["0.7", "1.0", "0.3", "-0.2"]), min_size=k, max_size=k)
).map(",".join)
POSITIONS = st.lists(st.sampled_from(["0.7", "1.0", "0.3", "-0.2"]), min_size=2, max_size=2).map(
    ",".join
)  # n = 2 in both shipped stream-line scenarios
BAD_COORDINATES = st.lists(
    st.sampled_from(["0.7", "0", "-1", "nan", "inf", "x", "1e308", ""]), max_size=9
).map(",".join)
COUNTS = st.sampled_from(["1", "2", "3"])
BAD_COUNTS = st.sampled_from(["-1", "0", "", "two", "1.5", "nan"])
OMIT = st.just(None)

# flag -> (plausible values, bad values); None omits the flag, True passes it bare
COMMON = {
    "--scenario": (st.sampled_from(SHIPPED), st.sampled_from([MISSING, DIRECTORY])),
    "--out": (st.just(OUT_FILE), st.sampled_from([OUT_UNDER_MISSING, DIRECTORY])),
}
SAMPLED = {
    "--seed": (st.integers(0, 2**64 - 1).map(str),
               st.one_of(st.integers(-5, -1).map(str), st.just(str(2**70)), NUMBERS)),
    "--points": (COUNTS, BAD_COUNTS),
}
FLAGS = {
    "verify": {**COMMON, **SAMPLED,
               "--tol": (st.sampled_from(["1e-9", "1e-30", "0.5", "1e308"]), NUMBERS)},
    "connection": {**COMMON, "--at": (COORDINATES, BAD_COORDINATES)},
    "residuals": {**COMMON, **SAMPLED},
    "streamline": {**COMMON, "--x0": (POSITIONS, BAD_COORDINATES),
                   "--v0": (POSITIONS, BAD_COORDINATES),
                   "--step": (st.sampled_from(["0.01", "0.05"]), NUMBERS),
                   "--steps": (COUNTS, BAD_COUNTS)},
    "streamsheet": {**COMMON, "--refine": (COUNTS, BAD_COUNTS),
                    "--prolongation": (st.sampled_from(["stencil", "exact"]), st.just("spline")),
                    "--sheet-file": (OMIT, st.sampled_from(SHIPPED + [MISSING, DIRECTORY])),
                    "--dump-coefficients": (st.sampled_from([None, True]), OMIT)},
}
JUNK = st.sampled_from(
    ["--bogus", "-x", "", "--", "nan", "--points", "--out", "--help", "verify", "-1"]
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, (good, bad) in FLAGS[command].items():
        choice = draw(st.integers(0, 11))  # 1 in 12 omitted, 2 in 12 bad, else plausible
        if choice == 0:
            continue
        value = draw(bad if choice <= 2 else good)
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    for _ in range(draw(st.integers(0, 5)) // 4):  # junk in a third of the examples
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


def _resolve(token, directory):
    places = {
        MISSING: directory / "missing.json",
        DIRECTORY: directory,
        OUT_FILE: directory / "out",
        OUT_UNDER_MISSING: directory / "missing" / "out",
    }
    return str(places[token]) if token in places else token


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["residuals", "--scenario", SHIPPED[0], "--points", "1", "--out", OUT_UNDER_MISSING])
@example(argv=["connection", "--scenario", SHIPPED[0], "--at", "0.7," * 7 + "0.7",
               "--out", DIRECTORY])
def test_cli_argv_exits_with_a_code(argv, tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    argv = [_resolve(token, directory) for token in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, sink.getvalue()[-2000:])
