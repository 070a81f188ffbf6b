"""Property: a mutated shipped scenario never ends in a traceback.

One or two values at any depth of the three scenarios in ``scenarios/`` are
replaced by arbitrary JSON values (or their key is dropped), and a CLI
command runs on the result.  Whatever the input, the command must return
0, 1 or 2 and no exception may escape ``main``.
"""

import copy
import json
import pathlib

from hypothesis import HealthCheck, given, settings, strategies as st

from geoplasma.cli import main

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {
    path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))
}

DIMENSION = {"polar_plasma": 2, "tangent_bundle": 4, "bsml_sheet": 8}  # coordinates

EXPRESSIONS = st.sampled_from(
    ["0", "1", "-1", "x1", "y1", "t1", "x1_1", "1e999", "1/0", "sqrt(-1)", "x1^2", "nan",
     "polar", "bsml", "canonical", "zero", "self-dual"]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    EXPRESSIONS,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["name", "params", "min", "max", "H"]), inner,
                        max_size=2),
    ),
    max_leaves=4,
)
DROP = object()


def paths(node, prefix=()):
    """Every (container path, key) pair of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)) and child:
            yield from paths(child, prefix + (key,))


def mutate(config, where, value):
    """Replace or drop one value; a path an earlier mutation removed is skipped."""
    node = config
    try:
        for key in where[0]:
            node = node[key]
        node[where[1]]
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(node, (dict, list)):
        return
    if value is DROP:
        del node[where[1]]
    else:
        node[where[1]] = value


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenarios_exit_with_a_code(data, tmp_path_factory):
    name = data.draw(st.sampled_from(sorted(SHIPPED)), label="scenario")
    config = copy.deepcopy(SHIPPED[name])
    where = list(paths(config))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        mutate(config, data.draw(st.sampled_from(where), label="path"),
               data.draw(st.one_of(st.just(DROP), VALUES), label="value"))
    at = ",".join(["0.7"] * DIMENSION[name])
    commands = [["residuals", "--points", "1"], ["verify", "--points", "1"],
                ["connection", "--at", at]]
    if SHIPPED[name]["framework"] == "multitime":
        commands.append(["streamsheet"])
    argv = data.draw(st.sampled_from(commands), label="command")
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "scenario.json"
    path.write_text(json.dumps(config))
    out = directory / "out"
    code = main([*argv, "--scenario", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
