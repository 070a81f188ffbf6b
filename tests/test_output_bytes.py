"""Byte identity of the CLI outputs on fixed inputs.

Each case runs ``geoplasma.cli.main`` in-process on a shipped scenario (or
on a three-dimensional riemann, lagrange or multitime scenario written by
the test) and compares the SHA-256 of what it wrote with a recorded value:
the output file, and for ``verify`` also stdout.  The values were recorded
before the frameworks were moved onto the shared channel algebra of
``common.py`` (the ``multitime3`` ones before multitime was), so a
refactoring that changes one output byte fails here.

The two three-dimensional scenarios written by the test are the inputs
on which the two summation orders of the energy divergence (riemann adds
``a*b - c*d`` per term, lagrange adds ``a*b`` and then subtracts ``c*d``)
give different bits: swapping the order changes the ``residuals`` bytes
of ``riemann3`` or of ``lagrange3``, while the shipped two-dimensional
scenarios do not tell the orders apart.  ``bsml_sheet`` has G = C = 0, so
``multitime3`` (nonzero kappa, G, L and C) is the input that shows the
rounding of the multitime vertical algebra.  ``edml`` pins the one stock
model whose connection differentiates inside a field function.  The
``streamsheet`` pins for ``--prolongation exact``, a ``--sheet-file``, the
17 x 17 nodes of ``multitime3`` at ``--refine 4`` (more nodes than one
batch holds) and ``sheet_failures`` (failing nodes and exit code 1) were
recorded before sheet nodes ran in batches.  The ``verify`` pins at 24
points (more than ``MIN_BATCH``, failing points and worst offenders
included) and the ``singular_h`` pins (which metric a point where h and g
are both singular names) were recorded before multitime verify ran in
batches and before the frames built kappa only on use.

The hashes assume CPython 3.11 and numpy 2.4.6 on x86-64 Linux with glibc
2.36's libm: another libm may round ``sin``/``exp``/``log`` differently in
the last bit and change the digits without any change to the program.
"""

import hashlib
import json
from pathlib import Path

import pytest

from geoplasma.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# fiber factor (1 + |y|^2 / 2): eps0 stays solvable along the stream line
_FIBER = "(1 + 0.5*(y1^2 + y2^2 + y3^2))"
LAGRANGE3 = {
    "framework": "lagrange",
    "n": 3,
    "c": 1.0,
    "metric": [
        [f"(1.2 + 0.1*sin(x2 + y3))*{_FIBER}", f"0.05*cos(x1)*{_FIBER}",
         f"0.03*sin(x3*y1)*{_FIBER}"],
        [f"(1.1 + 0.1*cos(x1 - y2))*{_FIBER}", f"0.04*cos(x2 + y1)*{_FIBER}"],
        [f"(1.3 + 0.05*sin(x3)*y2)*{_FIBER}"],
    ],
    "connection": "canonical",
    "pressure": "0.3 + 0.04*sin(x1)*y1 + 0.02*cos(x3)*y2^2",
    "density": "1.1 + 0.1*cos(x2)*y3",
    "em": {
        "H": [["0.15*sin(x1)*y2", "0.1*cos(x3)"], ["0.12*sin(x2 + y1)"], []],
        "G": [["0.1*cos(x2)", "0.07*y3*sin(x1)"], ["0.05*exp(0.1*x3)"], []],
    },
    "eval": {
        "box": {"min": [-0.5, -0.5, -0.5, 0.2, 0.2, 0.2],
                "max": [0.5, 0.5, 0.5, 0.6, 0.6, 0.6]},
        "count": 6,
        "seed": 13,
    },
}

RIEMANN3 = {
    "framework": "riemann",
    "n": 3,
    "c": 1.0,
    "metric": [
        ["2 + 0.3*sin(x2) + 0.1*x1^2", "0.1*cos(x1 + 0.5*x2)", "0.1*cos(x1 + 0.5*x3)"],
        ["2 + 0.3*sin(x3) + 0.1*x2^2", "0.1*cos(x2 + 0.5*x3)"],
        ["2 + 0.3*sin(x1) + 0.1*x3^2"],
    ],
    "pressure": "0.3 + 0.05*sin(x1 + x2) + 0.02*x2*x3",
    "density": "1.2 + 0.1*cos(x3)",
    "velocity": ["1", "0.4*cos(x2)", "0.2*sin(x3)"],
    "em": {"H": [["0.2*sin(x1)", "0.1*x3"], ["0.1*sin(x2*x3)"], []], "G": "self-dual"},
    "eval": {"box": {"min": [0.6, -0.5, -0.5], "max": [1.6, 0.5, 0.5]}, "count": 8, "seed": 17},
}
# t- and fiber-dependent g and a t-dependent h: kappa, G, L and C are all
# nonzero, so the horizontal and vertical channel algebra shows in the bytes
_JFIBER = "(1 + 0.1*(x1_1^2 + x2_2^2))"
MULTITIME3 = {
    "framework": "multitime",
    "n": 3,
    "p": 2,
    "c": 1.0,
    "h_metric": [["1 + 0.1*t2^2", "0.05*t1"], ["1.2 + 0.1*sin(t1)"]],
    "metric": [
        [f"(1.2 + 0.1*sin(x2 + t1))*{_JFIBER}", f"0.05*cos(x1 + x2_1)*{_JFIBER}",
         "0.03*sin(x3*t2)"],
        [f"(1.1 + 0.1*cos(x1 - x3_2))*{_JFIBER}", "0.04*cos(x2 + x1_1)"],
        [f"(1.3 + 0.05*sin(x3 + t1*t2))*{_JFIBER}"],
    ],
    "connection": "canonical",
    "pressure": "0.3 + 0.04*sin(x1)*x1_1 + 0.02*cos(x3)*x2_2^2 + 0.01*t1",
    "density": "1.1 + 0.1*cos(x2)*x3_1",
    "em": {
        "H": [["0.15*sin(x1)*x2_1", "0.1*cos(x3 + t2)"], ["0.12*sin(x2 + x1_2)"], []],
        "G": [["0.1*cos(x2)", "0.07*x3_2*sin(x1)"], ["0.05*exp(0.1*x3)"], []],
    },
    "eval": {
        "box": {"min": [-0.3, -0.3, -0.5, -0.5, -0.5, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                "max": [0.3, 0.3, 0.5, 0.5, 0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]},
        "count": 6,
        "seed": 19,
    },
    "sheet": {
        "x": ["0.3 + 0.6*t1 + 0.2*t2", "-0.2 + 0.1*t1 + 0.5*t2", "0.1 + 0.4*t1*t2 + 0.3*t1"],
        "grid": {"min": [0.0, 0.0], "max": [0.6, 0.6], "shape": [5, 5]},
    },
}
# the electrodynamic model: its connection seeds the potentials U inside
# the connection field, the one stock model that differentiates in a field
EDML = {
    "framework": "multitime",
    "n": 2,
    "p": 2,
    "c": 1.0,
    "h_metric": [["1 + 0.1*t2^2", "0.05*t1"], ["1.2 + 0.1*sin(t1)"]],
    "model": {"name": "edml", "params": {
        "phi": {"name": "polar"},
        "U": [["0.3*x2*t1 + 0.1*sin(x1)", "0.2*x1*x2"],
              ["0.15*x1^2 + 0.05*t2", "0.1*cos(x1 + x2)*t1"]],
        "Phi": "0.2*x1^2 + t1*t2",
    }},
    "pressure": "0.3 + 0.04*sin(x1)*x1_1 + 0.01*t1",
    "density": "1.1 + 0.1*cos(x2)*x2_1",
    "em": {"H": [["0.12*sin(x1 + x2)"], []], "G": "self-dual"},
    "eval": {
        "box": {"min": [-0.3, -0.3, 0.8, -0.5, 0.4, 0.4, 0.4, 0.4],
                "max": [0.3, 0.3, 1.5, 0.5, 1.0, 1.0, 1.0, 1.0]},
        "count": 6,
        "seed": 23,
    },
}
# the bsml sheet with a pressure that needs x2 > 0: the nodes of the lower
# t1 rows, where x2 = 0.5*t1 - 0.2*cos(t2) is negative, fail with a log
# domain error and the others give rows
SHEET_FAILURES = dict(json.loads((SCENARIOS / "bsml_sheet.json").read_text()),
                      pressure="0.4 + 0.02*log(x2)")
# h = diag(t1, 1) is singular where t1 = 0 and g = diag(x1, 1) where x1 = 0:
# the points are regular, h-singular, singular in both (h is named) and
# g-singular.  The canonical connection inverts g once more, without naming
# the point, before the frame or the connection blocks do
SINGULAR_H = {
    "framework": "multitime",
    "n": 2,
    "p": 2,
    "c": 1.0,
    "h_metric": [["t1", "0"], ["1"]],
    "metric": [["x1", "0"], ["1"]],
    "connection": "zero",
    "pressure": "0.4",
    "density": "1.2",
    "eval": {"points": [[0.5, 0.1, 1.0, 0.2, 0.7, 0.3, 0.4, 0.9],
                        [0.0, 0.1, 1.0, 0.2, 0.7, 0.3, 0.4, 0.9],
                        [0.0, 0.1, 0.0, 0.2, 0.7, 0.3, 0.4, 0.9],
                        [0.5, 0.1, 0.0, 0.2, 0.7, 0.3, 0.4, 0.9]]},
}
GENERATED = {"lagrange3": LAGRANGE3, "riemann3": RIEMANN3, "multitime3": MULTITIME3,
             "edml": EDML, "sheet_failures": SHEET_FAILURES, "singular_h": SINGULAR_H,
             "singular_h_canonical": dict(SINGULAR_H, connection="canonical")}


def _bsml_nodes():
    """Sampled nodes (t1, t2, x1, x2) on the 7 x 7 grid of bsml_sheet, not its expressions."""
    axis = [k / 6 for k in range(7)]
    rows = ["t1,t2,x1,x2"]
    for t1 in axis:
        for t2 in axis:
            rows.append(f"{t1!r},{t2!r},{1.1 + 0.25 * t1 - 0.1 * t1 * t2!r},"
                        f"{0.4 * t1 + 0.1 * t2 * t2 - 0.3!r}")
    return "\n".join(rows) + "\n"


# sheet files written by the test; an argv entry naming one becomes its path
SHEET_FILES = {"bsml_nodes.csv": _bsml_nodes()}

AT = {
    "polar_plasma": "1.3,0.2",
    "tangent_bundle": "0.1,-0.2,0.9,1.1",
    "bsml_sheet": "0.1,0.2,1.1,0.1,0.8,0.9,0.7,1.0",
    "lagrange3": "0.1,-0.2,0.3,0.4,0.3,0.5",
    "riemann3": "1.1,0.2,-0.3",
    "multitime3": "0.1,-0.2,0.3,0.1,-0.4,0.6,0.4,0.5,0.7,0.8,0.3",
}

CASES = {}
for _name in AT:
    CASES[f"residuals-{_name}"] = (_name, ["residuals"], 0)
    CASES[f"verify-{_name}"] = (_name, ["verify"], 0)
    CASES[f"connection-{_name}"] = (_name, ["connection", "--at", AT[_name]], 0)
for _name in ("polar_plasma", "tangent_bundle", "bsml_sheet"):
    CASES[f"verify-tol-1e-30-{_name}"] = (_name, ["verify", "--tol", "1e-30"], 1)
CASES["residuals-edml"] = ("edml", ["residuals"], 0)
CASES["verify-edml"] = ("edml", ["verify"], 0)
CASES["streamline-polar_plasma"] = (
    "polar_plasma",
    ["streamline", "--x0", "1.0,0.2", "--v0", "0.3,0.9", "--step", "0.01", "--steps", "100"],
    0,
)
CASES["streamline-lagrange3"] = (
    "lagrange3",
    ["streamline", "--x0", "0.1,-0.2,0.3", "--v0", "0.3,0.4,0.2", "--step", "0.05",
     "--steps", "20"],
    0,
)
CASES["streamsheet-bsml_sheet"] = ("bsml_sheet", ["streamsheet"], 0)
CASES["streamsheet-coefficients-bsml_sheet"] = (
    "bsml_sheet", ["streamsheet", "--dump-coefficients"], 0,
)
CASES["streamsheet-coefficients-multitime3"] = (
    "multitime3", ["streamsheet", "--dump-coefficients"], 0,
)
CASES["streamsheet-exact-bsml_sheet"] = (
    "bsml_sheet", ["streamsheet", "--prolongation", "exact"], 0,
)
CASES["streamsheet-sheet-file-bsml_sheet"] = (
    "bsml_sheet", ["streamsheet", "--sheet-file", "bsml_nodes.csv"], 0,
)
# 17 x 17 = 289 nodes: more than one batch of nodes
CASES["streamsheet-refine-4-multitime3"] = ("multitime3", ["streamsheet", "--refine", "4"], 0)
CASES["streamsheet-sheet_failures"] = ("sheet_failures", ["streamsheet"], 1)
CASES["residuals-singular_h"] = ("singular_h", ["residuals"], 1)
CASES["residuals-singular_h_canonical"] = ("singular_h_canonical", ["residuals"], 1)
CASES["verify-singular_h"] = ("singular_h", ["verify"], 1)
CASES["verify-singular_h_canonical"] = ("singular_h_canonical", ["verify"], 1)
# more points than MIN_BATCH: verify runs its points as lane batches; these
# were recorded while verify evaluated every point alone
CASES["verify-points-24-multitime3"] = ("multitime3", ["verify", "--points", "24"], 0)
CASES["verify-points-24-sheet_failures"] = ("sheet_failures", ["verify", "--points", "24"], 1)
CASES["verify-tol-1e-30-points-24-bsml_sheet"] = (
    "bsml_sheet", ["verify", "--tol", "1e-30", "--points", "24"], 1,
)

# case -> (SHA-256 of the output file, SHA-256 of stdout or None)
EXPECTED = {
    "connection-bsml_sheet": ("909eb22d86f33853c5f21ac6da32b573f0cfe5434094746477ac426c277be1b0", None),
    "connection-lagrange3": ("995a8589a3839af927062770884245bff59bc6eb23f331ab10a2267c026ce67d", None),
    "connection-polar_plasma": ("fe48b401293802c83c8fb71bd7554ab4d35750c914c2a3c78fe6707ba3a6432b", None),
    "connection-tangent_bundle": ("3575a88597f77b465d0084e10bf53e7381f4f1345edd467830d0981b15e46bb1", None),
    "connection-multitime3": ("f6453048665a24966e56f4360a427e323ce6cc0fab3d47c1ae46a937440ba85e", None),
    "connection-riemann3": ("aeec75fe721bfcdb34245fc92e4c73b7e04404c6c5b9afa8bded5171501d876f", None),
    "residuals-edml": ("ecd09e1c3f5f9ed1c5561d919a139948eefa6c27d9f7dd46239a2c948f0e26df", None),
    "residuals-bsml_sheet": ("efb263f972463296b2d927f99efe85ac7ec6d613db7fd1a53f090bda8b9b3ec4", None),
    "residuals-lagrange3": ("977519f81f5c46b3bfed3b95ed0b7fe7073845fd867f6c3852bf5e67c878946f", None),
    "residuals-polar_plasma": ("6d4e8040a571f0f5cee6ddd427deef4f66239b627335c928cc1b88d1912dad59", None),
    "residuals-tangent_bundle": ("77e584965582c5a3710f2cab7d72a6c0b6badc36bd52666a864fa9e4bf930f28", None),
    "residuals-multitime3": ("011b3946e18082c17f7ae2359824ab053ba34249b9d747424903e8d23d8ca0f6", None),
    "residuals-riemann3": ("f5381c90c78977d69c0dad5ae33fc8c25d2cbd3ef38e5ecbd617e1e1cac8532a", None),
    "streamline-lagrange3": ("0dc20d8845956d8bef2108a930471868e5d8c12106f4124f0846270e6746cc7d", None),
    "streamline-polar_plasma": ("ac817223d14e57358f8171676d13263df82a7dd84cb546819e1ec92c68f3e09c", None),
    "streamsheet-bsml_sheet": ("83a7c0a3e57e4b990cb9ab3570ed7799ceb5183bebc0c41f71131f9bc5127d4c", None),
    "streamsheet-coefficients-multitime3": ("176acc3c84019e41e5d4aa1fe5630d6b6290903941b214af7af22abde76eecdb", None),
    "streamsheet-coefficients-bsml_sheet": ("bb6ceca12780f20152d0e8e0b88d4b08f44ef15b02e9ac8472505bf6a028b8d8", None),
    "streamsheet-exact-bsml_sheet": ("fc50f1b59254e5a411c9a2d8ab8801e5417d73830a883b7fb1685bb55b6370c9", None),
    "streamsheet-refine-4-multitime3": ("e51efa66f8c1bae40acf4fc82b38be29ef541ced08428109368d9ca4c3caf6ab", None),
    "streamsheet-sheet-file-bsml_sheet": ("ba970eeb5125b23143484b396a2059d87498f36061c169a225986623fc124b0d", None),
    "streamsheet-sheet_failures": ("fe4706d28e76f449831e98a307f3ee584e63105518c533fb1d77ea7dfdae7242", None),
    "verify-edml": ("2225d136a1b98c2054d19235a107eaccc22f878e3930f3e1b63296e587559a11", "f613062ccd41b3a7f846590a0e1bccb43165359c393152cee15747f68e6f99a5"),
    "verify-bsml_sheet": ("dee4088af2408e16c295b4d265d0dfa03eef775c9a0d80552c19408e9486b2a2", "936181e2e4ff5cd7feea8dcbc64978254c780ca6a761f13d9548c062d1cf3a78"),
    "verify-lagrange3": ("604bdb4fd4ec3c058191e81d92a6bd8dc391faf3dd334cb53d0933644f118084", "e1a6a1807d138a5ebdef8e0a11b6f54a18a7851d35a600224eca276748af6fde"),
    "verify-polar_plasma": ("005950edf4ece1ae73b742104e83c5ad5c2dd3716b972059861c0683ec0ae2a9", "55558e208c6a981f425ad6bfb2e3c2a79124ca8b849acd362e3504cc010c6ba5"),
    "verify-tangent_bundle": ("c48073068b9daed56a2fb50294062a371eb50bc2a96c39bf42f9560cacb1ab56", "aa3e1ce729273941a73e0815147b788379df50d3e16ef65db16f2690e1c0c93d"),
    "verify-multitime3": ("8f3eebdb3d75721c226d23e73069a878d1699aa7fdf30e160cba0986323b60b3", "e9eaaf4598ea8b88a3287f1fb6c31fa2a5c0614f2bf2e83a024630e8c0ccedce"),
    "verify-riemann3": ("d624420cf609863b7b139fce7585bcc5446684189901ab0d2957e0698607469f", "8fa7341c537319a4a2605c0e541725fd2263bd74da6e91c3ebee1b2e58871052"),
    "verify-tol-1e-30-bsml_sheet": ("fc8e12ca26dc699899141973c9f0a2dcec7fffaa9a9615ffb1189c97705feb58", "de4d0fbbdfd114196c92103bbb1ca71a83b8fbb2f3c4f8007236d38105877800"),
    "verify-tol-1e-30-polar_plasma": ("63945e54d3e1c884377a0134cea91ccc4a6de265e0ea5f3337dc505f6c2b3e40", "3f19924f3c6d795c4b6cb45659d8ae7e1e7d102b589d6879bf1dd487dbe181b8"),
    "verify-tol-1e-30-tangent_bundle": ("4378983980db4f16ba80f14c578206ea2ec63f1e7eabb4d217d067383dfd1764", "86f4ad715bd36bb2bfe9ff6bd4bb2112f6ffb48c33c7fc290a8788896a91a3e8"),
    "residuals-singular_h": ("8b738bfe8f509ae013fff1634096daab11d09e74e4de54a192a03ddfa566a052", None),
    "residuals-singular_h_canonical": ("f44d342f9a56f4d3888cd5743de87da2881ce0ff7e6d1cb2dd4b8497a01ca21c", None),
    "verify-singular_h": ("c46513fcfbd256ca29f400ac5f3118d28961a54ac98cdbaebe5b94d7c1d74053", "e802bf2656ec30058b5eb5cc303b3f66058f11b655532436388c7707a040b2ad"),
    "verify-singular_h_canonical": ("de13f2c0ce643c4967f41bc336c0f696167e3c96ed8564419dad79f54b189a92", "becbf09fe23c941db2bcd816bb24b43492c63f8dfbb20ada5943f05d983f58c8"),
    "verify-points-24-multitime3": ("013b53ff76c9ba5ff922b18c4a8715e9ccfff432138abc669c7a189378641ebd", "e72f3bcc192cf410b35059f562dfcde5b548bb7781dbaa5d46194298f4914cfb"),
    "verify-points-24-sheet_failures": ("f27dba8b2d7da7700ccbb6592cf848e6dac58f89343cc83a586e7815359d699d", "c6c384a97298f8e7542339696c3ed3c7bcd20ffd585b6888bee413d1bc2c97b2"),
    "verify-tol-1e-30-points-24-bsml_sheet": ("7384e5dcfcedae1be4fbd0929a386d8e47a75fbe69f0448cc722eb3c137b44b6", "0281dc772a26a27854d52b3fc236e247695ea3551bf0489c8f55adc17aeb97c3"),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_case(case, tmp_path, capsys):
    """Exit code, output-file hash and (verify only) stdout hash of a case."""
    name, argv, _ = CASES[case]
    if name in GENERATED:
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(GENERATED[name], indent=2) + "\n")
    else:
        scenario = SCENARIOS / f"{name}.json"
    for file_name, text in SHEET_FILES.items():
        (tmp_path / file_name).write_text(text)
    argv = [str(tmp_path / a) if a in SHEET_FILES else a for a in argv]
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(argv + ["--scenario", str(scenario), "--out", str(out)])
    stdout = capsys.readouterr().out
    stdout_sha = _sha(stdout.encode()) if argv[0] == "verify" else None
    return code, (_sha(out.read_bytes()), stdout_sha)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path, capsys):
    code, hashes = run_case(case, tmp_path, capsys)
    assert code == CASES[case][2]
    assert hashes == EXPECTED[case]


# the failure of ``connection`` at each point of a SINGULAR_H scenario: where
# h and g are both singular, h is named
_H_TEXT = "failure: metric is singular or near-singular (pivot 0.000e+00) at point (0.0, 0.1)\n"
SINGULAR_H_CONNECTION = {
    "singular_h": [(0, ""), (1, _H_TEXT), (1, _H_TEXT),
                   (1, "failure: metric is singular or near-singular (pivot 0.000e+00) at point "
                       "(0.5, 0.1, 0.0, 0.2, 0.7, 0.3, 0.4, 0.9)\n")],
    "singular_h_canonical": [(0, ""), (1, _H_TEXT), (1, _H_TEXT),
                             (1, "failure: metric is singular or near-singular "
                                 "(pivot 0.000e+00)\n")],
}


@pytest.mark.parametrize("name", sorted(SINGULAR_H_CONNECTION))
def test_connection_names_the_singular_metric(name, tmp_path, capsys):
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(GENERATED[name], indent=2) + "\n")
    for point, expected in zip(SINGULAR_H["eval"]["points"], SINGULAR_H_CONNECTION[name]):
        capsys.readouterr()
        code = main(["connection", "--scenario", str(scenario), "--at",
                     ",".join(map(repr, point)), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == expected
