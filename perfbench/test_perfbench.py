"""Self-tests for the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

They use the --tiny sizes, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, root=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_mode_prints_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(name) and f" {unit} " in line
                   for line in proc.stdout.splitlines()), name
    assert any(line.split()[:3] == ["failed_frac", "0", "fraction"]
               for line in proc.stdout.splitlines())


def test_two_traced_runs_give_identical_counts():
    runs = [result_of(bench("verify-bsml-n3", trace=1)) for _ in range(2)]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"].startswith("count")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["dual.seed.per_unit"] == 102
    assert counts[0]["tensor_core.invert_symmetric.per_unit"] == 106


def _output(workload, tmp_path, seed=3):
    """A real tiny output of ``workload``, produced in-process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from geoplasma.cli import main

    out = str(tmp_path / "out")
    argv, units = W.prepare(workload, seed, str(tmp_path / "s.json"), out, tiny=True)
    code = main(argv)
    with open(out, "rb") as fh:
        return fh.read(), code, units


def _corrupt_number(data, column):
    """Replace the value in ``column`` of the first data row."""
    lines = data.decode().split("\n")
    header = lines[1].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = "nan" if column.startswith("x") else "1e-3"
    lines[2] = ",".join(row)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("workload, column", [
    ("residuals-riemann-n4", "x1"),
    ("residuals-riemann-n4", "contraction_identity"),
    ("streamsheet-bsml-n3", "x2"),
    ("streamline-lagrange-n2", "x1"),
])
def test_corrupted_output_trips_the_gate(workload, column, tmp_path):
    data, code, units = _output(workload, tmp_path)
    assert W.check_output(workload, data, code, units).correct
    bad = W.check_output(workload, _corrupt_number(data, column), code, units)
    assert not bad.correct
    truncated = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
    assert not W.check_output(workload, truncated, code, units).correct


def test_corrupted_verify_report_trips_the_gate(tmp_path):
    data, code, units = _output("verify-bsml-n3", tmp_path)
    assert W.check_output("verify-bsml-n3", data, code, units).correct
    report = json.loads(data)
    report["invariants"]["unit_norm"] = 1e-3
    bad = json.dumps(report).encode()
    assert not W.check_output("verify-bsml-n3", bad, code, units).correct


def _patched_checkout(tmp_path, old, new):
    """A copy of the checkout whose cli.py has ``old`` replaced by ``new``."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cli = tmp_path / "src" / "geoplasma" / "cli.py"
    text = cli.read_text()
    assert old in text
    cli.write_text(text.replace(old, new))
    return tmp_path


def test_corrupted_program_output_raises_failed_frac(tmp_path):
    """A checkout whose CLI writes corrupt numbers fails every unit."""
    root = _patched_checkout(tmp_path, "return repr(float(value))", 'return "nan"')
    result = result_of(bench("residuals-riemann-n4", trace=0, root=root))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_set_up_probe_that_never_fires_fails_the_gate(tmp_path):
    """Set-up the probes cannot see is a gate failure, not a silent shift
    of work between setup_s and units_per_s."""
    root = _patched_checkout(
        tmp_path, "    scenario = load_scenario(args.scenario)\n    points, seed",
        "    from . import scenario as scenario_module\n\n"
        "    scenario = scenario_module.load_scenario(args.scenario)\n    points, seed")
    proc = bench("verify-bsml-n3", trace=0, root=root)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "set-up probes ran" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("residuals-riemann-n4", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_scenario_generation_is_deterministic(workload, tmp_path):
    def generate(seed, name):
        path = str(tmp_path / name)
        argv, _ = W.prepare(workload, seed, path, "out")
        with open(path, "rb") as fh:
            return fh.read(), [a for a in argv if a != path]

    first = generate(5, "a.json")
    assert generate(5, "b.json") == first
    assert generate(6, "c.json") != first
