"""The convergence scripts in ``scripts/`` run end to end and write their CSV."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, csv", [
    ("polar_stream_line.py", "polar_stream_line.csv"),
    ("sheet_residual_scan.py", "sheet_residuals.csv"),
])
def test_script_runs_and_writes_csv(script, csv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / csv).read_text().splitlines()
    assert len(lines) > 1 and "," in lines[0]
