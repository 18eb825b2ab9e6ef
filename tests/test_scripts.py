"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("moment_tables.py", ["--n-max", "3", "--d-max", "2", "--meander-n-max", "2"]),
        ("spectrum_report.py", ["--d-values", "1", "--q-values", "0", "--n-moments", "4"]),
    ],
)
def test_script_runs_clean(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "MISMATCH" not in proc.stdout
