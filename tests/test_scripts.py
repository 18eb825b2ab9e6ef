"""Smoke runs of the experiment scripts at small sizes."""

import importlib.util
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


def test_moment_tables_exits_1_on_a_mismatch(monkeypatch, capsys):
    # a wrong moment must fail the run, not only print MISMATCH
    path = ROOT / "scripts" / "moment_tables.py"
    spec = importlib.util.spec_from_file_location("moment_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    right = script.semi_meander_moment_sweep
    monkeypatch.setattr(script, "semi_meander_moment_sweep",
                        lambda *args, **kwargs: [m + 1 for m in right(*args, **kwargs)])
    monkeypatch.setattr(sys, "argv", ["moment_tables.py", "--n-max", "2", "--d-max", "1",
                                      "--meander-n-max", "1"])
    assert script.main() == 1
    assert "MISMATCH" in capsys.readouterr().out
