"""What the benchmark in perfbench/ relies on in the library: the names its
probes import, the functions its tracer wraps, the call shapes of its probes,
numpy in the import of the package, and the CLI arguments of its documents.

The perfbench sources are read as text, or run in a child interpreter that
writes no bytecode, so nothing is written under perfbench/.  A change that
retires a probe or a document edits this test in the same change."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from meanderq.cli import build_parser
from meanderq.fock import FockVector
from meanderq.partitions import enumerate_pair_partitions
from meanderq.polynomials import meander_poly
from meanderq.spectra import jacobi_from_moments, semi_meander_moments

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def _child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-B", *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)


def test_every_name_the_probes_import_exists():
    tree = ast.parse((BENCH / "probes.py").read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("meanderq")
             for alias in node.names]
    assert len(names) >= 10
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


# Installs the tracer as perfbench/child.py does, after importing meanderq.cli,
# and prints the targets it found missing.
INSTALL_TRACER = """
import json, sys, types
path = sys.argv[1]
import meanderq.cli
tracing = types.ModuleType("tracing")
exec(compile(open(path).read(), path, "exec"), tracing.__dict__)
tracer = tracing.Tracer(sys.argv[2])
tracer.install()
print(json.dumps({"missing": tracer.missing, "spans": len(tracing.SPAN_FUNCTIONS)}))
"""


def test_every_target_the_tracer_wraps_exists():
    proc = _child("-c", INSTALL_TRACER, str(BENCH / "tracing.py"), str(SRC / "meanderq"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"missing": [], "spans": 10}


def test_the_probes_call_shapes():
    assert FockVector.vacuum(3, 18).vacuum_amplitude() == 1
    assert FockVector.vacuum(3, 18) == FockVector.vacuum(3)
    rec = jacobi_from_moments(semi_meander_moments(2, Fraction(1, 2), 4), exact=True)
    assert rec.depth >= 1
    assert sum(1 for _ in enumerate_pair_partitions(2, cap=14)) == 3
    assert "jobs" in inspect.signature(meander_poly).parameters
    assert meander_poly(2, jobs=1).total() == 9


def test_the_package_import_lists_numpy():
    proc = _child("-X", "importtime", "-c", "import meanderq")
    assert proc.returncode == 0, proc.stderr
    names = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert {"meanderq", "numpy"} <= names


def test_every_golden_document_parses():
    templates = json.loads((BENCH / "golden.json").read_text())
    assert len(templates) == 16
    parser = build_parser()
    for template in templates:
        parser.parse_args(template.replace("{seed}", "1").split())
