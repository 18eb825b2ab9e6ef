"""Every top-level import of a library module is used in that module, only
a pinned few private names cross between modules, every definition is
used somewhere, only a pinned few only by tests, and the CLI starts
without what only a rare path needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meanderq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def _private_imports(source: str) -> set[str]:
    """``module.name`` for each underscored name imported from a sibling module."""
    return {f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")}


def test_the_check_sees_a_private_import():
    source = "from .fock import _history_bits, loop_sweep\nfrom math import _x\n"
    assert _private_imports(source) == {"fock._history_bits"}


def test_private_names_stay_in_their_module():
    # a module's underscored helpers are its own, and a new shared one (say
    # a packing detail of fock) shows here
    found = set().union(*(_private_imports(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert found == set()


def _formal_branches(source: str, module: str) -> set[tuple[str, str]]:
    """(what, where) for each place in ``source`` that asks whether q is
    formal: what is "is_formal" for a read of that attribute and "is QPoly"
    for an identity test against ``QPoly`` (``type(c) is QPoly``), where is
    ``module.name`` of the top-level definition holding it, or ``module``."""
    found = set()
    for top in ast.parse(source).body:
        where = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "is_formal":
                found.add(("is_formal", where))
            elif (isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                  and any(getattr(x, "id", None) == "QPoly" for x in [node.left, *node.comparators])):
                found.add(("is QPoly", where))
    return found


def test_the_check_sees_a_formal_branch():
    source = ("def f(mode, c):\n    return mode.is_formal and type(c) is QPoly\n"
              "x = type(y) is not QPoly or QPoly is type(z)\nclass A:\n    y = m.is_formal\n")
    assert _formal_branches(source, "m") == {("is_formal", "m.f"), ("is QPoly", "m.f"),
                                              ("is QPoly", "m"), ("is_formal", "m.A")}


def test_only_the_sweep_and_the_cli_ask_whether_q_is_formal():
    # scalars.Mode builds every q-series and q-power product, so no other
    # route branches on a formal q; the sweep still does, as its packed ints
    # carry a formal coefficient as its value at q = 2^C, and so does the
    # CLI, which prints q and refuses a formal q for spectrum
    found = set().union(*(_formal_branches(p.read_text(), p.stem)
                          for p in MODULES if p.name != "scalars.py"))
    assert {(what, where) for what, where in found
            if not (what == "is_formal" and where.startswith("cli."))} == {
        ("is_formal", "fock._packed_weight"), ("is_formal", "fock._step_tables"),
        ("is_formal", "fock._moment_sweep")}


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from math import perm, prod\nx = prod([1])\n") == ["perm"]
    assert _unused_imports("import numpy as np\nimport os.path\nos.path.join\n") == ["np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(source: str) -> list[tuple[str, bool]]:
    """(name, is a method) of each function and class defined in ``source``,
    at any depth, bar dunders and the suites ``verify._suite`` registers; a
    method's name is ``Class.method``."""
    out = []
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            suite = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite"
                        for d in node.decorator_list)
            if not dunder and not suite:
                method = isinstance(parent, ast.ClassDef)
                out.append((f"{parent.name}.{node.name}" if method else node.name, method))
    return out


def _references(sources) -> tuple[set[str], set[str]]:
    """The names, imported names and dotted identifier strings (monkeypatch
    targets, say) of ``sources``, and apart their attribute names."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names, attributes


def _dead_definitions(source: str, sources) -> list[str]:
    """The definitions of ``source`` that nothing in ``sources`` names: a
    method only by an attribute, a function or class by any reference."""
    names, attributes = _references(sources)
    return sorted(name for name, method in _definitions(source)
                  if name.rpartition(".")[2] not in attributes and (method or name not in names))


def test_the_check_sees_a_dead_definition():
    source = ("class A:\n    def used(self): ...\n    def dead(self): ...\n"
              "    def __len__(self): ...\n"
              "def helper(): ...\ndef orphan(): ...\ndef patched(): ...\n"
              "@_suite('x')\ndef suite_x(): ...\n")
    callers = ["A().used()\nhelper()\n", "setattr(m, 'patched', None)\ndead = 1\n"]
    assert _dead_definitions(source, callers) == ["A.dead", "orphan"]


def test_every_definition_is_used():
    # a definition that no module, test, script or benchmark file names is
    # dead code
    sources = [p.read_text() for folder in ("src", "tests", "scripts", "perfbench")
               for p in (ROOT / folder).rglob("*.py")]
    dead = {p.name: _dead_definitions(p.read_text(), sources) for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in dead.items() if found} == {}


# The definitions that only tests name, each with the reason it stays.
TEST_ONLY = {
    "fock._gaussian_moment_pairings": "the pairing-sum reference for gaussian_joint_moment",
    "fock.semi_meander_moment_direct": "the unpruned word-by-word reference for the moment sweeps",
    "qwick.wick_term": "the term-by-term reference for the pairing side of the Wick formula",
    "qwick.apply_choice_product": "the term-by-term reference for the operator side",
    "polynomials.BivarPoly.total": "the call shape that the benchmark contract test pins",
    "polynomials.BivarPoly.u0_slice": "the classical Q_n(t, 0) slice, against the non-crossing oracle",
}


def test_only_the_pinned_references_serve_tests_alone():
    # a definition that no module, script or benchmark file names serves
    # only tests: a new one goes, or joins TEST_ONLY with its reason
    sources = [p.read_text() for folder in ("src", "scripts", "perfbench")
               for p in (ROOT / folder).rglob("*.py")]
    found = {f"{p.stem}.{name}" for p in MODULES for name in _dead_definitions(p.read_text(), sources)}
    assert found == set(TEST_ONLY)


def _pool_imports(source: str) -> set[str]:
    """Each module imported anywhere in ``source``, in a function body too,
    whose top package runs a worker pool: ``concurrent`` or ``multiprocessing``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name for name in names if name.split(".")[0] in ("concurrent", "multiprocessing")}


def test_the_check_sees_a_lazy_pool_import():
    source = "def f():\n    import concurrent.futures\nfrom multiprocessing import Pool\nimport math\n"
    assert _pool_imports(source) == {"concurrent.futures", "multiprocessing"}


def test_no_module_imports_a_process_pool():
    # the enumeration oracle runs in one process, whatever jobs it is given
    found = set().union(*(_pool_imports(p.read_text()) for p in (ROOT / "src").rglob("*.py")))
    assert found == set()


def test_the_cli_imports_no_process_pool():
    # concurrent.futures pulls in logging and costs every CLI start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, meanderq.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
