import ast
import doctest
import importlib
import re
from functools import partial
from pathlib import Path

import pytest

import meanderq.dyck
import meanderq.partitions


def test_docstring_examples():
    for mod in (meanderq.partitions, meanderq.dyck):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__


def test_quadrature_json_obj():
    from meanderq.spectra import Quadrature

    quad = Quadrature((1.0, -1.0), (0.5, 0.5))
    doc = quad.to_json_obj(reproduced=4)
    assert doc == {"nodes": [1.0, -1.0], "weights": [0.5, 0.5], "reproduced_moments": 4}



def _cells(line: str) -> list[str]:
    return [cell.strip().strip("`") for cell in line.strip("|").split("|")]


def _table_rows(readme: str, header: str) -> list[list[str]]:
    """Cells of the README table whose header row starts with ``header``."""
    rows = []
    for line in readme[readme.index(header):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(_cells(line))
    return rows


def test_readme_frontier_matches_the_budgets(monkeypatch):
    """Each order the README frontier tables list is admitted without a cap
    and the next order is refused, so the tables cannot drift from the
    budgets."""
    import meanderq.fock as fock
    import meanderq.polynomials as polynomials
    from meanderq.dyck import enumerate_bnc2_alternating, enumerate_dyck
    from meanderq.errors import EnumerationCapError
    from meanderq.partitions import enumerate_noncrossing, enumerate_pair_partitions
    from meanderq.scalars import parse_q

    # a route decides admission before any work, so a sweep's steps are
    # stubbed out to keep the state they are handed
    monkeypatch.setattr(fock, "_two_pass_step", lambda terms, *args: terms)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    routes = {
        "poly --kind semi": partial(polynomials.kronecker_poly, "semi"),
        "poly --kind meander": partial(polynomials.kronecker_poly, "meander"),
        "enumerate --kind pairs": enumerate_pair_partitions,
        "enumerate --kind noncrossing": enumerate_noncrossing,
        "enumerate --kind dyck": lambda n: enumerate_dyck(2 * n),
        "enumerate --kind bnc": lambda n: enumerate_bnc2_alternating(2 * n),
    }
    rows = _table_rows(readme, "| route |")
    assert sorted(route for route, *_ in rows) == sorted(routes)
    checks = [(routes[route], int(n)) for route, n, _ in rows]
    sweeps = {"T": fock.semi_meander_moment_sweep, "X": fock.meander_moment_sweep}
    # each column's mode is read off its header: formal, or `--q <text>`
    header = "| `moments` |"
    _, _, *columns = _cells(readme[readme.index(header):].splitlines()[0])
    modes = [parse_q(column.removeprefix("--q ")) for column in columns]
    assert modes
    rows = _table_rows(readme, header)
    listed = sorted((op, int(d)) for op, d, *_ in rows)
    assert listed == [(op, d) for op in "TX" for d in range(1, 6)]
    for op, d, *cells in rows:
        assert len(cells) == len(modes)
        for mode, cell in zip(modes, cells):
            n = int(re.fullmatch(r"(\d+) \([\d.]+ s\)", cell).group(1))
            checks.append((partial(sweeps[op], int(d), mode=mode), n))
    for admit, n in checks:
        admit(n)
        with pytest.raises(EnumerationCapError):
            admit(n + 1)


def test_readme_suite_table_lists_the_registered_suites():
    """The README verification-suites table lists each registered suite once,
    with its registered alias (blank for none)."""
    from meanderq.verify import SUITE_ALIASES, SUITES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = _table_rows(readme, "| suite | alias |")
    aliases = {suite: alias for alias, suite in SUITE_ALIASES.items()}
    assert len(rows) == len(SUITES)
    assert {suite: alias for suite, alias, *_ in rows} == {s: aliases.get(s, "") for s in SUITES}


def _docstring_citations(package: Path) -> set[str]:
    """The ``_private`` names that a module, class or function docstring of
    the package cites between double backticks."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {name for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, kinds)
            for name in re.findall(r"``(_\w+)[^`]*``", ast.get_docstring(node) or "")}


def test_readme_layout_names_exist():
    """Every backticked name with an underscore in the README library
    layout, and every ``_private`` name a docstring cites, is an attribute
    of some ``meanderq`` module, so a change that removes or renames a
    function cannot leave its name there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme[readme.index("| module | contents |"):].split("\n\n")[0]
    names = {name for name in re.findall(r"`(\w+)`", layout) if "_" in name}
    package = Path(meanderq.dyck.__file__).parent
    cited = _docstring_citations(package)
    modules = [importlib.import_module(f"meanderq.{path.stem}") for path in package.glob("*.py")]
    missing = sorted(name for name in names | cited if not any(hasattr(m, name) for m in modules))
    assert names and cited and missing == []
