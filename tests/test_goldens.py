"""Goldens that need no network: the Touchard-Riordan closed form at the d=1
formal frontiers, the published one-curve counts of Q_n(t, u) and P_n(t, u)
as ``poly`` reads them off the loop sweep (Kronecker evaluation), and a
replay of the benchmark's golden documents."""

import types
from math import comb
from pathlib import Path

import pytest

from meanderq.cli import main
from meanderq.fock import meander_moment_sweep, semi_meander_moment_sweep
from meanderq.partitions import catalan, odd_double_factorial
from meanderq.polynomials import kronecker_poly
from meanderq.scalars import FORMAL, QPoly

ROOT = Path(__file__).resolve().parents[1]


def touchard_riordan(n):
    """T_n(q) = sum over pair partitions of [2n] of q^crossings, from
    (1-q)^n T_n(q) = sum_k (-1)^k (C(2n,n-k) - C(2n,n-k-1)) q^(k(k+1)/2)
    (J. Riordan, Math. Comp. 29 (1975) 215), divided out exactly."""
    rhs = QPoly()
    for k in range(n + 1):
        c = comb(2 * n, n - k) - (comb(2 * n, n - k - 1) if k < n else 0)
        rhs = rhs + (-1) ** k * c * QPoly.q_power(k * (k + 1) // 2)
    coeffs = list(rhs.coeffs)
    for _ in range(n):  # synthetic division by (1 - q), i.e. by -(q - 1)
        quotient, carry = [0] * (len(coeffs) - 1), 0
        for i in range(len(coeffs) - 1, 0, -1):
            carry += coeffs[i]
            quotient[i - 1] = carry
        assert carry + coeffs[0] == 0, "(1 - q) does not divide"
        coeffs = [-c for c in quotient]
    return QPoly(coeffs)


def test_closed_form_small_orders():
    # T_1 = 1, T_2 = 2 + q, T_3 = 5 + 6q + 3q^2 + q^3
    assert touchard_riordan(1) == QPoly((1,))
    assert touchard_riordan(2) == QPoly((2, 1))
    assert touchard_riordan(3) == QPoly((5, 6, 3, 1))


def test_semi_meander_moments_are_touchard_riordan():
    moments = semi_meander_moment_sweep(1, 18, FORMAL)
    for n in range(1, 19):
        t = touchard_riordan(n)
        assert moments[n] == t, n
        assert t.at(1) == odd_double_factorial(n)
        assert t.coefficient(0) == catalan(n)


def test_meander_moments_are_its_square():
    moments = meander_moment_sweep(1, 10, FORMAL)
    for n in range(1, 11):
        t2 = touchard_riordan(n) ** 2
        assert moments[n] == t2, n
        assert t2.at(1) == odd_double_factorial(n) ** 2
        assert t2.coefficient(0) == catalan(n) ** 2


# one-curve semi-meanders (OEIS A000682) and meanders (OEIS A005315), n = 1..
A000682 = [1, 1, 2, 4, 10, 24, 66, 174, 504, 1406, 4210, 12198, 37378, 111278]
A005315 = [1, 2, 8, 42, 262, 1828, 13820, 110954]


def test_semi_meander_polynomials_at_the_sweep_frontier():
    for n in range(1, 15):
        terms = kronecker_poly("semi", n).terms
        one_curve = {t: c for (t, u), c in terms.items() if u == 0}
        assert one_curve[1] == A000682[n - 1], n
        assert sum(one_curve.values()) == catalan(n)
        assert one_curve[n] == 1
        assert sum(terms.values()) == odd_double_factorial(n)


def test_meander_polynomials_at_the_sweep_frontier():
    for n in range(1, 9):
        terms = kronecker_poly("meander", n).terms
        assert terms.get((1, 0)) == A005315[n - 1], n
        assert sum(c for (t, u), c in terms.items() if u == 0) == catalan(n) ** 2
        assert sum(terms.values()) == odd_double_factorial(n) ** 2


def test_polynomials_summed_over_t_are_touchard_riordan():
    # summing out t counts the matchings by crossings, T_n(u), and pairs of
    # them for meanders, T_n(u)^2: a closed form for every coefficient of
    # poly at the orders the enumeration no longer reaches
    for kind, last, power in (("semi", 13, 1), ("meander", 7, 2)):
        for n in range(1, last + 1):
            by_u = {}
            for (t, u), c in kronecker_poly(kind, n).terms.items():
                by_u[u] = by_u.get(u, 0) + c
            summed = QPoly([by_u.get(u, 0) for u in range(max(by_u) + 1)])
            assert summed == touchard_riordan(n) ** power, (kind, n)


def _load_checks():
    """perfbench/checks.py as a module, compiled from its text so nothing
    (no bytecode cache either) is written under perfbench/."""
    path = ROOT / "perfbench" / "checks.py"
    checks = types.ModuleType("perfbench_checks")
    checks.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), checks.__dict__)
    return checks


CHECKS = _load_checks()
GOLDENS = CHECKS.load_goldens()


@pytest.mark.parametrize("template,seed", [
    pytest.param(t, seed, id=t.format(seed=seed))
    for t in sorted(GOLDENS) for seed in ((0, 1) if "{seed}" in t else (0,))
])
def test_benchmark_golden_replays(capsys, template, seed):
    rc = main(template.format(seed=seed).split())
    assert CHECKS.check_document(GOLDENS, template, seed, rc, capsys.readouterr().out) == []
