"""Acceptance gate: one test per shipped criterion, each printing a PASS line
with its runtime (visible under ``pytest -s`` or in failure output).

All algebraic identities are checked in exact arithmetic with zero tolerance;
the numeric moment-analysis criteria carry their stated tolerances.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from meanderq.dyck import DyckTuple, enumerate_dyck, enumerate_preimage, preimage_size
from meanderq.fock import (
    meander_moment,
    meander_moment_direct,
    semi_meander_moment,
)
from meanderq.partitions import odd_double_factorial
from meanderq.polynomials import BivarPoly, meander_poly, semi_meander_poly
from meanderq.qwick import bnc_moment_q0
from meanderq.scalars import FORMAL, Mode
from meanderq.spectra import (
    hankel_psd_check,
    jacobi_from_moments,
    meander_moments,
    negativity_witness,
    quadrature_from_jacobi,
    semi_meander_moments,
)
from meanderq.verify import (
    suite_commutator,
    suite_crossing_formula,
    suite_pair_counting,
    suite_wick,
)

Q0 = Mode(Fraction(0))


def _announce(number, elapsed, budget, text):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (> {budget}s)"
    print(f"criterion {number:2d}: PASS ({elapsed:5.1f}s) {text}")


def test_criterion_01_semi_meander_moment_identity():
    t0 = time.time()
    for n in range(1, 6):
        poly = semi_meander_poly(n)
        for d in (1, 2, 3):
            assert semi_meander_moment(d, n, FORMAL) == poly.eval_at_t(d)
    _announce(1, time.time() - t0, 60,
              "operator moments equal the two-variable polynomial at t=d, "
              "q formal, exactly (d<=3, n<=5)")


def test_criterion_02_undeformed_moments():
    t0 = time.time()
    for n in range(1, 6):
        poly = semi_meander_poly(n)
        for d in (1, 2, 3):
            op = semi_meander_moment(d, n, Q0)
            assert op == poly.eval(d, 0)
            assert op == bnc_moment_q0(d, n)
    _announce(2, time.time() - t0, 30,
              "q=0 operator moments equal the one-variable polynomial and the "
              "bi-non-crossing sum exactly (d<=3, n<=5)")


def test_criterion_03_meander_moment_identity():
    t0 = time.time()
    for n in range(1, 4):
        poly = meander_poly(n)
        for d in (1, 2):
            assert meander_moment(d, n, FORMAL) == poly.eval_at_t(d)
            if n <= 2:
                assert meander_moment_direct(d, n, FORMAL) == poly.eval_at_t(d)
    _announce(3, time.time() - t0, 60,
              "doubled-operator moments equal the meander polynomial exactly "
              "(d<=2, n<=3), index-tuple route agrees at n<=2")


def test_criterion_04_two_route_wick():
    t0 = time.time()
    report = suite_wick(n_max=3, d=2, chi_samples=5, extra_instances=200,
                        extra_n=4, seed=20260810)
    assert report["failure_count"] == 0
    assert report["instances"] >= 8 * 6 + 200
    _announce(4, time.time() - t0, 120,
              f"operator route == pairing-sum route on {report['instances']} "
              "instances (exhaustive words n<=3 with random side patterns and "
              "rational vectors; 200 seeded n=4 instances), exact")


def test_criterion_05_crossing_formula():
    t0 = time.time()
    report = suite_crossing_formula(n_max=5, random_n=6, random_count=10_000,
                                    seed=20260810)
    assert report["failure_count"] == 0
    assert report["instances"] >= 945 + 10_000
    _announce(5, time.time() - t0, 60,
              "crossing numbers equal the choice-parameter sum exhaustively "
              "for n<=5 and on 10^4 random length-12 instances, exact")


def test_criterion_06_preimage_counts():
    t0 = time.time()
    worked = DyckTuple("111**11***")
    sizes = [3, 2, 3, 2, 1]
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == 36 == preimage_size(worked)
    for n in range(1, 6):
        total = 0
        for eps in enumerate_dyck(2 * n):
            count = sum(1 for _ in enumerate_preimage(eps))
            assert count == preimage_size(eps)
            total += count
        assert total == odd_double_factorial(n)
    _announce(6, time.time() - t0, 10,
              "fibre sizes equal the choice-number product for every word "
              "(n<=5; the worked 3*2*3*2*1=36 instance included), totals "
              "are (2n-1)!!")


def test_criterion_07_doubled_tuple_counts():
    t0 = time.time()
    report = suite_pair_counting(d=2, n_max=4)
    assert report["failure_count"] == 0
    assert report["instances"] == sum(odd_double_factorial(n) for n in range(1, 5))
    _announce(7, time.time() - t0, 30,
              "d^(closed curves) equals the literal count over all d^(2n) "
              "doubled compatible tuples (d=2, all matchings, n<=4)")


def test_criterion_08_commutator():
    t0 = time.time()
    report = suite_commutator(d_max=2, len_max=4, float_trials=25, seed=20260810)
    assert report["failure_count"] == 0
    _announce(8, time.time() - t0, 10,
              "left/right commutation defect is exactly zero on all basis "
              "words (length<=4, d<=2, rational vectors) and <=1e-12 with "
              "complex vectors in float mode")


def test_criterion_09_small_polynomials():
    t0 = time.time()
    q1 = semi_meander_poly(1)
    q2 = semi_meander_poly(2)
    p2 = meander_poly(2)
    assert q1 == BivarPoly({(1, 0): 1})                      # Q_1 = t
    assert q2.u0_slice() == {1: 1, 2: 1}                     # Q_2 = t + t^2
    assert p2.u0_slice() == {1: 2, 2: 2}                     # P_2 = 2t + 2t^2
    assert q2 == BivarPoly({(1, 0): 1, (1, 1): 1, (2, 0): 1})
    assert p2 == BivarPoly({(1, 0): 2, (1, 1): 4, (2, 0): 2, (2, 2): 1})
    _announce(9, time.time() - t0, 1,
              "stated small polynomials reproduced exactly")


def test_criterion_10_measure_realization():
    t0 = time.time()
    q_values = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    for d in (1, 2, 3):
        for q in q_values:
            ms = semi_meander_moments(d, q, 10)
            ok, _ = hankel_psd_check(ms, size=6)
            assert ok, f"semi-meander Hankel failed at d={d} q={q}"
            rec = jacobi_from_moments(ms)
            k = min(3, rec.depth)
            quad = quadrature_from_jacobi(rec, k)
            for n in range(2 * k):
                target = float(ms.moments[n])
                assert abs(quad.moment(n) - target) <= 1e-9 * max(1.0, abs(target))
    for d in (1, 2):
        for q in q_values:
            ms = meander_moments(d, q, 6)
            ok, _ = hankel_psd_check(ms, size=4)
            assert ok, f"meander Hankel failed at d={d} q={q}"
            rec = jacobi_from_moments(ms)
            k = min(3, rec.depth)
            quad = quadrature_from_jacobi(rec, k)
            for n in range(2 * k):
                target = float(ms.moments[n])
                assert abs(quad.moment(n) - target) <= 1e-9 * max(1.0, abs(target))
    witness = negativity_witness(2, 0.0)
    assert witness < 0
    assert negativity_witness(2, Q0) == -4  # frozen exact value
    _announce(10, time.time() - t0, 30,
              "all shipped moment sequences pass the exact Hankel "
              "certificate; quadrature reproduces moments to 1e-9; the "
              "antisymmetric witness is strictly negative at q=0")
