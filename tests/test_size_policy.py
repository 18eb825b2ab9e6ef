"""The one size-limit policy: an explicit cap is the largest order n allowed,
and without one every route is checked against a closed-form size estimate
before it does any work."""

import itertools
import math
import time
from collections import Counter, deque
from fractions import Fraction

import pytest

import meanderq.fock as fock
import meanderq.partitions as partitions
import meanderq.polynomials as polynomials
from meanderq.cli import main
from meanderq.dyck import enumerate_bnc2_alternating, enumerate_dyck
from meanderq.errors import SWEEP_BUDGET, EnumerationCapError, check_size
from meanderq.fock import (
    loop_sweep,
    loop_sweep_sizes,
    meander_moment_sweep,
    semi_meander_moment_sweep,
    sweep_sizes,
)
from meanderq.partitions import enumerate_noncrossing, enumerate_pair_partitions
from meanderq.polynomials import meander_poly, semi_meander_poly
from meanderq.scalars import FORMAL, Mode
from meanderq.spectra import semi_meander_moments

ROUTES = [
    "poly --kind semi",
    "poly --kind meander",
    "moments --operator T --d 2",
    "moments --operator X --d 2",
    "spectrum --d 2 --q 1/2",
    "enumerate --kind pairs",
    "enumerate --kind noncrossing",
    "enumerate --kind dyck",
    "enumerate --kind bnc",
]


class TestCheckSize:
    def test_explicit_cap_is_the_only_check(self):
        # the size is never read, so an endless one does not matter
        check_size(5, 5, itertools.repeat(10**100), 1)
        with pytest.raises(EnumerationCapError):
            check_size(6, 5, iter(()), 10**9)

    def test_counting_stops_past_the_budget(self):
        with pytest.raises(EnumerationCapError, match="budget 10"):
            check_size(3, None, itertools.count(), 10)
        check_size(3, None, iter([1, 5, 10]), 10)


@pytest.mark.parametrize("route", ROUTES)
def test_cap_is_the_largest_order(route, capsys):
    assert main([*route.split(), "--n", "3", "--cap", "3"]) == 0
    assert main([*route.split(), "--n", "3", "--cap", "2"]) == 2


@pytest.mark.parametrize("route", ROUTES + [
    "moments --operator T --d 1 --q 1/2",
    "moments --operator X --d 1 --q 0.5",
    "spectrum --d 1 --q 0.5",
])
def test_refusal_does_no_work(route, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused route started work")

    for module, name in [(fock, "_orbit_step"), (fock, "_loop_step"),
                         (polynomials, "_sum_chunks"),
                         (partitions, "_iter_matchings_raw"),
                         (partitions, "_iter_noncrossing_raw")]:
        monkeypatch.setattr(module, name, no_work)
    start = time.monotonic()
    assert main([*route.split(), "--n", "1000000"]) == 2
    assert time.monotonic() - start < 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "moments --d 1 --n 9",
    "moments --operator X --d 3 --n 4",
    "poly --kind semi --n 2 --cap 2",
    "enumerate --kind dyck --n 3 --cap 3",
    "spectrum --d 3 --q 1/2 --n 10",
    "spectrum --d 2 --q 0.5 --n 12",
    "moments --d 5 --n 7",
    "moments --d 10 --n 6",
    "moments --operator T --d 3 --n 9",
])
def test_documents_admitted(argv, capsys):
    assert main(argv.split()) == 0


def test_spectrum_has_the_moments_limit(capsys):
    start = time.monotonic()
    assert main("spectrum --d 3 --q 1/2 --n 40".split()) == 2
    assert time.monotonic() - start < 1
    assert len(semi_meander_moments(2, Fraction(1, 2), 10)) == 11


class TestEnumerationBoundaries:
    """The enumeration budget keeps the limits of the old ground-set cap."""

    @pytest.mark.parametrize("build,last", [(semi_meander_poly, 8), (meander_poly, 5)])
    def test_polynomials(self, build, last, monkeypatch):
        monkeypatch.setattr(polynomials, "_sum_chunks", lambda *args: None)
        build(last)
        with pytest.raises(EnumerationCapError):
            build(last + 1)
        build(last + 1, cap=last + 1)

    @pytest.mark.parametrize("enumerate_order,last", [
        (enumerate_pair_partitions, 8),
        (enumerate_noncrossing, 13),
        (lambda n, cap=None: enumerate_dyck(2 * n, cap=cap), 13),
        (lambda n, cap=None: enumerate_bnc2_alternating(2 * n, cap=cap), 13),
    ])
    def test_enumerators_check_at_the_call(self, enumerate_order, last):
        enumerate_order(last)
        with pytest.raises(EnumerationCapError):
            enumerate_order(last + 1)
        enumerate_order(last + 1, cap=last + 1)


def _counting_products(monkeypatch):
    """A counter of the scalar products a step makes, one per ``_accumulate`` call."""
    ticks = itertools.count()
    accumulate = fock._accumulate

    def counting(out, word, value):
        next(ticks)
        accumulate(out, word, value)

    monkeypatch.setattr(fock, "_accumulate", counting)
    return ticks


def _estimate(d, n, mode, doubled):
    return deque(sweep_sizes(d, n, mode, doubled), maxlen=1)[0]


@pytest.mark.parametrize("doubled,d,n", [
    (False, 1, 10), (False, 1, 30), (False, 1, 40), (False, 2, 8), (False, 2, 12),
    (False, 3, 8), (False, 5, 8), (False, 10, 4),
    (True, 1, 8), (True, 1, 15), (True, 1, 20), (True, 2, 6), (True, 3, 5), (True, 5, 4),
    (True, 10, 4),
])
def test_sweep_estimate_bounds_the_products(doubled, d, n, monkeypatch):
    """Every scalar product of a step is one ``_accumulate`` call; the
    estimate is at least their number and at most ten times it."""
    ticks = _counting_products(monkeypatch)
    sweep = meander_moment_sweep if doubled else semi_meander_moment_sweep
    sweep(d, n, Mode(0.5), cap=n)
    made = next(ticks)
    estimate = _estimate(d, n, Mode(0.5), doubled)
    assert made <= estimate <= 10 * made


@pytest.mark.parametrize("doubled,n", [(False, n) for n in range(1, 13)]
                         + [(True, n) for n in range(1, 7)])
def test_loop_estimate_bounds_the_products(doubled, n, monkeypatch):
    """The loop sweep's count, before its width weight, is at least the
    products the sweep makes and at most ten times them."""
    ticks = _counting_products(monkeypatch)
    loop_sweep(n, doubled, cap=n)
    made = next(ticks)
    *_, estimate, weighted = loop_sweep_sizes(n, doubled)
    assert made <= estimate <= 10 * made
    width = fock._digit_bits(n, doubled) * (n + 1)
    assert weighted == math.ceil(estimate * fock._formal_weight(width, n, doubled))


@pytest.mark.parametrize("doubled,steps", [(False, 8), (True, 8)])
def test_loop_states_bound_every_layer(doubled, steps):
    """The unpruned loop sweep after m steps holds at most ``_loop_states``
    states of each shape, and exactly one of the full length."""
    vacuum = ((), ()) if doubled else ((),)
    x, memo = fock._OrbitVector(1, FORMAL, vacuum, {vacuum: 1}, 64), {}
    for m in range(1, steps + 1):
        x = fock._loop_step(x, doubled=doubled, reach=4 * steps, digit_bits=8, memo=memo)
        shapes = Counter(tuple(map(len, legs)) for legs in x.terms)
        assert shapes[(m, m) if doubled else (2 * m,)] == 1
        for shape, count in shapes.items():
            assert count <= fock._loop_states(m, *shape), (m, shape)


def test_products_are_weighed_by_their_packed_width():
    """A formal product shifts ints of C (degree + 1) bits; a product at
    q = a/b multiplies a numerator over b^S by an entry of at most b^M, S
    the sum and M the largest of the steps' denominator growths
    2 (longest leg) + 1; a float product weighs 1; and each weighs n/100
    more (2n/100 for X) for the length of its words."""
    assert fock._packed_width(1, 30, doubled=False) == 218
    assert fock._product_weight(1, 30, FORMAL, False) == 1 + 218 * 436 / 50_000 + 30 / 100
    assert fock._product_weight(2, 5, FORMAL, True) == 1 + 45 * 21 / 50_000 + 10 / 100
    tops = [2 * h + 1 for h in fock._horizons(60, doubled=False)]
    assert (sum(tops), max(tops)) == (3660, 121)
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(-7, 9)):
        weight = fock._product_weight(1, 60, Mode(q), False)
        assert weight == 1 + 3660 * 121 * math.log2(q.denominator) ** 2 / 2_000_000 + 60 / 100
    assert fock._product_weight(1, 60, Mode(Fraction(0)), False) == 1 + 60 / 100
    assert fock._product_weight(1, 60, Mode(0.5), False) == 1 + 60 / 100
    # the running product counts, then their total times the weight
    for d, n, mode, doubled in [(1, 30, FORMAL, False), (2, 5, FORMAL, True),
                                (1, 60, Mode(Fraction(9, 10)), False)]:
        counts = list(sweep_sizes(d, n, Mode(0.5), doubled))
        weight = fock._product_weight(d, n, mode, doubled)
        assert counts[-1] == math.ceil(counts[-2] * fock._product_weight(d, n, Mode(0.5), doubled))
        assert list(sweep_sizes(d, n, mode, doubled)) == [
            *counts[:-1], math.ceil(counts[-2] * weight)]


def test_wide_denominators_are_refused(capsys):
    # q = 9/10 at n = 90 weighs 10.1 float products a product; q = 1/2 fits
    assert _estimate(1, 90, Mode(Fraction(1, 2)), False) <= SWEEP_BUDGET
    assert _estimate(1, 90, Mode(Fraction(9, 10)), False) > SWEEP_BUDGET
    assert main("spectrum --d 1 --q 9/10 --n 90".split()) == 2
    with pytest.raises(EnumerationCapError):
        semi_meander_moment_sweep(1, 65, FORMAL)
    assert _estimate(1, 65, Mode(0.5), False) <= SWEEP_BUDGET
