"""The one size-limit policy: an explicit cap is the largest order n allowed,
and without one every route is checked against a closed-form size estimate
before it does any work."""

import itertools
import time
from collections import deque
from fractions import Fraction

import pytest

import meanderq.fock as fock
import meanderq.partitions as partitions
import meanderq.polynomials as polynomials
from meanderq.cli import main
from meanderq.dyck import enumerate_bnc2_alternating, enumerate_dyck
from meanderq.errors import EnumerationCapError, check_size
from meanderq.fock import meander_moment_sweep, semi_meander_moment_sweep, sweep_sizes
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

    for module, name in [(fock, "_orbit_step"), (polynomials, "_sum_chunks"),
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


def _estimate(d, n, mode, doubled):
    return deque(sweep_sizes(d, n, mode, doubled), maxlen=1)[0]


@pytest.mark.parametrize("doubled,d,n", [
    (False, 1, 10), (False, 1, 30), (False, 2, 8), (False, 2, 12), (False, 3, 8),
    (False, 5, 8), (False, 10, 4),
    (True, 1, 8), (True, 1, 15), (True, 2, 6), (True, 3, 5), (True, 5, 4), (True, 10, 4),
])
def test_sweep_estimate_bounds_the_products(doubled, d, n, monkeypatch):
    """Every scalar product of a step is one ``_accumulate`` call; the
    estimate is at least their number and at most ten times it."""
    ticks = itertools.count()
    accumulate = fock._accumulate

    def counting(out, word, value):
        next(ticks)
        accumulate(out, word, value)

    monkeypatch.setattr(fock, "_accumulate", counting)
    sweep = meander_moment_sweep if doubled else semi_meander_moment_sweep
    sweep(d, n, Mode(0.5), cap=n)
    made = next(ticks)
    estimate = _estimate(d, n, Mode(0.5), doubled)
    assert made <= estimate <= 10 * made


def test_formal_mode_weighs_the_q_degrees():
    assert _estimate(1, 30, FORMAL, False) == 436 * _estimate(1, 30, Mode(0.5), False)
    assert _estimate(2, 5, FORMAL, True) == 21 * _estimate(2, 5, Mode(Fraction(1, 2)), True)
    semi_meander_moment_sweep(1, 30, Mode(0.5))
    with pytest.raises(EnumerationCapError):
        semi_meander_moment_sweep(1, 30, FORMAL)
