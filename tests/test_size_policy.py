"""The one size-limit policy: an explicit cap is the largest order n allowed,
and without one every route is checked against a closed-form size estimate
before it does any work."""

import itertools
import math
import time
from collections import Counter, deque
from fractions import Fraction
from functools import partial

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
from meanderq.partitions import (
    enumerate_noncrossing,
    enumerate_pair_partitions,
    odd_double_factorial,
)
from meanderq.polynomials import kronecker_poly, meander_poly, semi_meander_poly
from meanderq.scalars import FORMAL, Mode
from meanderq.spectra import semi_meander_moments

from conftest import orbit_sweep, priced_out

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
    "moments --operator T --d 3",
    "moments --operator X --d 4 --q 1/2",
    "spectrum --d 5 --q 9/10",
])
def test_refusal_does_no_work(route, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused route started work")

    for module, name in [(fock, "_orbit_step"), (fock, "_loop_step"),
                         (polynomials, "_systems"),
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
        monkeypatch.setattr(polynomials, "_systems", lambda *args: None)
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
    estimate is at least their number and at most ten times it.  The orbit
    sweep runs the moments where its price is lower and is the oracle of
    the loop basis elsewhere."""
    ticks = _counting_products(monkeypatch)
    orbit_sweep(d, n, Mode(Fraction(1, 2)), doubled, cap=n)
    made = next(ticks)
    estimate = _estimate(d, n, Mode(Fraction(1, 2)), doubled)
    assert made <= estimate <= 10 * made


LOOP_MOMENTS = [(doubled, n, d, q) for doubled, n in [(False, 9), (False, 12), (True, 5)]
                for d in (3, 4, 5) for q in (None, Fraction(1, 2), Fraction(-7, 9))]


@pytest.mark.parametrize("doubled,n,d,q", [
    *(pytest.param(doubled, n, None, None, id=f"{doubled}-{n}")
      for doubled, n in [(False, n) for n in range(1, 13)] + [(True, n) for n in range(1, 7)]),
    *(pytest.param(*case, id="{}-{}-d{}-{}".format(*case)) for case in LOOP_MOMENTS),
])
def test_loop_estimate_bounds_the_products(doubled, n, d, q, monkeypatch):
    """The loop sweep's count, before its width weight, is at least the
    products the sweep makes and at most ten times them: for the
    polynomial at formal t (d None), and for the moment at t = d, formal
    (q None) or at q."""
    ticks = _counting_products(monkeypatch)
    mode = FORMAL if q is None else Mode(q)
    if d is None:
        loop_sweep(n, doubled, cap=n)
    else:
        sweep = meander_moment_sweep if doubled else semi_meander_moment_sweep
        sweep(d, n, mode, cap=n)
    weight = fock._packed_weight(d, n, mode, doubled)
    made = next(ticks)
    *_, estimate, weighted = loop_sweep_sizes(d, n, mode, doubled)
    assert made <= estimate <= 10 * made
    assert weighted == math.ceil(estimate * weight)


@pytest.mark.parametrize("doubled,steps", [(False, 8), (True, 8)])
def test_loop_states_bound_every_layer(doubled, steps):
    """The unpruned loop sweep after m steps holds at most (L-1)!! states
    of L ends of each shape, a matching of them, and exactly one of the
    full length."""
    vacuum = ((), ()) if doubled else ((),)
    x, memo = {vacuum: 1}, {}
    tables, _ = fock._step_tables(FORMAL, 64, 2 * steps)
    for m in range(1, steps + 1):
        x = fock._loop_step(x, 1 << 8, doubled, 4 * steps, memo, tables)
        shapes = Counter(tuple(map(len, legs)) for legs in x)
        assert shapes[(m, m) if doubled else (2 * m,)] == 1
        for shape, count in shapes.items():
            assert count <= odd_double_factorial(sum(shape) // 2), (m, shape)


HALF = Mode(Fraction(1, 2))
ZERO = Mode(Fraction(0))


@pytest.mark.parametrize("run,products", [
    pytest.param(partial(semi_meander_moment_sweep, 2, 12, HALF, cap=12), 16_685, id="T-d2-n12"),
    pytest.param(partial(meander_moment_sweep, 2, 6, HALF, cap=6), 10_886, id="X-d2-n6"),
    pytest.param(partial(semi_meander_moment_sweep, 2, 14, FORMAL, cap=14), 68_987,
                 id="T-d2-n14-formal"),
    pytest.param(partial(semi_meander_moment_sweep, 3, 10, HALF, cap=10), 3_680, id="T-d3-n10"),
    pytest.param(partial(loop_sweep, 13, False, cap=13), 51_518, id="Q13"),
    pytest.param(partial(meander_moment_sweep, 3, 5, HALF, cap=5), 2_202, id="X-d3-n5"),
    pytest.param(partial(semi_meander_moment_sweep, 2, 12, ZERO, cap=12), 8_465,
                 id="T-d2-n12-q0"),
    pytest.param(partial(semi_meander_moment_sweep, 3, 10, ZERO, cap=10), 926,
                 id="T-d3-n10-q0"),
    pytest.param(partial(loop_sweep, 7, True, cap=7), 57_677, id="P7"),
])
def test_the_sweeps_make_these_products(run, products, monkeypatch):
    """The work of both steps in both bases, pinned: a change to a step
    that makes more or fewer products (``_accumulate`` calls) fails here.
    At q = 0 the half-states of value 0 make no products."""
    ticks = _counting_products(monkeypatch)
    run()
    assert next(ticks) == products


@pytest.mark.parametrize("q", [None, Fraction(1, 2), Fraction(0)])
@pytest.mark.parametrize("loops", [False, True], ids=["orbits", "loops"])
@pytest.mark.parametrize("doubled,d,n", [
    (False, 1, 14), (False, 2, 10), (False, 3, 8), (True, 1, 6), (True, 2, 5), (True, 3, 4),
])
def test_the_exact_price_reads_the_legs_the_sweep_uses(doubled, d, n, loops, q, monkeypatch):
    """``_packed_weight`` prices a sweep at q = a/b, and each step sizes its
    tables and the denominator it adds, from the longest leg ``_schedule``
    gives the step: in either basis it is the longest leg of the states
    the step is handed."""
    longest, step = [], fock._two_pass_step

    def recording(terms, *args):
        longest.append(max((len(leg) for legs in terms for leg in legs), default=0))
        return step(terms, *args)

    monkeypatch.setattr(fock, "_two_pass_step", recording)
    monkeypatch.setattr(fock, "sweep_sizes" if loops else "loop_sweep_sizes", priced_out)
    run = meander_moment_sweep if doubled else semi_meander_moment_sweep
    run(d, n, FORMAL if q is None else Mode(q), cap=n)
    assert longest == [top for _, top in fock._schedule(n, doubled)]


@pytest.mark.parametrize("q", [None, Fraction(1, 2)])
@pytest.mark.parametrize("doubled,n", [(False, 10), (False, 30), (True, 8), (True, 15)])
def test_orbit_count_is_exact_at_one_letter(doubled, n, q, monkeypatch):
    """At d = 1 a shape holds one state, the word of one letter, so the
    orbit count before its weight is the products the sweep makes."""
    ticks = _counting_products(monkeypatch)
    mode = FORMAL if q is None else Mode(q)
    orbit_sweep(1, n, mode, doubled, cap=n)
    made = next(ticks)
    *_, estimate, _ = sweep_sizes(1, n, mode, doubled)
    assert estimate == made


PRICED_SWEEPS = [
    pytest.param(partial(kronecker_poly, "semi", 6), 6, id="poly-semi"),
    pytest.param(partial(kronecker_poly, "meander", 4), 8, id="poly-meander"),
    *(pytest.param(partial(sweep, d, n, mode), 2 * n if doubled else n,
                   id=f"{'X' if doubled else 'T'}-d{d}-{'formal' if mode.is_formal else mode.q}")
      for doubled, sweep, n in [(False, semi_meander_moment_sweep, 5),
                                (True, meander_moment_sweep, 3)]
      for d in (1, 2, 3) for mode in (FORMAL, Mode(Fraction(1, 2)))),
]


@pytest.mark.parametrize("run,steps", PRICED_SWEEPS)
def test_every_sweep_is_priced_once_before_its_first_step(run, steps, monkeypatch):
    """``_moment_sweep`` is the one entry of every sweep, in either basis:
    it prices the sweep once, and only then runs its steps."""
    events, price, step = [], fock.check_size, fock._two_pass_step

    def pricing(*args):
        events.append("price")
        return price(*args)

    def stepping(*args):
        events.append("step")
        return step(*args)

    monkeypatch.setattr(fock, "check_size", pricing)
    monkeypatch.setattr(fock, "_two_pass_step", stepping)
    run()
    assert events == ["price"] + ["step"] * steps


@pytest.mark.parametrize("doubled", [False, True], ids=["Q", "P"])
def test_formal_t_is_the_loop_moment_at_t_2_to_the_W(doubled):
    """At formal t (``d`` None) a sweep packs the width of the loop-basis
    moment at t = 2^W, W(n+1) bits per q-degree, without building 2^(Wn)."""
    for n in range(1, 201):
        bits = fock._history_bits(n, doubled)
        wide = fock._history_bits(n, doubled, 1 << bits)
        assert wide == fock._history_bits(n, doubled, None) == bits * (n + 1)


def test_products_are_weighed_by_their_packed_width():
    """A formal product shifts ints of C (degree + 1) bits; a product at
    q = a/b multiplies a numerator over b^S by an entry of at most b^M, S
    the sum and M the largest of the steps' denominator growths
    2 (longest leg) + 1; and each weighs n/100 more (2n/100 for X) for the
    length of its words."""
    assert fock._history_bits(30, doubled=False, d=1) == 135
    assert fock._product_weight(1, 30, FORMAL, False) == 1 + 135 * 436 / 50_000 + 30 / 100
    assert fock._product_weight(2, 5, FORMAL, True) == 1 + 25 * 21 / 50_000 + 10 / 100
    tops = [2 * top + 1 for _, top in fock._schedule(60, doubled=False)]
    assert (sum(tops), max(tops)) == (3660, 121)
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(-7, 9)):
        weight = fock._product_weight(1, 60, Mode(q), False)
        assert weight == 1 + 3660 * 121 * math.log2(q.denominator) ** 2 / 2_000_000 + 60 / 100
    assert fock._product_weight(1, 60, Mode(Fraction(0)), False) == 1 + 60 / 100
    # the running product counts, then their total times the weight
    for d, n, mode, doubled in [(1, 30, FORMAL, False), (2, 5, FORMAL, True),
                                (1, 60, Mode(Fraction(9, 10)), False)]:
        half = Mode(Fraction(1, 2))
        counts = list(sweep_sizes(d, n, half, doubled))
        weight = fock._product_weight(d, n, mode, doubled)
        assert counts[-1] == math.ceil(counts[-2] * fock._product_weight(d, n, half, doubled))
        assert list(sweep_sizes(d, n, mode, doubled)) == [
            *counts[:-1], math.ceil(counts[-2] * weight)]


def test_wide_denominators_are_refused(capsys):
    # q = 9/10 at n = 90 weighs 10.1 products of small ints a product; q = 1/2 fits
    assert _estimate(1, 90, Mode(Fraction(1, 2)), False) <= SWEEP_BUDGET
    assert _estimate(1, 90, Mode(Fraction(9, 10)), False) > SWEEP_BUDGET
    assert main("spectrum --d 1 --q 9/10 --n 90".split()) == 2
    with pytest.raises(EnumerationCapError):
        semi_meander_moment_sweep(1, 70, FORMAL)
    assert _estimate(1, 70, Mode(Fraction(1, 2)), False) <= SWEEP_BUDGET
