from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanderq.scalars import FORMAL, Mode, QPoly, parse_q

from conftest import rationals

# Small values, so that zeros, cancellations and trailing zeros are common.
EXACT = st.one_of(st.integers(min_value=-2, max_value=2), rationals(max_num=2, max_den=2))
QPOLYS = st.lists(EXACT, max_size=5).map(QPoly)


def test_qpoly_normalizes_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly(()).coeffs == ()
    assert not QPoly((0,))


def test_qpoly_rejects_floats():
    with pytest.raises(TypeError):
        QPoly((0.5,))


@pytest.mark.parametrize("bad", [1.0, 1j, True, "1", None])
def test_qpoly_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        QPoly((1, bad))


def _normalized(p: QPoly) -> bool:
    return p.coeffs == QPoly(list(p.coeffs)).coeffs and (not p.coeffs or p.coeffs[-1] != 0)


@given(QPOLYS, QPOLYS, EXACT, st.integers(min_value=0, max_value=4))
@settings(max_examples=300)
def test_ring_results_are_normalized(p, r, c, k):
    results = [p * r, p + r, p - r, -p, p * c, c * p, p + c, c - p,
               p.shifted(k), p.shifted(k, c), p.shifted(k, r)]
    assert all(_normalized(x) for x in results)
    assert p.shifted(k, c) == p * c * QPoly.q_power(k)
    assert p.shifted(k, r) == p * r * QPoly.q_power(k)


def test_shift_rejects_inexact_scalars():
    with pytest.raises(TypeError):
        QPoly((1, 2)).shifted(1, 0.5)
    with pytest.raises(TypeError):
        QPoly((1, 2)).shifted(0, 1j)
    with pytest.raises(ValueError):
        QPoly((1, 2)).shifted(-1)


def test_qpoly_arithmetic():
    p = QPoly((1, 2))  # 1 + 2q
    q = QPoly((0, 1))  # q
    assert p + q == QPoly((1, 3))
    assert p - q == QPoly((1, 1))
    assert p * q == QPoly((0, 1, 2))
    assert 3 * p == QPoly((3, 6))
    assert p - p == QPoly.zero()
    assert (p + 1) == QPoly((2, 2))
    assert q**3 == QPoly.q_power(3)


def test_qpoly_equality_with_numbers():
    assert QPoly((5,)) == 5
    assert QPoly(()) == 0
    assert QPoly((Fraction(1, 2),)) == Fraction(1, 2)
    assert QPoly((0, 1)) != 1


def test_qpoly_eval():
    p = QPoly((1, 0, 2))  # 1 + 2q^2
    assert p.at(Fraction(1, 2)) == Fraction(3, 2)
    assert p.at(0) == 1


def test_qpoly_str():
    assert str(QPoly((6, 2))) == "6+2q"
    assert str(QPoly((4, 4, 1))) == "4+4q+q^2"
    assert str(QPoly((-4, 8, 0, -4))) == "-4+8q-4q^3"
    assert str(QPoly(())) == "0"
    assert str(QPoly((0, 1))) == "q"


def test_qpoly_coeff_strings():
    assert QPoly((1, Fraction(3, 2))).coeff_strings() == ["1", "3/2"]


def test_mode_validation():
    assert FORMAL.is_formal and FORMAL.is_exact
    assert Mode(Fraction(1, 2)).is_exact
    assert not Mode(0.5).is_exact
    with pytest.raises(ValueError):
        Mode(1.0)
    with pytest.raises(ValueError):
        Mode(Fraction(3, 2))


def test_mode_q_power():
    assert FORMAL.q_power(2) == QPoly((0, 0, 1))
    assert Mode(Fraction(1, 2)).q_power(3) == Fraction(1, 8)
    assert Mode(0.5).q_power(2) == 0.25
    assert Mode(Fraction(0)).q_power(0) == 1
    assert Mode(Fraction(0)).q_power(4) == 0


MODES = st.one_of(st.just(FORMAL),
                  st.integers(min_value=-8, max_value=8).map(lambda a: Mode(Fraction(a, 9))),
                  st.floats(min_value=-0.99, max_value=0.99).map(Mode))


@given(MODES, st.lists(EXACT, max_size=5))
@settings(max_examples=300)
def test_series_is_the_polynomial_at_q(mode, coeffs):
    got = mode.series(coeffs)
    assert got == (QPoly(coeffs) if mode.is_formal else QPoly(coeffs).at(mode.q))
    assert type(mode.series([0] * len(coeffs))) is type(mode.zero())


@given(MODES, st.one_of(EXACT, QPOLYS), EXACT, st.integers(min_value=0, max_value=4))
@settings(max_examples=300)
def test_shifted_is_c_times_f_times_q_to_the_k(mode, c, f, k):
    if isinstance(c, QPoly) and not mode.is_exact:
        c = c.at(mode.q)  # a float mode's scalars are numbers
    want = c * f * mode.q_power(k)
    got = mode.shifted(c, k, f)
    assert got == (want if mode.is_exact else pytest.approx(want))


def test_mode_equality_distinguishes_rings():
    assert Mode(Fraction(1, 2)) != Mode(0.5)
    assert Mode(Fraction(0)) != Mode(0.0)
    assert Mode(Fraction(1, 2)) == Mode(Fraction(1, 2))
    assert FORMAL == Mode(None)


def test_parse_q():
    assert parse_q("") is FORMAL or parse_q("").is_formal
    assert parse_q("1/2") == Mode(Fraction(1, 2))
    assert parse_q("0") == Mode(Fraction(0))
    # decimal text is its exact decimal rational, never a float
    assert parse_q("0.5") == Mode(Fraction(1, 2))
    assert parse_q("1e-3") == Mode(Fraction(1, 1000))
    assert parse_q("-0.9") == Mode(Fraction(-9, 10))
    assert parse_q(" 0.1 ").q == Fraction(1, 10)
    for bad in ("nan", "inf", "1.0", "1/0", "abc", "0.5.5"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_q(bad)
