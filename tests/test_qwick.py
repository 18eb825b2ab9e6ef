import random
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import rational_vectors

from meanderq.dyck import ChoiceTuple, DyckTuple, alternating_pattern, enumerate_dyck
from meanderq.errors import GroundSetError
from meanderq.fock import IndexTuple, OpSymbol, basis_vector, semi_meander_moment, vector_inner
from meanderq.partitions import (
    PairPartition,
    act,
    crossings,
    enumerate_pair_partitions,
    labels_to_heights,
)
from meanderq.polynomials import semi_meander_poly
from meanderq.qwick import (
    WickProduct,
    apply_choice_product,
    basis_wick_product,
    bnc_moment_q0,
    compatible_crossing_sum,
    doubled_compatible_count,
    doubled_compatible_count_bruteforce,
    height_compatible,
    wick_scalar_combinatorial,
    wick_scalar_operator,
    wick_term,
)
from meanderq.scalars import Mode, QPoly

REFERENCE_PI = PairPartition([(1, 9), (2, 7), (3, 10), (4, 5), (6, 8)])
EPS_EXAMPLE = DyckTuple.from_string("111**11***")


def rational_vec(rng, d=2):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))


class TestWickProduct:
    def test_validation(self):
        with pytest.raises(GroundSetError):
            WickProduct(("l", "r"), ("1",), ((1, 0),))
        with pytest.raises(ValueError):
            WickProduct(("l", "r"), ("1", "x"), ((1, 0), (0, 1)))
        with pytest.raises(GroundSetError):
            WickProduct(("l", "r"), ("1", "*"), ((1, 0), (0, 1, 0)))

    def test_factors_keep_the_side_and_flavor_letters(self):
        chi, eps = ("r", "l", "l", "r"), ("1", "1", "*", "*")
        vectors = ((1, 0), (0, 1), (1, 1), (2, 0))
        wp = WickProduct(chi, eps, vectors)
        expected = [OpSymbol(c, e, v) for c, e, v in zip(chi, eps, vectors)]
        assert wp.factors() == expected[::-1]


class TestTwoRoutes:
    def test_single_pair(self):
        e1 = basis_vector(2, 1)
        for chi in (("l", "r"), ("r", "l"), ("l", "l")):
            wp = WickProduct(chi, ("1", "*"), (e1, e1))
            assert wick_scalar_operator(wp) == 1
            assert wick_scalar_combinatorial(wp) == 1

    def test_non_dyck_vanishes(self):
        e1 = basis_vector(2, 1)
        wp = WickProduct(("l", "r"), ("*", "1"), (e1, e1))
        assert wick_scalar_operator(wp) == 0
        assert wick_scalar_combinatorial(wp) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_dyck_vanishes_exhaustively(self, n):
        rng = random.Random(20 + n)
        for symbols in product("1*", repeat=2 * n):
            try:
                DyckTuple(symbols)
                continue  # only the non-Dyck words here
            except ValueError:
                pass
            vectors = tuple(rational_vec(rng) for _ in range(2 * n))
            chi = tuple(rng.choice("lr") for _ in range(2 * n))
            wp = WickProduct(chi, symbols, vectors)
            assert wick_scalar_operator(wp) == QPoly.zero()
            assert wick_scalar_combinatorial(wp) == QPoly.zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_exhaustive_over_words(self, n):
        rng = random.Random(n)
        for eps in enumerate_dyck(2 * n):
            chis = [alternating_pattern(2 * n)] + [
                tuple(rng.choice("lr") for _ in range(2 * n)) for _ in range(3)
            ]
            for chi in chis:
                vectors = tuple(rational_vec(rng) for _ in range(2 * n))
                wp = WickProduct(chi, eps.symbols, vectors)
                assert wick_scalar_operator(wp) == wick_scalar_combinatorial(wp)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equality_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        eps = data.draw(st.sampled_from(list(enumerate_dyck(2 * n))))
        chi = tuple(data.draw(st.sampled_from("lr")) for _ in range(2 * n))
        vectors = tuple(data.draw(rational_vectors(2)) for _ in range(2 * n))
        wp = WickProduct(chi, eps.symbols, vectors)
        assert wick_scalar_operator(wp) == wick_scalar_combinatorial(wp)

    def test_seeded_larger_instances(self):
        rng = random.Random(99)
        for _ in range(25):
            n = 4
            symbols = ["1"] * n + ["*"] * n
            rng.shuffle(symbols)
            try:
                eps = DyckTuple(symbols)
            except ValueError:
                continue
            chi = tuple(rng.choice("lr") for _ in range(2 * n))
            vectors = tuple(rational_vec(rng) for _ in range(2 * n))
            wp = WickProduct(chi, eps.symbols, vectors)
            assert wick_scalar_operator(wp) == wick_scalar_combinatorial(wp)


class TestWorkedSummand:
    def test_choice_product_reproduces_factorization(self):
        rng = random.Random(42)
        us = [rational_vec(rng) for _ in range(10)]
        wp = WickProduct(alternating_pattern(10), EPS_EXAMPLE.symbols, tuple(us))
        ct = ChoiceTuple((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)
        out = apply_choice_product(ct, wp)
        # pairs in height coordinates: {3,4},{1,5},{2,8},{6,9},{7,10}; the
        # crossing exponent collected along the way is 4
        expected = QPoly.q_power(4)
        for k, h in ((7, 10), (6, 9), (2, 8), (1, 5), (3, 4)):
            expected = expected * vector_inner(us[k - 1], us[h - 1])
        assert out.vacuum_amplitude() == expected

    def test_wick_term_matches_choice_product(self):
        rng = random.Random(43)
        us = [rational_vec(rng) for _ in range(10)]
        wp = WickProduct(alternating_pattern(10), EPS_EXAMPLE.symbols, tuple(us))
        ct = ChoiceTuple((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)
        from meanderq.dyck import choices_to_partition

        pi = choices_to_partition(ct)
        assert wick_term(pi, wp) == apply_choice_product(ct, wp).vacuum_amplitude()

    def test_sum_of_choice_products_is_wick_scalar(self):
        rng = random.Random(44)
        n = 3
        eps = DyckTuple.from_string("11*1**")
        us = tuple(rational_vec(rng) for _ in range(2 * n))
        chi = tuple("rlllrr")
        wp = WickProduct(chi, eps.symbols, us)
        from meanderq.dyck import choice_number

        stars = eps.star_heights()
        total = QPoly.zero()
        for combo in product(*[range(1, choice_number(eps, h) + 1) for h in stars]):
            gammas = [1] * (2 * n)
            for h, g in zip(stars, combo):
                gammas[h - 1] = g
            ct = ChoiceTuple(gammas, eps)
            total = total + apply_choice_product(ct, wp).vacuum_amplitude()
        assert total == wick_scalar_operator(wp) == wick_scalar_combinatorial(wp)


class TestHeightCompatibility:
    def test_reference_constraints(self):
        # height pairs of the worked partition: {1,4},{2,5},{3,8},{6,10},{7,9}
        good = [0] * 10
        values = {1: 1, 4: 1, 2: 2, 5: 2, 3: 1, 8: 1, 6: 2, 10: 2, 7: 1, 9: 1}
        index = IndexTuple(tuple(values[k] for k in range(1, 11)), 2)
        assert height_compatible(index, REFERENCE_PI)
        bad = dict(values)
        bad[4] = 2
        index_bad = IndexTuple(tuple(bad[k] for k in range(1, 11)), 2)
        assert not height_compatible(index_bad, REFERENCE_PI)

    def test_constant_always_compatible(self):
        for pi in enumerate_pair_partitions(3):
            assert height_compatible(IndexTuple((1,) * 6, 2), pi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compatible_count_is_d_power_n(self, n):
        d = 2
        sample = list(enumerate_pair_partitions(n))
        if n == 4:
            sample = sample[::7]
        for pi in sample:
            count = sum(
                1
                for values in product(range(1, d + 1), repeat=2 * n)
                if height_compatible(IndexTuple(values, d), pi)
            )
            assert count == d**n


class TestCompatibleCrossingSum:
    def test_empty_sum_is_zero(self):
        eps = DyckTuple.from_string("1*")
        assert compatible_crossing_sum(IndexTuple((1, 2), 2), eps) == 0

    def test_single_pair(self):
        eps = DyckTuple.from_string("1*")
        assert compatible_crossing_sum(IndexTuple((1, 1), 2), eps) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_operator_route(self, n):
        d = 2
        for eps in enumerate_dyck(2 * n):
            for values in product(range(1, d + 1), repeat=2 * n):
                index = IndexTuple(values, d)
                comb = compatible_crossing_sum(index, eps)
                op = wick_scalar_operator(basis_wick_product(index, eps.symbols))
                assert comb == op


class TestMomentSum:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_polynomial(self, d, n):
        assert semi_meander_moment(d, n) == semi_meander_poly(n).eval_at_t(d)

    def test_trivial(self):
        assert semi_meander_moment(1, 1) == 1

    def test_d2_n2(self):
        assert semi_meander_moment(2, 2) == QPoly((6, 2))


class TestDoubledCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rainbow(self, n):
        from meanderq.partitions import rainbow

        assert doubled_compatible_count(rainbow(2 * n), 2) == 2**n

    def test_reference_partition(self):
        assert doubled_compatible_count(REFERENCE_PI, 2) == 2  # one closed curve

    def test_d_one(self):
        for pi in enumerate_pair_partitions(3):
            assert doubled_compatible_count(pi, 1) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bruteforce_agreement(self, n):
        for pi in enumerate_pair_partitions(n):
            assert doubled_compatible_count(pi, 2) == doubled_compatible_count_bruteforce(pi, 2)

    def test_bruteforce_cap(self):
        with pytest.raises(ValueError):
            doubled_compatible_count_bruteforce(REFERENCE_PI, 10)


class TestBncMoments:
    def test_d2_n2(self):
        assert bnc_moment_q0(2, 2) == 6

    def test_d1(self):
        assert bnc_moment_q0(1, 1) == 1
        assert bnc_moment_q0(1, 2) == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_undeformed_polynomial(self, d, n):
        assert bnc_moment_q0(d, n) == semi_meander_poly(n).eval(d, 0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_operator_at_q0(self, d, n):
        assert bnc_moment_q0(d, n) == semi_meander_moment(d, n, Mode(Fraction(0)))
