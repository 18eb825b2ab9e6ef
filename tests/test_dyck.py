import random
from itertools import product

import pytest

from meanderq.dyck import (
    ONE,
    ChoiceTuple,
    DyckTuple,
    alternating_pattern,
    choice_bounds,
    choice_number,
    choices_to_partition,
    crossings_from_choices,
    dyck_tuple_of,
    enumerate_bnc2_alternating,
    enumerate_dyck,
    enumerate_preimage,
    height_pairs,
    is_dyck,
    partition_to_choices,
    preimage_size,
    to_lattice_path,
    walk_preimage,
)
from meanderq.partitions import (
    PairPartition,
    act,
    catalan,
    crossings,
    enumerate_noncrossing,
    enumerate_pair_partitions,
    labels_to_heights,
    odd_double_factorial,
)

EPS_EXAMPLE = DyckTuple("111**11***")
REFERENCE_PI = PairPartition([(1, 9), (2, 7), (3, 10), (4, 5), (6, 8)])


def random_chi(rng, two_n):
    return tuple(rng.choice("lr") for _ in range(two_n))


class TestDyckBasics:
    def test_is_dyck_examples(self):
        assert is_dyck("1*")
        assert not is_dyck("*1")
        assert is_dyck("111**11***")
        assert not is_dyck("11*")
        with pytest.raises(ValueError):
            is_dyck("1x")

    def test_constructor_rejects_non_dyck(self):
        with pytest.raises(ValueError):
            DyckTuple("*1")
        with pytest.raises(ValueError):
            DyckTuple("1*1")

    @pytest.mark.parametrize("two_n", (2, 4, 6, 8, 10, 12))
    def test_enumeration_counts(self, two_n):
        assert sum(1 for _ in enumerate_dyck(two_n)) == catalan(two_n // 2)

    def test_enumeration_order_frozen(self):
        got = [str(t) for t in enumerate_dyck(6)]
        assert got == ["111***", "11*1**", "11**1*", "1*11**", "1*1*1*"]

    def test_lattice_path(self):
        assert to_lattice_path(DyckTuple("1*")) == (1, 0)
        assert to_lattice_path(EPS_EXAMPLE) == (1, 2, 3, 2, 1, 2, 3, 2, 1, 0)

    @pytest.mark.parametrize("two_n", (2, 4, 6, 8, 10, 12))
    def test_path_nonneg_ending_zero_iff_dyck(self, two_n):
        for symbols in product("1*", repeat=two_n):
            path = to_lattice_path(symbols)
            path_ok = all(h >= 0 for h in path) and path[-1] == 0
            assert path_ok == is_dyck(symbols)

    def test_first_step_always_up(self):
        for two_n in (2, 4, 6, 8):
            for eps in enumerate_dyck(two_n):
                assert to_lattice_path(eps)[0] == 1


class TestChoiceNumbers:
    def test_worked_values(self):
        assert choice_number(EPS_EXAMPLE, 4) == 3
        assert choice_number(EPS_EXAMPLE, 5) == 2
        assert choice_number(EPS_EXAMPLE, 8) == 3
        assert choice_number(EPS_EXAMPLE, 9) == 2
        assert choice_number(EPS_EXAMPLE, 10) == 1
        assert choice_number(DyckTuple("1*"), 2) == 1

    def test_non_star_rejected(self):
        with pytest.raises(ValueError):
            choice_number(EPS_EXAMPLE, 1)

    @pytest.mark.parametrize("h", [0, -1, EPS_EXAMPLE.size + 1])
    def test_position_outside_the_tuple_rejected(self, h):
        # h = 0 and -1 would read the last stars from the end
        with pytest.raises(ValueError, match="outside"):
            choice_number(EPS_EXAMPLE, h)

    @pytest.mark.parametrize("two_n", (2, 4, 6, 8, 10, 12))
    def test_always_positive(self, two_n):
        for eps in enumerate_dyck(two_n):
            assert choice_bounds(eps) == tuple(1 if s == ONE else choice_number(eps, h)
                                               for h, s in enumerate(eps.symbols, start=1))
            for h, s in enumerate(eps.symbols, start=1):
                if s != ONE:
                    assert choice_number(eps, h) >= 1


class TestDecorationWord:
    def test_worked_example(self):
        assert dyck_tuple_of(REFERENCE_PI) == EPS_EXAMPLE

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rainbow_alternates(self, n):
        from meanderq.partitions import rainbow

        assert str(dyck_tuple_of(rainbow(2 * n))) == "1*" * n

    def test_general_pattern_example(self):
        chi = tuple("rllrllrrll")
        pi = PairPartition([(1, 9), (2, 4), (3, 6), (5, 7), (8, 10)])
        assert str(dyck_tuple_of(pi, chi)) == "111*1**1**"


class TestChoiceParametrization:
    def test_reference_choices(self):
        ct = ChoiceTuple((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)
        assert choices_to_partition(ct) == PairPartition(
            [(1, 3), (2, 9), (4, 6), (5, 8), (7, 10)]
        )

    def test_worked_example_choices(self):
        ct = ChoiceTuple((1, 1, 1, 2, 2, 1, 1, 2, 1, 1), EPS_EXAMPLE)
        assert choices_to_partition(ct) == REFERENCE_PI

    def test_trivial(self):
        eps = DyckTuple("1*")
        ct = ChoiceTuple((1, 1), eps)
        assert choices_to_partition(ct) == PairPartition([(1, 2)])
        assert choices_to_partition(ct, ("r", "r")) == PairPartition([(1, 2)])

    def test_general_pattern_instance(self):
        chi = tuple("rllrllrrll")
        eps = DyckTuple("111*1**1**")
        gammas = [1] * 10
        gammas[3], gammas[5], gammas[6], gammas[8], gammas[9] = 2, 2, 1, 2, 1
        pi = choices_to_partition(ChoiceTuple(gammas, eps), chi)
        assert pi == PairPartition([(1, 9), (2, 4), (3, 6), (5, 7), (8, 10)])

    def test_gamma_bounds_enforced(self):
        with pytest.raises(ValueError):
            ChoiceTuple((1, 1, 1, 4, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)  # 4 > 3
        with pytest.raises(ValueError):
            ChoiceTuple((2, 1, 1, 1, 1, 1, 1, 1, 1, 1), EPS_EXAMPLE)  # one-slot != 1

    def test_round_trip_reference_choices(self):
        for gammas in ((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), (1, 1, 1, 2, 2, 1, 1, 2, 1, 1)):
            ct = ChoiceTuple(gammas, EPS_EXAMPLE)
            assert partition_to_choices(choices_to_partition(ct)) == ct

    def test_round_trip_exhaustive_n4(self):
        for pi in enumerate_pair_partitions(4):
            ct = partition_to_choices(pi)
            assert choices_to_partition(ct) == pi

    def test_round_trip_random_patterns(self):
        rng = random.Random(11)
        for pi in enumerate_pair_partitions(3):
            for _ in range(5):
                chi = random_chi(rng, 6)
                ct = partition_to_choices(pi, chi)
                assert choices_to_partition(ct, chi) == pi
                assert dyck_tuple_of(pi, chi) == ct.eps


class TestPreimages:
    def test_worked_count(self):
        assert preimage_size(EPS_EXAMPLE) == 36
        assert sum(1 for _ in enumerate_preimage(EPS_EXAMPLE)) == 36

    def test_all_choice_one(self):
        eps = DyckTuple("1*1*")
        assert preimage_size(eps) == 1
        assert sum(1 for _ in enumerate_preimage(eps)) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fibres_partition_everything(self, n):
        total = 0
        seen = set()
        for eps in enumerate_dyck(2 * n):
            count = 0
            for pi in enumerate_preimage(eps):
                assert dyck_tuple_of(pi) == eps
                assert pi.pairs not in seen
                seen.add(pi.pairs)
                count += 1
            assert count == preimage_size(eps)
            total += count
        assert total == odd_double_factorial(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fibre_order_is_the_choice_tuple_order(self, n):
        # the k-th member maps back to the k-th tuple of product() over the
        # choice numbers, the last star's choice running fastest
        rng = random.Random(n)
        for eps in enumerate_dyck(2 * n):
            stars = [h for h, s in enumerate(eps.symbols, start=1) if s != ONE]
            want = []
            for combo in product(*(range(1, choice_number(eps, h) + 1) for h in stars)):
                gammas = [1] * (2 * n)
                for h, g in zip(stars, combo):
                    gammas[h - 1] = g
                want.append(ChoiceTuple(gammas, eps))
            for chi in [alternating_pattern(2 * n)] + [random_chi(rng, 2 * n) for _ in range(3)]:
                got = [partition_to_choices(pi, chi) for pi in enumerate_preimage(eps, chi)]
                assert got == want

    def test_fibres_partition_under_random_pattern(self):
        rng = random.Random(3)
        n = 4
        chi = random_chi(rng, 2 * n)
        seen = set()
        for eps in enumerate_dyck(2 * n):
            for pi in enumerate_preimage(eps, chi):
                assert dyck_tuple_of(pi, chi) == eps
                assert pi.pairs not in seen
                seen.add(pi.pairs)
        assert len(seen) == odd_double_factorial(n)


class TestCrossingFormula:
    def test_worked_value(self):
        ct = ChoiceTuple((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)
        assert crossings_from_choices(ct) == 4
        assert crossings(choices_to_partition(ct)) == 4

    def test_all_ones_noncrossing(self):
        ct = ChoiceTuple((1,) * 10, EPS_EXAMPLE)
        assert crossings_from_choices(ct) == 0
        assert crossings(choices_to_partition(ct)) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_alternating(self, n):
        for pi in enumerate_pair_partitions(n):
            assert crossings_from_choices(partition_to_choices(pi)) == crossings(pi)

    def test_random_patterns(self):
        rng = random.Random(7)
        for n in range(2, 6):
            for pi in list(enumerate_pair_partitions(n))[:: max(1, n)]:
                for _ in range(20 // n):
                    chi = random_chi(rng, 2 * n)
                    ct = partition_to_choices(pi, chi)
                    assert crossings_from_choices(ct) == crossings(pi)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_walk_reads_each_crossing_number_off_its_choices(self, n):
        # walk_preimage sums its choices' ranks gamma_h - 1 rather than
        # counting crossings: member by member, its height pairs and its
        # number are those of the partition enumerate_preimage yields
        rng = random.Random(10 + n)
        for eps in enumerate_dyck(2 * n):
            for chi in [alternating_pattern(2 * n)] + [random_chi(rng, 2 * n) for _ in range(3)]:
                members = list(walk_preimage(eps, chi))
                pis = list(enumerate_preimage(eps, chi))
                assert [pairs for pairs, _ in members] == [height_pairs(pi, chi) for pi in pis]
                assert [cr for _, cr in members] == [crossings(pi) for pi in pis]


class TestBiNoncrossing:
    def test_small(self):
        assert [p.pairs for p in enumerate_bnc2_alternating(2)] == [((1, 2),)]
        got = {p.pairs for p in enumerate_bnc2_alternating(4)}
        # images of {{1,2},{3,4}} and {{1,4},{2,3}} under (1,3,4,2)
        assert got == {((1, 3), (2, 4)), ((1, 2), (3, 4))}

    def test_count(self):
        assert sum(1 for _ in enumerate_bnc2_alternating(10)) == 42

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_definition(self, n):
        s = labels_to_heights(n)
        expected = {act(s, p).pairs for p in enumerate_noncrossing(n)}
        got = {p.pairs for p in enumerate_bnc2_alternating(2 * n)}
        assert got == expected


class TestSerialization:
    def test_string_round_trip(self):
        assert str(DyckTuple("111**11***")) == "111**11***"

    def test_choice_tuple_json_form(self):
        ct = ChoiceTuple((1, 1, 1, 3, 1, 1, 1, 2, 2, 1), EPS_EXAMPLE)
        assert list(ct.gammas) == [1, 1, 1, 3, 1, 1, 1, 2, 2, 1]

    def test_alternating_pattern(self):
        assert alternating_pattern(4) == ("l", "r", "l", "r")
        with pytest.raises(ValueError):
            alternating_pattern(3)
