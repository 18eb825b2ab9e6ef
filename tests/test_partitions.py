import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meanderq.errors import EnumerationCapError, GroundSetError
from meanderq.partitions import (
    IndexTuple,
    PairPartition,
    Permutation,
    SetPartition,
    act,
    block_count,
    catalan,
    crossings,
    enumerate_noncrossing,
    enumerate_pair_partitions,
    interval_pairs,
    join,
    kernel,
    labels_to_heights,
    odd_double_factorial,
    rainbow,
    side_pattern_permutation,
)

from conftest import pair_partitions, set_partitions

REFERENCE_PI = PairPartition([(1, 9), (2, 7), (3, 10), (4, 5), (6, 8)])


class TestPairPartition:
    def test_canonical_form(self):
        p = PairPartition([(4, 3), (2, 1)])
        assert p.pairs == ((1, 2), (3, 4))

    def test_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            PairPartition([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            PairPartition([(1, 3)])
        with pytest.raises(ValueError):
            PairPartition([])

    def test_partner(self):
        assert REFERENCE_PI.partner_map()[8] == 1  # element 9
        assert REFERENCE_PI.partner_map()[5] == 8  # element 6

    def test_json_form(self):
        # wire format shared with the CLI
        assert json.dumps(REFERENCE_PI.to_lists()) == "[[1, 9], [2, 7], [3, 10], [4, 5], [6, 8]]"

    def test_rejects_blocks_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            PairPartition([(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            PairPartition([(1,), (2, 3, 4)])

    def test_is_the_set_partition_of_its_pairs(self):
        as_sets = SetPartition(REFERENCE_PI.pairs)
        assert isinstance(REFERENCE_PI, SetPartition)
        assert REFERENCE_PI == as_sets and as_sets == REFERENCE_PI
        assert hash(REFERENCE_PI) == hash(as_sets)
        assert (REFERENCE_PI.m, REFERENCE_PI.size, REFERENCE_PI.n) == (10, 10, 5)
        assert repr(REFERENCE_PI) == "PairPartition{{1,9},{2,7},{3,10},{4,5},{6,8}}"


class TestSetPartition:
    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            SetPartition([(1, 2), ()])
        with pytest.raises(ValueError):
            SetPartition([()])


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_double_factorial_counts(self, n):
        assert sum(1 for _ in enumerate_pair_partitions(n)) == odd_double_factorial(n)

    def test_deterministic_order(self):
        got = [p.pairs for p in enumerate_pair_partitions(2)]
        assert got == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_frozen_order_is_the_recursive_rule(self, n):
        # the module docstring's rule, written out: pair the smallest point
        # with each larger one in increasing order, then recurse on the rest
        def reference(points):
            if not points:
                return [()]
            a, rest = points[0], points[1:]
            return [((a, b),) + sub for j, b in enumerate(rest)
                    for sub in reference(rest[:j] + rest[j + 1 :])]

        got = [p.pairs for p in enumerate_pair_partitions(n)]
        assert got == reference(tuple(range(1, 2 * n + 1)))

    def test_n5_contains_reference_partition_once(self):
        hits = sum(1 for p in enumerate_pair_partitions(5) if p == REFERENCE_PI)
        assert hits == 1

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            next(enumerate_pair_partitions(9))
        # explicit override raises the cap
        assert next(enumerate_pair_partitions(9, cap=18)) is not None

    @pytest.mark.parametrize(
        "enumerate_, n_max", [(enumerate_pair_partitions, 6), (enumerate_noncrossing, 7)]
    )
    def test_trusted_items_equal_checked_ones(self, enumerate_, n_max):
        for n in range(1, n_max + 1):
            for p in enumerate_(n):
                checked = PairPartition(p.pairs)
                assert p == checked and hash(p) == hash(checked)
                assert (p.pairs, p.m) == (checked.pairs, checked.m)


class TestNoncrossing:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalan_counts(self, n):
        assert sum(1 for _ in enumerate_noncrossing(n)) == catalan(n)

    def test_n2(self):
        got = {p.pairs for p in enumerate_noncrossing(2)}
        assert got == {((1, 2), (3, 4)), ((1, 4), (2, 3))}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_iff_zero_crossings(self, n):
        direct = {p.pairs for p in enumerate_noncrossing(n)}
        filtered = {
            p.pairs for p in enumerate_pair_partitions(n) if crossings(p) == 0
        }
        assert direct == filtered


class TestCrossings:
    def test_examples(self):
        assert crossings(PairPartition([(1, 2), (3, 4)])) == 0
        assert crossings(REFERENCE_PI) == 3
        assert crossings(PairPartition([(1, 3), (2, 9), (4, 6), (5, 8), (7, 10)])) == 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reversal_invariance(self, n):
        m = 2 * n
        for p in enumerate_pair_partitions(n):
            reflected = PairPartition([(m + 1 - a, m + 1 - b) for a, b in p.pairs])
            assert crossings(reflected) == crossings(p)


class TestJoin:
    def test_union_find_oracle_fixed_points(self):
        # Frozen from the chain closure: 2~7, 7~4, 4~5, 5~6, 6~3, 3~2
        # connects everything between the outer pair.
        other = SetPartition([(1, 8), (2, 3), (4, 7), (5, 6)])
        j = join(SetPartition(rainbow(8).pairs), other)
        assert j.blocks == ((1, 8), (2, 3, 4, 5, 6, 7))
        # Three closed curves arise from the interval-style diagram instead.
        three = join(rainbow(8), PairPartition([(1, 8), (2, 3), (4, 5), (6, 7)]))
        assert three.blocks == ((1, 8), (2, 3, 6, 7), (4, 5))
        assert block_count(three) == 3

    def test_alternating_chain(self):
        j = join(PairPartition([(1, 2), (3, 4)]), PairPartition([(2, 3), (1, 4)]))
        assert j.blocks == ((1, 2, 3, 4),)

    def test_dimension_error(self):
        with pytest.raises(GroundSetError):
            join(rainbow(4), rainbow(6))

    @given(set_partitions())
    def test_idempotent(self, p):
        assert join(p, p) == p

    @given(st.data())
    def test_commutative_associative_and_dominating(self, data):
        m = data.draw(st.integers(min_value=1, max_value=12))
        p = data.draw(set_partitions(min_m=m, max_m=m))
        q = data.draw(set_partitions(min_m=m, max_m=m))
        r = data.draw(set_partitions(min_m=m, max_m=m))
        assert join(p, q) == join(q, p)
        assert join(join(p, q), r) == join(p, join(q, r))
        # p <= p v q in reverse refinement: every join block is a union of p-blocks
        jq = join(p, q)
        for b in p.blocks:
            assert any(set(b) <= set(c) for c in jq.blocks)


class TestBlockCount:
    def test_singleton_ground_set(self):
        assert block_count(SetPartition([(1,)])) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rainbow(self, n):
        assert block_count(rainbow(2 * n)) == n

    def test_three_curve_example(self):
        j = join(rainbow(8), PairPartition([(1, 8), (2, 3), (4, 5), (6, 7)]))
        assert block_count(j) == 3


class TestRainbowIntervals:
    def test_rainbow(self):
        assert rainbow(2).pairs == ((1, 2),)
        assert rainbow(8).pairs == ((1, 8), (2, 7), (3, 6), (4, 5))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rainbow_noncrossing(self, n):
        assert crossings(rainbow(2 * n)) == 0

    def test_intervals(self):
        assert interval_pairs(4).pairs == ((1, 2), (3, 4))
        assert interval_pairs(10).pairs == tuple((k, k + 1) for k in range(1, 10, 2))

    def test_parity_errors(self):
        with pytest.raises(ValueError):
            rainbow(5)
        with pytest.raises(ValueError):
            interval_pairs(7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_heights_send_rainbow_to_intervals(self, n):
        assert act(labels_to_heights(n), rainbow(2 * n)) == interval_pairs(2 * n)


class TestPermutations:
    def test_heights_small(self):
        assert labels_to_heights(1) == Permutation(range(1, 3))
        assert labels_to_heights(5).images == (1, 3, 5, 7, 9, 10, 8, 6, 4, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_heights_bijective(self, n):
        s = labels_to_heights(n)
        assert sorted(s.images) == list(range(1, 2 * n + 1))
        assert s.inverse().inverse() == s

    def test_side_pattern_alternating_matches(self):
        for n in range(1, 7):
            chi = ("l", "r") * n
            assert side_pattern_permutation(chi) == labels_to_heights(n)

    def test_side_pattern_worked_example(self):
        chi = tuple("rllrllrrll")
        assert side_pattern_permutation(chi).images == (2, 3, 5, 6, 9, 10, 8, 7, 4, 1)

    def test_side_pattern_all_left_identity(self):
        for two_n in (2, 6, 10):
            assert side_pattern_permutation(("l",) * two_n) == Permutation(range(1, two_n + 1))

    def test_invalid_patterns(self):
        with pytest.raises(ValueError):
            side_pattern_permutation(("l", "x"))
        with pytest.raises(ValueError):
            side_pattern_permutation(("l", "r", "l"))


class TestAct:
    def test_worked_example(self):
        assert act(labels_to_heights(5), REFERENCE_PI) == PairPartition(
            [(1, 4), (2, 5), (3, 8), (6, 10), (7, 9)]
        )

    def test_identity(self):
        assert act(Permutation(range(1, 11)), REFERENCE_PI) == REFERENCE_PI

    def test_dimension_error(self):
        with pytest.raises(GroundSetError):
            act(Permutation(range(1, 5)), REFERENCE_PI)

    def test_image_has_the_input_type(self):
        s = labels_to_heights(5)
        as_pairs = act(s, REFERENCE_PI)
        as_sets = act(s, SetPartition(REFERENCE_PI.pairs))
        assert type(as_pairs) is PairPartition and type(as_sets) is SetPartition
        assert as_pairs.blocks == as_sets.blocks

    @given(st.data())
    @settings(max_examples=60)
    def test_join_equivariance(self, data):
        m = data.draw(st.integers(min_value=1, max_value=12))
        p = data.draw(set_partitions(min_m=m, max_m=m))
        q = data.draw(set_partitions(min_m=m, max_m=m))
        images = data.draw(st.permutations(list(range(1, m + 1))))
        s = Permutation(images)
        assert act(s, join(p, q)) == join(act(s, p), act(s, q))


class TestKernel:
    def test_constant(self):
        assert kernel(IndexTuple((2, 2, 2), 3)).blocks == ((1, 2, 3),)

    def test_injective(self):
        assert kernel(IndexTuple((2, 1, 3), 3)).blocks == ((1,), (2,), (3,))

    def test_alternating(self):
        assert kernel(IndexTuple((1, 2, 1, 2), 2)).blocks == ((1, 3), (2, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexTuple((0, 1), 2)
        with pytest.raises(ValueError):
            IndexTuple((3,), 2)
