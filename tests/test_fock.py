import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanderq.fock as fock
from meanderq.dyck import ONE, STAR
from meanderq.errors import EnumerationCapError, GroundSetError, TruncationOverflowError
from meanderq.fock import (
    FockVector,
    IndexTuple,
    OpSymbol,
    annihilator,
    apply,
    apply_piece,
    apply_q_scaling,
    apply_semi_meander_operator,
    basis_vector,
    commutator_defect,
    creator,
    gaussian_joint_moment,
    meander_moment,
    meander_moment_direct,
    meander_moment_sweep,
    q_inner_product,
    semi_meander_moment,
    semi_meander_moment_direct,
    semi_meander_moment_sweep,
    sweep,
    vacuum_expectation,
    vector_inner,
    word_vector,
    _digit_bits,
    _gaussian_moment_pairings,
    _loop_sweep,
    _orbit_sweep,
    _packed_width,
    _word_inner,
)
from meanderq.partitions import LEFT, RIGHT, odd_double_factorial
from meanderq.polynomials import meander_poly, semi_meander_poly
from meanderq.scalars import FORMAL, Mode, QPoly

from conftest import rational_vectors

E1 = basis_vector(2, 1)
E2 = basis_vector(2, 2)
Q = QPoly.q_power


def fv(d, terms, max_len=None, mode=FORMAL):
    terms = {w: mode.coerce(c) for w, c in terms.items()}
    if max_len is None:
        max_len = max((len(w) for w in terms), default=0)
    return FockVector(d, max_len, mode, terms)


class TestInnerProduct:
    def test_vacuum_norm(self):
        vac = FockVector.vacuum(2, 0)
        assert q_inner_product(vac, vac) == 1

    def test_repeated_letter(self):
        x = fv(2, {(1, 1): 1})
        assert q_inner_product(x, x) == QPoly((1, 1))

    def test_swapped_letters(self):
        x = fv(2, {(1, 2): 1})
        y = fv(2, {(2, 1): 1})
        assert q_inner_product(x, y) == Q(1)

    def test_length_orthogonality(self):
        x = fv(2, {(1,): 1})
        y = fv(2, {(1, 1): 1})
        assert q_inner_product(x, y) == 0

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            q_inner_product(fv(2, {(1,): 1}), fv(2, {(1,): 1}, mode=Mode(0.5)))

    def test_word_inner_three_letters(self):
        # (1,1,2) against itself: identity and the swap of the two 1s
        assert _word_inner((1, 1, 2), (1, 1, 2), FORMAL) == QPoly((1, 1))


class TestApply:
    def test_left_create_on_vacuum(self):
        out = apply(creator("l", E1), FockVector.vacuum(2, 2))
        assert out.terms == {(1,): QPoly.one()}

    def test_left_annihilate_worked(self):
        x = fv(2, {(1, 2, 1): 1})
        out = apply(annihilator("l", E1), x)
        assert out.coefficient((2, 1)) == QPoly.one()
        assert out.coefficient((1, 2)) == Q(2)
        assert len(out.terms) == 2

    def test_annihilate_kills_vacuum(self):
        out = apply(annihilator("l", E1), FockVector.vacuum(2, 2))
        assert out.is_zero()

    def test_right_create(self):
        x = fv(2, {(1,): 1}, max_len=2)
        out = apply(creator("r", E2), x)
        assert out.terms == {(1, 2): QPoly.one()}

    def test_general_vector_create(self):
        v = (Fraction(1), Fraction(-2))
        out = apply(creator("l", v), FockVector.vacuum(2, 1))
        assert out.coefficient((1,)) == 1
        assert out.coefficient((2,)) == -2

    def test_truncation_is_hard_error(self):
        x = fv(2, {(1, 2): 1}, max_len=2)
        with pytest.raises(TruncationOverflowError):
            apply(creator("l", E1), x)

    def test_dimension_error(self):
        with pytest.raises(GroundSetError):
            apply(creator("l", (1, 0, 0)), FockVector.vacuum(2, 2))
        with pytest.raises(GroundSetError):
            apply(annihilator("r", (1, 0, 0)), FockVector.vacuum(2, 2))

    @pytest.mark.parametrize("make", [creator, annihilator])
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.5 - 0.5j, 1j])
    def test_formal_mode_rejects_inexact_coordinates(self, make, side, bad):
        x = fv(2, {(1, 2): 1}, max_len=3)
        with pytest.raises(TypeError):
            apply(make(side, (bad, bad)), x)

    @pytest.mark.parametrize("make", [creator, annihilator])
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("v", [
        (2, -1), (Fraction(2), Fraction(-1)), (Fraction(1, 2), Fraction(-3)),
        (QPoly((0, 1)), QPoly((1, Fraction(-1, 2)))), (Q(2), 3),
    ])
    def test_formal_apply_is_the_linear_extension(self, make, side, v):
        # c (f q^(k-1)) for annihilation at removal position k, c v_i for creation
        x = fv(2, {(1, 2, 1): QPoly((1, -2)), (2,): Fraction(3, 2), (): 1}, max_len=4)
        want = {}
        for word, c in x.terms.items():
            if make is creator:
                for i in (1, 2):
                    nw = (i,) + word if side == "l" else word + (i,)
                    want[nw] = want.get(nw, 0) + c * v[i - 1]
                continue
            for k in range(1, len(word) + 1):
                pos = k - 1 if side == "l" else len(word) - k
                nw = word[:pos] + word[pos + 1:]
                want[nw] = want.get(nw, 0) + c * (v[word[pos] - 1] * Q(k - 1))
        out = apply(make(side, v), x)
        assert out.terms == {w: c for w, c in want.items() if c}
        assert all(isinstance(c, QPoly) for c in out.terms.values())

    def test_public_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            FockVector(0, 1, FORMAL, {})
        with pytest.raises(ValueError):
            FockVector(2, -1, FORMAL, {})
        with pytest.raises(TruncationOverflowError):
            FockVector(2, 1, FORMAL, {(1, 2): QPoly.one()})
        with pytest.raises(ValueError):
            FockVector(2, 2, FORMAL, {(1, 3): QPoly.one()})
        assert FockVector(2, 1, FORMAL, {(1,): QPoly.zero(), (): 1}).terms == {(): 1}

    def test_flavors_are_the_dyck_letters(self):
        assert creator(LEFT, E1).flavor == ONE
        assert annihilator(RIGHT, E1).flavor == STAR
        with pytest.raises(ValueError):
            OpSymbol(LEFT, "create", E1)


class TestPieces:
    def test_right_piece_worked_example(self):
        rng = random.Random(1)
        us = {
            k: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            for k in (1, 2, 3, 4)
        }
        x = word_vector([us[3], us[1], us[2]], d=2)
        out = apply_piece("r", "*", 3, us[4], x)
        expected = word_vector([us[1], us[2]], d=2).scaled(
            Q(2) * vector_inner(us[3], us[4])
        )
        assert out == expected

    def test_short_word_vanishes(self):
        x = fv(2, {(1,): 1})
        assert apply_piece("l", "*", 2, E1, x).is_zero()

    @given(rational_vectors(2))
    @settings(max_examples=50)
    def test_creation_piece_is_creation(self, v):
        x = fv(2, {(1, 2): 1, (2,): 3}, max_len=3)
        assert apply_piece("l", "1", 1, v, x) == apply(creator("l", v), x)

    def test_creation_piece_requires_k1(self):
        with pytest.raises(ValueError):
            apply_piece("l", "1", 2, E1, FockVector.vacuum(2, 2))

    def test_piece_validation(self):
        x = FockVector.vacuum(2, 2)
        with pytest.raises(ValueError):
            apply_piece("l", "*", 0, E1, x)
        with pytest.raises(ValueError):
            apply_piece("l", "x", 1, E1, x)
        with pytest.raises(GroundSetError):
            apply_piece("l", "*", 1, (1, 0, 0), x)

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_piece_decomposition(self, side, n):
        v = (Fraction(1, 2), Fraction(-3))
        for word in product((1, 2), repeat=n):
            x = fv(2, {word: 1})
            total = FockVector.zero(2, n, FORMAL)
            for k in range(1, n + 1):
                total = total + apply_piece(side, "*", k, v, x)
            assert total == apply(annihilator(side, v), x)


class TestQScaling:
    def test_vacuum_fixed(self):
        vac = FockVector.vacuum(2, 0)
        assert apply_q_scaling(vac) == vac

    def test_scales_by_length(self):
        x = fv(2, {(1, 2): 1})
        assert apply_q_scaling(x).coefficient((1, 2)) == Q(2)

    def test_linear(self):
        x = fv(2, {(1,): 2, (1, 2): 3})
        out = apply_q_scaling(x)
        assert out.coefficient((1,)) == 2 * Q(1)
        assert out.coefficient((1, 2)) == 3 * Q(2)


class TestVacuumExpectation:
    def test_empty_product(self):
        assert vacuum_expectation([], 2) == 1

    def test_single_creation(self):
        assert vacuum_expectation([creator("l", E1)], 2) == 0

    def test_round_trips(self):
        assert vacuum_expectation([annihilator("l", E1), creator("l", E1)], 2) == 1
        assert vacuum_expectation([annihilator("r", E1), creator("l", E1)], 2) == 1


class TestAdjointness:
    @given(rational_vectors(2), rational_vectors(2), rational_vectors(2), rational_vectors(2))
    @settings(max_examples=40)
    def test_left_adjoint(self, v, a, b, c):
        x = word_vector([a], 2, max_len=2)
        y = word_vector([b, c], 2, max_len=2)
        lhs = q_inner_product(apply(creator("l", v), x), y)
        rhs = q_inner_product(x, apply(annihilator("l", v), y))
        assert lhs == rhs

    @given(rational_vectors(2), rational_vectors(2), rational_vectors(2), rational_vectors(2))
    @settings(max_examples=40)
    def test_right_adjoint(self, v, a, b, c):
        x = word_vector([a], 2, max_len=2)
        y = word_vector([b, c], 2, max_len=2)
        lhs = q_inner_product(apply(creator("r", v), x), y)
        rhs = q_inner_product(x, apply(annihilator("r", v), y))
        assert lhs == rhs

    def test_adjointness_on_longer_words(self):
        rng = random.Random(4)

        def rv():
            return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))

        for _ in range(20):
            xs = [rv() for _ in range(3)]
            ys = [rv() for _ in range(4)]
            v = rv()
            x = word_vector(xs, 2, max_len=4)
            y = word_vector(ys, 2, max_len=4)
            assert q_inner_product(apply(creator("l", v), x), y) == q_inner_product(
                x, apply(annihilator("l", v), y)
            )


class TestGramPositivity:
    @pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(0), Fraction(1, 2)])
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
    def test_positive_definite(self, q, d, n):
        # words with different letter multisets are orthogonal, so the Gram
        # matrix is block diagonal over multisets
        mode = Mode(q)
        by_multiset = {}
        for word in product(range(1, d + 1), repeat=n):
            by_multiset.setdefault(tuple(sorted(word)), []).append(word)
        min_eig = float("inf")
        for words in by_multiset.values():
            gram = np.array(
                [
                    [float(_word_inner(w1, w2, mode)) for w2 in words]
                    for w1 in words
                ]
            )
            min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
        assert min_eig > 0


class TestCanonicalFormAtQZero:
    @pytest.mark.parametrize("d", [1, 2])
    def test_position_operator_identity(self, d):
        # with the deformation switched off, create+annihilate factors through
        # annihilation against (identity + sum of squared creations)
        mode = Mode(Fraction(0))
        words = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [w + (i,) for w in frontier for i in range(1, d + 1)]
            words += frontier
        for word in words:
            x = FockVector(d, len(word) + 2, mode, {word: mode.one()})
            for i in range(1, d + 1):
                e = basis_vector(d, i)
                lhs = apply(creator("l", e), x) + apply(annihilator("l", e), x)
                y = x
                for j in range(1, d + 1):
                    ej = basis_vector(d, j)
                    y = y + apply(creator("l", ej), apply(creator("l", ej), x))
                rhs = apply(annihilator("l", e), y)
                assert lhs == rhs


# the exact modes include denominators and numerators that are not powers of
# two, a negative q and q = 0, for the packed ints of the orbit sweep
SWEEP_MODES = [FORMAL, Mode(Fraction(1, 2)), Mode(Fraction(-1, 3)), Mode(0.5),
               Mode(Fraction(0)), Mode(Fraction(-9, 10)), Mode(Fraction(7, 9))]


def _same_moment(a, b, mode):
    return a == (b if mode.is_exact else pytest.approx(b, rel=1e-12))


class TestSemiMeanderMoment:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_moment(self, d):
        assert semi_meander_moment(d, 1) == QPoly((d,))

    def test_d2_n2(self):
        assert semi_meander_moment(2, 2) == QPoly((6, 2))

    def test_d1_n2(self):
        assert semi_meander_moment(1, 2) == QPoly((2, 1))

    def test_rational_mode(self):
        assert semi_meander_moment(2, 2, Mode(Fraction(1, 2))) == 7

    def test_float_mode(self):
        assert semi_meander_moment(2, 2, Mode(0.5)) == pytest.approx(7.0)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
    def test_truncation_insensitive(self, d, n):
        # the pruned orbit sweep has no truncation level; the unpruned
        # word-level pass runs at level 2n and raises if that is too small,
        # so their agreement shows the level, the pruning and the orbit
        # storage exact
        assert semi_meander_moment_direct(d, n) == semi_meander_moment(d, n)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 5)])
    def test_prune_is_exact(self, d, n):
        # the same orbit sweep with its horizon pruning switched off
        unpruned = _orbit_sweep(d, n, FORMAL, doubled=False, prune=False)
        assert unpruned == semi_meander_moment_sweep(d, n)

    @pytest.mark.parametrize("d", [5, 10])
    def test_more_letters_than_pairs(self, d):
        # words are stored one per relabelling orbit, so a letter count above
        # the n letters a word can hold enters only through the orbit sizes
        poly = semi_meander_poly(3)
        half = Fraction(1, 2)
        assert semi_meander_moment(d, 3) == poly.eval_at_t(d)
        assert semi_meander_moment(d, 3, Mode(half)) == poly.eval(d, half)
        assert semi_meander_moment(d, 3, Mode(0.5)) == pytest.approx(float(poly.eval(d, half)))

    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=40, deadline=None)
    def test_orbit_sweep_matches_both_references(self, d, n, mode):
        # orbit sweep == word-level pass == enumerated polynomial at t = d
        poly = semi_meander_poly(n)
        expected = poly.eval_at_t(d) if mode.is_formal else poly.eval(d, Fraction(mode.q))
        swept = semi_meander_moment(d, n, mode)
        assert _same_moment(swept, semi_meander_moment_direct(d, n, mode), mode)
        assert _same_moment(swept, expected if mode.is_exact else float(expected), mode)

    @pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(1, 3)])
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3)])
    def test_modes_consistent(self, d, n, q):
        # pinning q commutes with evaluating the formal moment
        formal = semi_meander_moment(d, n, FORMAL)
        assert semi_meander_moment(d, n, Mode(q)) == formal.at(q)
        assert semi_meander_moment(d, n, Mode(float(q))) == pytest.approx(
            float(formal.at(q))
        )

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            semi_meander_moment(2, 17)
        assert semi_meander_moment(1, 8, cap=8) is not None

    @pytest.mark.parametrize("d,n", [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3), (4, 3)])
    def test_packed_width_bounds_every_coefficient(self, d, n):
        # the formal orbit sweep packs a polynomial into its value at q = 2^C;
        # the unpruned word-level pass holds every coefficient the sweep can
        # build, and each must stay below 2^C
        states = []

        def step(x):
            states.append(apply_semi_meander_operator(x))
            return states[-1]

        sweep(FockVector.vacuum(d, 2 * n, FORMAL), [step] * n)
        largest = max(c for x in states for p in x.terms.values() for c in p.coeffs)
        assert largest < 1 << _packed_width(d, n, doubled=False)

    @pytest.mark.parametrize("doubled", [False, True], ids=["T", "X"])
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3)])
    def test_packed_width_bounds_every_half_state(self, d, n, doubled, monkeypatch):
        # run the formal orbit sweep with digits 3C wide, so that none can
        # carry, keep every dict a step accumulates into, and each q-digit of
        # a half-state (keyed with its pending letter as one more leg) must
        # stay below 2^C
        bits = _packed_width(d, n, doubled)
        tables, accumulate = {}, fock._accumulate

        def recording(out, key, value):
            tables[id(out)] = out
            accumulate(out, key, value)

        monkeypatch.setattr(fock, "_accumulate", recording)
        monkeypatch.setattr(fock, "_packed_width", lambda *args: 3 * bits)
        swept = _orbit_sweep(d, n, FORMAL, doubled)
        half = [c for out in tables.values() for key, c in out.items()
                if len(key) == (3 if doubled else 2)]
        wide = 3 * bits
        digits = [c >> s & (1 << wide) - 1 for c in half for s in range(0, c.bit_length(), wide)]
        assert half and max(digits) < 1 << bits
        monkeypatch.undo()
        assert swept == _orbit_sweep(d, n, FORMAL, doubled)

    @pytest.mark.parametrize("d,n,one_pass", [(1, 40, 123_600), (2, 12, 41_319)])
    def test_half_step_halves_the_products(self, d, n, one_pass, monkeypatch):
        # expanding each letter's right factor against its left factor in
        # one pass made ``one_pass`` products (``_accumulate`` calls); the
        # half-states share the right factor's outputs
        calls, accumulate = [], fock._accumulate

        def counting(out, key, value):
            calls.append(None)
            accumulate(out, key, value)

        monkeypatch.setattr(fock, "_accumulate", counting)
        semi_meander_moment_sweep(d, n, Mode(0.5), cap=n)
        assert len(calls) <= one_pass // 2

    @pytest.mark.parametrize("n,doubled", [(n, False) for n in range(1, 10)]
                             + [(n, True) for n in range(1, 6)])
    def test_digit_bits_bound_every_loop_coefficient(self, n, doubled, monkeypatch):
        # the loop sweep packs t-digits W = _digit_bits wide; run it with
        # digits 3W wide, unpack every state it holds, and each digit must
        # stay below 2^W
        bits, wide = _digit_bits(n, doubled), 3 * _digit_bits(n, doubled)
        states, step = [], fock._loop_step

        def recording(x, **kwargs):
            states.append(step(x, **kwargs))
            return states[-1]

        monkeypatch.setattr(fock, "_loop_step", recording)
        _loop_sweep(n, doubled, wide)

        def digits(c):  # a q-degree block is n + 1 digits, so each chunk is a digit
            return [c >> shift & (1 << wide) - 1 for shift in range(0, c.bit_length(), wide)]

        assert len(states) == (2 * n if doubled else n)
        assert max(t for x in states for c in x.terms.values() for t in digits(c)) < 1 << bits
        total = sum(digits(states[-1].terms[states[-1].vacuum]))
        assert total == odd_double_factorial(n) ** (2 if doubled else 1)

    def test_fused_operator_matches_composition(self):
        rng = random.Random(9)
        for d in (1, 2, 3):
            terms = {}
            for _ in range(5):
                word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
                terms[word] = terms.get(word, QPoly.zero()) + QPoly(
                    (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),)
                )
            x = FockVector(d, 6, FORMAL, terms)
            slow = FockVector.zero(d, 6, FORMAL)
            for i in range(1, d + 1):
                e = basis_vector(d, i)
                y = apply(creator("r", e), x) + apply(annihilator("r", e), x)
                slow = slow + apply(creator("l", e), y) + apply(annihilator("l", e), y)
            assert apply_semi_meander_operator(x) == slow


class TestGaussianJointMoment:
    def test_single_pair(self):
        assert gaussian_joint_moment(IndexTuple((1, 1), 2)) == 1

    def test_alternating(self):
        assert gaussian_joint_moment(IndexTuple((1, 2, 1, 2), 2)) == Q(1)

    def test_constant_four(self):
        assert gaussian_joint_moment(IndexTuple((1, 1, 1, 1), 2)) == QPoly((2, 1))

    def test_odd_is_zero(self):
        assert gaussian_joint_moment(IndexTuple((1, 1, 1), 2)) == 0

    @pytest.mark.parametrize("values", list(product((1, 2), repeat=4)))
    def test_cross_check_flag(self, values):
        index = IndexTuple(values, 2)
        assert gaussian_joint_moment(index) == _gaussian_moment_pairings(index, FORMAL)

    def test_cross_check_on_longer_tuples(self):
        rng = random.Random(2)
        for _ in range(10):
            index = IndexTuple(tuple(rng.randint(1, 2) for _ in range(6)), 2)
            assert gaussian_joint_moment(index) == _gaussian_moment_pairings(index, FORMAL)


class TestMeanderMoment:
    def test_d1_n1(self):
        assert meander_moment(1, 1) == 1

    def test_d2_n2(self):
        assert meander_moment(2, 2) == QPoly((12, 8, 4))

    def test_d1_n2(self):
        assert meander_moment(1, 2) == QPoly((4, 4, 1))

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_direct_route_agrees(self, d, n):
        assert meander_moment_direct(d, n) == meander_moment(d, n)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            meander_moment(2, 9)

    @pytest.mark.parametrize("mode", SWEEP_MODES, ids=str)
    def test_orbit_sweep_matches_the_enumeration(self, mode):
        for n in range(1, 5):
            poly = meander_poly(n)
            for d in (1, 2, 3):
                expected = poly.eval_at_t(d) if mode.is_formal else poly.eval(d, Fraction(mode.q))
                swept = meander_moment(d, n, mode)
                assert _same_moment(swept, expected if mode.is_exact else float(expected), mode)

    @pytest.mark.parametrize("d", [3, 5, 10])
    def test_more_letters_than_pairs(self, d):
        # word pairs are stored one per relabelling orbit, so a letter count
        # above 2n enters only through the orbit sizes
        poly = meander_poly(3)
        half = Fraction(1, 2)
        assert meander_moment(d, 3) == poly.eval_at_t(d)
        assert meander_moment(d, 3, Mode(half)) == poly.eval(d, half)
        assert meander_moment(d, 3, Mode(0.5)) == pytest.approx(float(poly.eval(d, half)))

    def test_d3_n4(self):
        assert meander_moment(3, 4, cap=4) == meander_poly(4).eval_at_t(3)


class TestMomentSweep:
    """One pass pruned for horizon N yields m_1..m_N: each prefix entry
    equals the single-order value computed with its own horizon."""

    @pytest.mark.parametrize("mode", SWEEP_MODES, ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_semi_meander_horizon_independent(self, d, mode):
        single = [semi_meander_moment(d, n, mode) for n in range(1, 7)]
        for horizon in range(1, 7):
            swept = semi_meander_moment_sweep(d, horizon, mode)
            assert len(swept) == horizon + 1
            assert swept[0] == 1
            for n in range(1, horizon + 1):
                assert _same_moment(swept[n], single[n - 1], mode), (horizon, n)

    @pytest.mark.parametrize("mode", SWEEP_MODES, ids=str)
    @pytest.mark.parametrize("d", [1, 2])
    def test_meander_horizon_independent(self, d, mode):
        single = [meander_moment(d, n, mode) for n in range(1, 5)]
        for horizon in range(1, 5):
            swept = meander_moment_sweep(d, horizon, mode)
            assert len(swept) == horizon + 1
            assert swept[0] == 1
            for n in range(1, horizon + 1):
                assert _same_moment(swept[n], single[n - 1], mode), (horizon, n)

    def test_caps_apply_to_the_horizon(self):
        with pytest.raises(EnumerationCapError):
            semi_meander_moment_sweep(2, 17)
        with pytest.raises(EnumerationCapError):
            meander_moment_sweep(3, 7)
        assert len(semi_meander_moment_sweep(1, 8, cap=8)) == 9

    def test_single_orders_start_at_one(self):
        # the sweeps accept n=0 (m_0 alone); a single order must be >= 1
        with pytest.raises(ValueError):
            semi_meander_moment(2, 0)
        with pytest.raises(ValueError):
            meander_moment(2, 0)


class TestCommutatorDefect:
    def test_exact_zero_on_basis_word(self):
        x = fv(2, {(2,): 1})
        assert commutator_defect(E1, E1, x).is_zero()

    def test_exact_zero_rational_vectors(self):
        v = (Fraction(1, 2), Fraction(-3))
        w = (Fraction(2), Fraction(1, 3))
        for word in [(), (1,), (2, 1), (1, 1, 2), (2, 2, 1, 1)]:
            x = fv(2, {word: 1})
            assert commutator_defect(v, w, x).is_zero()

    def test_float_complex(self):
        rng = random.Random(13)
        mode = Mode(0.5)
        for _ in range(25):
            d = 2
            v = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
            w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
            word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 4)))
            x = FockVector(d, len(word), mode, {word: 1.0})
            assert commutator_defect(v, w, x).max_abs() <= 1e-12


class TestWordVector:
    def test_expansion(self):
        v = (Fraction(1), Fraction(1))
        out = word_vector([v, E1], 2)
        assert out.coefficient((1, 1)) == 1
        assert out.coefficient((2, 1)) == 1
        assert out.coefficient((1, 2)) == 0

    def test_empty(self):
        assert word_vector([], 2) == FockVector.vacuum(2, 0)

    def test_insertion_order_and_errors(self):
        out = word_vector([(1, 2), (3, 0)], 2)
        assert list(out.terms.items()) == [((1, 1), 3), ((2, 1), 6)]
        with pytest.raises(GroundSetError):
            word_vector([E1, (1, 2, 3)], 2)
        with pytest.raises(TruncationOverflowError):
            word_vector([E1, E1], 2, max_len=1)
