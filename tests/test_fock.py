import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanderq.fock as fock
from meanderq.dyck import ONE, STAR
from meanderq.errors import EnumerationCapError, GroundSetError
from meanderq.fock import (
    FockVector,
    IndexTuple,
    apply,
    apply_q_scaling,
    apply_semi_meander_operator,
    basis_vector,
    commutator_defect,
    gaussian_joint_moment,
    meander_moment,
    meander_moment_direct,
    meander_moment_sweep,
    q_inner_product,
    semi_meander_moment,
    semi_meander_moment_direct,
    semi_meander_moment_sweep,
    vector_inner,
    word_vector,
    _gaussian_moment_pairings,
    _history_bits,
    _word_inner,
    loop_sweep,
)
from meanderq.partitions import LEFT, RIGHT, odd_double_factorial
from meanderq.polynomials import meander_poly, semi_meander_poly
from meanderq.qwick import WickProduct, wick_scalar_operator
from meanderq.scalars import FORMAL, Mode, QPoly, parse_q
from meanderq.spectra import meander_moments, semi_meander_moments

from conftest import orbit_sweep, priced_out, rational_vectors

E1 = basis_vector(2, 1)
E2 = basis_vector(2, 2)
Q = QPoly.q_power


def fv(d, terms, mode=FORMAL):
    lift = QPoly.const if mode.is_formal else type(mode.q)
    terms = {w: c if isinstance(c, QPoly) else lift(c) for w, c in terms.items()}
    return FockVector(d, mode, terms)


class TestInnerProduct:
    def test_vacuum_norm(self):
        vac = FockVector.vacuum(2)
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

    def test_long_words_are_refused_before_any_permutation(self, monkeypatch):
        # a pair of words of length L may walk 2^L subwords: 1^20
        # (1,048,576) is admitted, 1^21 (2,097,152) passes the budget
        walked = []
        monkeypatch.setattr(fock, "_word_inner",
                            lambda w, v, mode: walked.append(len(w)) or mode.one())
        twenty, long = (fv(3, {(1,) * L: 1}) for L in (20, 21))
        assert q_inner_product(twenty, twenty) == 1
        start = time.monotonic()
        with pytest.raises(EnumerationCapError, match="use shorter words"):
            q_inner_product(long, long)
        assert time.monotonic() - start < 1
        assert walked == [20]

    def test_word_inner_is_the_permutation_sum(self):
        # the subword walk == the sum of q^inversions over every permutation
        # that maps one word's letters onto the other's
        rng = random.Random(0)
        for _ in range(200):
            L = rng.randint(0, 7)
            w = tuple(rng.randint(1, 3) for _ in range(L))
            v = tuple(rng.sample(w, L) if rng.random() < 0.8 else rng.choices((1, 2, 3), k=L))
            counts = [0] * (L * (L - 1) // 2 + 1)
            for tau in permutations(range(L)):
                if all(w[i] == v[tau[i]] for i in range(L)):
                    counts[sum(a > b for a, b in combinations(tau, 2))] += 1
            assert _word_inner(w, v, FORMAL) == FORMAL.series(counts), (w, v)

    def test_distinct_letters_walk_one_bijection(self):
        # (1..10) against its reverse: one bijection matches letters, the
        # reversal, with 45 inversions; the 10! others are never walked
        word = tuple(range(1, 11))
        start = time.monotonic()
        assert q_inner_product(fv(10, {word: 1}), fv(10, {word[::-1]: 1})) == Q(45)
        assert time.monotonic() - start < 1

    def test_word_inner_three_letters(self):
        # (1,1,2) against itself: identity and the swap of the two 1s
        assert _word_inner((1, 1, 2), (1, 1, 2), FORMAL) == QPoly((1, 1))


class TestApply:
    def test_left_create_on_vacuum(self):
        out = apply("l", ONE, E1, FockVector.vacuum(2))
        assert out.terms == {(1,): QPoly.one()}

    def test_left_annihilate_worked(self):
        x = fv(2, {(1, 2, 1): 1})
        out = apply("l", STAR, E1, x)
        assert out.coefficient((2, 1)) == QPoly.one()
        assert out.coefficient((1, 2)) == Q(2)
        assert len(out.terms) == 2

    def test_annihilate_kills_vacuum(self):
        out = apply("l", STAR, E1, FockVector.vacuum(2))
        assert out.is_zero()

    def test_right_create(self):
        x = fv(2, {(1,): 1})
        out = apply("r", ONE, E2, x)
        assert out.terms == {(1, 2): QPoly.one()}

    def test_general_vector_create(self):
        v = (Fraction(1), Fraction(-2))
        out = apply("l", ONE, v, FockVector.vacuum(2))
        assert out.coefficient((1,)) == 1
        assert out.coefficient((2,)) == -2

    def test_creation_has_no_level(self):
        # states are exact at every length: the ignored level of ``vacuum``
        # and the longest word of a state bound no creation
        out = apply("l", ONE, E1, FockVector.vacuum(2, 0))
        assert out.terms == {(1,): QPoly.one()}
        out = apply("r", ONE, E2, fv(2, {(1, 2): 1}))
        assert out.terms == {(1, 2, 2): QPoly.one()}

    def test_dimension_error(self):
        with pytest.raises(GroundSetError):
            apply("l", ONE, (1, 0, 0), FockVector.vacuum(2))
        with pytest.raises(GroundSetError):
            apply("r", STAR, (1, 0, 0), FockVector.vacuum(2))

    @pytest.mark.parametrize("flavor", [ONE, STAR], ids=["creator", "annihilator"])
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.5 - 0.5j, 1j])
    def test_formal_mode_rejects_inexact_coordinates(self, flavor, side, bad):
        x = fv(2, {(1, 2): 1})
        with pytest.raises(TypeError):
            apply(side, flavor, (bad, bad), x)

    @pytest.mark.parametrize("flavor", [ONE, STAR], ids=["creator", "annihilator"])
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("v", [
        (2, -1), (Fraction(2), Fraction(-1)), (Fraction(1, 2), Fraction(-3)),
        (QPoly((0, 1)), QPoly((1, Fraction(-1, 2)))), (Q(2), 3),
    ])
    def test_formal_apply_is_the_linear_extension(self, flavor, side, v):
        # c (f q^(k-1)) for annihilation at removal position k, c v_i for creation
        x = fv(2, {(1, 2, 1): QPoly((1, -2)), (2,): Fraction(3, 2), (): 1})
        want = {}
        for word, c in x.terms.items():
            if flavor == ONE:
                for i in (1, 2):
                    nw = (i,) + word if side == "l" else word + (i,)
                    want[nw] = want.get(nw, 0) + c * v[i - 1]
                continue
            for k in range(1, len(word) + 1):
                pos = k - 1 if side == "l" else len(word) - k
                nw = word[:pos] + word[pos + 1:]
                want[nw] = want.get(nw, 0) + c * (v[word[pos] - 1] * Q(k - 1))
        out = apply(side, flavor, v, x)
        assert out.terms == {w: c for w, c in want.items() if c}
        assert all(isinstance(c, QPoly) for c in out.terms.values())

    def test_public_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            FockVector(0, FORMAL, {})
        with pytest.raises(ValueError):
            FockVector(2, FORMAL, {(1, 3): QPoly.one()})
        assert FockVector(2, FORMAL, {(1,): QPoly.zero(), (): 1}).terms == {(): 1}

    def test_flavors_are_the_dyck_letters(self):
        assert apply(LEFT, ONE, E1, FockVector.vacuum(2)).terms == {(1,): QPoly.one()}
        assert apply(RIGHT, STAR, E1, fv(2, {(1,): 1})).terms == {(): QPoly.one()}
        with pytest.raises(ValueError):
            apply(LEFT, "create", E1, FockVector.vacuum(2))


class TestPieces:
    def test_right_piece_worked_example(self):
        rng = random.Random(1)
        us = {
            k: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            for k in (1, 2, 3, 4)
        }
        x = word_vector([us[3], us[1], us[2]], d=2)
        out = apply("r", STAR, us[4], x, k=3)
        expected = word_vector([us[1], us[2]], d=2).scaled(
            Q(2) * vector_inner(us[3], us[4])
        )
        assert out == expected

    def test_short_word_vanishes(self):
        x = fv(2, {(1,): 1})
        assert apply("l", STAR, E1, x, k=2).is_zero()

    @given(rational_vectors(2))
    @settings(max_examples=50)
    def test_creation_piece_is_creation(self, v):
        x = fv(2, {(1, 2): 1, (2,): 3})
        assert apply("l", ONE, v, x, k=1) == apply("l", ONE, v, x)

    def test_creation_piece_requires_k1(self):
        with pytest.raises(ValueError):
            apply("l", ONE, E1, FockVector.vacuum(2), k=2)

    def test_piece_validation(self):
        x = FockVector.vacuum(2)
        with pytest.raises(ValueError):
            apply("l", STAR, E1, x, k=0)
        with pytest.raises(ValueError):
            apply("l", "x", E1, x, k=1)
        with pytest.raises(ValueError):
            apply("x", STAR, E1, x, k=1)
        with pytest.raises(GroundSetError):
            apply("l", STAR, (1, 0, 0), x, k=1)

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_piece_decomposition(self, side, n):
        v = (Fraction(1, 2), Fraction(-3))
        for word in product((1, 2), repeat=n):
            x = fv(2, {word: 1})
            total = FockVector.zero(2, FORMAL)
            for k in range(1, n + 1):
                total = total + apply(side, STAR, v, x, k)
            assert total == apply(side, STAR, v, x)


class TestQScaling:
    def test_vacuum_fixed(self):
        vac = FockVector.vacuum(2)
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
        assert FockVector.vacuum(2).vacuum_amplitude() == 1

    def test_single_creation(self):
        assert apply("l", ONE, E1, FockVector.vacuum(2)).vacuum_amplitude() == 0

    def test_round_trips(self):
        # the left creation at position 1 acts first, then the annihilation
        assert wick_scalar_operator(WickProduct(("l", "l"), ("1", "*"), (E1, E1))) == 1
        assert wick_scalar_operator(WickProduct(("l", "r"), ("1", "*"), (E1, E1))) == 1


class TestAdjointness:
    @given(rational_vectors(2), rational_vectors(2), rational_vectors(2), rational_vectors(2))
    @settings(max_examples=40)
    def test_left_adjoint(self, v, a, b, c):
        x = word_vector([a], 2)
        y = word_vector([b, c], 2)
        lhs = q_inner_product(apply("l", ONE, v, x), y)
        rhs = q_inner_product(x, apply("l", STAR, v, y))
        assert lhs == rhs

    @given(rational_vectors(2), rational_vectors(2), rational_vectors(2), rational_vectors(2))
    @settings(max_examples=40)
    def test_right_adjoint(self, v, a, b, c):
        x = word_vector([a], 2)
        y = word_vector([b, c], 2)
        lhs = q_inner_product(apply("r", ONE, v, x), y)
        rhs = q_inner_product(x, apply("r", STAR, v, y))
        assert lhs == rhs

    def test_adjointness_on_longer_words(self):
        rng = random.Random(4)

        def rv():
            return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))

        for _ in range(20):
            xs = [rv() for _ in range(3)]
            ys = [rv() for _ in range(4)]
            v = rv()
            x = word_vector(xs, 2)
            y = word_vector(ys, 2)
            assert q_inner_product(apply("l", ONE, v, x), y) == q_inner_product(
                x, apply("l", STAR, v, y)
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
            x = FockVector(d, mode, {word: mode.one()})
            for i in range(1, d + 1):
                e = basis_vector(d, i)
                lhs = apply("l", ONE, e, x) + apply("l", STAR, e, x)
                y = x
                for j in range(1, d + 1):
                    ej = basis_vector(d, j)
                    y = y + apply("l", ONE, ej, apply("l", ONE, ej, x))
                rhs = apply("l", STAR, e, y)
                assert lhs == rhs


# the exact modes include denominators and numerators that are not powers of
# two, a negative q and q = 0, for the packed ints of the orbit sweep
SWEEP_MODES = [FORMAL, Mode(Fraction(1, 2)), Mode(Fraction(-1, 3)),
               Mode(Fraction(0)), Mode(Fraction(-9, 10)), Mode(Fraction(7, 9))]

# a float q as a caller writes it: the sweeps refuse it, and its decimal text
# (what `--q 0.5` passes) is swept as its exact rational
DECIMAL_MODES = SWEEP_MODES + [Mode(0.5)]


def _swept_mode(mode, run):
    """The mode ``run`` sweeps for ``mode``: itself when exact, else the
    decimal text's exact rational, once ``run`` has refused the float."""
    if mode.is_exact:
        return mode
    with pytest.raises(ValueError, match="Fraction"):
        run(1, 1, mode)
    return parse_q(repr(mode.q))


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
        # the sweeps are exact; a float q is refused and the fix named
        with pytest.raises(ValueError, match="Fraction"):
            semi_meander_moment(2, 2, Mode(0.5))

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (2, 5),
                                     (2, 8), (3, 6), (4, 5)])
    def test_truncation_insensitive(self, d, n):
        # the unpruned word-level pass holds every word exactly, so its
        # agreement with the pruned orbit sweep shows the pruning and the
        # orbit storage exact
        assert semi_meander_moment_direct(d, n) == semi_meander_moment(d, n)

    @pytest.mark.parametrize("d", [5, 10])
    def test_more_letters_than_pairs(self, d):
        # words are stored one per relabelling orbit, so a letter count above
        # the n letters a word can hold enters only through the orbit sizes
        poly = semi_meander_poly(3)
        half = Fraction(1, 2)
        assert semi_meander_moment(d, 3) == poly.eval_at_t(d)
        assert semi_meander_moment(d, 3, Mode(half)) == poly.eval(d, half)

    @pytest.mark.parametrize("d,n", [(3, 7), (2, 9)])
    def test_direct_route_is_refused_before_any_step(self, d, n, monkeypatch):
        # d^(2n) index tuples (3, 7) or (2n-1)!! matchings (2, 9) pass the
        # budget, as in meander_moment_direct's count; the largest admitted
        # orders, (2, 8), (3, 6) and (4, 5), run in test_truncation_insensitive
        def no_work(*args):
            raise AssertionError("a refused route took a step")

        monkeypatch.setattr(fock, "apply_semi_meander_operator", no_work)
        start = time.monotonic()
        with pytest.raises(EnumerationCapError, match="takes no cap; lower n or d"):
            semi_meander_moment_direct(d, n)
        assert time.monotonic() - start < 1

    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SWEEP_MODES))
    @settings(max_examples=40, deadline=None)
    def test_orbit_sweep_matches_both_references(self, d, n, mode):
        # public sweep (in the basis it prices lower) == word-level pass ==
        # enumerated polynomial at t = d
        poly = semi_meander_poly(n)
        expected = poly.eval_at_t(d) if mode.is_formal else poly.eval(d, mode.q)
        swept = semi_meander_moment(d, n, mode)
        assert swept == semi_meander_moment_direct(d, n, mode)
        assert swept == expected

    @pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(1, 3)])
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3)])
    def test_modes_consistent(self, d, n, q):
        # pinning q commutes with evaluating the formal moment, and q written
        # as decimal text is its exact decimal rational
        formal = semi_meander_moment(d, n, FORMAL)
        assert semi_meander_moment(d, n, Mode(q)) == formal.at(q)
        assert semi_meander_moment(d, n, parse_q(repr(float(q)))) == pytest.approx(
            float(formal.at(q))
        )

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            semi_meander_moment(2, 17)
        assert semi_meander_moment(1, 8, cap=8) is not None

    @pytest.mark.parametrize("d,n", [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3), (4, 3),
                                     (1, 7), (2, 5)])
    def test_packed_width_bounds_every_coefficient(self, d, n):
        # the formal orbit sweep packs a polynomial into its value at q = 2^C,
        # C = _history_bits; the unpruned word-level pass holds every
        # coefficient the sweep can build, and each must stay below 2^C
        x, states = FockVector.vacuum(d), []
        for _ in range(n):
            x = apply_semi_meander_operator(x)
            states.append(x)
        largest = max(c for x in states for p in x.terms.values() for c in p.coeffs)
        assert largest < 1 << _history_bits(n, False, d)

    @pytest.mark.parametrize("doubled", [False, True], ids=["T", "X"])
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3), (1, 8), (2, 6), (3, 5)])
    def test_packed_width_bounds_every_half_state(self, d, n, doubled, monkeypatch):
        # run the formal orbit sweep with digits 3C wide, C = _history_bits,
        # so that none can carry, keep every dict a step accumulates into,
        # and each q-digit of a state or a half-state (one leg more, the
        # pending letter first) must stay below 2^C
        bits = _history_bits(n, doubled, d)
        tables, accumulate = {}, fock._accumulate

        def recording(out, key, value):
            tables[id(out)] = out
            accumulate(out, key, value)

        monkeypatch.setattr(fock, "_accumulate", recording)
        monkeypatch.setattr(fock, "_history_bits", lambda *args: 3 * bits)
        swept = orbit_sweep(d, n, FORMAL, doubled)
        half = [c for out in tables.values() for key, c in out.items()
                if len(key) == (3 if doubled else 2)]
        held = [c for out in tables.values() for c in out.values()]
        wide = 3 * bits
        digits = [c >> s & (1 << wide) - 1 for c in held for s in range(0, c.bit_length(), wide)]
        assert half and max(digits) < 1 << bits
        monkeypatch.undo()
        assert swept == orbit_sweep(d, n, FORMAL, doubled)

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
        semi_meander_moment_sweep(d, n, Mode(Fraction(1, 2)), cap=n)
        assert len(calls) <= one_pass // 2

    @pytest.mark.parametrize("n,doubled", [(n, False) for n in range(1, 10)]
                             + [(n, True) for n in range(1, 6)])
    def test_digit_bits_bound_every_loop_coefficient(self, n, doubled, monkeypatch):
        # the loop sweep packs t-digits W = _history_bits wide; run it with
        # digits 3W wide, unpack every state it holds, and each digit must
        # stay below 2^W
        bits = _history_bits(n, doubled)
        wide = 3 * bits
        states, step = [], fock._loop_step

        def recording(*args):
            states.append(step(*args))
            return states[-1]

        monkeypatch.setattr(fock, "_loop_step", recording)
        monkeypatch.setattr(fock, "_history_bits", lambda *args: 3 * _history_bits(*args))
        terms = loop_sweep(n, doubled, cap=n)

        def digits(c):  # a q-degree block is n + 1 digits, so each chunk is a digit
            return [c >> shift & (1 << wide) - 1 for shift in range(0, c.bit_length(), wide)]

        assert len(states) == (2 * n if doubled else n)
        assert max(t for x in states for c in x.values() for t in digits(c)) < 1 << bits
        total = sum(digits(states[-1][((), ()) if doubled else ((),)]))
        assert total == sum(terms.values()) == odd_double_factorial(n) ** (2 if doubled else 1)
        monkeypatch.undo()
        assert loop_sweep(n, doubled, cap=n) == terms

    @pytest.mark.parametrize("doubled", [False, True], ids=["T", "X"])
    def test_histories_bound_the_moment_at_q_1(self, doubled):
        # the premise of _history_bits: the moment at q = 1 counts the
        # complete histories, (2n-1)!! d^n at most ((2n-1)!!^2 d^n for X),
        # with equality at d = 1, where every history is one term
        moment = meander_moment if doubled else semi_meander_moment
        for d in range(1, 6):
            for n in range(1, (4 if doubled else 6) + 1):
                histories = sum(moment(d, n).coeffs)
                bound = odd_double_factorial(n) ** (2 if doubled else 1) * d**n
                assert histories == bound if d == 1 else histories <= bound
                assert bound < 1 << _history_bits(n, doubled, d)

    def test_fused_operator_matches_composition(self):
        rng = random.Random(9)
        for d in (1, 2, 3):
            terms = {}
            for _ in range(5):
                word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 3)))
                terms[word] = terms.get(word, QPoly.zero()) + QPoly(
                    (Fraction(rng.randint(-3, 3), rng.randint(1, 2)),)
                )
            x = FockVector(d, FORMAL, terms)
            slow = FockVector.zero(d, FORMAL)
            for i in range(1, d + 1):
                e = basis_vector(d, i)
                y = apply("r", ONE, e, x) + apply("r", STAR, e, x)
                slow = slow + apply("l", ONE, e, y) + apply("l", STAR, e, y)
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

    def test_direct_route_is_refused_before_any_joint_moment(self, monkeypatch):
        # (2, 6) streams only 2^12 index tuples, but its 10395^2 pairs of
        # matchings pass the budget; (2, 5), the largest admitted, still runs
        assert meander_moment_direct(2, 5) == meander_moment(2, 5)

        def no_work(*args):
            raise AssertionError("a refused route computed a joint moment")

        monkeypatch.setattr(fock, "gaussian_joint_moment", no_work)
        with pytest.raises(EnumerationCapError, match="takes no cap; lower n or d"):
            meander_moment_direct(2, 6)

    @pytest.mark.parametrize("mode", DECIMAL_MODES, ids=str)
    def test_orbit_sweep_matches_the_enumeration(self, mode):
        mode = _swept_mode(mode, meander_moment)
        for n in range(1, 5):
            poly = meander_poly(n)
            for d in (1, 2, 3):
                expected = poly.eval_at_t(d) if mode.is_formal else poly.eval(d, mode.q)
                assert meander_moment(d, n, mode) == expected

    @pytest.mark.parametrize("d", [3, 5, 10])
    def test_more_letters_than_pairs(self, d):
        # word pairs are stored one per relabelling orbit, so a letter count
        # above 2n enters only through the orbit sizes
        poly = meander_poly(3)
        half = Fraction(1, 2)
        assert meander_moment(d, 3) == poly.eval_at_t(d)
        assert meander_moment(d, 3, Mode(half)) == poly.eval(d, half)

    def test_d3_n4(self):
        assert meander_moment(3, 4, cap=4) == meander_poly(4).eval_at_t(3)


class TestMomentSweep:
    """One pass pruned for horizon N yields m_1..m_N: each prefix entry
    equals the single-order value computed with its own horizon."""

    @pytest.mark.parametrize("mode", DECIMAL_MODES, ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_semi_meander_horizon_independent(self, d, mode):
        mode = _swept_mode(mode, semi_meander_moment_sweep)
        single = [semi_meander_moment(d, n, mode) for n in range(1, 7)]
        for horizon in range(1, 7):
            swept = semi_meander_moment_sweep(d, horizon, mode)
            assert len(swept) == horizon + 1
            assert swept[0] == 1
            for n in range(1, horizon + 1):
                assert swept[n] == single[n - 1], (horizon, n)

    @pytest.mark.parametrize("mode", DECIMAL_MODES, ids=str)
    @pytest.mark.parametrize("d", [1, 2])
    def test_meander_horizon_independent(self, d, mode):
        mode = _swept_mode(mode, meander_moment_sweep)
        single = [meander_moment(d, n, mode) for n in range(1, 5)]
        for horizon in range(1, 5):
            swept = meander_moment_sweep(d, horizon, mode)
            assert len(swept) == horizon + 1
            assert swept[0] == 1
            for n in range(1, horizon + 1):
                assert swept[n] == single[n - 1], (horizon, n)

    def test_caps_apply_to_the_horizon(self):
        with pytest.raises(EnumerationCapError):
            semi_meander_moment_sweep(2, 17)
        with pytest.raises(EnumerationCapError):
            meander_moment_sweep(3, 9)
        assert len(semi_meander_moment_sweep(1, 8, cap=8)) == 9

    @pytest.mark.parametrize("run", [semi_meander_moment_sweep, meander_moment_sweep])
    def test_float_q_is_refused(self, run, monkeypatch):
        # a float q would round every product; the sweep refuses it before
        # any work and names the fix
        monkeypatch.setattr(fock, "_orbit_step", None)
        with pytest.raises(ValueError, match=r"Fraction\('0\.1'\)"):
            run(2, 3, Mode(0.1))

    @pytest.mark.parametrize("mode", [FORMAL, Mode(Fraction(1, 2))], ids=str)
    @pytest.mark.parametrize("d", [0, -1, None])
    @pytest.mark.parametrize("run", [
        semi_meander_moment_sweep, meander_moment_sweep, semi_meander_moment, meander_moment,
        lambda d, n, mode: semi_meander_moments(d, mode, n),
        lambda d, n, mode: meander_moments(d, mode, n),
    ], ids=["T-sweep", "X-sweep", "T", "X", "T-spectra", "X-spectra"])
    def test_alphabet_sizes_below_one_are_refused(self, run, d, mode, monkeypatch):
        # d = -1 once swept [1, 0, 0, 0] and d = 0 failed inside a step;
        # d = None means formal t, which only loop_sweep asks for
        monkeypatch.setattr(fock, "_orbit_step", None)
        monkeypatch.setattr(fock, "_loop_step", None)
        with pytest.raises(ValueError, match="alphabet size"):
            run(d, 3, mode)

    def test_single_orders_start_at_one(self):
        # the sweeps accept n=0 (m_0 alone); a single order must be >= 1
        with pytest.raises(ValueError):
            semi_meander_moment(2, 0)
        with pytest.raises(ValueError):
            meander_moment(2, 0)


HALF = Mode(Fraction(1, 2))
LOOP_ORACLE_MODES = [FORMAL] + [Mode(Fraction(q)) for q in ("0", "1/2", "-7/9", "9/10")]


class TestLoopBasisMoments:
    """The public sweeps run the loop basis at t = d wherever they price it
    lower, as at d >= 3, and the orbit sweep is its oracle."""

    @pytest.mark.parametrize("mode", LOOP_ORACLE_MODES, ids=str)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_semi_meander_matches_the_orbit_sweep(self, d, mode):
        assert semi_meander_moment_sweep(d, 9, mode) == orbit_sweep(d, 9, mode, False)

    @pytest.mark.parametrize("mode", LOOP_ORACLE_MODES, ids=str)
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_meander_matches_the_orbit_sweep(self, d, mode):
        assert meander_moment_sweep(d, 5, mode) == orbit_sweep(d, 5, mode, True)[::2]

    @pytest.mark.parametrize("basis,run", [
        pytest.param(basis, partial(sweep, d, n, mode), id=f"{basis}-{name}")
        for basis, name, sweep, d, n, mode in [
            ("orbits", "T-d2-n11", semi_meander_moment_sweep, 2, 11, FORMAL),
            ("orbits", "T-d2-n12-half", semi_meander_moment_sweep, 2, 12, HALF),
            ("orbits", "X-d2-n7", meander_moment_sweep, 2, 7, FORMAL),
            ("orbits", "T-d1-n20", semi_meander_moment_sweep, 1, 20, FORMAL),
            ("loops", "T-d2-n10", semi_meander_moment_sweep, 2, 10, FORMAL),
            ("loops", "T-d2-n10-half", semi_meander_moment_sweep, 2, 10, HALF),
            ("loops", "X-d2-n5", meander_moment_sweep, 2, 5, FORMAL),
            ("loops", "X-d2-n5-half", meander_moment_sweep, 2, 5, HALF),
            ("loops", "T-d3-n8-half", semi_meander_moment_sweep, 3, 8, HALF),
            ("loops", "T-d7-n3", semi_meander_moment_sweep, 7, 3, FORMAL),
        ]
    ] + [pytest.param("loops", partial(loop_sweep, 6, False), id="loops-formal-t")])
    def test_the_basis_is_the_cheaper_price(self, basis, run, monkeypatch):
        # each sweep runs the basis its price calls cheaper, and never
        # reaches the other basis's step
        monkeypatch.setattr(fock, "_loop_step" if basis == "orbits" else "_orbit_step", None)
        run()

    @pytest.mark.parametrize("doubled,n", [(False, 8), (True, 5)], ids=["T", "X"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_packed_width_bounds_every_loop_half_state(self, d, n, doubled, monkeypatch):
        # the loop basis at t = d packs C = _history_bits bits per q-degree:
        # run it at every d with digits 3C wide, so that none can carry,
        # keep every dict a step accumulates into, and each q-digit of a
        # state or a half-state (one leg more, path 1 first) must stay
        # below 2^C
        bits = _history_bits(n, doubled, d)
        tables, accumulate = {}, fock._accumulate

        def recording(out, key, value):
            tables[id(out)] = out
            accumulate(out, key, value)

        run = meander_moment_sweep if doubled else semi_meander_moment_sweep
        monkeypatch.setattr(fock, "sweep_sizes", priced_out)
        monkeypatch.setattr(fock, "_accumulate", recording)
        monkeypatch.setattr(fock, "_history_bits", lambda *args: 3 * bits)
        swept = run(d, n, FORMAL, cap=n)
        half = [c for out in tables.values() for key, c in out.items()
                if len(key) == (3 if doubled else 2)]
        held = [c for out in tables.values() for c in out.values()]
        wide = 3 * bits
        digits = [c >> s & (1 << wide) - 1 for c in held for s in range(0, c.bit_length(), wide)]
        assert half and max(digits) < 1 << bits
        monkeypatch.undo()
        assert swept == orbit_sweep(d, n, FORMAL, doubled)[:: 2 if doubled else 1]


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
            x = FockVector(d, mode, {word: 1.0})
            assert commutator_defect(v, w, x).max_abs() <= 1e-12


class TestWordVector:
    def test_expansion(self):
        v = (Fraction(1), Fraction(1))
        out = word_vector([v, E1], 2)
        assert out.coefficient((1, 1)) == 1
        assert out.coefficient((2, 1)) == 1
        assert out.coefficient((1, 2)) == 0

    def test_empty(self):
        assert word_vector([], 2) == FockVector.vacuum(2)

    def test_insertion_order_and_errors(self):
        out = word_vector([(1, 2), (3, 0)], 2)
        assert list(out.terms.items()) == [((1, 1), 3), ((2, 1), 6)]
        with pytest.raises(GroundSetError):
            word_vector([E1, (1, 2, 3)], 2)
