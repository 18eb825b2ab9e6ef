"""The deformed (full) Fock space over C^d with exact coefficients.

States are finitely supported maps from basis words over {1..d} to scalars
(the empty word is the vacuum), exact at every word length: nothing is
truncated.  Operators act on these sparse maps and are never materialised
as matrices.  The inner product of two length-n words is the permutation
sum weighted by q^(inversions); creation prepends/appends a vector,
annihilation is the q-weighted sum over removal positions, counted from
the left for left operators and from the right for right operators.

Inner products are linear in the first argument.  Exact modes restrict to
rational coordinates; floating mode, for complex ones, is word-level only.

Moments and the polynomials in (t, q) are swept by one engine,
``_moment_sweep``, which prices the sweep in each basis and runs the one
with the lower price: the polynomials are the loop-basis moment at formal
t.  Its state is a dict from legs to packed ints, stepped through the reach
and the longest leg ``_schedule`` gives each step, and it reads every
vacuum amplitude off the packed digits (``_digits``).  Each step runs in
two passes: the first factor into half-states, then the second factor from
each.  One move rule (``_left_moves``) and one two-pass step
(``_two_pass_step``) serve both bases, which give it three rules: the
labels a creation may use, the ends the second factor may remove, and how
an output is keyed and weighed.  The orbit basis keeps one word (word pair
for X) per relabelling orbit of the letters, so its states grow with d.
The loop basis keeps only which two open ends belong to one path, so its
states do not grow with d: it counts each closed loop with t, the int d for
the moments and 2^W for the polynomials.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from fractions import Fraction
from itertools import accumulate, chain, product
from math import ceil, log2
from operator import lshift, mul
from typing import Callable, Iterable, Iterator, Sequence

from .dyck import ONE, STAR
from .errors import ENUMERATION_BUDGET, SWEEP_BUDGET, GroundSetError, check_size
from .partitions import (
    LEFT,
    RIGHT,
    IndexTuple,
    crossings,
    enumerate_pair_partitions,
    odd_double_factorial,
)
from .scalars import FORMAL, Mode, QPoly, conjugate

Word = tuple[int, ...]
CoordVector = tuple


def basis_vector(d: int, i: int) -> CoordVector:
    if not 1 <= i <= d:
        raise ValueError(f"basis index {i} outside 1..{d}")
    return tuple(1 if j == i else 0 for j in range(1, d + 1))


def vector_inner(v: CoordVector, w: CoordVector):
    """Coordinate inner product, linear in the first argument."""
    if len(v) != len(w):
        raise GroundSetError(f"vector dimensions differ: {len(v)} vs {len(w)}")
    return sum(a * conjugate(b) for a, b in zip(v, w))


class FockVector:
    """Finitely supported word -> coefficient map, of words of any length."""

    __slots__ = ("d", "mode", "terms")

    def __init__(self, d: int, mode: Mode, terms: dict[Word, object]):
        if d < 1:
            raise ValueError("alphabet size d must be positive")
        self.d = d
        self.mode = mode
        self.terms = {w: c for w, c in terms.items() if c}
        for w in self.terms:
            if not all(1 <= a <= d for a in w):
                raise ValueError(f"letters of {w} outside 1..{d}")

    @classmethod
    def _trusted(cls, d: int, mode: Mode, terms: dict[Word, object]) -> "FockVector":
        """A state built from checked ones: every word of ``terms`` already
        lies within the alphabet, so only zero coefficients are dropped."""
        x = object.__new__(cls)
        x.d, x.mode = d, mode
        x.terms = {w: c for w, c in terms.items() if c}
        return x

    @classmethod
    def vacuum(cls, d: int, max_len: int | None = None, mode: Mode = FORMAL) -> "FockVector":
        """The vacuum.  ``max_len`` is ignored (states are exact at every
        length); it is kept for callers that pass it positionally."""
        return cls(d, mode, {(): mode.one()})

    @classmethod
    def zero(cls, d: int, mode: Mode = FORMAL) -> "FockVector":
        return cls(d, mode, {})

    def coefficient(self, word: Word):
        return self.terms.get(tuple(word), self.mode.zero())

    def vacuum_amplitude(self):
        return self.terms.get((), self.mode.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "FockVector") -> None:
        if self.d != other.d:
            raise GroundSetError(f"alphabet sizes differ: {self.d} vs {other.d}")
        if self.mode != other.mode:
            raise ValueError("cannot mix scalar modes")

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check_compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return FockVector._trusted(self.d, self.mode, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1)

    def scaled(self, c) -> "FockVector":
        return FockVector._trusted(self.d, self.mode, {w: x * c for w, x in self.terms.items()})

    def max_abs(self) -> float:
        """Largest coefficient magnitude (floating modes only)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        return (
            isinstance(other, FockVector)
            and self.d == other.d
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"FockVector(d={self.d}, terms={len(self.terms)})"


def _accumulate(out: dict, word: Word, value) -> None:
    if word in out:
        out[word] = out[word] + value
    else:
        out[word] = value


def apply(side: str, flavor: str, v: Sequence, x: FockVector, k: int | None = None) -> FockVector:
    """One elementary factor on a sparse state: the creation (flavor '1')
    or annihilation ('*') at ``v`` on side 'l' or 'r'.  With ``k`` only the
    k-th term of the annihilation sum is kept; a creation has only k == 1."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be '{LEFT}' or '{RIGHT}'")
    if flavor not in (ONE, STAR):
        raise ValueError(f"flavor must be '{ONE}' or '{STAR}'")
    if k is None:
        return _apply(side, v, x, flavor)
    if k < 1:
        raise ValueError("piece index k must be positive")
    if flavor == ONE and k != 1:
        raise ValueError("creation pieces exist only for k == 1")
    return _apply(side, v, x, flavor, slice(k - 1, k))


def _apply(side: str, v: CoordVector, x: FockVector, flavors: str,
           pieces: slice = slice(None)) -> FockVector:
    """The factors at ``v`` on one side whose flavors are in ``flavors``
    ('1', '*' or both), on a sparse state in one pass over its words; the
    annihilation keeps only the terms whose removal position k (counted from
    the operator's side) lies in the slice ``pieces`` of 1..n."""
    if len(v) != x.d:
        raise GroundSetError(f"operator vector has dimension {len(v)}, state {x.d}")
    # Integral Fractions as ints keep integer coefficients integer.
    v = [int(a) if type(a) is Fraction and a.denominator == 1 else a for a in v]
    shifted = x.mode.shifted
    out: dict[Word, object] = {}
    left = side == LEFT
    create, remove = ONE in flavors, STAR in flavors
    for word, c in x.terms.items():
        n = len(word)
        if create:
            for i, vi in enumerate(v, start=1):
                if not vi:
                    continue
                nw = (i,) + word if left else word + (i,)
                _accumulate(out, nw, c * vi)
        if not remove:
            continue
        for k in range(1, n + 1)[pieces]:
            pos = k - 1 if left else n - k
            f = conjugate(v[word[pos] - 1])
            if not f:
                continue
            _accumulate(out, word[:pos] + word[pos + 1 :], shifted(c, k - 1, f))
    return FockVector._trusted(x.d, x.mode, out)


def apply_q_scaling(x: FockVector) -> FockVector:
    """Multiply every length-n word by q^n; the vacuum is fixed."""
    shifted = x.mode.shifted
    return FockVector._trusted(x.d, x.mode, {w: shifted(c, len(w)) for w, c in x.terms.items()})


def word_vector(vectors: Sequence[CoordVector], d: int, mode: Mode = FORMAL) -> FockVector:
    """Expansion of an elementary tensor of coordinate vectors over basis
    words: left creations at the vectors, the last one first, on the vacuum."""
    for v in vectors:
        if len(v) != d:
            raise GroundSetError(f"vector dimension {len(v)} != {d}")
    x = FockVector.vacuum(d, mode=mode)
    for v in reversed(vectors):
        x = apply(LEFT, ONE, v, x)
    return x


def _word_inner(w: Word, v: Word, mode: Mode):
    """Permutation sum for two basis words: sum over the bijections tau with
    w[i] == v[tau(i)], weighted by q^(inversion count).  The walk picks
    tau(0), tau(1), ... among the free positions of v holding w[i]; a pick's
    rank among them is the inversions it adds (its Lehmer code digit).

    What is left to pick depends only on the letters of v still free, in
    order, so the walk keys its partial sums on that subword.  Each subword
    is what one subset of the L positions of v leaves free, so the walk
    holds at most 2^L of them over all its steps.  A partial sum packs one
    digit of L bitlen(L) + 1 bits per power of q: a digit counts partial
    bijections that extend to distinct whole ones, at most L! of them, so
    no digit carries."""
    n = len(w)
    if sorted(w) != sorted(v):
        return mode.zero()
    bits = n * n.bit_length() + 1
    walk = {v: 1}
    for a in w:
        picked: dict = {}
        for free, c in walk.items():
            for r, b in enumerate(free):
                if b == a:
                    rest = free[:r] + free[r + 1 :]
                    picked[rest] = picked.get(rest, 0) + (c << r * bits)
        walk = picked
    return mode.series(_digits(walk[()], bits))


def q_inner_product(x: FockVector, y: FockVector):
    """Deformed inner product; words of different lengths are orthogonal.
    Sized by the subwords ``_word_inner`` may walk: 2^L for each pair of
    words of length L."""
    x._check_compatible(y)
    xs, ys = Counter(map(len, x.terms)), Counter(map(len, y.terms))
    common = sorted(xs.keys() & ys.keys())
    check_size(max(common, default=0), None,
               accumulate(xs[L] * ys[L] << L for L in common), ENUMERATION_BUDGET,
               "q_inner_product takes no cap; use shorter words")
    mode = x.mode
    total = mode.zero()
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if len(w1) != len(w2):
                continue
            s = _word_inner(w1, w2, mode)
            if s:
                total = total + c1 * conjugate(c2) * s
    return total


def _position(side: str, v: CoordVector, x: FockVector) -> FockVector:
    """The position operator (creation + annihilation) at v on one side,
    both built into one output map."""
    return _apply(side, v, x, ONE + STAR)


def apply_semi_meander_operator(x: FockVector) -> FockVector:
    """One application of sum_i (left create + annihilate)(right create +
    annihilate) at the i-th basis vector, composed from the elementary actions."""
    out = FockVector.zero(x.d, x.mode)
    for i in range(1, x.d + 1):
        e = basis_vector(x.d, i)
        out = out + _position(LEFT, e, _position(RIGHT, e, x))
    return out


def _schedule(n: int, doubled: bool) -> Iterator[tuple[int, int]]:
    """The steps of the sweep for m_n (n T steps, or 2n steps of X), as
    (reach, longest): the longest leg an output of the step may keep, and
    the longest leg a state can have entering it.

    A step moves every leg by at most ``shrink`` ends (T two, X one), so
    after step k of N a state with a leg longer than ``shrink * (N - k)``
    cannot reach the vacuum again, and step k drops it as it makes it (its
    reach).  This is exact, so one pass yields every order.  The steps are
    yielded one by one, so a price that refuses a huge n reads few."""
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    return ((shrink * (steps - k), shrink * min(k - 1, steps - k + 1))
            for k in range(1, steps + 1))


# The packed width at which a product costs one more product of small ints
# (q = 0's, as cheap as a float's), fitted to T and X sweeps at d = 1..4
# (2-core VM, Python 3.11): a formal product shifts and adds ints of up to
# C (degree + 1) bits, an exact one multiplies a numerator of up to
# S log2(b) bits by a table entry of at most M log2(b) bits, S the sum and
# M the largest of the steps' denominator growths 2 (longest leg) + 1 (see
# _step_tables).
# Every product of an orbit sweep also slices, hashes and looks up words of
# up to n letters in all (2n for X); at _LEG_ENDS letters that doubles its
# cost (fitted the same way at d = 1, n = 20..196).
_FORMAL_BITS = 50_000
_EXACT_BITS_SQUARED = 2_000_000
_LEG_ENDS = 100


def _packed_weight(d: int | None, n: int, mode: Mode, doubled: bool) -> float:
    """Cost of one product of the packed ints of a sweep for m_n at t = d
    (formal t if ``d`` is None), in products of small ints."""
    if mode.is_formal:
        degree = n * (n - 1) // (1 if doubled else 2)  # most crossings of n pairs
        return 1 + _history_bits(n, doubled, d) * (degree + 1) / _FORMAL_BITS
    tops = [2 * longest + 1 for _, longest in _schedule(n, doubled)]
    bits = log2(mode.q.denominator)
    return 1 + sum(tops) * max(tops, default=0) * bits**2 / _EXACT_BITS_SQUARED


def _product_weight(d: int, n: int, mode: Mode, doubled: bool) -> float:
    """Cost of one product of the orbit sweep for m_n, in products of small
    ints and short words."""
    return _packed_weight(d, n, mode, doubled) + (2 if doubled else 1) * n / _LEG_ENDS


def _layer_sizes(n: int, doubled: bool, weight: Callable, fresh: Callable,
                 members: Callable, removable: Callable) -> Iterator[int]:
    """Running totals, over the steps of a sweep for m_n in either basis,
    of the products the steps can make, and last their total times
    ``weight()``, read only once the count fits.

    The count follows the sweep's layers from the vacuum: a layer maps each
    shape (leg lengths) to the most states, then half-states, of that
    shape.  Every half-state is an output of the first factor on a state,
    and every state one of the second factor on a half-state, so a layer
    holds at most the outputs the one before it makes, each kept while the
    leg the factor acts on stays within the step's reach (see
    ``_schedule``), and those outputs are the products.  On a leg of a
    ends, of L ends in all, the first factor makes ``fresh(L)`` creations
    and a removals, and the second factor one creation and a removals.  A
    layer also holds at most ``members(L)`` states (L even) or half-states
    (L odd) of each shape, and the second factor makes at most
    ``members(L) + l removable(L)`` products from all half-states of one
    shape, l its last leg: ``removable(L)`` of them can remove the end at
    any one position of that leg."""
    if n < 0:
        raise ValueError("n must be >= 0")
    layer = {(0, 0) if doubled else (0,): 1}

    def moved(layer: dict, leg: int, limit: int, creations: Callable,
              cap: Callable | None = None) -> tuple[dict, int]:
        out: dict = {}
        made = 0
        for shape, count in layer.items():
            a, L = shape[leg], sum(shape)
            outputs = 0
            for b, ways in ((a + 1, creations(L)), (a - 1, a)):
                if ways and b <= limit:
                    key = shape[:leg] + (b,) + shape[leg + 1 :]
                    out[key] = out.get(key, 0) + ways * count
                    outputs += ways * count
            made += outputs if cap is None else min(outputs, cap(L, a))
        return {s: min(c, members(sum(s))) for s, c in out.items()}, made

    total = 0
    for reach, _ in _schedule(n, doubled):
        half, first = moved(layer, 0, reach if doubled else reach + 1, fresh)
        layer, second = moved(half, 1 if doubled else 0, reach, lambda L: 1,
                              lambda L, l: members(L) + l * removable(L))
        total += first + second
        yield total
    yield ceil(total * weight())


@cache
def _even_blocks(d: int, L: int) -> tuple[int, ...]:
    """S(L, b) for b = 0..min(d, L/2): the partitions of an even number L
    of points into b blocks of even size, S(L, b) = b^2 S(L-2, b) +
    (2b-1) S(L-2, b-1)."""
    if L == 0:
        return (1,)
    prev = _even_blocks(d, L - 2) + (0,)
    return (0, *(b * b * prev[b] + (2 * b - 1) * prev[b - 1]
                 for b in range(1, min(d, L // 2) + 1)))


@cache
def _orbit_members(d: int, L: int) -> int:
    """The most orbits of states of L letters (L even), sum_b S(L, b), or
    of half-states (L odd), sum_b S(L+1, b)."""
    return sum(_even_blocks(d, L + L % 2))


@cache
def _orbit_removable(d: int, L: int) -> int:
    """The most orbits of half-states of L letters with the pending letter
    at one given position, sum_b W(L, b), W(L, b) = S(L-1, b-1) +
    b S(L-1, b)."""
    row = _even_blocks(d, L - 1)
    return sum(row[:d]) + sum(b * s for b, s in enumerate(row))


def sweep_sizes(d: int, n: int, mode: Mode, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the pruned orbit sweep for m_n, of
    the scalar products the steps can make, and last their total weighted by
    the width of the packed ints (``_product_weight``), which is at least 1
    and read only once the count fits: ``_layer_sizes`` on orbits.

    A state of L letters in all uses each of its b <= d letters an even
    number of times, so its orbit is one of the S(L, b) partitions of L
    points into b even blocks, and its first factor creates one of its
    letters or one fresh, min(b + 1, d) <= min(L/2 + 1, d) creations.  A
    half-state's pending letter is its one letter of odd count (see
    ``_orbit_step``): with the point L+1 joining that letter's block, its
    orbit is one of the S(L+1, b).  Its second factor removes only the
    pending letter, and the half-states with it at a given position number
    W(L, b): that point alone, or in one of the b blocks of the other L-1
    points."""
    return _layer_sizes(n, doubled, lambda: _product_weight(d, n, mode, doubled),
                        lambda L: min(L // 2 + 1, d), partial(_orbit_members, d),
                        partial(_orbit_removable, d))


@cache
def _loop_members(L: int) -> int:
    """The most loop-basis states of L ends (L even), a matching of them,
    (L-1)!!, or half-states (L odd), one end single and the others
    matched, L (L-2)!!."""
    return odd_double_factorial(L // 2) * (L if L % 2 else 1)


def loop_sweep_sizes(d: int | None, n: int, mode: Mode, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the loop sweep for m_n at t = d
    (at formal t, Q_n or P_n, if ``d`` is None), of the products the steps
    can make, and last their total weighted by ``_packed_weight``.

    This is ``_layer_sizes`` on loops, so the count does not depend on d:
    each factor creates one fresh end (see ``_loop_step``), and a
    half-state's second factor can remove every end of its last leg."""
    return _layer_sizes(n, doubled, partial(_packed_weight, d, n, mode, doubled),
                        lambda L: 1, _loop_members, _loop_members)


def _canonical_pattern(*legs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Relabel values 1, 2, ... in order of first appearance, jointly over the
    legs.  Both sweeps call this for every distinct raw output, so it runs
    plain loops: a generator per leg made it about 1.7 times slower."""
    relabel: dict[int, int] = {}
    out = []
    for leg in legs:
        new = []
        for v in leg:
            k = relabel.get(v)
            if k is None:
                k = relabel[v] = len(relabel) + 1
            new.append(k)
        out.append(tuple(new))
    return tuple(out)


def _step_tables(mode: Mode, width: int, longest: int) -> tuple[tuple[Callable, list, list], int]:
    """How one two-pass step multiplies the packed ints of states whose
    longest leg is M = ``longest``: its tables (the product ``times``, the
    first pass's table of q^e and the second pass's of q^f), and how much
    it grows the scale.  A first-pass product is c q^e, e < M, and a
    second-pass one c q^f, f <= M:

    * formal q: c is the polynomial's value at q = 2^C, C = ``width``, and
      q^e is a shift by C e; ``_history_bits`` proves that no digit
      carries.  The scale stays 0.
    * q = a/b: c is the numerator over b^S, S the scale; the first pass
      multiplies by a^e b^(M-e) and the second by a^f b^(M+1-f), onto the
      denominator b^(S+2M+1).  No gcd is taken until an amplitude is read."""
    powers = range(longest + 1)
    if mode.is_formal:
        shifts = [width * e for e in powers]
        return (lshift, shifts, shifts), 0
    a, b = mode.q.numerator, mode.q.denominator
    return ((mul, [a**e * b ** (longest - e) for e in powers],
             [a**f * b ** (longest + 1 - f) for f in powers]), 2 * longest + 1)


def _left_moves(word: Word, fresh: Iterable[int]) -> list[tuple[Word, int, int]]:
    """A left factor on a word, as (word, power of q, label moved): the
    creation of each label in ``fresh`` (q^0), and the removal of the
    letter with k letters before it (q^k)."""
    out = []
    for a in fresh:
        out.append(((a,) + word, 0, a))
    for k, a in enumerate(word):
        out.append((word[:k] + word[k + 1 :], k, a))
    return out


def _two_pass_step(terms: dict, doubled: bool, reach: int, memo: dict, tables: tuple,
                   fresh: Callable, ends: Callable, key: Callable) -> dict:
    """One two-pass step, the same in both bases, which give it three rules.

    The first factor (T: r_i, on the word read from the right; X: left, on
    leg 1) moves a label of each state of ``terms`` by ``_left_moves``,
    creating one of ``fresh(legs)``.  The output's legs after the moved label
    (label,), renamed jointly by first appearance, are a half-state, whose
    label 1 is pending: the step's letter on orbits, its open path on loops.
    The second factor acts on its last leg (T: l_i; X: left, on leg 2): it
    removes the end at each (j, label) of ``ends(last)`` (q^j), or creates
    a 1 (q^0), marked by the label 0.  ``key`` maps each raw output (other
    legs, last leg, label) to its state and an int weight.  A product is
    ``times(c, first[e])`` or ``times(c, second[j])`` (``tables``, see
    ``_step_tables``), times the weight if it is not 1.

    A half-state with its last leg longer than ``reach`` + 1 or another leg
    longer than ``reach``, or an output of the second factor with a leg
    longer than ``reach``, cannot reach the vacuum again (see
    ``_schedule``) and is dropped before it is keyed.  ``memo``, shared by a sweep's steps,
    maps each other raw half-state to its key and each raw output (the one
    raw that ends in an int) to its state and weight; neither is empty, so
    a hit is true.  States and half-states of value 0 (at exact q = 0,
    every removal past position 0) make no products."""
    times, first, second = tables
    add, lookup, half, out = _accumulate, memo.get, {}, {}
    for legs, c in terms.items():
        if not c:
            continue
        word = legs[0] if doubled else legs[0][::-1]
        for w, e, label in _left_moves(word, fresh(legs)):
            head, last = ((w,), legs[1]) if doubled else ((), w[::-1])
            if doubled and len(w) > reach or len(last) > reach + 1:
                continue
            raw = ((label,), *head, last)
            state = lookup(raw) or memo.setdefault(raw, _canonical_pattern(*raw))
            add(half, state, times(c, first[e]))
    for legs, c in half.items():
        if not c:
            continue
        head, last = legs[1:-1], legs[-1]
        for j, label in chain(ends(last), ((0, 0),) if len(last) < reach else ()):
            raw = (head, last[:j] + last[j + 1 :] if label else (1,) + last, label)
            state, weight = lookup(raw) or memo.setdefault(raw, key(raw))
            value = times(c, second[j])
            add(out, state, value if weight == 1 else value * weight)
    return out


def _orbit_step(terms: dict, d: int, doubled: bool, reach: int, memo: dict,
                tables: tuple) -> dict:
    """One application of sum_i O_i on relabelling orbits.  The letters
    1..u of a representative act as themselves and one fresh letter u+1
    stands for the d-u unused ones, so the first factor creates one of the
    letters 1..min(u+1, d).  A factor moves the count of its letter alone,
    by one, so a half-state holds every letter of its input and its pending
    letter 1 is its one letter of odd count: its orbit has one member per
    (input member, letter), and the first factor needs no weight.

    The second factor is left X_1 on the last leg, so it removes only a 1.
    An output without the letter 1 lies in a larger orbit and weighs the
    int d - used, used the letters it keeps: d-u+1 if an existing letter
    left, d-u if the fresh letter was created and annihilated (T only: r_i,
    then l_i*).  The weight is read off the raw output, as renaming puts a
    1 in every output but the vacuum."""

    def key(raw):
        legs = (*raw[0], raw[1])
        state = _canonical_pattern(*legs)
        if any(1 in leg for leg in legs):
            return state, 1
        return state, d - max(chain.from_iterable(state), default=0)

    return _two_pass_step(
        terms, doubled, reach, memo, tables,
        lambda legs: range(1, min(max(chain.from_iterable(legs), default=0) + 1, d) + 1),
        lambda last: [(j, 1) for j, a in enumerate(last) if a == 1], key)


def _loop_step(terms: dict, t: int, doubled: bool, reach: int, memo: dict,
               tables: tuple) -> dict:
    """One application of sum_i O_i in the loop basis.  A state keeps, of
    the open paths the steps have drawn, only which two ends belong to one
    path: a tuple of legs (one word for T, a word pair for X) of path ends,
    each label occurring exactly twice over the legs, renamed jointly by
    first appearance.  A path's letter is free, so summing the orbit
    sweep's letters gives d per closed loop; the loop basis makes each
    pairing of the factors once, and a closed loop multiplies by the int
    ``t``: d for a moment, 2^W for a polynomial in (t, q).  The first
    factor creates a fresh end, labelled 0, or removes an end and so extends
    that end's path; either way the step's path 1 has one end left.

    The second factor creates the other end of path 1, or removes any end:
    removing path 1's end closes a loop (times t), and removing
    another end joins its path to path 1, the survivor of its pair taking
    label 1."""

    def key(raw):
        head, last, end = raw
        legs = (*head, last)
        if end > 1:
            legs = [tuple(1 if a == end else a for a in leg) for leg in legs]
        return _canonical_pattern(*legs), t if end == 1 else 1

    return _two_pass_step(terms, doubled, reach, memo, tables, lambda legs: (0,), enumerate, key)


def _history_bits(n: int, doubled: bool, d: int | None = 1) -> int:
    """Bits of one digit of a packed formal sweep for m_n (for P_n or the X
    moment if ``doubled``): the bit length of H = (2n-1)!! d^n, or
    (2n-1)!!^2 d^n.  A sweep, in either basis, packs
    C = ``_history_bits(n, doubled, d)`` bits per q-degree.  The
    polynomials are the loop-basis moment at t = 2^W,
    W = ``_history_bits(n, doubled)`` (t counted by its exponent, so
    d = 1), which packs C = W(n+1), the bit length of H 2^(Wn): ``d`` None
    (formal t) gives it without building 2^(Wn).

    A history is a run of choices, one per factor (create, or remove one
    end), and in the orbit basis a letter per step.  No digit carries:

    1. Every coefficient is non-negative: a sweep starts at 1 and
       multiplies only by q^k and by positive ints (d - used on orbits,
       the loop weight d or 2^W on loops).
    2. Take a state or half-state that can still reach the vacuum.  Its
       digit counts the partial histories that reach it (one member of its
       orbit, on orbits) with its exponents: of q^e, or of t^a q^e for the
       polynomials; at t = d it sums d^a over those with q^e, a the loops
       they closed.  One way on from it to the vacuum extends distinct
       partial histories to distinct complete histories, which close at
       least those loops, so the digit is at most the vacuum moment at
       q = 1 (and t = 1 for the polynomials): Q_n(d, 1) <= (2n-1)!! d^n,
       or P_n(d, 1) <= (2n-1)!!^2 d^n, as each of the at most n closed
       loops takes a pair of each matching.  So the digit is at most
       H < 2^bits.
    3. A state that cannot reach the vacuum feeds only states that cannot
       reach it either, so a carry inside it never reaches an amplitude.

    So the base-2^bits digits of an amplitude are its coefficients.  A loop
    takes at least one T step or two X steps, so the t-degree is at most n
    and the loop sweep's q-degree block of W(n+1) bits holds every t-digit."""
    histories = odd_double_factorial(n) ** (2 if doubled else 1)
    if d is None:
        return histories.bit_length() * (n + 1)
    return (histories * d**n).bit_length()


def _digits(c: int, bits: int) -> list[int]:
    """The base-2^bits digits of c >= 0, lowest first."""
    mask = (1 << bits) - 1
    return [c >> s & mask for s in range(0, c.bit_length(), bits)]


def _priced(sizes: Iterable[int], bound: int = SWEEP_BUDGET) -> list[int]:
    """The running counts of a price, up to and including the first past
    ``bound``."""
    counts = []
    for count in sizes:
        counts.append(count)
        if count > bound:
            break
    return counts


def _moment_sweep(d: int | None, n: int, mode: Mode, doubled: bool, cap: int | None) -> list:
    """Vacuum amplitudes over n T steps, or 2n steps of sum_i X_i (x) X_i if
    ``doubled``, from the vacuum with coefficient 1, in an exact mode, in
    the basis with the lower price: the loop basis at t = d, or at formal t
    (``d`` None, for ``loop_sweep``) as t = 2^W, priced by
    ``loop_sweep_sizes``, or relabelling orbits at an int d, priced by
    ``sweep_sizes``.  The orbit price is read only while it stays within
    the loop total and the budget; a price that stays within the budget for
    more steps is lower, and ties go to loops.  Each step runs at the reach
    ``_schedule`` gives it, and the steps share one memo of keys.

    A state maps tuples of legs (one word for T, a word pair for X),
    renamed jointly by first appearance, to the coefficient of each of the
    orbit's d!/(d-u)! members, u the letters used (orbit basis), or of the
    pairing of path ends (loop basis).  A coefficient is one int (see
    ``_step_tables``): its value at q = 2^width if q is formal, its
    numerator over b^scale if q = a/b."""
    if not mode.is_exact:
        raise ValueError(f"the moment sweeps are exact: pass q as Fraction('{mode.q!r}')")
    loops = _priced(loop_sweep_sizes(d, n, mode, doubled))
    prices = [(_loop_step, loops)]
    if d is not None:
        bound = min(loops[-1], SWEEP_BUDGET)
        prices.append((_orbit_step, _priced(sweep_sizes(d, n, mode, doubled), bound)))
    step, price = min(prices, key=lambda p: (-len(p[1]), p[1][-1]))
    check_size(n, cap, price, SWEEP_BUDGET)
    t = 1 << _history_bits(n, doubled) if d is None else d
    width = _history_bits(n, doubled, d) if mode.is_formal else 0
    vacuum = ((), ()) if doubled else ((),)
    terms, scale, memo, amplitudes = {vacuum: 1}, 0, {}, [mode.one()]
    for reach, longest in _schedule(n, doubled):
        tables, growth = _step_tables(mode, width, longest)
        terms = step(terms, t, doubled, reach, memo, tables)
        scale += growth
        c = terms.get(vacuum, 0)
        amplitudes.append(QPoly(_digits(c, width)) if mode.is_formal
                          else Fraction(c, mode.q.denominator**scale))
    return amplitudes


def loop_sweep(n: int, doubled: bool, cap: int | None = None) -> dict[tuple[int, int], int]:
    """Terms {(t, u): c} of Q_n(t, u) (P_n(t, u) if ``doubled``) from one
    pass of the loop basis.  Its last amplitude is Q_n(t, q) at t = 2^W,
    W = ``_history_bits(n, doubled)``, so the base-2^W digits of each
    q-coefficient are the t-coefficients (Kronecker substitution)."""
    amplitude = _moment_sweep(None, n, FORMAL, doubled, cap)[-1]
    bits = _history_bits(n, doubled)
    return {(t, u): c for u, coeff in enumerate(amplitude.coeffs)
            for t, c in enumerate(_digits(coeff, bits)) if c}


def _alphabet_size(d: int) -> int:
    """``d``, if it is a number of letters: formal t (None) is ``loop_sweep``'s."""
    if d is None or d < 1:
        raise ValueError(f"alphabet size d must be positive, got {d!r}")
    return d


def semi_meander_moment_sweep(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None) -> list:
    """Vacuum moments m_0..m_n of the semi-meander operator, from one pass."""
    return _moment_sweep(_alphabet_size(d), n, mode, doubled=False, cap=cap)


def semi_meander_moment(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None):
    """n-th vacuum moment of the semi-meander operator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return semi_meander_moment_sweep(d, n, mode, cap)[-1]


def semi_meander_moment_direct(d: int, n: int, mode: Mode = FORMAL):
    """Unpruned pass over basis words, the reference for the moment sweep in
    either basis.  Exponential in n: sized like ``meander_moment_direct``,
    by the matchings and the index tuples of each order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, None, (max(odd_double_factorial(k), d ** (2 * k)) for k in range(1, n + 1)),
               ENUMERATION_BUDGET, "semi_meander_moment_direct takes no cap; lower n or d")
    x = FockVector.vacuum(d, mode=mode)
    for _ in range(n):
        x = apply_semi_meander_operator(x)
    return x.vacuum_amplitude()


def _gaussian_moment_pairings(index: IndexTuple, mode: Mode):
    """Combinatorial value: sum of q^cr over matchings refining the level
    sets of the index tuple."""
    two_n = len(index)
    if two_n % 2:
        return mode.zero()
    n, values = two_n // 2, index.values
    counts = [0] * (n * (n - 1) // 2 + 1)
    for pi in enumerate_pair_partitions(n):
        if all(values[a - 1] == values[b - 1] for a, b in pi.pairs):
            counts[crossings(pi)] += 1
    return mode.series(counts)


def gaussian_joint_moment(index: IndexTuple, mode: Mode = FORMAL):
    """Vacuum moment of the product of position operators picked by the index
    tuple (leftmost factor carries the last index).  Odd lengths give 0."""
    x = FockVector.vacuum(index.d, mode=mode)
    for i in index.values:
        x = _position(LEFT, basis_vector(index.d, i), x)
    return x.vacuum_amplitude()


def meander_moment_sweep(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None) -> list:
    """Moments m_0..m_n of the squared two-faced sum against the doubled
    vacuum, from one pass of 2n steps of sum_i X_i (x) X_i: m_k is the
    amplitude after step 2k (odd steps give 0)."""
    return _moment_sweep(_alphabet_size(d), n, mode, doubled=True, cap=cap)[::2]


def meander_moment(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None):
    """n-th moment of the squared two-faced sum against the doubled vacuum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return meander_moment_sweep(d, n, mode, cap)[-1]


def meander_moment_direct(d: int, n: int, mode: Mode = FORMAL):
    """The reference for the doubled-space sweep, which shares no step with
    it: the sum over all d^(2n) index tuples of the squared joint moment,
    memoised by the level-set pattern of the tuple, which is all a joint
    moment depends on.  Exponential in n: sized as the meander-moments suite."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, None, (max(odd_double_factorial(k) ** 2, d ** (2 * k)) for k in range(1, n + 1)),
               ENUMERATION_BUDGET, "meander_moment_direct takes no cap; lower n or d")
    memo: dict[tuple[int, ...], object] = {}
    total = mode.zero()
    for values in product(range(1, d + 1), repeat=2 * n):
        (key,) = _canonical_pattern(values)
        if key not in memo:
            memo[key] = gaussian_joint_moment(IndexTuple(key, d), mode)
        m = memo[key]
        total = total + m * m
    return total


def commutator_defect(v: Sequence, w: Sequence, x: FockVector) -> FockVector:
    """Commutator of the left position operator at v with the right position
    operator at w, minus its known scalar multiple of the q-scaling operator.
    Identically zero; exercised as an exactness check."""
    v, w = tuple(v), tuple(w)
    a, b = partial(_position, LEFT, v), partial(_position, RIGHT, w)
    c = vector_inner(w, v) - vector_inner(v, w)
    return a(b(x)) - b(a(x)) - apply_q_scaling(x).scaled(c)
