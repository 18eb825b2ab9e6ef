"""Truncated deformed Fock space over C^d with exact coefficients.

States are finitely supported maps from basis words over {1..d} to scalars
(the empty word is the vacuum); operators act on these sparse maps and are
never materialised as matrices.  The inner product of two length-n words is
the permutation sum weighted by q^(inversions); creation prepends/appends a
vector, annihilation is the q-weighted sum over removal positions, counted
from the left for left operators and from the right for right operators.

Inner products are linear in the first argument.  Exact modes restrict to
rational coordinates; complex coordinates are allowed in floating mode only.

Moments are swept on relabelling orbits, which both operators respect: one
word (word pair for X) per orbit whatever d, through one step for both, whose
two factors meet in half-states keyed on the legs and the pending letter.  The
polynomials in (t, q) are swept in a loop basis, which keeps only which two
open ends belong to one path and counts closed loops with t in place of d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import chain, permutations
from math import ceil, inf, log2, prod
from operator import lshift, mul
from typing import Callable, Iterable, Iterator, Sequence

from .dyck import ONE, STAR
from .errors import SWEEP_BUDGET, GroundSetError, TruncationOverflowError, check_size
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


@dataclass(frozen=True)
class OpSymbol:
    """One factor: a side, a flavor (creation '1' or annihilation '*') and a vector."""

    side: str
    flavor: str
    vector: CoordVector

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be '{LEFT}' or '{RIGHT}'")
        if self.flavor not in (ONE, STAR):
            raise ValueError(f"flavor must be '{ONE}' or '{STAR}'")
        object.__setattr__(self, "vector", tuple(self.vector))


def creator(side: str, vector: Sequence) -> OpSymbol:
    return OpSymbol(side, ONE, tuple(vector))


def annihilator(side: str, vector: Sequence) -> OpSymbol:
    return OpSymbol(side, STAR, tuple(vector))


class FockVector:
    """Finitely supported word -> coefficient map under a truncation level."""

    __slots__ = ("d", "max_len", "mode", "terms")

    def __init__(self, d: int, max_len: int, mode: Mode, terms: dict[Word, object]):
        if d < 1:
            raise ValueError("alphabet size d must be positive")
        if max_len < 0:
            raise ValueError("truncation level must be non-negative")
        self.d = d
        self.max_len = max_len
        self.mode = mode
        self.terms = {w: c for w, c in terms.items() if c}
        for w in self.terms:
            if len(w) > max_len:
                raise TruncationOverflowError(
                    f"word of length {len(w)} above the truncation level {max_len}"
                )
            if not all(1 <= a <= d for a in w):
                raise ValueError(f"letters of {w} outside 1..{d}")

    @classmethod
    def _trusted(cls, d: int, max_len: int, mode: Mode, terms: dict[Word, object]) -> "FockVector":
        """A state built from checked ones: every word of ``terms`` already
        lies within the truncation level and the alphabet, so only zero
        coefficients are dropped."""
        x = object.__new__(cls)
        x.d, x.max_len, x.mode = d, max_len, mode
        x.terms = {w: c for w, c in terms.items() if c}
        return x

    @classmethod
    def vacuum(cls, d: int, max_len: int, mode: Mode = FORMAL) -> "FockVector":
        return cls(d, max_len, mode, {(): mode.one()})

    @classmethod
    def zero(cls, d: int, max_len: int, mode: Mode = FORMAL) -> "FockVector":
        return cls(d, max_len, mode, {})

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
        return FockVector._trusted(self.d, max(self.max_len, other.max_len), self.mode, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1)

    def scaled(self, c) -> "FockVector":
        return FockVector._trusted(
            self.d, self.max_len, self.mode, {w: x * c for w, x in self.terms.items()}
        )

    def with_max_len(self, max_len: int) -> "FockVector":
        return FockVector(self.d, max_len, self.mode, self.terms)

    def max_abs(self) -> float:
        """Largest coefficient magnitude (floating modes only)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def to_json_obj(self) -> dict:
        return {
            "".join(map(str, w)): str(c) for w, c in sorted(self.terms.items())
        }

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


def apply(op: OpSymbol, x: FockVector) -> FockVector:
    """Linear extension of the four elementary actions to a sparse state."""
    return _apply(op, x, slice(None))


def apply_piece(side: str, flavor: str, k: int, v: Sequence, x: FockVector) -> FockVector:
    """One term of the annihilation sum (flavor '*'), or creation (flavor '1',
    which forces k == 1)."""
    op = OpSymbol(side, flavor, v)
    if flavor == ONE and k != 1:
        raise ValueError("creation pieces exist only for k == 1")
    if k < 1:
        raise ValueError("piece index k must be positive")
    return _apply(op, x, slice(k - 1, k))


def _apply(op: OpSymbol, x: FockVector, pieces: slice) -> FockVector:
    """``op`` on a sparse state, an annihilation keeping only the terms whose
    removal position k (counted from the operator's side) lies in the slice
    ``pieces`` of 1..n."""
    v = op.vector
    if len(v) != x.d:
        raise GroundSetError(f"operator vector has dimension {len(v)}, state {x.d}")
    # Integral Fractions as ints keep integer coefficients integer.
    v = [int(a) if type(a) is Fraction and a.denominator == 1 else a for a in v]
    mode = x.mode
    formal = mode.is_formal
    out: dict[Word, object] = {}
    left = op.side == LEFT
    if op.flavor == ONE:
        for word, c in x.terms.items():
            if len(word) + 1 > x.max_len:
                raise TruncationOverflowError(
                    f"creation on a length-{len(word)} word exceeds level {x.max_len}"
                )
            for i, vi in enumerate(v, start=1):
                if not vi:
                    continue
                nw = (i,) + word if left else word + (i,)
                _accumulate(out, nw, c * vi)
    else:
        for word, c in x.terms.items():
            n = len(word)
            for k in range(1, n + 1)[pieces]:
                pos = k - 1 if left else n - k
                f = conjugate(v[word[pos] - 1])
                if not f:
                    continue
                nw = word[:pos] + word[pos + 1 :]
                if formal and type(c) is QPoly:
                    _accumulate(out, nw, c.shifted(k - 1, f))
                else:
                    _accumulate(out, nw, c * (f * mode.q_power(k - 1)))
    return FockVector._trusted(x.d, x.max_len, mode, out)


def apply_q_scaling(x: FockVector) -> FockVector:
    """Multiply every length-n word by q^n; the vacuum is fixed."""
    mode = x.mode
    return FockVector._trusted(x.d, x.max_len, mode, {
        w: c.shifted(len(w)) if mode.is_formal and type(c) is QPoly else c * mode.q_power(len(w))
        for w, c in x.terms.items()
    })


def word_vector(
    vectors: Sequence[CoordVector],
    d: int,
    mode: Mode = FORMAL,
    max_len: int | None = None,
) -> FockVector:
    """Expansion of an elementary tensor of coordinate vectors over basis
    words: left creations at the vectors, the last one first, on the vacuum."""
    for v in vectors:
        if len(v) != d:
            raise GroundSetError(f"vector dimension {len(v)} != {d}")
    x = FockVector.vacuum(d, len(vectors) if max_len is None else max_len, mode)
    for v in reversed(vectors):
        x = apply(creator(LEFT, v), x)
    return x


def _word_inner(w: Word, v: Word, mode: Mode):
    """Permutation sum for two basis words: sum over bijections matching the
    letters, weighted by q^(inversion count)."""
    n = len(w)
    total = mode.zero()
    if sorted(w) != sorted(v):
        return total
    for tau in permutations(range(n)):
        if any(w[i] != v[tau[i]] for i in range(n)):
            continue
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if tau[i] > tau[j])
        total = total + mode.q_power(inv)
    return total


def q_inner_product(x: FockVector, y: FockVector):
    """Deformed inner product; words of different lengths are orthogonal."""
    x._check_compatible(y)
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


def vacuum_expectation(ops: Sequence[OpSymbol], d: int, mode: Mode = FORMAL):
    """Apply a product of factors (written left to right) to the vacuum and
    return the empty-word amplitude."""
    x = FockVector.vacuum(d, max(len(ops), 1), mode)
    for op in reversed(list(ops)):
        x = apply(op, x)
    return x.vacuum_amplitude()


def _position(side: str, v: CoordVector, x: FockVector) -> FockVector:
    """The position operator (creation + annihilation) at v on one side."""
    return apply(creator(side, v), x) + apply(annihilator(side, v), x)


def apply_semi_meander_operator(x: FockVector) -> FockVector:
    """One application of sum_i (left create + annihilate)(right create +
    annihilate) at the i-th basis vector, composed from the elementary actions."""
    out = FockVector.zero(x.d, x.max_len, x.mode)
    for i in range(1, x.d + 1):
        e = basis_vector(x.d, i)
        out = out + _position(LEFT, e, _position(RIGHT, e, x))
    return out


def sweep(start, steps: Iterable[Callable]) -> list:
    """Vacuum amplitudes of ``start`` and of its image after each step."""
    x, amplitudes = start, [start.vacuum_amplitude()]
    for step in steps:
        x = step(x)
        amplitudes.append(x.vacuum_amplitude())
    return amplitudes


def _state_products(d: int, a: int, b: int | None = None) -> int:
    """Most pairs of a first and a second factor that one orbit step has on a
    T word of length a (c^2 + c + 2 per letter occurring c times, the fresh
    letter included), or on X legs of lengths a, b: the growth factor of
    ``_packed_width``."""
    if b is None:
        return a * a + a + 2 * min(d, a // 2 + 1)
    return (1 + a) * (1 + b) + min(d, (a + b) // 2 + 1) - 1


def _horizons(n: int, doubled: bool, prune: bool = True) -> Iterator[int]:
    """The longest leg a state can have entering each step of the sweep for m_n."""
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    return (shrink * (min(k - 1, steps - k + 1) if prune else k - 1)
            for k in range(1, steps + 1))


def _running_totals(n: int, doubled: bool, products: Callable, weight: Callable) -> Iterator[int]:
    """Running totals of ``products(m, h, r)`` over the steps of the sweep
    for m_n (m steps done, h the horizon, r the step's reach), and last the
    total times ``weight()``, read only once the count fits."""
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    total = 0
    for k, h in enumerate(_horizons(n, doubled), start=1):
        total += products(k - 1, h, shrink * (steps - k))
        yield total
    yield ceil(total * weight())


# The packed width at which a product costs one float product more, fitted
# to T and X sweeps at d = 1..4 (2-core VM, Python 3.11): a formal product
# shifts and adds ints of up to C (degree + 1) bits, an exact one multiplies
# a numerator of up to S log2(b) bits by a table entry of at most M log2(b)
# bits, S the sum and M the largest of the steps' denominator growths
# 2 (longest leg) + 1 (see _orbit_step).
# Every product of an orbit sweep also slices, hashes and looks up words of
# up to n letters in all (2n for X); at _LEG_ENDS letters that doubles its
# cost (T and X float sweeps at d = 1, n = 20..196, same VM).
_FORMAL_BITS = 50_000
_EXACT_BITS_SQUARED = 2_000_000
_LEG_ENDS = 100


def _formal_weight(width: int, n: int, doubled: bool) -> float:
    """Cost of one product of a formal sweep for m_n packing C = ``width``
    bits per q-degree, in float products."""
    degree = n * (n - 1) // (1 if doubled else 2)  # most crossings of n pairs
    return 1 + width * (degree + 1) / _FORMAL_BITS


def _product_weight(d: int, n: int, mode: Mode, doubled: bool) -> float:
    """Cost of one product of the orbit sweep for m_n, in float products of
    short words."""
    legs = (2 if doubled else 1) * n / _LEG_ENDS
    if mode.is_formal:
        return _formal_weight(_packed_width(d, n, doubled), n, doubled) + legs
    if mode.is_exact:
        tops = [2 * h + 1 for h in _horizons(n, doubled)]
        bits = log2(mode.q.denominator)
        return 1 + sum(tops) * max(tops, default=0) * bits**2 / _EXACT_BITS_SQUARED + legs
    return 1 + legs


def sweep_sizes(d: int, n: int, mode: Mode, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the pruned orbit sweep for m_n, of
    the scalar products the steps can make, and last their total weighted by
    the width of the packed ints (``_product_weight``), which is at least 1
    and read only once the count fits.

    Step m+1's input holds states within the pruning horizon h, each letter
    occurring an even number of times, and its half-states (see
    ``_orbit_step``) have a last leg within the step's reach r, plus one;
    their pending letter is their one letter of odd count.  So legs of even
    total length L with b letters are among the S(L, b) partitions of L
    points into b even blocks, and of odd L among the S(L+1, b) with one odd
    block (the point L+1 joins it).  A state makes a + min(b+1, d) first-pass
    products, a the length of the leg its first factor acts on (one per
    letter present or fresh, and one per occurrence); a half-state makes
    1 + c second-pass products, c the odd letter's occurrences in its last
    leg, of length l.  Summed over the partitions, c gives l W(L, b), W the
    partitions with a given point in the odd block: that point alone, or in
    one of the b blocks of the other L-1 points, so W(L, b) = S(L-1, b-1) +
    b S(L-1, b).  States of the full length m per leg (T palindromes
    i_m..i_1 i_1..i_m, X pairs of equal words) lie in at most
    prod_{j<=m} min(j, d) orbits and use at most m letters, and the
    half-states one longer, made from them by a creation, in at most
    prod_{j<=m+1} min(j, d); there the count takes c <= l."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = [[1]]  # rows[j][b] = S(2j, b) for b <= min(d, j)

    def even(L: int, b: int) -> int:
        """S(L, b), the partitions of L points into b even blocks."""
        while len(rows) <= L // 2:
            prev = rows[-1] + [0]  # S(L, b) = b^2 S(L-2, b) + (2b-1) S(L-2, b-1)
            rows.append([0] + [b * b * prev[b] + (2 * b - 1) * prev[b - 1]
                               for b in range(1, min(d, len(rows)) + 1)])
        row = rows[L // 2]
        return row[b] if 0 <= b < len(row) else 0

    def first(L: int, a: int, m: int) -> int:
        """First-pass products from the states of total length L, leg a."""
        if L == 2 * m:
            return prod(min(j, d) for j in range(1, m + 1)) * (a + min(m + 1, d))
        return sum(even(L, b) * (a + min(b + 1, d)) for b in range(min(d, L // 2) + 1))

    def second(L: int, l: int, m: int) -> int:
        """Second-pass products from the half-states of total length L, last leg l."""
        if L == 2 * m + 1:
            return prod(min(j, d) for j in range(1, m + 2)) * (1 + l)
        return sum(even(L + 1, b) + l * (even(L - 1, b - 1) + b * even(L - 1, b))
                   for b in range(1, min(d, (L + 1) // 2) + 1))

    def products(m: int, h: int, reach: int) -> int:
        if doubled:
            legs = range(m % 2, h + 1, 2)
            ends = range((m + 1) % 2, min(h + 1, reach) + 1, 2)
            return (sum(first(a + b, a, m) for a in legs for b in legs)
                    + sum(second(a + b, b, m) for a in ends for b in legs if b <= reach + 1))
        return (sum(first(L, L, m) for L in range(0, h + 1, 2))
                + sum(second(L, L, m) for L in range(1, min(h, reach) + 2, 2)))

    return _running_totals(n, doubled, products, lambda: _product_weight(d, n, mode, doubled))


def _loop_states(m: int, a: int, b: int | None = None) -> int:
    """Most states the loop sweep holds after m steps with a T word of length
    a, or X legs of lengths a, b.  A state matches its L = a (+ b) ends in
    pairs, so there are at most (L-1)!!, and the two layers with no slack
    hold fewer:

    * L = 2m (T), a = b = m (X): every factor created, each step a new path
      with both ends, so there is one state.
    * L = 2m-2: exactly one factor removed, at some step j, while the
      earlier steps' j-1 nested paths were open.  For T, its right factor
      moved one of their 2j-2 ends to the left end (removed it, and the left
      factor re-created its path there), or its left factor moved one to
      the right end (joined the fresh path to it), or closed the fresh path.
      A loop leaves the nested paths, as does moving the leftmost end left
      or the rightmost right, and the later steps nest around what step j
      left; so there are at most 1 + sum_{j<=m} 2 max(2j-3, 0) =
      1 + 2(m-1)^2 states.  For X, leg 1 (legs (m-2, m)) or leg 2 (legs
      (m, m-2)) lost one of its j-1 ends, so each holds at most
      sum_{j<=m} (j-1) = m(m-1)/2 states."""
    if b is None:
        if a == 2 * m - 2:
            return min(odd_double_factorial(m - 1), 1 + 2 * (m - 1) ** 2)
        return 1 if a == 2 * m else odd_double_factorial(a // 2)
    if a + b == 2 * m - 2:
        return m * (m - 1) // 2
    return 1 if a == b == m else odd_double_factorial((a + b) // 2)


def loop_sweep_sizes(n: int, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the loop sweep for Q_n (P_n if
    ``doubled``), of the products the steps can make, and last their total
    weighted by the width of the packed ints (``_formal_weight``).  Step
    m+1's input holds states within the pruning horizon, at most
    ``_loop_states`` of each shape; one makes at most L^2 + L + 2 products
    from a T word of length L (a created first end leaves L + 2 choices to
    the second factor, each of the L removals leaves L), or (1 + a)(1 + b)
    from X legs of lengths a, b."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def products(m: int, h: int, reach: int) -> int:
        if doubled:
            legs = range(m % 2, h + 1, 2)
            return sum(_loop_states(m, a, b) * (1 + a) * (1 + b) for a in legs for b in legs)
        return sum(_loop_states(m, L) * (L * L + L + 2) for L in range(0, h + 1, 2))

    return _running_totals(n, doubled, products, lambda: _formal_weight(
        _digit_bits(n, doubled) * (n + 1), n, doubled))


class _OrbitVector:
    """Sweep state with one basis element per orbit of letter relabelling: a
    map from tuples of legs (one word for T, a word pair for X), renamed
    jointly by first appearance, to the coefficient of each of the orbit's
    d!/(d-u)! members, u the letters used.  In the exact modes a coefficient
    is one int (see ``_orbit_step``): its value at q = 2^width if q is
    formal, its numerator over b^scale if q = a/b."""

    __slots__ = ("d", "mode", "vacuum", "terms", "width", "scale")

    def __init__(self, d: int, mode: Mode, vacuum: tuple[Word, ...], terms: dict,
                 width: int = 0, scale: int = 0):
        self.d, self.mode, self.vacuum = d, mode, vacuum
        self.terms = {k: c for k, c in terms.items() if c}
        self.width, self.scale = width, scale

    def vacuum_amplitude(self):
        c = self.terms.get(self.vacuum)
        if c is None:
            return self.mode.zero()
        if self.mode.is_formal:
            mask, width = (1 << self.width) - 1, self.width
            return QPoly([c >> s & mask for s in range(0, c.bit_length(), width)])
        if self.mode.is_exact:
            return Fraction(c, self.mode.q.denominator ** self.scale)
        return c


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


def _left_x(word: Word, i: int) -> list[tuple[Word, int]]:
    """l_i + l_i* on a basis word, as (word, power of q) pairs."""
    out = [((i,) + word, 0)]
    for k, a in enumerate(word):
        if a == i:
            out.append((word[:k] + word[k + 1 :], k))
    return out


def _t_legs(legs: tuple[Word], i: int) -> list:
    """T_i = (l_i + l_i*)(r_i + r_i*) on one word: r_i + r_i* is left X_i reversed."""
    return [((), e, w[::-1]) for w, e in _left_x(legs[0][::-1], i)]


def _x_legs(legs: tuple[Word, Word], i: int) -> list:
    """X_i (x) X_i on a word pair: left X_i on the first leg."""
    return [((w,), e, legs[1]) for w, e in _left_x(legs[0], i)]


def _orbit_step(x: _OrbitVector, rule: Callable, reach: float, memo: dict) -> _OrbitVector:
    """One application of sum_i O_i, in two passes joined by half-states.
    The letters 1..u of a representative act as themselves and one fresh
    letter u+1 stands for the d-u unused ones.

    * First pass: the factor ``rule(legs, i)``, listed as (other legs, power
      of q, last leg).  Its output with the pending letter i as one more leg,
      renamed jointly by first appearance, is a half-state.  The factor moves
      the count of i alone, by one, so a half-state holds every letter of its
      input, and i is its one letter of odd count: its orbit has one member
      per (input member, i), and this pass needs no weight.
    * Second pass: left X_i on the last leg of each half-state.  An output
      without the letter i lies in a larger orbit and weighs d - used, used
      the letters it keeps: d-u+1 if i was an existing letter that left, d-u
      if the fresh letter was created and annihilated (T only: r_i, then
      l_i*).

    A half-state whose last leg is longer than ``reach`` + 1, or an output
    with a leg longer than ``reach``, cannot reach the vacuum again (see
    ``_run_sweep``) and is dropped before it is canonicalised.  ``memo``, shared
    by a sweep's steps, maps each other raw half-state to its key, and each
    other raw output (one leg fewer) to its key and the letters it uses.
    Half-states of value 0 (at exact q = 0, every removal past position 0)
    are dropped between the passes.

    A first-pass product is c q^e, e < M = longest leg, and a second-pass
    one c q^f times an int weight, f <= M.  In the exact modes c is a packed
    int:

    * formal q: c is the polynomial's value at q = 2^C, C = ``x.width``, and
      q^e is a shift by C e.  This is exact when 2^C exceeds every
      q-coefficient of every state and half-state, which ``_packed_width``
      ensures: the sweep starts at 1 and multiplies only by q^e and by
      d - used >= 1, so every coefficient is non-negative and at most its
      state's value at q = 1.  A step-k input state (its legs within the
      step's horizon, see ``sweep_sizes``) has at most P_k pairs of a first
      and a second factor, each weighing at most d, and each of its first
      outputs starts at least one pair (the creation); pruning only drops
      outputs.  So the values at q = 1 summed over the half-states are at
      most P_k times, and those over the states at most P_k d times, the sum
      over the step's input, and every coefficient is at most prod_k P_k d
      < 2^C.  Digits below 2^C never carry into each other, so the base-2^C
      digits of a vacuum amplitude are its q-coefficients.
    * q = a/b: c is the numerator over b^S, S = ``x.scale``; the first pass
      multiplies by a^e b^(M-e) and the second by a^f b^(M+1-f), onto the
      denominator b^(S+2M+1).  No gcd is taken until an amplitude is read.
    * float q: c is the float and q^e its power."""
    d, mode = x.d, x.mode
    longest = max((len(leg) for legs in x.terms for leg in legs), default=0)
    powers, scale = range(longest + 1), x.scale
    if mode.is_formal:
        times, first = lshift, [x.width * e for e in powers]
        second = first
    elif mode.is_exact:
        a, b = mode.q.numerator, mode.q.denominator
        times, scale = mul, scale + 2 * longest + 1
        first = [a**e * b ** (longest - e) for e in powers]
        second = [a**f * b ** (longest + 1 - f) for f in powers]
    else:
        times, first = mul, [mode.q_power(e) for e in powers]
        second = first
    add, lookup, half, out = _accumulate, memo.get, {}, {}
    for legs, c in x.terms.items():
        u = max(chain.from_iterable(legs), default=0)
        for i in range(1, min(u + 1, d) + 1):
            pending = (i,)
            for head, e, last in rule(legs, i):
                if head and len(head[0]) > reach or len(last) > reach + 1:
                    continue
                raw = (*head, last, pending)
                key = lookup(raw)
                if key is None:
                    key = memo[raw] = _canonical_pattern(*raw)
                add(half, key, times(c, first[e]))
    for state, c in half.items():
        if not c:
            continue
        head, last, (i,) = state[:-2], state[-2], state[-1]
        letters = max(chain.from_iterable(state))
        for w, f in _left_x(last, i):
            if len(w) > reach:
                continue
            raw = head + (w,)
            hit = lookup(raw)
            if hit is None:
                key = _canonical_pattern(*raw)
                hit = memo[raw] = (key, max(chain.from_iterable(key), default=0))
            key, used = hit
            value = times(c, second[f])
            if used < letters:
                value = value * (d - used)
            add(out, key, value)
    return _OrbitVector(d, mode, x.vacuum, out, x.width, scale)


def _left_ends(word: Word) -> list[tuple[Word, int, int]]:
    """A factor on the left of a word of path ends, as (word, power of q,
    the path the step extends): a fresh end, labelled 0, or each removal."""
    out = [((0,) + word, 0, 0)]
    for k, a in enumerate(word):
        out.append((word[:k] + word[k + 1 :], k, a))
    return out


def _loop_key(memo: dict, raw: tuple) -> tuple:
    """The state that a raw output (other legs, last leg, the step's path,
    the removed end's path) stands for: the removed end's path renamed to
    the step's, then every label by first appearance."""
    head, last, path, end = raw
    legs = (*head, last)
    if end != path:
        legs = [tuple(path if a == end else a for a in leg) for leg in legs]
    key = memo[raw] = _canonical_pattern(*legs)
    return key


def _loop_step(x: _OrbitVector, doubled: bool, reach: int, digit_bits: int,
               memo: dict) -> _OrbitVector:
    """One application of sum_i O_i in the loop basis.  A state keeps, of
    the open paths the steps have drawn, only which two ends belong to one
    path: a tuple of legs (one word for T, a word pair for X) of path ends,
    each label occurring exactly twice over the legs, renamed jointly by
    first appearance.  A path's letter is free, so summing the orbit
    sweep's letters gives d per closed loop; the loop basis makes each
    pairing of the factors once, with t per loop in place of d.

    The first factor (T: r_i, on the word read from the right; X: leg 1)
    creates a fresh end, or removes the end with k ends before it (weight
    q^k) and so extends that end's path; either way the step's path has
    one far end e.  The second factor (T: l_i; X: leg 2, from the left)
    creates an end of e's path, or removes the end with j ends before it
    (q^j): removing e closes a loop (t), and removing another end joins its
    path to the step's, the survivor of its pair taking e's label.  Outputs
    past ``reach`` are dropped, as in ``_orbit_step``; ``memo`` holds the
    key of each raw output and join, and is shared by a sweep's steps.

    A coefficient is one int, the polynomial in (t, q) at t = 2^W and
    q = 2^(W(n+1)), W = ``digit_bits`` and W(n+1) = ``x.width``: t is a
    shift by W and q^k one by W(n+1)k (see ``_digit_bits``)."""
    block, add, lookup, out = x.width, _accumulate, memo.get, {}
    for legs, c in x.terms.items():
        for first, k, path in _left_ends(legs[0] if doubled else legs[0][::-1]):
            if doubled:
                if len(first) > reach:
                    continue
                head, last = (first,), legs[1]
            else:
                head, last = (), first[::-1]
            if len(last) < reach:
                raw = (head, (path,) + last, path, path)
                add(out, lookup(raw) or _loop_key(memo, raw), c << block * k)
            if len(last) > reach + 1:
                continue
            for j, end in enumerate(last):
                raw = (head, last[:j] + last[j + 1 :], path, end)
                shift = block * (k + j) + (digit_bits if end == path else 0)
                add(out, lookup(raw) or _loop_key(memo, raw), c << shift)
    return _OrbitVector(x.d, x.mode, x.vacuum, out, block)


def _packed_width(d: int, n: int, doubled: bool, prune: bool = True) -> int:
    """Bits C per q-degree of a formal orbit sweep: the bit length of
    prod_k P_k d, P_k the most factor pairs a step-k input state has (see
    ``_orbit_step``)."""
    return prod(d * _state_products(d, h, h if doubled else None)
                for h in _horizons(n, doubled, prune)).bit_length()


def _run_sweep(step: Callable, n: int, doubled: bool, d: int, mode: Mode, one, width: int,
               prune: bool = True) -> list:
    """Vacuum amplitudes over n T steps, or 2n X steps if ``doubled``, of
    ``step`` from the vacuum with coefficient ``one``; the steps share one
    memo of keys.

    A step moves every leg by at most ``shrink`` ends (T two, X one), so
    after step k of N a state with a leg longer than ``shrink * (N - k)``
    cannot reach the vacuum again, and with ``prune`` step k drops it as it
    makes it (its ``reach``).  This is exact, so one pass yields every
    order."""
    vacuum = ((), ()) if doubled else ((),)
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    memo: dict = {}
    reaches = (shrink * (steps - k) if prune else inf for k in range(1, steps + 1))
    return sweep(_OrbitVector(d, mode, vacuum, {vacuum: one}, width),
                 (partial(step, reach=r, memo=memo) for r in reaches))


def _orbit_sweep(d: int, n: int, mode: Mode, doubled: bool, prune: bool = True) -> list:
    """Vacuum amplitudes over n T steps, or 2n steps of sum_i X_i (x) X_i."""
    width = _packed_width(d, n, doubled, prune) if mode.is_formal else 0
    step = partial(_orbit_step, rule=_x_legs if doubled else _t_legs)
    return _run_sweep(step, n, doubled, d, mode, 1 if mode.is_exact else mode.one(), width, prune)


def _digit_bits(n: int, doubled: bool) -> int:
    """Bits W of one t-digit of the loop sweep for Q_n (P_n if ``doubled``):
    n bitlen(2n), doubled for P_n.

    A history is a run of choices, one per factor; one that ends at the
    vacuum is one term t^loops q^crossings of the vacuum amplitude Q_n(t, q),
    so there are Q_n(1, 1) = (2n-1)!! of them ((2n-1)!!^2 for P_n).  The
    digit of t^a q^b in a kept state counts the histories that reach the
    state with those exponents, and each extends to a history that ends at
    the vacuum: a T word of length L <= 2r, r steps left, can lose two ends
    a step and then close a one-step loop a step, and each X leg, of length
    at most r and of r's parity, moves by one end a step, up or down, on
    its own.  Different histories have different extensions, so every
    digit is at most (2n-1)!! < (2n)^n <= 2^W (squared for P_n), and digits
    never carry.  A loop takes at least one T step or two X steps, so the
    t-degree is at most n and a q-degree block of W(n+1) bits holds every
    t-digit."""
    return (2 if doubled else 1) * n * (2 * n).bit_length()


def _loop_sweep(n: int, doubled: bool, digit_bits: int) -> list:
    """Vacuum amplitudes over n T steps, or 2n X steps, of the loop basis,
    each a QPoly whose q-coefficients pack their t-digits ``digit_bits``
    wide."""
    step = partial(_loop_step, doubled=doubled, digit_bits=digit_bits)
    return _run_sweep(step, n, doubled, 1, FORMAL, 1, digit_bits * (n + 1))


def loop_sweep(n: int, doubled: bool, cap: int | None = None) -> list:
    """Q_k(t, q) for k = 0..n (P_k(t, q) at the even steps if ``doubled``)
    from one pass of the loop basis, each a QPoly in q whose coefficients
    are polynomials in t at t = 2^W, W = ``_digit_bits(n, doubled)``."""
    check_size(n, cap, loop_sweep_sizes(n, doubled), SWEEP_BUDGET)
    return _loop_sweep(n, doubled, _digit_bits(n, doubled))


def semi_meander_moment_sweep(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None) -> list:
    """Vacuum moments m_0..m_n of the semi-meander operator, from one pass."""
    check_size(n, cap, sweep_sizes(d, n, mode, doubled=False), SWEEP_BUDGET)
    return _orbit_sweep(d, n, mode, doubled=False)


def semi_meander_moment(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None):
    """n-th vacuum moment of the semi-meander operator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return semi_meander_moment_sweep(d, n, mode, cap)[-1]


def semi_meander_moment_direct(d: int, n: int, mode: Mode = FORMAL):
    """Unpruned pass over basis words, the reference for the orbit sweep; level
    2n is exact, as a step moves word length by at most two."""
    if n < 1:
        raise ValueError("n must be >= 1")
    start = FockVector.vacuum(d, 2 * n, mode)
    return sweep(start, [apply_semi_meander_operator] * n)[-1]


def _gaussian_moment_pairings(index: IndexTuple, mode: Mode):
    """Combinatorial value: sum of q^cr over matchings refining the level
    sets of the index tuple."""
    two_n = len(index)
    if two_n % 2:
        return mode.zero()
    total = mode.zero()
    values = index.values
    for pi in enumerate_pair_partitions(two_n // 2):
        if all(values[a - 1] == values[b - 1] for a, b in pi.pairs):
            total = total + mode.q_power(crossings(pi))
    return total


def gaussian_joint_moment(index: IndexTuple, mode: Mode = FORMAL):
    """Vacuum moment of the product of position operators picked by the index
    tuple (leftmost factor carries the last index).  Odd lengths give 0."""
    start = FockVector.vacuum(index.d, max(len(index), 1), mode)
    steps = [partial(_position, LEFT, basis_vector(index.d, i)) for i in index.values]
    return sweep(start, steps)[-1]


def meander_moment_sweep(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None) -> list:
    """Moments m_0..m_n of the squared two-faced sum against the doubled
    vacuum, from one pass of 2n steps of sum_i X_i (x) X_i: m_k is the
    amplitude after step 2k (odd steps give 0)."""
    check_size(n, cap, sweep_sizes(d, n, mode, doubled=True), SWEEP_BUDGET)
    return _orbit_sweep(d, n, mode, doubled=True)[::2]


def meander_moment(d: int, n: int, mode: Mode = FORMAL, cap: int | None = None):
    """n-th moment of the squared two-faced sum against the doubled vacuum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return meander_moment_sweep(d, n, mode, cap)[-1]


def meander_moment_direct(d: int, n: int, mode: Mode = FORMAL):
    """Unpruned pass over the doubled space, the reference that pruning is
    exact.  Exponential in n; intended for n <= 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _orbit_sweep(d, n, mode, doubled=True, prune=False)[-1]


def commutator_defect(v: Sequence, w: Sequence, x: FockVector) -> FockVector:
    """Commutator of the left position operator at v with the right position
    operator at w, minus its known scalar multiple of the q-scaling operator.
    Identically zero; exercised as an exactness check."""
    v, w = tuple(v), tuple(w)
    room = x.with_max_len(x.max_len + 2)
    a, b = partial(_position, LEFT, v), partial(_position, RIGHT, w)
    c = vector_inner(w, v) - vector_inner(v, w)
    return a(b(room)) - b(a(room)) - apply_q_scaling(room).scaled(c)
