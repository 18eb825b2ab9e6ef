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
word (word pair for X) per orbit whatever d, through one step for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import permutations
from math import ceil, inf, log2, prod
from operator import lshift, mul
from typing import Callable, Iterator, Sequence

from .dyck import ONE, STAR
from .errors import SWEEP_BUDGET, GroundSetError, TruncationOverflowError, check_size
from .partitions import LEFT, RIGHT, IndexTuple, crossings, enumerate_pair_partitions
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

    def pruned(self, reach: int) -> "FockVector":
        """The words of length at most ``reach``."""
        return FockVector(
            self.d, self.max_len, self.mode,
            {w: c for w, c in self.terms.items() if len(w) <= reach},
        )

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


def sweep(start, steps: Sequence[Callable], shrink: int, prune: bool = True) -> list:
    """Vacuum amplitudes of ``start`` and of its image after each step.

    Each step moves every word length (every leg of an orbit state) by at
    most ``shrink``, so after step k of N a basis element whose word, or
    longest leg, exceeds ``shrink * (N - k)`` cannot reach the vacuum again,
    and ``prune`` drops it.  This is exact, so one pass yields every order."""
    x, amplitudes = start, [start.vacuum_amplitude()]
    for k, step in enumerate(steps, start=1):
        x = step(x)
        if prune:
            x = x.pruned(shrink * (len(steps) - k))
        amplitudes.append(x.vacuum_amplitude())
    return amplitudes


def _state_products(d: int, a: int, b: int | None = None) -> int:
    """Most scalar products one orbit step makes from a T word of length a
    (c^2 + c + 2 per letter occurring c times, the fresh letter included),
    or from X legs of lengths a, b."""
    if b is None:
        return a * a + a + 2 * min(d, a // 2 + 1)
    return (1 + a) * (1 + b) + min(d, (a + b) // 2 + 1) - 1


def _horizons(n: int, doubled: bool, prune: bool = True) -> Iterator[int]:
    """The longest leg a state can have entering each step of the sweep for m_n."""
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    return (shrink * (min(k - 1, steps - k + 1) if prune else k - 1)
            for k in range(1, steps + 1))


# The packed width at which a product costs one float product more, fitted
# to T and X sweeps at d = 1..4 (2-core VM, Python 3.11): a formal product
# shifts and adds ints of up to C (degree + 1) bits, an exact one multiplies
# a numerator of up to S log2(b) bits by a table entry of up to M log2(b)
# bits, S the sum and M the largest of the steps' tops (see _orbit_step).
_FORMAL_BITS = 50_000
_EXACT_BITS_SQUARED = 2_000_000


def _product_weight(d: int, n: int, mode: Mode, doubled: bool) -> float:
    """Cost of one product of the sweep for m_n, in float products."""
    if mode.is_formal:
        degree = n * (n - 1) // (1 if doubled else 2)  # most crossings of n pairs
        return 1 + _packed_width(d, n, doubled) * (degree + 1) / _FORMAL_BITS
    if mode.is_exact:
        tops = [2 * h + 1 for h in _horizons(n, doubled)]
        bits = log2(mode.q.denominator)
        return 1 + sum(tops) * max(tops, default=0) * bits**2 / _EXACT_BITS_SQUARED
    return 1


def sweep_sizes(d: int, n: int, mode: Mode, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the pruned orbit sweep for m_n, of
    the scalar products the steps can make, and last their total weighted by
    the width of the packed ints (``_product_weight``), which is at least 1
    and read only once the count fits.  Step k's input holds states
    within the pruning horizon, each letter occurring an even number of
    times: with S(L, b) the partitions of L points into b even blocks, legs
    of total length L lie in sum_{b<=d} S(L, b) orbits, and make at most
    ``_state_products`` products each.  States of the full length m = k-1
    per leg (T palindromes i_m..i_1 i_1..i_m, X pairs of equal words) lie in
    at most prod_{j<=m} min(j, d) orbits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row, orbits = [1], []  # S(2j, b) for the next j; orbits of total length 2j

    def products(k: int, h: int) -> int:
        nonlocal row
        m = k - 1
        while len(orbits) <= h:
            orbits.append(sum(row))
            prev = row + [0]  # S(L, b) = b^2 S(L-2, b) + (2b-1) S(L-2, b-1)
            row = [0] + [b * b * prev[b] + (2 * b - 1) * prev[b - 1]
                         for b in range(1, min(d, len(orbits)) + 1)]
        full = prod(min(j, d) for j in range(1, m + 1))
        if doubled:
            legs = range(m % 2, h + 1, 2)
            return sum((full if a == b == m else orbits[(a + b) // 2]) * _state_products(d, a, b)
                       for a in legs for b in legs)
        return sum((full if L == 2 * m else orbits[L // 2]) * _state_products(d, L)
                   for L in range(0, h + 1, 2))

    def totals() -> Iterator[int]:
        total = 0
        for k, h in enumerate(_horizons(n, doubled), start=1):
            total += products(k, h)
            yield total
        yield ceil(total * _product_weight(d, n, mode, doubled))

    return totals()


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
    """Relabel values 1, 2, ... in order of first appearance, jointly over the legs."""
    relabel: dict[int, int] = {}
    return tuple(tuple(relabel.setdefault(v, len(relabel) + 1) for v in leg) for leg in legs)


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


def _orbit_step(x: _OrbitVector, rule: Callable, reach: float) -> _OrbitVector:
    """One application of sum_i O_i: the factor ``rule(legs, i)`` lists as
    (other legs, power of q, last leg), then left X_i on the last leg.  The
    letters 1..u of a representative act as themselves and one fresh letter
    u+1 stands for the d-u unused ones.  An output without the letter i lies
    in a larger orbit: it weighs d-u+1 if i was an existing letter that left
    and d-u if the fresh letter was created and annihilated (T only: r_i,
    then l_i*).  An output with a leg longer than ``reach`` cannot reach
    the vacuum again (see ``sweep``) and is dropped before it is
    canonicalised; each other distinct raw output is canonicalised once per
    step.

    A product is c q^e times an int weight, e <= M = 2 (longest leg) + 1,
    and in the exact modes c is a packed int:

    * formal q: c is the polynomial's value at q = 2^C, C = ``x.width``,
      and q^e is a shift by C e.  This is exact when 2^C exceeds every
      q-coefficient of every state, which ``_packed_width`` ensures: the
      sweep starts at 1 and multiplies only by q^e and by d - used >= 1, so
      every coefficient is non-negative and at most the state's value at
      q = 1.  Step k makes at most P_k products from an input state (its
      legs lie within the step's horizon, see ``sweep_sizes``), each
      weighing at most d, and pruning only drops outputs; so the values at
      q = 1 summed over the states grow at most by a factor P_k d per step,
      and every coefficient is at most prod_k P_k d < 2^C.  Digits below
      2^C never carry into each other, so the base-2^C digits of a vacuum
      amplitude are its q-coefficients.
    * q = a/b: c is the numerator over b^S, S = ``x.scale``, and q^e is a
      multiply by a^e b^(M-e) onto the denominator b^(S+M).  No gcd is taken
      until an amplitude is read.
    * float q: c is the float and q^e its power."""
    d, mode = x.d, x.mode
    longest = max((len(leg) for legs in x.terms for leg in legs), default=0)
    top, scale = 2 * longest + 1, x.scale
    if mode.is_formal:
        times, q_pows = lshift, [x.width * e for e in range(top + 1)]
    elif mode.is_exact:
        a, b = mode.q.numerator, mode.q.denominator
        times, q_pows, scale = mul, [a**e * b ** (top - e) for e in range(top + 1)], scale + top
    else:
        times, q_pows = mul, [mode.q_power(e) for e in range(top + 1)]
    out, memo = {}, {}  # memo: raw output -> (its orbit key, letters it uses)
    lookup, add = memo.get, _accumulate
    for legs, c in x.terms.items():
        u = max(max(leg, default=0) for leg in legs)
        for i in range(1, min(u + 1, d) + 1):
            letters = max(u, i)
            for head, e, last in rule(legs, i):
                if head and len(head[0]) > reach:
                    continue
                for w, f in _left_x(last, i):
                    if len(w) > reach:
                        continue
                    raw = head + (w,)
                    hit = lookup(raw)
                    if hit is None:
                        key = _canonical_pattern(*raw)
                        hit = memo[raw] = (key, max(max(leg, default=0) for leg in key))
                    key, used = hit
                    value = times(c, q_pows[e + f])
                    if used < letters:
                        value = value * (d - used)
                    add(out, key, value)
    return _OrbitVector(d, mode, x.vacuum, out, x.width, scale)


def _packed_width(d: int, n: int, doubled: bool, prune: bool = True) -> int:
    """Bits C per q-degree of a formal orbit sweep: the bit length of
    prod_k P_k d, P_k the most products a step-k input state can make (see
    ``_orbit_step``)."""
    return prod(d * _state_products(d, h, h if doubled else None)
                for h in _horizons(n, doubled, prune)).bit_length()


def _orbit_sweep(d: int, n: int, mode: Mode, doubled: bool, prune: bool = True) -> list:
    """Vacuum amplitudes over n T steps, or 2n steps of sum_i X_i (x) X_i;
    each step drops its own outputs past the pruning horizon of ``sweep``."""
    vacuum = ((), ()) if doubled else ((),)
    steps, shrink, rule = (2 * n, 1, _x_legs) if doubled else (n, 2, _t_legs)
    width = _packed_width(d, n, doubled, prune) if mode.is_formal else 0
    start = _OrbitVector(d, mode, vacuum, {vacuum: 1 if mode.is_exact else mode.one()}, width)
    reaches = [shrink * (steps - k) if prune else inf for k in range(1, steps + 1)]
    return sweep(start, [partial(_orbit_step, rule=rule, reach=r) for r in reaches], shrink, False)


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
    return sweep(start, [apply_semi_meander_operator] * n, 2, prune=False)[-1]


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
    return sweep(start, steps, 1)[-1]


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
