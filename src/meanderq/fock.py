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
from itertools import accumulate, permutations
from math import perm, prod
from typing import Callable, Iterator, Sequence

from .errors import SWEEP_BUDGET, GroundSetError, TruncationOverflowError, check_size
from .partitions import IndexTuple, crossings, enumerate_pair_partitions
from .scalars import FORMAL, Mode, conjugate

Word = tuple[int, ...]
CoordVector = tuple

CREATE = "create"
ANNIHILATE = "annihilate"
LEFT = "l"
RIGHT = "r"


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
    """One creation or annihilation factor: a side, a flavor and a vector."""

    side: str
    flavor: str
    vector: CoordVector

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be '{LEFT}' or '{RIGHT}'")
        if self.flavor not in (CREATE, ANNIHILATE):
            raise ValueError(f"flavor must be '{CREATE}' or '{ANNIHILATE}'")
        object.__setattr__(self, "vector", tuple(self.vector))


def creator(side: str, vector: Sequence) -> OpSymbol:
    return OpSymbol(side, CREATE, tuple(vector))


def annihilator(side: str, vector: Sequence) -> OpSymbol:
    return OpSymbol(side, ANNIHILATE, tuple(vector))


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
        return FockVector(self.d, max(self.max_len, other.max_len), self.mode, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1)

    def scaled(self, c) -> "FockVector":
        return FockVector(
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
    v = op.vector
    if len(v) != x.d:
        raise GroundSetError(f"operator vector has dimension {len(v)}, state {x.d}")
    mode = x.mode
    out: dict[Word, object] = {}
    left = op.side == LEFT
    if op.flavor == CREATE:
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
            for k in range(1, n + 1):
                pos = k - 1 if left else n - k
                f = conjugate(v[word[pos] - 1])
                if not f:
                    continue
                nw = word[:pos] + word[pos + 1 :]
                _accumulate(out, nw, c * (f * mode.q_power(k - 1)))
    return FockVector(x.d, x.max_len, mode, out)


def apply_piece(side: str, flavor: str, k: int, v: Sequence, x: FockVector) -> FockVector:
    """One term of the annihilation sum (flavor '*'), or creation (flavor '1',
    which forces k == 1)."""
    if flavor == "1":
        if k != 1:
            raise ValueError("creation pieces exist only for k == 1")
        return apply(creator(side, v), x)
    if flavor != "*":
        raise ValueError("flavor must be '1' or '*'")
    if k < 1:
        raise ValueError("piece index k must be positive")
    v = tuple(v)
    if len(v) != x.d:
        raise GroundSetError(f"operator vector has dimension {len(v)}, state {x.d}")
    mode = x.mode
    weight = mode.q_power(k - 1)
    out: dict[Word, object] = {}
    for word, c in x.terms.items():
        n = len(word)
        if n < k:
            continue
        pos = k - 1 if side == LEFT else n - k
        f = conjugate(v[word[pos] - 1])
        if not f:
            continue
        nw = word[:pos] + word[pos + 1 :]
        _accumulate(out, nw, c * (f * weight))
    return FockVector(x.d, x.max_len, mode, out)


def apply_q_scaling(x: FockVector) -> FockVector:
    """Multiply every length-n word by q^n; the vacuum is fixed."""
    mode = x.mode
    return FockVector(
        x.d,
        x.max_len,
        mode,
        {w: c * mode.q_power(len(w)) for w, c in x.terms.items()},
    )


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


def sweep_sizes(d: int, n: int, mode: Mode, doubled: bool) -> Iterator[int]:
    """Running totals, over the steps of the pruned orbit sweep for m_n, of
    the scalar products the steps can make, times in formal mode the most
    q-degrees a coefficient can reach.  Step k's input holds states within
    the pruning horizon, each letter occurring an even number of times:
    with S(L, b) the partitions of L points into b even blocks, legs of
    total length L lie in sum_{b<=d} S(L, b) orbits.  A T word of length L
    makes at most L^2 + L + 2 min(d, L/2 + 1) products (c^2 + c + 2 per
    letter occurring c times, the fresh letter included), legs l1, l2 at
    most (1 + l1)(1 + l2) + min(d, (l1+l2)/2 + 1) - 1.  States of the full
    length m = k-1 per leg (T palindromes i_m..i_1 i_1..i_m, X pairs of
    equal words) lie in at most prod_{j<=m} min(j, d) orbits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    steps, shrink = (2 * n, 1) if doubled else (n, 2)
    factor = 1 + n * (n - 1) // (1 if doubled else 2) if mode.is_formal else 1
    row, orbits = [1], []  # S(2j, b) for the next j; orbits of total length 2j

    def products(k: int) -> int:
        nonlocal row
        m, h = k - 1, shrink * min(k - 1, steps - k + 1)
        while len(orbits) <= h:
            orbits.append(sum(row))
            prev = row + [0]  # S(L, b) = b^2 S(L-2, b) + (2b-1) S(L-2, b-1)
            row = [0] + [b * b * prev[b] + (2 * b - 1) * prev[b - 1]
                         for b in range(1, min(d, len(orbits)) + 1)]
        full = prod(min(j, d) for j in range(1, m + 1))
        if doubled:
            legs = range(m % 2, h + 1, 2)
            return sum((full if a == b == m else orbits[(a + b) // 2])
                       * ((1 + a) * (1 + b) + min(d, (a + b) // 2 + 1) - 1)
                       for a in legs for b in legs)
        return sum((full if L == 2 * m else orbits[L // 2]) * (L * L + L + 2 * min(d, L // 2 + 1))
                   for L in range(0, h + 1, 2))

    return accumulate(products(k) * factor for k in range(1, steps + 1))


class _OrbitVector:
    """Sweep state with one basis element per orbit of letter relabelling: a
    map from tuples of legs (one word for T, a word pair for X), renamed
    jointly by first appearance, to the coefficient of each of the orbit's
    d!/(d-u)! members, u the letters used."""

    __slots__ = ("d", "mode", "vacuum", "terms")

    def __init__(self, d: int, mode: Mode, vacuum: tuple[Word, ...], terms: dict):
        self.d, self.mode, self.vacuum = d, mode, vacuum
        self.terms = {k: c for k, c in terms.items() if c}

    def vacuum_amplitude(self):
        return self.terms.get(self.vacuum, self.mode.zero())

    def pruned(self, reach: int) -> "_OrbitVector":
        kept = {legs: c for legs, c in self.terms.items() if max(map(len, legs)) <= reach}
        return _OrbitVector(self.d, self.mode, self.vacuum, kept)


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


def _orbit_step(x: _OrbitVector, rule: Callable) -> _OrbitVector:
    """One application of sum_i O_i: the factor ``rule(legs, i)`` lists as
    (other legs, power of q, last leg), then left X_i on the last leg.  The
    letters 1..u of a representative act as themselves and one fresh letter
    u+1 stands for the d-u unused ones.  An output without the letter i lies
    in a larger orbit: it weighs d-u+1 if i was an existing letter that left
    and d-u if the fresh letter was created and annihilated (T only: r_i,
    then l_i*).  Each distinct raw output is canonicalised once per step."""
    d, mode = x.d, x.mode
    longest = max((len(leg) for legs in x.terms for leg in legs), default=0)
    q_pows = [mode.q_power(e) for e in range(2 * longest + 2)]
    out, memo = {}, {}  # memo: raw output -> (its orbit key, letters it uses)
    lookup, add = memo.get, _accumulate
    for legs, c in x.terms.items():
        u = max(max(leg, default=0) for leg in legs)
        for i in range(1, min(u + 1, d) + 1):
            letters = max(u, i)
            for head, e, last in rule(legs, i):
                for w, f in _left_x(last, i):
                    raw = head + (w,)
                    hit = lookup(raw)
                    if hit is None:
                        key = _canonical_pattern(*raw)
                        hit = memo[raw] = (key, max(max(leg, default=0) for leg in key))
                    key, used = hit
                    value = c * q_pows[e + f] if e + f else c
                    if used < letters:
                        value = value * (d - used)
                    add(out, key, value)
    return _OrbitVector(d, mode, x.vacuum, out)


def _orbit_sweep(d: int, n: int, mode: Mode, doubled: bool, prune: bool = True) -> list:
    """Vacuum amplitudes over n T steps, or 2n steps of sum_i X_i (x) X_i."""
    vacuum = ((), ()) if doubled else ((),)
    step = partial(_orbit_step, rule=_x_legs if doubled else _t_legs)
    start = _OrbitVector(d, mode, vacuum, {vacuum: mode.one()})
    return sweep(start, [step] * (len(vacuum) * n), 1 if doubled else 2, prune)


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
