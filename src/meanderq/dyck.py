"""Dyck tuples over {1,*}, choice numbers and the decorated-rectangle map.

A pair-partition of {1..2n} is drawn on a rectangle: left-column labels run
top-down, right-column labels run bottom-up, and a side pattern chi assigns
each height 1..2n (measured downward from the top edge) to a column.  Reading
the pairs in height coordinates and decorating the smaller height of each
pair with "1" and the larger with "*" yields a Dyck tuple; the fibres of that
map are parametrized by choice tuples.

The choice convention is frozen: when the star at height h is closed, the
available "1"-decorated points of smaller height are ranked by walking the
rectangle boundary from the star towards the top edge -- same-column
candidates by decreasing height first, then other-column candidates by
increasing height.  The crossing-number formula sum(gamma_h - 1) depends on
this ordering, so it is part of the contract.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import mul
from typing import Iterator, Sequence

from .errors import ENUMERATION_BUDGET, check_size
from .partitions import (
    LEFT,
    RIGHT,
    PairPartition,
    Permutation,
    SidePattern,
    act,
    catalan,
    check_side_pattern,
    enumerate_noncrossing,
    labels_to_heights,
    side_pattern_permutation,
)

ONE = "1"
STAR = "*"


def alternating_pattern(two_n: int) -> SidePattern:
    """The pattern (l, r, l, r, ...) of the given even length."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"even positive length required, got {two_n}")
    return (LEFT, RIGHT) * (two_n // 2)


def is_dyck(symbols: Sequence[str]) -> bool:
    """Prefix dominance (#ones >= #stars at every prefix) plus balance."""
    height = 0
    for s in symbols:
        if s == ONE:
            height += 1
        elif s == STAR:
            height -= 1
        else:
            raise ValueError(f"symbols must be '{ONE}' or '{STAR}', got {s!r}")
        if height < 0:
            return False
    return height == 0


class DyckTuple:
    """A word over {1,*} with the Dyck property.

    >>> DyckTuple.from_string("111**11***").symbols[3]
    '*'
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Sequence[str]):
        symbols = tuple(symbols)
        if not symbols or len(symbols) % 2:
            raise ValueError("a Dyck tuple has even positive length")
        if not is_dyck(symbols):
            raise ValueError(f"not a Dyck word: {''.join(symbols)}")
        self.symbols = symbols

    @classmethod
    def from_string(cls, text: str) -> "DyckTuple":
        return cls(tuple(text))

    @property
    def n(self) -> int:
        return len(self.symbols) // 2

    @property
    def size(self) -> int:
        return len(self.symbols)

    def star_heights(self) -> tuple[int, ...]:
        return tuple(h for h, s in enumerate(self.symbols, start=1) if s == STAR)

    def __eq__(self, other):
        return isinstance(other, DyckTuple) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __str__(self):
        return "".join(self.symbols)

    def __repr__(self):
        return f"DyckTuple('{self}')"


def enumerate_dyck(two_n: int, cap: int | None = None) -> Iterator[DyckTuple]:
    """All Catalan(n) Dyck tuples of length 2n, lexicographic with '1' < '*'."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"even positive length required, got {two_n}")
    check_size(two_n // 2, cap, map(catalan, range(1, two_n // 2 + 1)), ENUMERATION_BUDGET)

    def rec(prefix: list[str], ones: int, stars: int) -> Iterator[tuple[str, ...]]:
        if ones + stars == two_n:
            yield tuple(prefix)
            return
        if ones < two_n // 2:
            prefix.append(ONE)
            yield from rec(prefix, ones + 1, stars)
            prefix.pop()
        if stars < ones:
            prefix.append(STAR)
            yield from rec(prefix, ones, stars + 1)
            prefix.pop()

    return map(DyckTuple, rec([], 0, 0))


def to_lattice_path(eps: DyckTuple | Sequence[str]) -> tuple[int, ...]:
    """Running heights (#ones - #stars) after each symbol."""
    symbols = eps.symbols if isinstance(eps, DyckTuple) else tuple(eps)
    heights = []
    h = 0
    for s in symbols:
        h += 1 if s == ONE else -1
        heights.append(h)
    return tuple(heights)


def choice_number(eps: DyckTuple, h: int) -> int:
    """#ones - #stars strictly before the star position h; always >= 1."""
    if eps.symbols[h - 1] != STAR:
        raise ValueError(f"position {h} of {eps} is not star-decorated")
    ones = sum(1 for s in eps.symbols[: h - 1] if s == ONE)
    return 2 * ones - (h - 1)


class ChoiceTuple:
    """Per-position choice parameters for a Dyck tuple: gamma_h == 1 on ones,
    1 <= gamma_h <= choice_number(eps, h) on stars."""

    __slots__ = ("gammas", "eps")

    def __init__(self, gammas: Sequence[int], eps: DyckTuple):
        gammas = tuple(gammas)
        if len(gammas) != eps.size:
            raise ValueError("choice tuple and Dyck tuple lengths differ")
        for h, (g, s) in enumerate(zip(gammas, eps.symbols), start=1):
            if s == ONE:
                if g != 1:
                    raise ValueError(f"gamma_{h} must be 1 on a one-position")
            else:
                bound = choice_number(eps, h)
                if not 1 <= g <= bound:
                    raise ValueError(f"gamma_{h}={g} outside 1..{bound}")
        self.gammas = gammas
        self.eps = eps

    def to_list(self) -> list[int]:
        return list(self.gammas)

    def __eq__(self, other):
        return (
            isinstance(other, ChoiceTuple)
            and self.gammas == other.gammas
            and self.eps == other.eps
        )

    def __hash__(self):
        return hash((self.gammas, self.eps))

    def __repr__(self):
        return f"ChoiceTuple({self.gammas!r}, {self.eps!r})"


def _resolve_chi(chi: Sequence[str] | None, two_n: int) -> SidePattern:
    if chi is None:
        return alternating_pattern(two_n)
    chi = check_side_pattern(chi)
    if len(chi) != two_n:
        raise ValueError(f"side pattern length {len(chi)} != ground size {two_n}")
    return chi


def dyck_tuple_of(pi: PairPartition, chi: Sequence[str] | None = None) -> DyckTuple:
    """Decoration word of a pair-partition: in height coordinates every pair
    opens with "1" at its smaller height and closes with "*" at its larger."""
    chi = _resolve_chi(chi, pi.size)
    heights = act(side_pattern_permutation(chi), pi)
    symbols = [STAR] * pi.size
    for a, b in heights.pairs:
        symbols[a - 1] = ONE
        symbols[b - 1] = STAR
    return DyckTuple(symbols)


def _candidate_order(
    star_label: int,
    star_height: int,
    one_labels: list[int],
    s: Permutation,
    p: int,
) -> list[int]:
    """Unused one-decorated labels of smaller height, ranked by the frozen
    boundary walk from the star towards the top edge."""
    star_left = star_label <= p
    same, other = [], []
    for k in one_labels:
        if s(k) >= star_height:
            continue
        (same if (k <= p) == star_left else other).append(k)
    same.sort(key=s, reverse=True)
    other.sort(key=s)
    return same + other


def choices_to_partition(
    ct: ChoiceTuple, chi: Sequence[str] | None = None
) -> PairPartition:
    """Rebuild the pair-partition encoded by a choice tuple: visit the star
    heights in increasing order and close each with the gamma_h-th candidate."""
    eps = ct.eps
    chi = _resolve_chi(chi, eps.size)
    s = side_pattern_permutation(chi)
    sinv = s.inverse()
    p = sum(1 for c in chi if c == LEFT)
    free_ones = [k for k in range(1, eps.size + 1) if eps.symbols[s(k) - 1] == ONE]
    pairs = []
    for h in eps.star_heights():
        star_label = sinv(h)
        order = _candidate_order(star_label, h, free_ones, s, p)
        gamma = ct.gammas[h - 1]
        if gamma > len(order):
            raise ValueError(f"gamma_{h}={gamma} exceeds the {len(order)} candidates")
        partner = order[gamma - 1]
        free_ones.remove(partner)
        pairs.append((star_label, partner))
    return PairPartition(pairs)


def partition_to_choices(
    pi: PairPartition, chi: Sequence[str] | None = None
) -> ChoiceTuple:
    """Inverse of ``choices_to_partition``; round-trips exactly."""
    chi = _resolve_chi(chi, pi.size)
    eps = dyck_tuple_of(pi, chi)
    s = side_pattern_permutation(chi)
    sinv = s.inverse()
    p = sum(1 for c in chi if c == LEFT)
    free_ones = [k for k in range(1, pi.size + 1) if eps.symbols[s(k) - 1] == ONE]
    gammas = [1] * pi.size
    for h in eps.star_heights():
        star_label = sinv(h)
        order = _candidate_order(star_label, h, free_ones, s, p)
        partner = pi.partner(star_label)
        gammas[h - 1] = order.index(partner) + 1
        free_ones.remove(partner)
    return ChoiceTuple(gammas, eps)


def preimage_size(eps: DyckTuple) -> int:
    """Product of the choice numbers over the star positions."""
    out = 1
    for h in eps.star_heights():
        out *= choice_number(eps, h)
    return out


def enumerate_preimage(
    eps: DyckTuple, chi: Sequence[str] | None = None, cap: int | None = None
) -> Iterator[PairPartition]:
    """All pair-partitions whose decoration word is ``eps``, one per choice
    tuple, iterating the star parameters in height order."""
    chi = _resolve_chi(chi, eps.size)
    stars = eps.star_heights()
    choices = [choice_number(eps, h) for h in stars]
    check_size(eps.size // 2, cap, accumulate(choices, mul), ENUMERATION_BUDGET)
    for combo in product(*(range(1, c + 1) for c in choices)):
        gammas = [1] * eps.size
        for h, g in zip(stars, combo):
            gammas[h - 1] = g
        yield choices_to_partition(ChoiceTuple(gammas, eps), chi)


def crossings_from_choices(ct: ChoiceTuple) -> int:
    """sum(gamma_h - 1) over star positions == crossing number of the
    partition the choices encode."""
    return sum(g - 1 for g, s in zip(ct.gammas, ct.eps.symbols) if s == STAR)


def enumerate_bnc2_alternating(
    two_n: int, cap: int | None = None
) -> Iterator[PairPartition]:
    """Images of the non-crossing pair-partitions under the alternating
    labels-to-heights permutation (the bi-non-crossing matchings)."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"even positive length required, got {two_n}")
    pis = enumerate_noncrossing(two_n // 2, cap=cap)
    s = labels_to_heights(two_n // 2).images
    return (PairPartition((s[a - 1], s[b - 1]) for a, b in pi.pairs) for pi in pis)
