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

from itertools import accumulate
from math import prod
from operator import mul
from typing import Iterator, Sequence

from .errors import ENUMERATION_BUDGET, check_size
from .partitions import (
    LEFT,
    RIGHT,
    PairPartition,
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

    >>> DyckTuple("111**11***").symbols[3]
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

    @property
    def n(self) -> int:
        return len(self.symbols) // 2

    @property
    def size(self) -> int:
        return len(self.symbols)

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
    symbols = eps.symbols if isinstance(eps, DyckTuple) else eps
    return tuple(accumulate(1 if s == ONE else -1 for s in symbols))


def choice_number(eps: DyckTuple, h: int) -> int:
    """#ones - #stars strictly before the star position h, the height
    before it; always >= 1."""
    if not 1 <= h <= eps.size:
        raise ValueError(f"position {h} outside 1..{eps.size} of {eps}")
    if eps.symbols[h - 1] != STAR:
        raise ValueError(f"position {h} of {eps} is not star-decorated")
    return to_lattice_path(eps)[h - 1] + 1


def choice_bounds(eps: DyckTuple) -> tuple[int, ...]:
    """The largest gamma_h at every position: 1 on a one,
    ``choice_number(eps, h)`` (the height before h) on a star.  Every
    ``ChoiceTuple`` checks against it, so it keeps its own pass of running
    heights: reading them off ``to_lattice_path`` made the
    ``crossing-formula`` suite about 15% slower (in process, 2-core VM,
    Python 3.11)."""
    bounds, height = [], 0
    for s in eps.symbols:
        if s == ONE:
            bounds.append(1)
            height += 1
        else:
            bounds.append(height)
            height -= 1
    return tuple(bounds)


class ChoiceTuple:
    """Per-position choice parameters for a Dyck tuple: gamma_h == 1 on ones,
    1 <= gamma_h <= choice_number(eps, h) on stars."""

    __slots__ = ("gammas", "eps")

    def __init__(self, gammas: Sequence[int], eps: DyckTuple):
        gammas = tuple(gammas)
        if len(gammas) != eps.size:
            raise ValueError("choice tuple and Dyck tuple lengths differ")
        checks = zip(gammas, eps.symbols, choice_bounds(eps))
        for h, (g, s, bound) in enumerate(checks, start=1):
            if s == ONE:
                if g != 1:
                    raise ValueError(f"gamma_{h} must be 1 on a one-position")
            elif not 1 <= g <= bound:
                raise ValueError(f"gamma_{h}={g} outside 1..{bound}")
        self.gammas = gammas
        self.eps = eps

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


def height_pairs(
    pi: PairPartition, chi: Sequence[str] | None = None
) -> tuple[tuple[int, int], ...]:
    """The pairs of ``pi`` in height coordinates (opener, closer), sorted
    by opener.

    >>> height_pairs(PairPartition([(1, 4), (2, 3)]))
    ((1, 2), (3, 4))
    """
    return act(side_pattern_permutation(_resolve_chi(chi, pi.size)), pi).pairs


def _decoration(pairs: Sequence[tuple[int, int]]) -> DyckTuple:
    """Every height pair opens with "1" and closes with "*"."""
    symbols = [STAR] * (2 * len(pairs))
    for a, _ in pairs:
        symbols[a - 1] = ONE
    return DyckTuple(symbols)


def dyck_tuple_of(pi: PairPartition, chi: Sequence[str] | None = None) -> DyckTuple:
    """Decoration word of a pair-partition: in height coordinates every pair
    opens with "1" at its smaller height and closes with "*" at its larger."""
    return _decoration(height_pairs(pi, chi))


def _ranked(free: Sequence[int], h: int, chi: SidePattern) -> list[int]:
    """The open one-decorated heights ``free`` (ascending, all below the
    star at height h) ranked by the frozen boundary walk from the star
    towards the top edge: its own column by decreasing height, then the
    other column by increasing height."""
    side = chi[h - 1]
    return ([j for j in reversed(free) if chi[j - 1] == side]
            + [j for j in free if chi[j - 1] != side])


def choices_to_partition(
    ct: ChoiceTuple, chi: Sequence[str] | None = None
) -> PairPartition:
    """Rebuild the pair-partition encoded by a choice tuple: visit the star
    heights in increasing order and close each with the gamma_h-th candidate."""
    eps = ct.eps
    chi = _resolve_chi(chi, eps.size)
    label = side_pattern_permutation(chi).inverse().images
    free: list[int] = []
    pairs = []
    for h, (s, gamma) in enumerate(zip(eps.symbols, ct.gammas), start=1):
        if s == ONE:
            free.append(h)
            continue
        order = _ranked(free, h, chi)
        if gamma > len(order):
            raise ValueError(f"gamma_{h}={gamma} exceeds the {len(order)} candidates")
        opener = order[gamma - 1]
        free.remove(opener)
        pairs.append((label[h - 1], label[opener - 1]))
    return PairPartition(pairs)


def partition_to_choices(
    pi: PairPartition, chi: Sequence[str] | None = None
) -> ChoiceTuple:
    """Inverse of ``choices_to_partition``; round-trips exactly."""
    chi = _resolve_chi(chi, pi.size)
    pairs = height_pairs(pi, chi)
    eps, opener_of = _decoration(pairs), {b: a for a, b in pairs}
    free: list[int] = []
    gammas = [1] * pi.size
    for h, s in enumerate(eps.symbols, start=1):
        if s == ONE:
            free.append(h)
            continue
        opener = opener_of[h]
        gammas[h - 1] = _ranked(free, h, chi).index(opener) + 1
        free.remove(opener)
    return ChoiceTuple(gammas, eps)


def preimage_size(eps: DyckTuple) -> int:
    """Product of the choice numbers over the star positions."""
    return prod(choice_bounds(eps))


def walk_preimage(
    eps: DyckTuple, chi: Sequence[str] | None = None, cap: int | None = None
) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """The fibre of ``eps`` walked depth first through the choice tree, star
    parameters in height order, so members that share a prefix of choices
    share its work.  Each member comes as its pairs in height coordinates
    (opener, closer), sorted by opener, and its crossing number: the sum of
    its choices' 0-based ranks gamma_h - 1, by the crossing formula."""
    chi = _resolve_chi(chi, eps.size)
    choices = [c for c, s in zip(choice_bounds(eps), eps.symbols) if s == STAR]
    check_size(eps.size // 2, cap, accumulate(choices, mul), ENUMERATION_BUDGET)
    symbols, size = eps.symbols, eps.size
    ones = [h for h, s in enumerate(symbols, start=1) if s == ONE]
    rank = {h: r for r, h in enumerate(ones)}
    closers = [0] * len(ones)

    def walk(h: int, free: tuple[int, ...], cr: int):
        while h <= size and symbols[h - 1] == ONE:
            free += (h,)
            h += 1
        if h > size:
            yield tuple(zip(ones, closers)), cr
            return
        for g, j in enumerate(_ranked(free, h, chi)):
            closers[rank[j]] = h
            yield from walk(h + 1, tuple(k for k in free if k != j), cr + g)

    return walk(1, (), 0)


def enumerate_preimage(
    eps: DyckTuple, chi: Sequence[str] | None = None, cap: int | None = None
) -> Iterator[PairPartition]:
    """All pair-partitions whose decoration word is ``eps``, one per choice
    tuple, iterating the star parameters in height order."""
    chi = _resolve_chi(chi, eps.size)
    label = side_pattern_permutation(chi).inverse().images
    for pairs, _ in walk_preimage(eps, chi, cap):
        yield PairPartition((label[k - 1], label[h - 1]) for k, h in pairs)


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
