"""Set partitions of {1..m}, and pair-partitions: those whose blocks are pairs.

Ground sets are 1-indexed everywhere; any 0-indexing below is an internal
detail that never leaks through the API.  All constructors canonicalize
(every block sorted, blocks sorted by minimum), so equality is structural.

Enumeration order is part of the contract: pair-partitions are generated by
recursively pairing the smallest unpaired element with each larger unpaired
element in increasing order.
"""

from __future__ import annotations

from math import comb, prod
from typing import Iterable, Iterator, Sequence

from .errors import ENUMERATION_BUDGET, GroundSetError, check_size

LEFT = "l"
RIGHT = "r"
SidePattern = tuple[str, ...]


def odd_double_factorial(n: int) -> int:
    """(2n-1)!!, the number of pair-partitions of {1..2n}."""
    return prod(range(1, 2 * n, 2))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class SetPartition:
    """A partition of {1..m} into disjoint blocks, stored canonically."""

    __slots__ = ("m", "blocks")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        # disjoint blocks have distinct minima, so tuple order is minimum order
        self._cover(sorted(tuple(sorted(b)) for b in blocks))

    def _cover(self, canon: list[tuple[int, ...]]) -> None:
        """Check that the canonical blocks cover 1..m exactly, then store them."""
        flat = [x for b in canon for x in b]
        m = len(flat)
        if m == 0 or not canon[0]:  # an empty block sorts first
            raise ValueError(f"blocks must be non-empty, on a non-empty ground set: {canon}")
        if sorted(flat) != list(range(1, m + 1)):
            raise ValueError(f"blocks must exactly cover 1..{m}: {canon}")
        self.m, self.blocks = m, tuple(canon)

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ",".join("{%s}" % ",".join(map(str, b)) for b in self.blocks)
        return "%s{%s}" % (type(self).__name__, inner)


class PairPartition(SetPartition):
    """A perfect matching of {1..2n}: the set partition whose blocks are pairs.

    >>> PairPartition([(3, 4), (2, 1)]).pairs
    ((1, 2), (3, 4))
    """

    __slots__ = ()

    def __init__(self, pairs: Iterable[Sequence[int]]):
        try:
            canon = sorted((a, b) if a < b else (b, a) for a, b in pairs)
        except ValueError:  # a block that does not unpack into two points
            raise ValueError("every block of a pair-partition must be a pair") from None
        self._cover(canon)

    @classmethod
    def _canonical(cls, pairs: tuple[tuple[int, int], ...]) -> "PairPartition":
        """Trusted constructor for pairs that are already canonical (each
        min-first, sorted by opener, covering 1..2n), as the enumerators
        yield them: no sort and no check."""
        pi = object.__new__(cls)
        pi.m, pi.blocks = 2 * len(pairs), pairs
        return pi

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.blocks

    @property
    def n(self) -> int:
        return self.m // 2

    @property
    def size(self) -> int:
        return self.m

    def partner_map(self) -> tuple[int, ...]:
        """0-based lookup array: partner_map()[a-1] == partner of a."""
        out = [0] * self.m
        for a, b in self.blocks:
            out[a - 1] = b
            out[b - 1] = a
        return tuple(out)


class Permutation:
    """A bijection of {1..m}, stored as the image tuple (images[k-1] == s(k))."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        self.images = images

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images!r}"


class IndexTuple:
    """A tuple of letters from {1..d}, i.e. a map {1..len} -> {1..d}."""

    __slots__ = ("values", "d")

    def __init__(self, values: Sequence[int], d: int):
        values = tuple(values)
        if d < 1:
            raise ValueError("alphabet size d must be positive")
        if not all(1 <= v <= d for v in values):
            raise ValueError(f"letters must lie in 1..{d}: {values}")
        self.values = values
        self.d = d

    def __len__(self):
        return len(self.values)

    def __call__(self, k: int) -> int:
        return self.values[k - 1]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, IndexTuple)
            and self.values == other.values
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.values, self.d))

    def __repr__(self):
        return f"IndexTuple({self.values!r}, d={self.d})"


def _iter_matchings_raw(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All matchings of the given points: smallest point paired with each
    larger one in increasing order, recursing on the rest.  One frame walks
    the tree: branches are pushed by decreasing partner, so they pop increasing."""
    stack = [((), points)]
    while stack:
        head, rest = stack.pop()
        if not rest:
            yield head
            continue
        a = rest[0]
        for j in range(len(rest) - 1, 0, -1):
            stack.append((head + ((a, rest[j]),), rest[1:j] + rest[j + 1 :]))


def enumerate_pair_partitions(n: int, cap: int | None = None) -> Iterator[PairPartition]:
    """All (2n-1)!! pair-partitions of {1..2n}, in the frozen recursive order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, map(odd_double_factorial, range(1, n + 1)), ENUMERATION_BUDGET)
    return map(PairPartition._canonical, _iter_matchings_raw(tuple(range(1, 2 * n + 1))))


def _iter_noncrossing_raw(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    a = points[0]
    rest = points[1:]
    # a must split the remaining points into two even runs
    for j in range(0, len(rest), 2):
        b = rest[j]
        inside, outside = rest[:j], rest[j + 1 :]
        for left in _iter_noncrossing_raw(inside):
            for right in _iter_noncrossing_raw(outside):
                yield ((a, b),) + left + right


def enumerate_noncrossing(n: int, cap: int | None = None) -> Iterator[PairPartition]:
    """The Catalan(n) non-crossing pair-partitions of {1..2n}, generated
    directly (not by filtering), in a deterministic recursive order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, map(catalan, range(1, n + 1)), ENUMERATION_BUDGET)
    return map(PairPartition._canonical, _iter_noncrossing_raw(tuple(range(1, 2 * n + 1))))


def crossings(pi: PairPartition) -> int:
    """Number of interleaved pair-pairs: {a,b} and {c,d} cross iff a<c<b<d."""
    ps = pi.pairs
    count = 0
    for i in range(len(ps)):
        a, b = ps[i]
        for j in range(i + 1, len(ps)):
            c, d = ps[j]
            if a < c < b < d:
                count += 1
    return count


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Least upper bound of two partitions in reverse-refinement order."""
    m = p.m
    if q.m != m:
        raise GroundSetError(f"ground sets differ: {m} vs {q.m}")
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for part in (p, q):
        for block in part.blocks:
            root = find(block[0])
            for x in block[1:]:
                parent[find(x)] = root
    groups: dict[int, list[int]] = {}
    for x in range(1, m + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition(groups.values())


def block_count(p: SetPartition) -> int:
    return len(p.blocks)


def rainbow(two_n: int) -> PairPartition:
    """The fully nested matching {1,2n},{2,2n-1},...,{n,n+1}."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"even ground-set size >= 2 required, got {two_n}")
    return PairPartition((k, two_n + 1 - k) for k in range(1, two_n // 2 + 1))


def interval_pairs(two_n: int) -> PairPartition:
    """The adjacent matching {1,2},{3,4},...,{2n-1,2n}."""
    if two_n < 2 or two_n % 2:
        raise ValueError(f"even ground-set size >= 2 required, got {two_n}")
    return PairPartition((k, k + 1) for k in range(1, two_n, 2))


def labels_to_heights(n: int) -> Permutation:
    """Boundary labels to vertical heights for the alternating side pattern:
    k -> 2k-1 on the left column, k -> 2(2n-k+1) on the right column.

    >>> labels_to_heights(5).images
    (1, 3, 5, 7, 9, 10, 8, 6, 4, 2)
    """
    return side_pattern_permutation((LEFT, RIGHT) * n)


def check_side_pattern(chi: Sequence[str]) -> SidePattern:
    chi = tuple(chi)
    if len(chi) % 2 or not chi:
        raise ValueError("side pattern length must be even and positive")
    if not all(c in (LEFT, RIGHT) for c in chi):
        raise ValueError(f"side pattern entries must be '{LEFT}' or '{RIGHT}'")
    return chi


def side_pattern_permutation(chi: Sequence[str]) -> Permutation:
    """Labels-to-heights permutation of an arbitrary left/right side pattern.

    Position k <= p maps to the k-th smallest left index of chi; position
    p+j maps to the (q-j+1)-th smallest right index (right labels run
    bottom-up).  The alternating pattern reproduces ``labels_to_heights``.
    """
    chi = check_side_pattern(chi)
    lefts = [h for h, c in enumerate(chi, start=1) if c == LEFT]
    rights = [h for h, c in enumerate(chi, start=1) if c == RIGHT]
    return Permutation(lefts + rights[::-1])


def act(s: Permutation, p: SetPartition) -> SetPartition:
    """Natural action: relabel every block element through ``s``; the image
    has the type of ``p``."""
    if s.m != p.m:
        raise GroundSetError(f"ground sets differ: {s.m} vs {p.m}")
    return type(p)([s(x) for x in b] for b in p.blocks)


def kernel(index: IndexTuple) -> SetPartition:
    """Level-set partition of an index tuple: a ~ b iff I(a) == I(b)."""
    groups: dict[int, list[int]] = {}
    for pos, v in enumerate(index.values, start=1):
        groups.setdefault(v, []).append(pos)
    return SetPartition(groups.values())
