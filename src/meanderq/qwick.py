"""Two-sided Wick sums: operator route versus pairing-sum route.

A product of left/right creation and annihilation factors, one per position
h = 1..2n with vectors u_h, fixes the vacuum up to a scalar.  That scalar is
a sum over the pair-partitions whose decoration word matches the flavor word:
each contributes q^(crossings) times the product of coordinate inner products
over its pairs read in height coordinates.  Both routes are implemented and
must agree exactly; non-Dyck flavor words give 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Sequence

from .dyck import (
    DyckTuple,
    ONE,
    STAR,
    alternating_pattern,
    enumerate_bnc2_alternating,
    height_pairs,
    is_dyck,
    walk_preimage,
)
from .errors import ENUMERATION_BUDGET, GroundSetError, check_size
from .fock import CoordVector, FockVector, apply, basis_vector, vector_inner
from .partitions import (
    IndexTuple,
    PairPartition,
    SidePattern,
    block_count,
    check_side_pattern,
    crossings,
    interval_pairs,
    join,
    rainbow,
)
from .scalars import FORMAL, Mode


@dataclass(frozen=True)
class WickProduct:
    """A 2n-factor product: side pattern, flavor word (not necessarily Dyck)
    and one coordinate vector per position."""

    chi: SidePattern
    eps: tuple[str, ...]
    vectors: tuple[CoordVector, ...]

    def __post_init__(self):
        chi = check_side_pattern(self.chi)
        eps = tuple(self.eps)
        vectors = tuple(tuple(v) for v in self.vectors)
        if not (len(chi) == len(eps) == len(vectors)):
            raise GroundSetError("side pattern, flavor word and vectors must align")
        if not all(s in (ONE, STAR) for s in eps):
            raise ValueError(f"flavor entries must be '{ONE}' or '{STAR}'")
        dims = {len(v) for v in vectors}
        if len(dims) != 1:
            raise GroundSetError(f"mixed vector dimensions: {sorted(dims)}")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return len(self.eps)

    @property
    def d(self) -> int:
        return len(self.vectors[0])


def _pair_inners(wp: WickProduct) -> Callable:
    """The inner product of the vectors at positions k, h (opener first),
    computed once per pair of positions."""
    vectors = wp.vectors
    return cache(lambda k, h: vector_inner(vectors[k - 1], vectors[h - 1]))


def wick_term(pi: PairPartition, wp: WickProduct, mode: Mode = FORMAL):
    """Contribution of one pair-partition: q^cr times the product of inner
    products over its pairs in height coordinates (opener first), which
    multiply as plain scalars before q^cr weighs them once."""
    if pi.size != wp.size:
        raise GroundSetError(f"ground sets differ: {pi.size} vs {wp.size}")
    return mode.q_power(crossings(pi)) * _inner_product(height_pairs(pi, wp.chi), _pair_inners(wp))


def _inner_product(pairs, inner: Callable):
    """The product of the inner products over the height pairs in their
    order, stopping at the first zero."""
    value = 1
    for k, h in pairs:
        value = value * inner(k, h)
        if not value:
            break
    return value


def wick_scalar_combinatorial(wp: WickProduct, mode: Mode = FORMAL):
    """Pairing-sum value of the vacuum amplitude; 0 for non-Dyck flavors.
    One walk of the fibre gives each member's height pairs and crossing
    number; the products of inner products, one per pair of positions,
    are summed per crossing degree and weighed by q^cr once at the end."""
    if not is_dyck(wp.eps):
        return mode.zero()
    eps, inner = DyckTuple(wp.eps), _pair_inners(wp)
    sums = [0] * (eps.n * (eps.n - 1) // 2 + 1)
    for pairs, cr in walk_preimage(eps, wp.chi):
        sums[cr] += _inner_product(pairs, inner)
    return mode.series(sums)


def wick_scalar_operator(wp: WickProduct, mode: Mode = FORMAL):
    """Vacuum amplitude computed by applying the factors to the vacuum,
    position 1 (the rightmost factor of the product) first."""
    x = FockVector.vacuum(wp.d, mode=mode)
    for side, flavor, v in zip(wp.chi, wp.eps, wp.vectors):
        x = apply(side, flavor, v, x)
    return x.vacuum_amplitude()


def apply_choice_product(ct, wp: WickProduct, mode: Mode = FORMAL) -> FockVector:
    """Apply the single product of annihilation pieces / creations selected
    by a choice tuple to the vacuum.  Summing the vacuum amplitude over all
    choice tuples recovers the full Wick scalar term by term."""
    if ct.eps.symbols != tuple(wp.eps):
        raise GroundSetError("choice tuple belongs to a different flavor word")
    x = FockVector.vacuum(wp.d, mode=mode)
    for side, flavor, v, k in zip(wp.chi, wp.eps, wp.vectors, ct.gammas):
        x = apply(side, flavor, v, x, k)
    return x


def height_compatible(
    index: IndexTuple, pi: PairPartition, chi: Sequence[str] | None = None
) -> bool:
    """True iff the index tuple is constant on every pair of the partition
    read in height coordinates."""
    if len(index) != pi.size:
        raise GroundSetError(f"lengths differ: {len(index)} vs {pi.size}")
    return all(index(a) == index(b) for a, b in height_pairs(pi, chi))


def basis_wick_product(index: IndexTuple, eps: Sequence[str], chi: Sequence[str] | None = None) -> WickProduct:
    """The product whose h-th factor carries the I(h)-th basis vector.  As
    basis vectors are orthonormal, its pairing sum is the sum of q^cr over
    the fibre members height-compatible with the index tuple."""
    eps = tuple(eps)
    vectors = tuple(basis_vector(index.d, i) for i in index.values)
    return WickProduct(alternating_pattern(len(eps)) if chi is None else chi, eps, vectors)


def doubled_compatible_count(pi: PairPartition, d: int) -> int:
    """Closed form for the number of index tuples that are constant on the
    interval pairs and height-compatible with the partition."""
    return d ** block_count(join(pi, rainbow(pi.size)))


def doubled_compatible_count_bruteforce(pi: PairPartition, d: int) -> int:
    """Literal count over all d^(2n) index tuples (within the enumeration budget)."""
    two_n = pi.size
    check_size(two_n // 2, None, (d**j for j in range(1, two_n + 1)), ENUMERATION_BUDGET,
               "doubled_compatible_count_bruteforce takes no cap; lower the order or d")
    heights = height_pairs(pi)
    count = 0
    for values in product(range(1, d + 1), repeat=two_n):
        if values[::2] != values[1::2]:
            continue
        if all(values[a - 1] == values[b - 1] for a, b in heights):
            count += 1
    return count


def bnc_moment_q0(d: int, n: int, cap: int | None = None) -> int:
    """Undeformed moment via the bi-non-crossing sum: d^(blocks of the join
    with the interval matching) summed over the bi-non-crossing matchings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    intervals = interval_pairs(2 * n)
    total = 0
    for pi in enumerate_bnc2_alternating(2 * n, cap=cap):
        total += d ** block_count(join(pi, intervals))
    return total
