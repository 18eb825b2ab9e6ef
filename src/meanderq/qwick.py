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
    _resolve_chi,
    enumerate_bnc2_alternating,
    enumerate_preimage,
    is_dyck,
)
from .errors import ENUMERATION_BUDGET, GroundSetError, check_size
from .fock import (
    CoordVector,
    FockVector,
    OpSymbol,
    apply_piece,
    basis_vector,
    vacuum_expectation,
    vector_inner,
)
from .partitions import (
    IndexTuple,
    PairPartition,
    Permutation,
    SidePattern,
    act,
    block_count,
    check_side_pattern,
    crossings,
    interval_pairs,
    join,
    rainbow,
    side_pattern_permutation,
)
from .scalars import FORMAL, Mode, QPoly


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

    def factors(self) -> list[OpSymbol]:
        """Operator factors in product order (position 2n leftmost)."""
        ops = zip(self.chi, self.eps, self.vectors)
        return [OpSymbol(side, flavor, vec) for side, flavor, vec in ops][::-1]


def _pair_inners(wp: WickProduct) -> Callable:
    """The inner product of the vectors at positions k, h (opener first),
    computed once per pair of positions."""
    vectors = wp.vectors
    return cache(lambda k, h: vector_inner(vectors[k - 1], vectors[h - 1]))


def _term(pi: PairPartition, s: Permutation, inner: Callable, mode: Mode):
    """``wick_term`` with the side-pattern permutation and the pair inner
    products of its product given."""
    heights = act(s, pi)
    cr = crossings(pi)
    value = 1 if mode.is_formal else mode.q_power(cr)
    for k, h in heights.pairs:
        value = value * inner(k, h)
        if not value:
            break
    return QPoly.one().shifted(cr, value) if mode.is_formal else value


def wick_term(pi: PairPartition, wp: WickProduct, mode: Mode = FORMAL):
    """Contribution of one pair-partition: q^cr times the product of inner
    products over its pairs in height coordinates (opener first).  For formal
    q the inner products multiply as plain scalars and q^cr is one shift."""
    return _term(pi, side_pattern_permutation(wp.chi), _pair_inners(wp), mode)


def wick_scalar_combinatorial(wp: WickProduct, mode: Mode = FORMAL):
    """Pairing-sum value of the vacuum amplitude; 0 for non-Dyck flavors.
    The terms share one side-pattern permutation and one inner product per
    pair of positions."""
    if not is_dyck(wp.eps):
        return mode.zero()
    s, inner = side_pattern_permutation(wp.chi), _pair_inners(wp)
    total = mode.zero()
    for pi in enumerate_preimage(DyckTuple(wp.eps), wp.chi):
        total = total + _term(pi, s, inner, mode)
    return total


def wick_scalar_operator(wp: WickProduct, mode: Mode = FORMAL):
    """Vacuum amplitude computed by applying the factors to the vacuum."""
    return vacuum_expectation(wp.factors(), wp.d, mode)


def apply_choice_product(ct, wp: WickProduct, mode: Mode = FORMAL) -> FockVector:
    """Apply the single product of annihilation pieces / creations selected
    by a choice tuple to the vacuum.  Summing the vacuum amplitude over all
    choice tuples recovers the full Wick scalar term by term."""
    if ct.eps.symbols != tuple(wp.eps):
        raise GroundSetError("choice tuple belongs to a different flavor word")
    x = FockVector.vacuum(wp.d, wp.size, mode)
    for h in range(1, wp.size + 1):
        x = apply_piece(wp.chi[h - 1], wp.eps[h - 1], ct.gammas[h - 1], wp.vectors[h - 1], x)
    return x


def height_compatible(
    index: IndexTuple, pi: PairPartition, chi: Sequence[str] | None = None
) -> bool:
    """True iff the index tuple is constant on every pair of the partition
    read in height coordinates."""
    if len(index) != pi.size:
        raise GroundSetError(f"lengths differ: {len(index)} vs {pi.size}")
    heights = act(side_pattern_permutation(_resolve_chi(chi, pi.size)), pi)
    return all(index(a) == index(b) for a, b in heights.pairs)


def compatible_crossing_sum(index: IndexTuple, eps: DyckTuple, mode: Mode = FORMAL):
    """Sum of q^cr over the decoration-word fibre restricted to partitions
    height-compatible with the index tuple (alternating pattern).  Equals the
    vacuum expectation of the corresponding basis-vector product; the sum may
    be empty, in which case it is 0."""
    if len(index) != eps.size:
        raise GroundSetError(f"lengths differ: {len(index)} vs {eps.size}")
    total = mode.zero()
    for pi in enumerate_preimage(eps):
        if height_compatible(index, pi):
            total = total + mode.q_power(crossings(pi))
    return total


def basis_wick_product(index: IndexTuple, eps: Sequence[str], chi: Sequence[str] | None = None) -> WickProduct:
    """The product whose h-th factor carries the I(h)-th basis vector."""
    eps = tuple(eps)
    vectors = tuple(basis_vector(index.d, i) for i in index.values)
    return WickProduct(_resolve_chi(chi, len(eps)), eps, vectors)


def doubled_compatible_count(pi: PairPartition, d: int) -> int:
    """Closed form for the number of index tuples that are constant on the
    interval pairs and height-compatible with the partition."""
    return d ** block_count(join(pi, rainbow(pi.size)))


def doubled_compatible_count_bruteforce(pi: PairPartition, d: int) -> int:
    """Literal count over all d^(2n) index tuples (within the enumeration budget)."""
    two_n = pi.size
    check_size(two_n // 2, None, (d**j for j in range(1, two_n + 1)), ENUMERATION_BUDGET)
    count = 0
    for values in product(range(1, d + 1), repeat=two_n):
        if any(values[2 * k] != values[2 * k + 1] for k in range(two_n // 2)):
            continue
        if height_compatible(IndexTuple(values, d), pi):
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
