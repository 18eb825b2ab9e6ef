from fractions import Fraction

import hypothesis.strategies as st
import pytest

import meanderq.fock as fock
from meanderq.errors import SWEEP_BUDGET
from meanderq.partitions import PairPartition, Permutation, SetPartition


@st.composite
def set_partitions(draw, min_m=1, max_m=12):
    """Random set partition via a restricted-growth assignment string."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    labels = [0]
    for _ in range(m - 1):
        used = max(labels) + 1
        labels.append(draw(st.integers(min_value=0, max_value=used)))
    blocks: dict[int, list[int]] = {}
    for x, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(x)
    return SetPartition(blocks.values())


@st.composite
def pair_partitions(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    points = list(range(1, 2 * n + 1))
    points = draw(st.permutations(points))
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(n)]
    return PairPartition(pairs)


@st.composite
def permutations_of(draw, m):
    return Permutation(draw(st.permutations(list(range(1, m + 1)))))


def rationals(max_num=3, max_den=3):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def rational_vectors(d, **kw):
    return st.tuples(*([rationals(**kw)] * d))


def priced_out(*args):
    """A price whose first count is already past the sweep budget: patched
    over one basis's price, it leaves ``_moment_sweep`` the other basis."""
    return iter([SWEEP_BUDGET + 1])


def orbit_sweep(d, n, mode, doubled, cap=None):
    """The moment sweep forced onto relabelling orbits at any d, by pricing
    the loop basis out: the oracle of the loop basis wherever the public
    sweeps price loops lower."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "loop_sweep_sizes", priced_out)
        return fock._moment_sweep(d, n, mode, doubled, cap)
