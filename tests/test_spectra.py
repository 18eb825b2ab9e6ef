import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanderq.fock import meander_moment_sweep, semi_meander_moment_sweep
from meanderq.scalars import FORMAL, Mode, QPoly
from meanderq.spectra import (
    JacobiRecurrence,
    MomentSequence,
    Quadrature,
    hankel_psd_check,
    jacobi_from_moments,
    meander_moments,
    negativity_witness,
    quadrature_from_jacobi,
    realize,
    semi_meander_moments,
    semi_meander_norm_bounds,
)

Q_VALUES = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def point_mass_moments(c, n_max):
    return MomentSequence(tuple(c**n for n in range(n_max + 1)))


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def finite_measures(draw, max_nodes=4):
    """m_0..m_N of k <= max_nodes distinct rational nodes with positive
    rational weights summing to 1."""
    nodes = draw(st.lists(small_rationals, min_size=1, max_size=max_nodes, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(nodes), max_size=len(nodes)))
    weights = [Fraction(r, sum(raw)) for r in raw]
    n_max = draw(st.integers(1, 10))
    ms = [sum(w * x**n for x, w in zip(nodes, weights)) for n in range(n_max + 1)]
    return len(nodes), MomentSequence(tuple(ms))


@st.composite
def sequences(draw):
    """m_0 = 1 and random rationals, or a finite measure's moments with one
    moment moved a little, so both verdicts come up at every size."""
    if draw(st.booleans()):
        return MomentSequence((1, *draw(st.lists(small_rationals, min_size=1, max_size=9))))
    _, ms = draw(finite_measures(max_nodes=6))
    m = list(ms.moments)
    m[draw(st.integers(1, len(m) - 1))] += draw(small_rationals) / 16
    return MomentSequence(tuple(m))


def determinant(rows):
    """Exact determinant by Fraction elimination with row swaps."""
    h = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(h)):
        pivot = next((r for r in range(c, len(h)) if h[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            h[c], h[pivot] = h[pivot], h[c]
            det = -det
        det *= h[c][c]
        for r in range(c + 1, len(h)):
            f = h[r][c] / h[c][c]
            h[r] = [x - f * y for x, y in zip(h[r], h[c])]
    return det


def leading_hankel_minors(m, size):
    """det H_1..det H_size of H[i][j] = m_{i+j}."""
    return [determinant([[m[i + j] for j in range(s)] for i in range(s)])
            for s in range(1, size + 1)]


class TestMomentSequence:
    def test_m0_enforced(self):
        with pytest.raises(ValueError):
            MomentSequence((2, 1))
        with pytest.raises(ValueError):
            MomentSequence(())

    def test_csv(self):
        ms = MomentSequence((1, Fraction(3, 2)))
        assert ms.to_csv() == "n,moment\n0,1\n1,3/2\n"

    def test_builders_return_the_sweep_moments(self):
        ms = semi_meander_moments(2, Fraction(0), 2)
        assert ms.moments == (1, 2, 6)
        for builder, sweep in ((semi_meander_moments, semi_meander_moment_sweep),
                               (meander_moments, meander_moment_sweep)):
            ms = builder(2, Fraction(1, 2), 4)
            assert ms.moments == tuple(sweep(2, 4, Mode(Fraction(1, 2))))


    def test_order_zero(self):
        assert semi_meander_moments(2, Fraction(0), 0).moments == (1,)
        assert meander_moments(2, Fraction(1, 2), 0).moments == (1.0,)

    def test_float_q_is_refused(self):
        # Fraction(0.1) would carry a 2^55 denominator, so a float is not
        # converted: the caller passes the rational it means
        for moments in (semi_meander_moments, meander_moments):
            with pytest.raises(ValueError, match="Fraction"):
                moments(2, 0.1, 3)


class TestHankel:
    def test_point_mass_psd(self):
        ok, min_eig = hankel_psd_check(point_mass_moments(3, 8), size=4)
        assert ok
        assert abs(min_eig) <= 1e-8 * (1 + 3**8)

    def test_semi_meander_sequence_psd(self):
        ms = semi_meander_moments(2, Fraction(0), 8)
        ok, min_eig = hankel_psd_check(ms, size=5)
        assert ok

    def test_corrupted_fails(self):
        # m_2 < m_1^2 violates Cauchy-Schwarz
        bad = MomentSequence((1, 2, 3, 8, 20))
        ok, _ = hankel_psd_check(bad, size=2)
        assert not ok

    def test_insufficient_moments(self):
        with pytest.raises(ValueError):
            hankel_psd_check(point_mass_moments(1, 3), size=3)

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_is_refused(self, size):
        with pytest.raises(ValueError, match="size must lie in 1..2"):
            hankel_psd_check(point_mass_moments(1, 3), size=size)


class TestJacobi:
    def test_point_mass_breaks_down_at_depth_one(self):
        rec = jacobi_from_moments(point_mass_moments(Fraction(5, 2), 7), exact=True)
        assert rec.breakdown == 1
        assert rec.alphas == (Fraction(5, 2),)
        assert rec.betas == (1,)

    def test_symmetric_bernoulli(self):
        ms = MomentSequence((1, 0, 1, 0, 1, 0, 1, 0))
        rec = jacobi_from_moments(ms)
        assert rec.breakdown == 2
        assert rec.alphas[0] == pytest.approx(0.0)
        assert rec.alphas[1] == pytest.approx(0.0)
        assert rec.betas[1] == pytest.approx(1.0)

    def test_round_trip_semi_meander(self):
        # m_n is beta_0 times the sum over Motzkin paths of n steps from
        # height 0 to 0, a level step at k weighing alpha_k and a down step
        # from k beta_k; the recurrence fixes m_0..m_{2 depth - 1} exactly
        for d, q, top in ((2, Fraction(0), 8), (3, Fraction(1, 2), 10), (1, Fraction(-7, 9), 12)):
            ms = semi_meander_moments(d, q, top)
            rec = jacobi_from_moments(ms)
            assert rec.breakdown is None and rec.depth == top // 2
            paths, back = [1] + [0] * (rec.depth - 1), []  # path weight by end height
            for _ in range(2 * rec.depth):
                back.append(rec.betas[0] * paths[0])
                paths = [(paths[k - 1] if k else 0) + rec.alphas[k] * paths[k]
                         + (rec.betas[k + 1] * paths[k + 1] if k + 1 < rec.depth else 0)
                         for k in range(rec.depth)]
            assert back == list(ms.moments[: 2 * rec.depth])

    def test_float_moments_recurse_exactly(self):
        # a float moment is a dyadic rational, converted without rounding;
        # at a short order its recurrence agrees with the exact moments' one
        ms = semi_meander_moments(2, Fraction(1, 10), 6)
        exact = jacobi_from_moments(ms)
        rounded = jacobi_from_moments(MomentSequence(ms.floats()))
        assert exact.breakdown is None and rounded.breakdown is None
        assert all(isinstance(x, Fraction) for x in rounded.alphas + rounded.betas)
        for a, b in zip(exact.alphas + exact.betas, rounded.alphas + rounded.betas):
            assert float(a) == pytest.approx(float(b), rel=1e-9)
        assert len(exact.betas) == 4  # beta_3 from m_6 certifies H_4
        assert all(b > 0 for b in exact.betas)

    def test_float_recursion_refused(self):
        with pytest.raises(ValueError):
            jacobi_from_moments(point_mass_moments(2, 3), exact=False)

    def test_singular_hankel_without_finite_support_fails(self):
        # H_3 of (1, 0, 0, 0, 1) is positive semidefinite, but m_2 = 0 forces
        # the point mass at 0, whose m_4 is 0: no positive measure has these
        rec = jacobi_from_moments(MomentSequence((1, 0, 0, 0, 1)))
        assert (rec.breakdown, rec.psd, rec.depth) == (1, False, 1)
        assert hankel_psd_check(MomentSequence((1, 0, 0, 0, 1)), 3)[0] is False


class TestCertificate:
    @settings(max_examples=150, deadline=None)
    @given(finite_measures())
    def test_finite_measure_certified(self, drawn):
        k, ms = drawn
        size = (len(ms) - 1) // 2 + 1
        rec = jacobi_from_moments(ms)
        assert rec.psd
        assert hankel_psd_check(ms, size)[0]
        if k < size:
            assert rec.breakdown == k and rec.depth == k
        else:
            assert rec.breakdown is None

    @settings(max_examples=150, deadline=None)
    @given(sequences())
    def test_verdict_is_the_sign_of_the_minors(self, ms):
        size = (len(ms) - 1) // 2 + 1
        minors = leading_hankel_minors(ms.moments, size)
        assume(all(x != 0 for x in minors))
        want = all(x > 0 for x in minors)
        assert jacobi_from_moments(ms).psd is want
        assert hankel_psd_check(ms, size)[0] is want

    def test_rule_cut_before_the_stop(self):
        # m_4 = -1 gives beta_2 < 0; the two-node rule of beta_1 = 1 stays
        r = realize(MomentSequence((1, 0, 1, 0, -1)))
        assert (r.recurrence.psd, r.recurrence.breakdown) == (False, 2)
        assert r.quadrature.nodes == pytest.approx((-1.0, 1.0))
        assert r.quadrature.weights == pytest.approx((0.5, 0.5))


class TestQuadrature:
    def test_point_mass_single_node(self):
        rec = jacobi_from_moments(point_mass_moments(2.5, 5))
        quad = quadrature_from_jacobi(rec, 1)
        assert quad.nodes[0] == pytest.approx(2.5)
        assert quad.weights[0] == pytest.approx(1.0)

    def test_reproduces_semi_meander_moments(self):
        ms = semi_meander_moments(2, Fraction(0), 8)
        rec = jacobi_from_moments(ms)
        quad = quadrature_from_jacobi(rec, 3)
        for n in range(6):
            target = float(ms.moments[n])
            assert quad.moment(n) == pytest.approx(target, rel=1e-9, abs=1e-9)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            Quadrature((1.0,), (0.5,))

    def test_realize_caps_the_nodes(self):
        ms = semi_meander_moments(2, Fraction(0), 8)
        assert len(realize(ms, nodes=2).quadrature.nodes) == 2
        assert len(realize(ms, nodes=99).quadrature.nodes) == len(realize(ms).quadrature.nodes)
        for nodes in (0, -1):
            with pytest.raises(ValueError, match="nodes must be positive"):
                realize(ms, nodes=nodes)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nodes_within_norm_bound_at_q0(self, d):
        ms = semi_meander_moments(d, Fraction(0), 8)
        rec = jacobi_from_moments(ms)
        quad = quadrature_from_jacobi(rec, rec.depth)
        assert all(abs(x) <= 4 * d + 1e-9 for x in quad.nodes)

    def test_monitored_nodes_at_nonzero_q(self):
        # no norm bound is asserted away from the undeformed case; just
        # record that the pipeline runs and weights stay a distribution
        ms = semi_meander_moments(2, Fraction(1, 2), 8)
        quad = quadrature_from_jacobi(jacobi_from_moments(ms), 4)
        assert sum(quad.weights) == pytest.approx(1.0, abs=1e-10)


class TestShippedSequences:
    @pytest.mark.parametrize("q", Q_VALUES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_semi_meander_psd_n10(self, d, q):
        ms = semi_meander_moments(d, q, 10, cap=10)
        ok, _ = hankel_psd_check(ms, size=6)
        assert ok

    @pytest.mark.parametrize("q", Q_VALUES)
    @pytest.mark.parametrize("d", [1, 2])
    def test_meander_psd_n6(self, d, q):
        ms = meander_moments(d, q, 6, cap=6)
        ok, _ = hankel_psd_check(ms, size=4)
        assert ok

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cauchy_schwarz(self, d):
        ms = semi_meander_moments(d, Fraction(1, 2), 10, cap=10)
        for n in range(1, 6):
            assert ms.moments[2 * n] >= ms.moments[n] ** 2


class TestNormBounds:
    def test_d1(self):
        lower, upper = semi_meander_norm_bounds(1)
        assert lower >= math.sqrt(2) - 1e-12
        assert upper == 4.0

    def test_d2(self):
        lower, upper = semi_meander_norm_bounds(2)
        assert lower >= math.sqrt(6) - 1e-12
        assert upper == 8.0

    def test_no_moments_gives_the_vacuum_bound(self):
        assert semi_meander_norm_bounds(2, 0) == (math.sqrt(6), 8.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ordered(self, d):
        lower, upper = semi_meander_norm_bounds(d, n_max=6)
        assert lower <= upper


class TestNegativityWitness:
    def test_exact_value_frozen(self):
        # frozen golden value from the exact evaluation of the quadratic form
        assert negativity_witness(2, FORMAL) == QPoly((-4, 8, 0, -4))
        assert negativity_witness(2, Fraction(0)) == -4

    def test_default_q_is_the_exact_zero(self):
        value = negativity_witness(2)
        assert value == Fraction(-4) and type(value) is Fraction

    def test_float_negative(self):
        assert negativity_witness(2, 0.0) < 0
        assert negativity_witness(2, 0.5) < 0
        assert negativity_witness(3, 0.0) < 0

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            negativity_witness(1, 0.0)

    def test_positive_vector_positive(self):
        from meanderq.fock import FockVector, apply_semi_meander_operator, q_inner_product

        mode = Mode(Fraction(0))
        eta = FockVector(2, mode, {(1, 1): Fraction(1), (2, 2): Fraction(1)})
        value = q_inner_product(apply_semi_meander_operator(eta), eta)
        assert value > 0
