import math
from fractions import Fraction

import pytest

from meanderq.scalars import FORMAL, Mode, QPoly
from meanderq.spectra import (
    JacobiRecurrence,
    MomentSequence,
    Quadrature,
    hankel_psd_check,
    jacobi_from_moments,
    meander_moments,
    moments_from_jacobi,
    negativity_witness,
    quadrature_from_jacobi,
    semi_meander_moments,
    semi_meander_norm_bounds,
)

Q_VALUES = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))


def point_mass_moments(c, n_max):
    return MomentSequence(tuple(c**n for n in range(n_max + 1)), provenance=f"delta_{c}")


class TestMomentSequence:
    def test_m0_enforced(self):
        with pytest.raises(ValueError):
            MomentSequence((2, 1))
        with pytest.raises(ValueError):
            MomentSequence(())

    def test_csv(self):
        ms = MomentSequence((1, Fraction(3, 2)), provenance="x")
        assert ms.to_csv() == "n,moment\n0,1\n1,3/2\n"

    def test_builders_tag_provenance(self):
        ms = semi_meander_moments(2, Fraction(0), 2)
        assert "d=2" in ms.provenance
        assert ms.moments[1] == 2
        assert ms.moments[2] == 6


    def test_order_zero(self):
        assert semi_meander_moments(2, Fraction(0), 0).moments == (1,)
        assert meander_moments(2, 0.5, 0).moments == (1.0,)


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
        ms = semi_meander_moments(2, Fraction(0), 8)
        rec = jacobi_from_moments(ms)
        assert rec.breakdown is None
        back = moments_from_jacobi(rec, 6)
        for n in range(7):
            assert back[n] == pytest.approx(float(ms.moments[n]), rel=1e-9, abs=1e-9)

    def test_exact_recursion_matches_float(self):
        ms = semi_meander_moments(2, Fraction(1, 2), 6)
        exact = jacobi_from_moments(ms, exact=True)
        approx = jacobi_from_moments(ms)
        assert exact.breakdown is None
        for a, b in zip(exact.alphas, approx.alphas):
            assert float(a) == pytest.approx(b, rel=1e-9)
        for a, b in zip(exact.betas, approx.betas):
            assert float(a) == pytest.approx(b, rel=1e-9)
            assert a > 0


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
        ok, _ = hankel_psd_check(ms, size=6, tol=1e-8)
        assert ok

    @pytest.mark.parametrize("q", Q_VALUES)
    @pytest.mark.parametrize("d", [1, 2])
    def test_meander_psd_n6(self, d, q):
        ms = meander_moments(d, q, 6, cap=6)
        ok, _ = hankel_psd_check(ms, size=4, tol=1e-8)
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
        eta = FockVector(2, 4, mode, {(1, 1): Fraction(1), (2, 2): Fraction(1)})
        value = q_inner_product(apply_semi_meander_operator(eta), eta)
        assert value > 0
