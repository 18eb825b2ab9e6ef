import concurrent.futures
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings

from meanderq.errors import EnumerationCapError
from meanderq.fock import meander_moment_sweep, semi_meander_moment_sweep
from meanderq.polynomials import (
    BivarPoly,
    _join_block_count,
    kronecker_poly,
    meander_poly,
    poly_json_doc,
    semi_meander_poly,
)
from meanderq.partitions import (
    block_count,
    enumerate_noncrossing,
    enumerate_pair_partitions,
    join,
    odd_double_factorial,
    rainbow,
)
from meanderq.scalars import FORMAL, QPoly

from conftest import pair_partitions


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def nc_built_semi_poly(n):
    """Independent oracle for the u=0 slice: enumerate the non-crossing
    matchings directly and count components against the rainbow."""
    rho = rainbow(2 * n)
    terms = {}
    for pi in enumerate_noncrossing(n):
        k = block_count(join(pi, rho))
        terms[(k, 0)] = terms.get((k, 0), 0) + 1
    return terms


class TestBivarPoly:
    def test_zero_terms_dropped(self):
        p = BivarPoly({(1, 0): 0, (2, 1): 3})
        assert p.terms == {(2, 1): 3}

    def test_eval(self):
        p = BivarPoly({(1, 0): 1, (2, 0): 1})  # t + t^2
        assert p.eval(2, 0) == 6
        assert BivarPoly({}).eval(5, 7) == 0

    def test_eval_rational(self):
        q2 = semi_meander_poly(2)
        assert q2.eval(2, Fraction(1, 2)) == 7

    def test_eval_at_t(self):
        q2 = semi_meander_poly(2)
        assert q2.eval_at_t(2) == QPoly((6, 2))
        assert q2.eval_at_t(1) == QPoly((2, 1))

    def test_str(self):
        assert str(semi_meander_poly(2)) == "t*(1 + u) + t^2"
        assert str(semi_meander_poly(1)) == "t"


class TestSemiMeanderPoly:
    def test_order_one(self):
        assert semi_meander_poly(1).terms == {(1, 0): 1}

    def test_order_two(self):
        assert semi_meander_poly(2).terms == {(1, 0): 1, (1, 1): 1, (2, 0): 1}

    def test_order_three_u0_slice(self):
        # frozen from the non-crossing oracle below
        p = semi_meander_poly(3)
        assert p.u0_slice() == {1: 2, 2: 2, 3: 1}
        assert {(k, 0): c for k, c in p.u0_slice().items()} == nc_built_semi_poly(3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_is_double_factorial(self, n):
        assert semi_meander_poly(n).total() == odd_double_factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_u0_matches_noncrossing_oracle(self, n):
        p = semi_meander_poly(n)
        assert {(k, 0): c for k, c in p.u0_slice().items()} == nc_built_semi_poly(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degrees(self, n):
        p = semi_meander_poly(n)
        assert p.t_degree == n
        assert p.u_degree <= n * (n - 1) // 2
        assert p.coefficient(n, 0) == 1  # only the rainbow gives n curves

    @pytest.mark.parametrize("n", range(1, 7))
    def test_connected_count_positive(self, n):
        p = semi_meander_poly(n)
        oracle = sum(
            1
            for pi in enumerate_noncrossing(n)
            if block_count(join(pi, rainbow(2 * n))) == 1
        )
        assert p.coefficient(1, 0) == oracle > 0

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            semi_meander_poly(9)

    def test_takes_no_jobs(self):
        # the enumeration runs in one process; only meander_poly keeps the
        # jobs that the benchmark's probe passes
        assert "jobs" not in inspect.signature(semi_meander_poly).parameters


class TestMeanderPoly:
    def test_order_one(self):
        assert meander_poly(1).terms == {(1, 0): 1}

    def test_order_two(self):
        assert meander_poly(2).terms == {
            (1, 0): 2,
            (1, 1): 4,
            (2, 0): 2,
            (2, 2): 1,
        }

    def test_order_two_u0(self):
        assert meander_poly(2).u0_slice() == {1: 2, 2: 2}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_total_squares(self, n):
        assert meander_poly(n).total() == odd_double_factorial(n) ** 2

    def test_total_squares_order_five(self):
        # the full 945^2 double enumeration; a couple of seconds
        assert meander_poly(5).total() == odd_double_factorial(5) ** 2

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            meander_poly(6)
        # explicit cap raises the bound without computing here

    def test_jobs_runs_in_one_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        assert meander_poly(3, jobs=2) == meander_poly(3, jobs=1)


class TestClassicalSequences:
    """Frozen values of classically tabulated counting sequences: connected
    systems of both kinds, the order-3 component table, and the full
    two-variable polynomial of order 3 (column sums are the crossing
    distribution over all matchings of six points)."""

    def test_connected_semi_meander_counts(self):
        got = [semi_meander_poly(n).coefficient(1, 0) for n in range(1, 7)]
        assert got == [1, 1, 2, 4, 10, 24]

    def test_connected_meander_counts(self):
        got = [meander_poly(n).coefficient(1, 0) for n in range(1, 5)]
        assert got == [1, 2, 8, 42]

    def test_meander_components_order_three(self):
        assert meander_poly(3).u0_slice() == {1: 8, 2: 12, 3: 5}

    def test_semi_meander_poly_order_three_full(self):
        assert semi_meander_poly(3).terms == {
            (1, 0): 2, (1, 1): 4, (1, 2): 2,
            (2, 0): 2, (2, 1): 2, (2, 2): 1, (2, 3): 1,
            (3, 0): 1,
        }

    def test_crossing_distribution_rows(self):
        from meanderq.partitions import crossings, enumerate_pair_partitions

        for n, expected in ((3, [5, 6, 3, 1]), (4, [14, 28, 28, 20, 10, 4, 1])):
            dist = {}
            for pi in enumerate_pair_partitions(n):
                dist[crossings(pi)] = dist.get(crossings(pi), 0) + 1
            assert [dist.get(k, 0) for k in range(max(dist) + 1)] == expected


class TestLoopSweepAgainstTheOrbitSweep:
    """``kronecker_poly`` reads the loop sweep, which has no d; at t = d it
    must be the orbit sweep's formal moment, an oracle that reaches orders
    the enumeration does not."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_semi_meander(self, d):
        moments = semi_meander_moment_sweep(d, 9, FORMAL, cap=9)
        for n in range(1, 10):
            assert kronecker_poly("semi", n).eval_at_t(d) == moments[n], (d, n)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_meander(self, d):
        moments = meander_moment_sweep(d, 5, FORMAL, cap=5)
        for n in range(1, 6):
            assert kronecker_poly("meander", n).eval_at_t(d) == moments[n], (d, n)


class TestJoinFastPath:
    @given(pair_partitions(max_n=6), pair_partitions(max_n=6))
    @settings(max_examples=80)
    def test_matches_union_find(self, a, b):
        if a.size != b.size:
            return
        assert _join_block_count(a.partner_map(), b.partner_map()) == block_count(join(a, b))

    def test_exhaustive_small(self):
        for a in enumerate_pair_partitions(3):
            for b in enumerate_pair_partitions(3):
                assert _join_block_count(a.partner_map(), b.partner_map()) == block_count(join(a, b))


def _csv_cells(p: BivarPoly) -> list[list[str]]:
    return [line.split(",") for line in p.to_csv().splitlines()]


class TestCoefficientTable:
    """``BivarPoly.to_csv``: the dense (t-degree x u-degree) table with its
    marginal sums."""

    def test_semi_two(self):
        assert semi_meander_poly(2).to_csv() == "k\\l,0,1,row_sum\n1,1,1,2\n2,1,0,1\ncol_sum,2,1,3\n"

    def test_empty(self):
        assert BivarPoly({}).to_csv() == "k\\l,0,row_sum\n0,0,0\ncol_sum,0,0\n"

    def test_meander_two_total(self):
        assert _csv_cells(meander_poly(2))[-1][-1] == "9"

    def test_csv(self):
        assert meander_poly(2).to_csv() == ("k\\l,0,1,2,row_sum\n1,2,4,0,6\n2,2,0,1,3\n"
                                            "col_sum,4,4,1,9\n")

    @pytest.mark.parametrize("kind,n", [("semi", n) for n in range(1, 7)]
                             + [("meander", n) for n in range(1, 5)])
    def test_marginals(self, kind, n):
        # the row sums are the t-marginals, the column sums the u-marginals,
        # and the corner is the number of systems
        p = semi_meander_poly(n) if kind == "semi" else meander_poly(n)
        header, *body, footer = _csv_cells(p)
        k_min = min(k for k, _ in p.terms)
        assert header == ["k\\l", *map(str, range(p.u_degree + 1)), "row_sum"]
        assert [int(row[0]) for row in body] == list(range(k_min, p.t_degree + 1))
        for row in body:
            k = int(row[0])
            assert [int(c) for c in row[1:-1]] == [p.coefficient(k, l) for l in range(p.u_degree + 1)]
            assert int(row[-1]) == sum(c for (kk, _), c in p.terms.items() if kk == k)
        assert footer[0] == "col_sum"
        assert [int(c) for c in footer[1:-1]] == [
            sum(c for (_, ll), c in p.terms.items() if ll == l) for l in range(p.u_degree + 1)]
        systems = odd_double_factorial(n) ** (2 if kind == "meander" else 1)
        assert int(footer[-1]) == systems


class TestJsonDoc:
    def test_frozen_shape(self):
        doc = poly_json_doc(semi_meander_poly(2), "semi", 2)
        assert doc == {
            "schema_version": 1,
            "n": 2,
            "kind": "semi",
            "terms": [
                {"t": 1, "u": 0, "c": "1"},
                {"t": 1, "u": 1, "c": "1"},
                {"t": 2, "u": 0, "c": "1"},
            ],
        }
