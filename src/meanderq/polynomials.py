"""Exact bivariate polynomials in (t, u), read off the loop sweep or enumerated.

The semi-meander polynomial of order n counts closed-curve systems drawn from
a single matching against the rainbow; the meander polynomial counts pairs of
matchings.  In both, the t-exponent is the number of closed curves (blocks of
the join) and the u-exponent the number of crossings.  Coefficients are plain
Python integers, so there is no overflow at any order.  ``kronecker_poly``
reads them off one sweep of the Fock-space step in the loop basis, where a
closed loop counts t; the enumerations ``semi_meander_poly`` and
``meander_poly`` are its independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import ENUMERATION_BUDGET, check_size
from .fock import _digit_bits, loop_sweep
from .partitions import (
    _iter_matchings_raw,
    _raw_crossings,
    odd_double_factorial,
    rainbow,
)
from .scalars import QPoly


class BivarPoly:
    """Two-variable polynomial with integer coefficients, keyed by (t_deg, u_deg)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        canon: dict[tuple[int, int], int] = {}
        for (k, l), c in items:
            if k < 0 or l < 0:
                raise ValueError(f"negative degree in term ({k},{l})")
            if c:
                canon[(k, l)] = canon.get((k, l), 0) + c
        self.terms = {kl: c for kl, c in sorted(canon.items()) if c}

    def coefficient(self, k: int, l: int) -> int:
        return self.terms.get((k, l), 0)

    @property
    def t_degree(self) -> int:
        return max((k for k, _ in self.terms), default=0)

    @property
    def u_degree(self) -> int:
        return max((l for _, l in self.terms), default=0)

    def total(self) -> int:
        """Sum of all coefficients (the number of enumerated objects)."""
        return sum(self.terms.values())

    def eval(self, t, u) -> Fraction:
        """Exact evaluation at rational (t, u)."""
        t, u = Fraction(t), Fraction(u)
        return sum((c * t**k * u**l for (k, l), c in self.terms.items()), Fraction(0))

    def eval_at_t(self, t) -> QPoly:
        """Substitute an exact t and rename u to the deformation parameter q."""
        coeffs = [0] * (self.u_degree + 1)
        for (k, l), c in self.terms.items():
            coeffs[l] += c * Fraction(t) ** k
        return QPoly([x if x.denominator != 1 else int(x) for x in map(Fraction, coeffs)])

    def u0_slice(self) -> dict[int, int]:
        """Coefficients of the u=0 restriction, keyed by t-degree."""
        return {k: c for (k, l), c in self.terms.items() if l == 0}

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        by_k: dict[int, list[tuple[int, int]]] = {}
        for (k, l), c in self.terms.items():
            by_k.setdefault(k, []).append((l, c))
        chunks = []
        for k in sorted(by_k):
            inner = []
            for l, c in sorted(by_k[k]):
                if l == 0:
                    inner.append(str(c))
                else:
                    u = "u" if l == 1 else f"u^{l}"
                    inner.append(u if c == 1 else f"{c}*{u}")
            body = " + ".join(inner)
            t = "t" if k == 1 else f"t^{k}"
            if k == 0:
                chunks.append(body)
            elif body == "1":
                chunks.append(t)
            elif len(inner) == 1 and by_k[k][0][0] == 0:
                chunks.append(f"{body}*{t}" if body != "1" else t)
            else:
                chunks.append(f"{t}*({body})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"


def poly_eval(p: BivarPoly, t, u) -> Fraction:
    return p.eval(t, u)


def _partner_array(pairs: tuple[tuple[int, int], ...], m: int) -> list[int]:
    out = [0] * m
    for a, b in pairs:
        out[a - 1] = b - 1
        out[b - 1] = a - 1
    return out


def _join_block_count(pa: list[int], pb: list[int]) -> int:
    """Blocks of the join of two matchings given as 0-based partner arrays.

    Composing the two involutions walks each closed curve in steps of two,
    so each join block contributes exactly two cycles of the composition.
    """
    m = len(pa)
    seen = bytearray(m)
    cycles = 0
    for start in range(m):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            x = pb[pa[x]]
    return cycles // 2


def _matchings_with_stats(two_n: int, first_partner: int | None = None):
    """(partner_array, crossings) for matchings of {1..2n}; optionally only
    those pairing 1 with the given partner (for parallel chunking)."""
    rest = tuple(range(2, two_n + 1))
    for b in rest if first_partner is None else (first_partner,):
        for sub in _iter_matchings_raw(tuple(x for x in rest if x != b)):
            pairs = ((1, b),) + sub
            yield _partner_array(pairs, two_n), _raw_crossings(pairs)


def _systems(args) -> dict[tuple[int, int], int]:
    """Terms of the systems (pi, sigma) of order n whose pi pairs the point 1
    with ``first_partner``: sigma is the rainbow, or every matching if
    ``meander``."""
    two_n, first_partner, meander = args
    lower = (list(_matchings_with_stats(two_n)) if meander
             else [(_partner_array(rainbow(two_n).pairs, two_n), 0)])
    terms: dict[tuple[int, int], int] = {}
    for pa, cra in _matchings_with_stats(two_n, first_partner):
        for pb, crb in lower:
            key = (_join_block_count(pa, pb), cra + crb)
            terms[key] = terms.get(key, 0) + 1
    return terms


def _sum_chunks(n: int, meander: bool, jobs: int) -> BivarPoly:
    """Sum ``_systems`` over the chunks of order n (one per partner of the
    point 1), in a pool of ``jobs`` worker processes when jobs > 1."""
    chunks = [(2 * n, fp, meander) for fp in range(2, 2 * n + 1)]
    if jobs > 1 and len(chunks) > 1:
        import concurrent.futures  # only a pool needs it, and it costs a CLI start-up

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_systems, chunks))
    else:
        parts = map(_systems, chunks)
    terms: dict[tuple[int, int], int] = {}
    for part in parts:
        for key, c in part.items():
            terms[key] = terms.get(key, 0) + c
    return BivarPoly(terms)


def semi_meander_poly(n: int, cap: int | None = None, jobs: int = 1) -> BivarPoly:
    """Sum of t^(closed curves against the rainbow) * u^(crossings) over all
    matchings of {1..2n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, map(odd_double_factorial, range(1, n + 1)), ENUMERATION_BUDGET)
    return _sum_chunks(n, False, jobs)


def meander_poly(n: int, cap: int | None = None, jobs: int = 1) -> BivarPoly:
    """Double-enumeration analogue of ``semi_meander_poly``: both diagrams of
    the system range over all matchings, so ((2n-1)!!)^2 pairs are visited."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, (odd_double_factorial(k) ** 2 for k in range(1, n + 1)), ENUMERATION_BUDGET)
    return _sum_chunks(n, True, jobs)


def kronecker_poly(kind: str, n: int, cap: int | None = None) -> BivarPoly:
    """Q_n (kind "semi") or P_n ("meander") from one loop sweep.

    The sweep's last amplitude is Q_n(t, q) (P_n(t, q)) at t = 2^W, so the
    base-2^W digits of each q-coefficient are the t-coefficients (Kronecker
    substitution); ``fock._digit_bits`` proves that no digit carries.  The
    sweep checks its own size, so no (2n-1)!! is built."""
    if n < 1 or kind not in ("semi", "meander"):
        raise ValueError(f"need n >= 1 and kind 'semi' or 'meander', got {n}, {kind!r}")
    meander = kind == "meander"
    bits = _digit_bits(n, meander)
    mask = (1 << bits) - 1
    return BivarPoly(((t, u), c >> t * bits & mask)
                     for u, c in enumerate(loop_sweep(n, meander, cap)[-1].coeffs)
                     for t in range(c.bit_length() // bits + 1))


class CoefficientTable:
    """Dense (t-degree x u-degree) coefficient table with marginal sums."""

    __slots__ = ("rows", "k_min", "row_sums", "col_sums")

    def __init__(self, p: BivarPoly):
        if not p.terms:
            self.rows, self.k_min = ((0,),), 0
            self.row_sums, self.col_sums = (0,), (0,)
            return
        k_min = min(k for k, _ in p.terms)
        k_max, l_max = p.t_degree, p.u_degree
        rows = [
            tuple(p.coefficient(k, l) for l in range(l_max + 1))
            for k in range(k_min, k_max + 1)
        ]
        self.rows = tuple(rows)
        self.k_min = k_min
        self.row_sums = tuple(sum(r) for r in rows)
        self.col_sums = tuple(sum(col) for col in zip(*rows))

    def total(self) -> int:
        return sum(self.row_sums)

    def to_csv(self) -> str:
        width = len(self.rows[0])
        lines = ["k\\l," + ",".join(str(l) for l in range(width)) + ",row_sum"]
        for i, row in enumerate(self.rows):
            k = self.k_min + i
            lines.append(f"{k}," + ",".join(map(str, row)) + f",{self.row_sums[i]}")
        lines.append("col_sum," + ",".join(map(str, self.col_sums)) + f",{self.total()}")
        return "\n".join(lines) + "\n"


def coefficient_table(p: BivarPoly) -> CoefficientTable:
    return CoefficientTable(p)


def poly_json_doc(p: BivarPoly, kind: str, n: int) -> dict:
    """Frozen JSON form: terms ascending in (t, u), coefficients as strings."""
    return {
        "schema_version": 1,
        "n": n,
        "kind": kind,
        "terms": [
            {"t": k, "u": l, "c": str(c)} for (k, l), c in sorted(p.terms.items())
        ],
    }
