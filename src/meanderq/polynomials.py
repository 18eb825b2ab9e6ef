"""Exact bivariate polynomials in (t, u), read off the loop sweep or enumerated.

The semi-meander polynomial of order n counts closed-curve systems drawn from
a single matching against the rainbow; the meander polynomial counts pairs of
matchings.  In both, the t-exponent is the number of closed curves (blocks of
the join) and the u-exponent the number of crossings.  Coefficients are plain
Python integers, so there is no overflow at any order.  ``kronecker_poly``
reads them off one sweep of the Fock-space step in the loop basis, where a
closed loop counts t; the enumerations ``semi_meander_poly`` and
``meander_poly`` are its independent oracle: one pass, in one process, over
the matchings of ``partitions``, with a cycle walk of their own for the join.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from .errors import ENUMERATION_BUDGET, check_size
from .fock import loop_sweep
from .partitions import crossings, enumerate_pair_partitions, odd_double_factorial, rainbow
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
        return QPoly(coeffs)

    def to_csv(self) -> str:
        """Dense table: a row per t-degree from the lowest present, a column
        per u-degree, with row sums, column sums and the total."""
        k_min = min((k for k, _ in self.terms), default=0)
        cols = range(self.u_degree + 1)
        rows = [[self.coefficient(k, l) for l in cols] for k in range(k_min, self.t_degree + 1)]
        lines = ["k\\l," + ",".join(map(str, cols)) + ",row_sum"]
        lines += [f"{k}," + ",".join(map(str, row)) + f",{sum(row)}"
                  for k, row in enumerate(rows, start=k_min)]
        col_sums = [sum(col) for col in zip(*rows)]
        lines.append("col_sum," + ",".join(map(str, col_sums)) + f",{sum(col_sums)}")
        return "\n".join(lines) + "\n"

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
                chunks.append(f"{body}*{t}")
            else:
                chunks.append(f"{t}*({body})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"


def _join_block_count(pa: tuple[int, ...], pb: tuple[int, ...]) -> int:
    """Blocks of the join of two matchings given as ``partner_map`` tuples:
    each block is one closed curve, walked from its first unseen point along
    a pair of ``pa``, then a pair of ``pb``, until it is back."""
    m = len(pa)
    seen = bytearray(m + 1)
    blocks = 0
    for start in range(1, m + 1):
        if seen[start]:
            continue
        blocks += 1
        x = start
        while not seen[x]:
            y = pa[x - 1]
            seen[x] = seen[y] = 1
            x = pb[y - 1]
    return blocks


def _systems(n: int, meander: bool) -> BivarPoly:
    """Sum t^(join blocks) u^(crossings) over the systems (pi, sigma) of
    order n: pi streams through every matching, and sigma is the rainbow,
    or every matching (held as one list) if ``meander``."""
    upper = ((pi.partner_map(), crossings(pi)) for pi in enumerate_pair_partitions(n, cap=n))
    lower = list(upper) if meander else [(rainbow(2 * n).partner_map(), 0)]
    return BivarPoly(Counter((_join_block_count(pa, pb), cra + crb)
                             for pa, cra in (lower if meander else upper) for pb, crb in lower))


def semi_meander_poly(n: int, cap: int | None = None) -> BivarPoly:
    """Sum of t^(closed curves against the rainbow) * u^(crossings) over all
    matchings of {1..2n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, map(odd_double_factorial, range(1, n + 1)), ENUMERATION_BUDGET)
    return _systems(n, False)


def meander_poly(n: int, cap: int | None = None, jobs: int = 1) -> BivarPoly:
    """Double-enumeration analogue of ``semi_meander_poly``: both diagrams of
    the system range over all matchings, so ((2n-1)!!)^2 pairs are visited.
    ``jobs`` is ignored (the enumeration runs in one process); it is kept for
    callers that pass it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n, cap, (odd_double_factorial(k) ** 2 for k in range(1, n + 1)), ENUMERATION_BUDGET)
    return _systems(n, True)


def kronecker_poly(kind: str, n: int, cap: int | None = None) -> BivarPoly:
    """Q_n (kind "semi") or P_n ("meander") from one loop sweep, which reads
    the t- and u-digits off its packed amplitude (``fock.loop_sweep``).  The
    sweep checks its own size, so no (2n-1)!! is built."""
    if n < 1 or kind not in ("semi", "meander"):
        raise ValueError(f"need n >= 1 and kind 'semi' or 'meander', got {n}, {kind!r}")
    return BivarPoly(loop_sweep(n, kind == "meander", cap))


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
