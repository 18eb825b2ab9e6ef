"""Scalar coefficient rings for the deformed Fock-space computations.

Three regimes are used throughout the package, selected by :class:`Mode`:

* formal mode -- scalars are :class:`QPoly`, polynomials in the deformation
  parameter ``q`` with exact integer/rational coefficients.  This is the
  default; identities checked in this mode are polynomial identities.
* exact numeric mode -- ``q`` is pinned to a rational in (-1, 1), decimal
  command-line text included, and scalars are ``fractions.Fraction``.
* floating mode -- ``q`` is a float in (-1, 1) and scalars are floats or
  complex, for word-level states with complex coordinates only.

``Mode.series`` and ``Mode.shifted`` build every ``q``-series and ``q``-power
product.  Only the exact moment sweeps of :mod:`meanderq.fock` branch on a
formal ``q``: they carry packed ints, a formal coefficient's value at
``q = 2^C`` or an exact one's numerator over a power of ``q``'s denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ExactCoeff = Union[int, Fraction]


def _check_exact(c) -> None:
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


class QPoly:
    """Polynomial in ``q`` with exact coefficients, stored densely ascending.

    Immutable; trailing zero coefficients are stripped so equality is
    structural.  Mixed int/Fraction coefficients are allowed (they compare
    and hash consistently in Python).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            _check_exact(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "QPoly":
        """A ring result: ``coeffs`` is a tuple of exact coefficients whose
        last one, if any, is non-zero, so neither check nor strip is needed."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def const(cls, c: ExactCoeff) -> "QPoly":
        return cls((c,))

    @classmethod
    def zero(cls) -> "QPoly":
        return cls._trusted(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls._trusted((1,))

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power")
        return cls._trusted((0,) * k + (1,))

    def coefficient(self, k: int) -> ExactCoeff:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly._trusted(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return QPoly._trusted(tuple(out))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # A product of non-zero exact numbers is non-zero, so no strip.
        if isinstance(other, (int, Fraction)):
            if not other:
                return QPoly._trusted(())
            return QPoly._trusted(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly._trusted(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly._trusted(tuple(out))

    __rmul__ = __mul__

    def shifted(self, k: int, c=1) -> "QPoly":
        """``self * c * q^k`` for ``k >= 0`` and an exact scalar or QPoly ``c``,
        as one shift of the scaled coefficients."""
        if isinstance(c, QPoly):
            return (self * c).shifted(k)
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"exact scalar expected, got {type(c).__name__}")
        if k < 0:
            raise ValueError("negative power")
        if not c or not self.coeffs:
            return QPoly._trusted(())
        cs = self.coeffs if c == 1 else tuple(a * c for a in self.coeffs)
        return QPoly._trusted((0,) * k + cs if k else cs)

    def __pow__(self, k: int) -> "QPoly":
        if k < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "QPoly":
        return self

    def at(self, q):
        """Evaluate at a numeric ``q`` (Horner); exact when ``q`` is exact."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, ascending powers."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            var = "q" if k == 1 else f"q^{k}"
            if c == 1:
                term = var
            elif c == -1:
                term = f"-{var}"
            elif isinstance(c, Fraction) and c.denominator != 1:
                term = f"({c}){var}"
            else:
                term = f"{c}{var}"
            parts.append(term)
        text = "+".join(parts)
        return text.replace("+-", "-")

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs!r})"


_SELF_CONJUGATE = frozenset((int, Fraction, QPoly))


def conjugate(x):
    """Complex conjugate; the identity on exact scalars and QPoly, which are
    returned as they are (``Fraction.conjugate`` builds a copy)."""
    if type(x) in _SELF_CONJUGATE:
        return x
    return x.conjugate()


@dataclass(frozen=True, eq=False)
class Mode:
    """Coefficient-ring selector.

    ``q is None`` means formal mode (QPoly scalars).  A Fraction pins ``q``
    to an exact rational, a float to floating mode (word-level states only);
    both must lie in (-1, 1).  Equality distinguishes the ring, not just the
    value: the exact rational 1/2 and the float 0.5 are different modes.
    """

    q: Fraction | float | None = None

    def __eq__(self, other):
        if not isinstance(other, Mode):
            return NotImplemented
        return type(self.q) is type(other.q) and self.q == other.q

    def __hash__(self):
        return hash((type(self.q), self.q))

    def __post_init__(self):
        q = self.q
        if q is None:
            return
        if isinstance(q, int) and not isinstance(q, bool):
            object.__setattr__(self, "q", Fraction(q))
            q = self.q
        if not isinstance(q, (Fraction, float)):
            raise TypeError("q must be None, a Fraction or a float")
        if not -1 < q < 1:
            raise ValueError(f"q must lie in (-1, 1), got {q}")

    @property
    def is_formal(self) -> bool:
        return self.q is None

    @property
    def is_exact(self) -> bool:
        return self.q is None or isinstance(self.q, Fraction)

    def zero(self):
        return QPoly.zero() if self.q is None else self.q * 0

    def one(self):
        return QPoly.one() if self.q is None else self.q**0

    def q_power(self, k: int):
        if self.q is None:
            return QPoly.q_power(k)
        return self.q**k

    def series(self, coeffs):
        """sum_k coeffs[k] q^k: one checked ``QPoly`` at formal q, else Horner's rule."""
        if self.q is None:
            return QPoly(coeffs)
        value = self.zero()
        for c in reversed(coeffs):
            value = value * self.q + c
        return value

    def shifted(self, c, k: int, f=1):
        """``c * f * q^k``: one ``QPoly.shifted`` if ``c`` is a formal ``QPoly``."""
        if self.q is None and type(c) is QPoly:
            return c.shifted(k, f)
        return c * (f * self.q_power(k))


FORMAL = Mode()


def parse_q(text: str) -> Mode:
    """Parse a command-line ``q``: '' -> formal, else exact ('0.5' -> 1/2)."""
    text = text.strip()
    if text in ("", "formal"):
        return FORMAL
    return Mode(Fraction(text))
