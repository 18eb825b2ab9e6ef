"""The two exception types shared across the package, and the one size-limit policy."""

from typing import Iterable

ENUMERATION_BUDGET = 2_027_025  # 15!!: objects one enumeration may stream
SWEEP_BUDGET = 1_300_000  # width-weighted scalar products one moment sweep may make


class EnumerationCapError(ValueError):
    """An enumeration or moment computation exceeds its size limit."""


def check_size(n: int, cap: int | None, size: Iterable[int], budget: int,
               hint: str = "pass cap= or --cap to allow it") -> None:
    """Refuse a route of order n that is too large, before it does any work.

    An explicit ``cap`` is the largest order allowed and is then the only
    check.  Otherwise ``size`` yields running counts of what the route will
    hold, never decreasing and ending at its closed-form total; counting
    stops at the first count above ``budget``, so a refusal is cheap at any n.
    ``hint`` tells the caller how to get past a refusal."""
    if cap is not None:
        if n > cap:
            raise EnumerationCapError(f"order {n} exceeds the cap {cap}")
        return
    for count in size:
        if count > budget:
            raise EnumerationCapError(f"order {n} exceeds the size budget {budget:,} ({hint})")


class GroundSetError(ValueError):
    """Two combinatorial objects live on different ground sets."""
