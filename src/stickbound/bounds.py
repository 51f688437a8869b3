"""Stick-number bounds as functions of crossing number or arc index.

All values are exact (integers or fractions); the one irrational quantity,
the square-root lower bound, is reported both as an exact integer ceiling and
as a correctly rounded 3-decimal string.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import InternalVerificationError


def bae_park_upper(c: int, nonalternating_prime: bool = False) -> int:
    """Arc index bound: c + 2 in general, c + 1 for nonalternating prime knots."""
    if c < 3:
        raise ValueError("crossing number must be at least 3")
    return c + 1 if nonalternating_prime else c + 2


def theorem2_upper(a: int) -> Fraction:
    """Stick bound 3(a-1)/2 for a knot with arc index a."""
    if a < 2:
        raise ValueError("arc index must be at least 2")
    return Fraction(3 * (a - 1), 2)


def huh_oh_upper(c: int, nonalternating_prime: bool = False) -> Fraction:
    """Stick bound from crossing number: 3(c+1)/2, or 3c/2 when nonalternating prime.

    Equals theorem2_upper(bae_park_upper(c)) term by term.
    """
    if c < 3:
        raise ValueError("crossing number must be at least 3")
    return Fraction(3 * c, 2) if nonalternating_prime else Fraction(3 * (c + 1), 2)


class NegamiBounds(NamedTuple):
    """Stick range (5 + sqrt(25 + 8(c-2)))/2 <= s <= 2c."""

    c: int
    lower_ceiling: int
    lower_decimal: str
    upper: int


def negami_bounds(c: int) -> NegamiBounds:
    if c < 3:
        raise ValueError("crossing number must be at least 3")
    disc = 25 + 8 * (c - 2)
    r = isqrt(disc)
    if r * r == disc:
        ceiling = -((-(5 + r)) // 2)  # exact ceil((5 + r)/2)
    else:
        ceiling = (5 + r) // 2 + 1
    with localcontext() as ctx:
        ctx.prec = 50
        val = (5 + Decimal(disc).sqrt()) / 2
        dec = str(val.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))
    return NegamiBounds(c=c, lower_ceiling=ceiling, lower_decimal=dec, upper=2 * c)


class BoundReport(NamedTuple):
    c: int
    nonalternating_prime: bool
    negami: NegamiBounds
    arc_index_upper: int
    stick_upper: Fraction


def bound_report(c: int, nonalternating_prime: bool = False) -> BoundReport:
    """All bounds for one crossing number, with the chain identity asserted."""
    a = bae_park_upper(c, nonalternating_prime)
    via_arc = theorem2_upper(a)
    direct = huh_oh_upper(c, nonalternating_prime)
    if via_arc != direct:
        raise InternalVerificationError(
            f"bound chain broke at c={c}: {via_arc} != {direct}"
        )
    return BoundReport(c, nonalternating_prime, negami_bounds(c), a, direct)
