"""Torus knots as an external oracle: invariants and stick counts of closed form.

T(p, q), gcd(p, q) = 1, has the grid presentation with n = p + q chords in
which chord i joins labels i and ((i + p - 1) mod n) + 1.  Its Alexander
polynomial is (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), its determinant
|Delta(-1)|, and its stick number 2q when p < q < 2p (Jin, "Polygon indices
and superbridge indices of torus knots and links", JKTR 1997), a lower bound
that no correct polygon can beat.  Its crossing number is
min(p(q - 1), q(p - 1)) (Murasugi 1991), so Negami's lower bound in that
crossing number bounds every polygon of it too.
"""

from math import gcd

import pytest
from conftest import pdivexact_schoolbook, pmul_schoolbook

from stickbound.arcpres import ArcPresentation, diagram
from stickbound.bounds import negami_bounds, theorem2_upper
from stickbound.construct import build_full
from stickbound.invariants import LaurentPoly, alexander, determinant

PAIRS = [(p, q) for q in range(3, 21) for p in range(2, q) if gcd(p, q) == 1]


def torus(p, q):
    """The grid presentation of T(p, q) with p + q chords."""
    n = p + q
    return ArcPresentation([tuple(sorted((i, (i + p - 1) % n + 1))) for i in range(1, n + 1)])


def torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized."""

    def power_less_one(k):
        return [-1] + [0] * (k - 1) + [1]

    num = pmul_schoolbook(power_less_one(p * q), power_less_one(1))
    den = pmul_schoolbook(power_less_one(p), power_less_one(q))
    return LaurentPoly.normalized(pdivexact_schoolbook(num, den))


def test_the_oracle_covers_every_coprime_pair_up_to_20():
    assert len(PAIRS) == 108
    assert str(torus_alexander(2, 3)) == "t^2 - t + 1"
    assert torus(4, 5).chords[:2] == ((1, 5), (2, 6))


@pytest.mark.parametrize("p, q", PAIRS, ids=[f"T({p},{q})" for p, q in PAIRS])
def test_torus_knot_matches_its_closed_forms(p, q):
    ap = torus(p, q)
    delta = torus_alexander(p, q)
    assert alexander(diagram(ap)) == delta
    assert determinant(ap) == abs(delta(-1))
    knot, cert = build_full(ap)
    assert cert.invariants_match and cert.determinant == abs(delta(-1))
    bound = theorem2_upper(ap.n)
    assert cert.sticks_final <= bound
    if q == p + 1:
        assert cert.sticks_final == bound
    if q < 2 * p:
        assert cert.sticks_final >= 2 * q
    assert cert.sticks_final >= negami_bounds(min(p * (q - 1), q * (p - 1))).lower_ceiling


@pytest.mark.parametrize("p, q", PAIRS, ids=[f"T({p},{q})" for p, q in PAIRS])
def test_torus_knot_without_the_top_move_keeps_two_more_sticks(p, q):
    ap = torus(p, q)
    _, cert = build_full(ap, top=False)
    assert cert.top_reduction == "skipped:disabled" and cert.invariants_match
    assert cert.sticks_final == ap.n + cert.beta[0] + 1
    if q < 2 * p:
        assert cert.sticks_final >= 2 * q
