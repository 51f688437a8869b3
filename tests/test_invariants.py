"""Diagram invariants, checked against independent computations.

The polynomial pipeline here is deliberately home-grown (sparse unit-monomial
elimination + fraction-free dense elimination), so the tests lean on an
external oracle: the same relation matrix handed to sympy's symbolic
determinant, plus frozen values for knots whose invariants are classical.
"""

import pytest
import sympy

from stickbound.arcpres import Diagram, diagram, random_presentation
from stickbound.errors import InternalVerificationError, InvalidArcPresentation
from stickbound.construct import build_full, build_k1
from stickbound.invariants import (
    LaurentPoly,
    alexander,
    determinant,
    match,
    project,
)


# ---------------------------------------------------------------- LaurentPoly


def test_laurent_normalized_strips_and_fixes_sign():
    assert LaurentPoly.normalized([0, -1, 1, -1, 0]).coeffs == (1, -1, 1)
    assert LaurentPoly.normalized([2]).coeffs == (2,)
    with pytest.raises(InternalVerificationError):
        LaurentPoly.normalized([0, 0])


def test_laurent_eval_and_str():
    p = LaurentPoly((1, -3, 1))
    assert p(1) == -1
    assert p(-1) == 5
    assert str(p) == "t^2 - 3*t + 1"
    assert str(LaurentPoly((1,))) == "1"
    assert p.span() == 2


def test_laurent_reversed():
    assert LaurentPoly((2, -3, 1)).reversed().coeffs == (1, -3, 2)


# ------------------------------------------------------------------ alexander


def test_alexander_unknot(ap3):
    a = alexander(diagram(ap3))
    assert a.coeffs == (1,)
    assert determinant(diagram(ap3)) == 1


def test_alexander_trefoil(ap5):
    d = diagram(ap5)
    assert str(alexander(d)) == "t^2 - t + 1"
    assert determinant(d) == 3


def test_alexander_figure_eight(ap6_fig8):
    d = diagram(ap6_fig8)
    assert str(alexander(d)) == "t^2 - 3*t + 1"
    assert determinant(d) == 5


def _sympy_alexander(d):
    """Independent route: same Wirtinger relations, sympy determinant."""
    c = len(d.crossings)
    if c == 0:
        return (1,)
    t = sympy.Symbol("t")
    m = sympy.zeros(c, c)
    pos_of = {}
    for p, (cid, over) in enumerate(d.gauss):
        pos_of.setdefault(cid, {})[over] = p
    for cid, cr in enumerate(d.crossings):
        a = d.arcs[pos_of[cid][False]]
        b = (a + 1) % c
        o = d.arcs[pos_of[cid][True]]
        if cr.sign > 0:
            m[cid, a] += t
            m[cid, b] += -1
            m[cid, o] += 1 - t
        else:
            m[cid, a] += 1
            m[cid, b] += -t
            m[cid, o] += t - 1
    minor = m[1:, 1:]
    poly = sympy.Poly(sympy.expand(minor.det()), t)
    coeffs = list(reversed(poly.all_coeffs()))  # lowest first
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if coeffs and coeffs[0] < 0:
        coeffs = [-x for x in coeffs]
    return tuple(int(x) for x in coeffs)


@pytest.mark.parametrize("seed", range(12))
def test_alexander_agrees_with_sympy(seed):
    ap = random_presentation(5 + seed % 6, 5000 + seed)
    d = diagram(ap)
    assert alexander(d).coeffs == _sympy_alexander(d)


def test_alexander_self_checks_hold_broadly():
    for seed in range(25):
        d = diagram(random_presentation(4 + seed % 8, 300 + seed))
        a = alexander(d)
        assert a(1) in (1, -1)
        assert a.reversed() == a
        assert abs(a(-1)) % 2 == 1
        assert abs(a(-1)) == determinant(d)  # the two routes agree


def test_determinant_positive_odd(ap6_fig8):
    assert determinant(diagram(ap6_fig8)) % 2 == 1


def test_diagram_rejects_unbalanced_gauss():
    with pytest.raises(InvalidArcPresentation):
        Diagram(crossings=(), gauss=((0, True),))


# ----------------------------------------------------------------- projection


def test_project_reports_generic_direction(ap5):
    pd = project(build_k1(ap5))
    assert pd.attempt >= 0
    assert pd.direction[2] == 1
    assert len(pd.diagram.crossings) >= 5


def test_project_deterministic(ap5):
    k = build_k1(ap5)
    assert project(k).diagram == project(k).diagram


def test_project_accepts_raw_vertex_list():
    square = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    pd = project(square)
    assert pd.diagram.crossings == ()


def test_project_refuses_polygon_meeting_itself():
    bowtie = [(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)]
    with pytest.raises(InternalVerificationError):
        project(bowtie)


def test_projection_preserves_invariants(ap5, ap6_fig8):
    for ap in (ap5, ap6_fig8):
        rep = match(diagram(ap), project(build_k1(ap)))
        assert rep.ok


# ---------------------------------------------------------------------- match


def test_match_same_knot(ap5):
    rep = match(diagram(ap5), diagram(ap5))
    assert rep.ok
    assert rep.det1 == rep.det2 == 3


def test_match_flags_different_knots(ap3, ap5):
    rep = match(diagram(ap5), diagram(ap3))
    assert not rep.ok
    assert (rep.det1, rep.det2) == (3, 1)


def test_match_full_pipeline_output(ap6_fig8):
    knot, cert = build_full(ap6_fig8)
    rep = match(diagram(ap6_fig8), project(knot))
    assert rep.ok
    assert str(rep.alex1) == "t^2 - 3*t + 1"
