"""Diagram invariants, checked against independent computations.

The polynomial pipeline here is deliberately home-grown (sparse unit-monomial
elimination + fraction-free dense elimination), so the tests lean on an
external oracle: the same relation matrix handed to sympy's symbolic
determinant, plus frozen values for knots whose invariants are classical.
"""

import random

import pytest
import sympy

from stickbound.arcpres import Diagram, _gauss_diagram, diagram, random_presentation
from stickbound.errors import InternalVerificationError, InvalidArcPresentation
from stickbound.construct import build_full, build_k1
from stickbound.geom import orient2d, seg2_line_intersection
from stickbound.invariants import (
    LaurentPoly,
    _project_once,
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


def _on_open_segment2(p, a, b):
    if orient2d(a, b, p) != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < length2


def project_once_reference(verts, shadows):
    """The former projection attempt, with separate checks for zero-length
    edge shadows, equal vertex shadows and vertices on edges ahead of the
    collinear-joint check and the crossing loop."""
    m = len(verts)
    for i in range(m):
        if shadows[i] == shadows[(i + 1) % m]:
            return None, "nonzero-edge-shadows"
    for i in range(m):
        if orient2d(shadows[i - 1], shadows[i], shadows[(i + 1) % m]) == 0:
            return None, "no-collinear-joints"
    if len(set(shadows)) != m:
        return None, "distinct-vertex-shadows"
    for i in range(m):
        p = shadows[i]
        for j in range(m):
            if i == j or i == (j + 1) % m:
                continue
            if _on_open_segment2(p, shadows[j], shadows[(j + 1) % m]):
                return None, "no-vertex-on-edge"
    hits = []
    for i in range(m):
        a, b = shadows[i], shadows[(i + 1) % m]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            c, d = shadows[j], shadows[(j + 1) % m]
            res = seg2_line_intersection((a, b), (c, d))
            if res is None:
                if orient2d(a, b, c) == 0:
                    xs1 = sorted((a, b))
                    xs2 = sorted((c, d))
                    if max(xs1[0], xs2[0]) <= min(xs1[1], xs2[1]):
                        return None, "no-parallel-overlap"
                continue
            s, u, point = res
            if 0 < s < 1 and 0 < u < 1:
                hits.append((i, j, s, u, point))
            elif 0 <= s <= 1 and 0 <= u <= 1:
                return None, "no-vertex-on-edge"
    seen = set()
    for _, _, _, _, point in hits:
        if point in seen:
            return None, "no-triple-points"
        seen.add(point)
    over_under = []
    for i, j, s, u, point in hits:
        zi = verts[i][2] + s * (verts[(i + 1) % m][2] - verts[i][2])
        zj = verts[j][2] + u * (verts[(j + 1) % m][2] - verts[j][2])
        if zi == zj:
            raise InternalVerificationError("polygon edges meet in space")
        over_under.append((i, j, s, u, point) if zi > zj else (j, i, u, s, point))
    edges = {e: (shadows[e], shadows[(e + 1) % m]) for e in range(m)}
    return _gauss_diagram(over_under, edges.get, range(m)), None


def _attempt(project_once, verts):
    """("accept", diagram), ("reject", None) or ("raise", None)."""
    shadows = [v[:2] for v in verts]
    try:
        diag, _ = project_once(tuple(verts), shadows)
    except InternalVerificationError:
        return "raise", None
    return ("accept", diag) if diag is not None else ("reject", None)


def test_project_once_agrees_with_the_separate_checks():
    # a 4 x 4 grid of shadows makes every kind of degeneracy common
    rng = random.Random(2718)
    outcomes = set()
    for _ in range(6000):
        m = rng.randint(3, 7)
        verts = [
            (rng.randrange(4), rng.randrange(4), rng.randrange(3)) for _ in range(m)
        ]
        got = _attempt(_project_once, verts)
        assert got == _attempt(project_once_reference, verts), verts
        outcomes.add(got[0])
    assert outcomes == {"accept", "reject", "raise"}


@pytest.mark.parametrize(
    "shadows,former,now",
    [
        # vertex 3 on edge 0, which is not one of its own edges
        ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], "no-vertex-on-edge", "no-vertex-on-edge"),
        # vertices 1 and 4 have the same shadow
        (
            [(0, 0), (2, 1), (4, 0), (4, 3), (2, 1), (0, 2)],
            "distinct-vertex-shadows",
            "no-vertex-on-edge",
        ),
        # edge 1 has a zero-length shadow
        ([(0, 0), (4, 0), (4, 0), (4, 4), (0, 4)], "nonzero-edge-shadows", "no-collinear-joints"),
    ],
)
def test_project_once_still_rejects_what_the_deleted_checks_caught(shadows, former, now):
    verts = tuple((x, y, 0) for x, y in shadows)
    assert project_once_reference(verts, shadows) == (None, former)
    assert _project_once(verts, shadows) == (None, now)


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
