"""Exact predicate layer: every verdict here is load-bearing for certificates."""

import random
from fractions import Fraction

import pytest

from stickbound.arcpres import random_presentation
from stickbound.construct import build_full
from stickbound.geom import (
    DISJOINT,
    IMPROPER,
    SHARED_ENDPOINT,
    bbox,
    binding_points,
    boxes_apart,
    orient2d,
    point_on_segment3,
    polygon_embedded,
    seg2_line_intersection,
    seg3_relation,
    seg_triangle_intersection,
    triangle_pierced,
)

F = Fraction


def test_orient2d_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0
    assert orient2d((0, 0), (0, 1), (1, 0)) < 0
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


def test_binding_points_on_unit_circle_and_distinct():
    for n in (2, 3, 7, 12):
        for retry in (0, 1, 5):
            pts = binding_points(n, retry)
            assert len(pts) == n
            assert len(set(pts)) == n
            for x, y in pts:
                assert x * x + y * y == 1


def test_binding_points_rational():
    for x, y in binding_points(9, 3):
        assert isinstance(x, Fraction) and isinstance(y, Fraction)


@pytest.mark.parametrize(
    "s1,s2,want",
    [
        # skew
        (((0, 0, 0), (1, 0, 0)), ((0, 0, 1), (0, 1, 2)), DISJOINT),
        # proper crossing in a plane
        (((0, 0, 0), (2, 2, 0)), ((0, 2, 0), (2, 0, 0)), IMPROPER),
        # T-contact: endpoint of one in the interior of the other
        (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (1, 1, 0)), IMPROPER),
        # meeting at a mutual endpoint
        (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0)), SHARED_ENDPOINT),
        # collinear with positive-length overlap
        (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)), IMPROPER),
        # collinear, touching only at one shared endpoint
        (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0)), SHARED_ENDPOINT),
        # collinear, disjoint
        (((0, 0, 0), (1, 0, 0)), ((2, 0, 0), (3, 0, 0)), DISJOINT),
        # parallel, offset
        (((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (1, 1, 0)), DISJOINT),
    ],
)
def test_seg3_relation(s1, s2, want):
    assert seg3_relation(s1, s2) == want
    assert seg3_relation(s2, s1) == want


def test_seg3_relation_rejects_degenerate():
    with pytest.raises(ValueError):
        seg3_relation(((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 0)))


TRI = ((0, 0, 0), (4, 0, 0), (0, 4, 0))


def test_seg_triangle_transversal_point():
    kind, p = seg_triangle_intersection(TRI, ((1, 1, -1), (1, 1, 1)))
    assert kind == "point" and p == (1, 1, 0)


def test_seg_triangle_miss():
    assert seg_triangle_intersection(TRI, ((5, 5, -1), (5, 5, 1))) is None
    assert seg_triangle_intersection(TRI, ((1, 1, 1), (1, 1, 2))) is None


def test_seg_triangle_coplanar_chord():
    kind, p, q = seg_triangle_intersection(TRI, ((-1, 1, 0), (5, 1, 0)))
    assert kind == "segment"
    assert {p, q} == {(F(0), F(1), F(0)), (F(3), F(1), F(0))}


def test_seg_triangle_touch_at_vertex():
    hit = seg_triangle_intersection(TRI, ((4, 0, -1), (4, 0, 1)))
    assert hit == ("point", (4, 0, 0))


def test_triangle_pierced_ignore_semantics():
    s = ((4, 0, -1), (4, 0, 1))
    assert triangle_pierced(TRI, s)
    assert not triangle_pierced(TRI, s, ignore=frozenset({(4, 0, 0)}))
    # positive-length contact cannot be excused pointwise
    chord = ((-1, 1, 0), (5, 1, 0))
    assert triangle_pierced(TRI, chord, ignore=frozenset({(0, 1, 0), (3, 1, 0)}))


def test_point_on_segment3():
    s = ((0, 0, 0), (2, 2, 2))
    assert point_on_segment3((1, 1, 1), s)
    assert point_on_segment3((0, 0, 0), s)
    assert not point_on_segment3((3, 3, 3), s)
    assert not point_on_segment3((1, 1, 0), s)


def test_polygon_embedded_accepts_square():
    rep = polygon_embedded([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    assert rep.ok and bool(rep)


def test_polygon_embedded_allows_collinear_continuation():
    rep = polygon_embedded([(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)])
    assert rep.ok


def test_polygon_embedded_flags_crossing():
    # bowtie: edges 0 and 2 cross
    rep = polygon_embedded([(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)])
    assert not rep.ok
    assert any(pair[:2] == (0, 2) for pair in rep.failures)


def test_polygon_embedded_rejects_too_short():
    with pytest.raises(ValueError):
        polygon_embedded([(0, 0, 0), (1, 0, 0)])


def test_seg2_line_intersection():
    s, u, p = seg2_line_intersection(((0, 0), (2, 2)), ((0, 2), (2, 0)))
    assert (s, u, p) == (F(1, 2), F(1, 2), (1, 1))
    assert seg2_line_intersection(((0, 0), (1, 0)), ((0, 1), (1, 1))) is None


def test_seg_triangle_rejects_degenerate():
    with pytest.raises(ValueError):
        seg_triangle_intersection(((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((5, 5, 5), (6, 5, 5)))
    with pytest.raises(ValueError):
        triangle_pierced(TRI, ((9, 9, 9), (9, 9, 9)))


def embedded_reference(vertices):
    """Unfiltered all-pairs loop: the verdicts polygon_embedded must reproduce."""
    m = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    failures = []
    for i in range(m):
        for j in range(i + 1, m):
            rel = seg3_relation(edges[i], edges[j])
            consecutive = j == i + 1 or (i == 0 and j == m - 1)
            if rel != (SHARED_ENDPOINT if consecutive else DISJOINT):
                failures.append((i, j, rel))
    return tuple(failures)


def test_bbox_is_exact_hull_of_the_points():
    box = bbox(((F(1, 3), 2, -1), (F(-1, 2), 2, 5), (0, F(7, 3), 0)))
    assert box == ((F(-1, 2), 2, -1), (F(1, 3), F(7, 3), 5))


@pytest.mark.parametrize(
    "b1,b2,apart",
    [
        (((0, 0, 0), (1, 1, 1)), ((2, 0, 0), (3, 1, 1)), True),
        (((0, 0, 0), (1, 1, 1)), ((0, 0, 2), (1, 1, 3)), True),
        (((0, 0, 0), (1, 1, 1)), ((0, F(1, 1000) + 1, 0), (1, 2, 1)), True),
        (((0, 0, 0), (1, 1, 1)), ((1, 1, 1), (2, 2, 2)), False),  # corner
        (((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (2, 1, 1)), False),  # face
        (((0, 0, 1), (2, 2, 1)), ((1, -1, 1), (3, 1, 1)), False),  # flat, one height
        (((0, 0, 0), (4, 4, 4)), ((1, 1, 1), (2, 2, 2)), False),  # nested
    ],
)
def test_boxes_apart_only_when_strictly_separated(b1, b2, apart):
    assert boxes_apart(b1, b2) is apart
    assert boxes_apart(b2, b1) is apart


# Non-consecutive segment pairs whose boxes touch but are not apart: the filter
# must pass each to seg3_relation, and each is a contact polygon_embedded flags.
TOUCHING = [
    # T-contact at a box corner: (1,0,0) is a corner of the second box and
    # interior to the first segment
    (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (1, 1, 1)), IMPROPER),
    # collinear overlap on a shared box face (the plane y = 0, z = 0)
    (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)), IMPROPER),
    # two horizontals at one height crossing: zero-height boxes at z = 1
    (((0, 0, 1), (2, 2, 1)), ((0, 2, 1), (2, 0, 1)), IMPROPER),
    # collinear pair meeting end to end: boxes share only the face x = 1
    (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0)), SHARED_ENDPOINT),
]


@pytest.mark.parametrize("s1,s2,rel", TOUCHING)
def test_touching_boxes_reach_the_full_predicate(s1, s2, rel):
    assert not boxes_apart(bbox(s1), bbox(s2))
    assert seg3_relation(s1, s2) == rel
    # close the two segments into a hexagon in which they are edges 0 and 3
    (a, b), (c, d) = s1, s2
    verts = [a, b, (50, 37, -20), c, d, (-41, 60, 33)]
    rep = polygon_embedded(verts)
    assert (0, 3, rel) in rep.failures
    assert rep.failures == embedded_reference(verts)


def _random_polygon(rng):
    m = rng.randint(4, 9)
    while True:
        verts = [
            tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3))
            for _ in range(m)
        ]
        if all(verts[i] != verts[i - 1] for i in range(m)):
            return verts


def test_filtered_embedding_check_agrees_with_unfiltered_loop():
    # a coarse grid of half-integers makes touching boxes, collinear runs and
    # contacts on box boundaries common
    rng = random.Random(20151210)
    verdicts = set()
    for _ in range(400):
        verts = _random_polygon(rng)
        rep = polygon_embedded(verts)
        want = embedded_reference(verts)
        assert rep.failures == want
        assert rep.ok == (not want)
        verdicts.add(rep.ok)
        verdicts.update(rel for _, _, rel in want)
    assert verdicts == {True, False, IMPROPER, SHARED_ENDPOINT}


def test_crossing_two_edges_is_rejected_by_both_loops():
    knot, _ = build_full(random_presentation(9, 4))
    verts = list(knot.vertices)
    assert polygon_embedded(verts).ok and not embedded_reference(verts)
    # pull vertex 1 through the midpoint of a far edge so edge 0 or 1 crosses it
    m = len(verts)
    k = m // 2
    p, q = verts[k], verts[k + 1]
    mid = tuple((x + y) / 2 for x, y in zip(p, q))
    a = verts[0]
    verts[1] = tuple(2 * y - x for x, y in zip(a, mid))
    rep = polygon_embedded(verts)
    assert not rep.ok
    assert (0, k, IMPROPER) in rep.failures
    assert rep.failures == embedded_reference(verts)
