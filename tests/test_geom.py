"""Exact predicate layer: every verdict here is load-bearing for certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import capped_polygon
from stickbound import geom
from stickbound.arcpres import random_presentation
from stickbound.construct import StickKnot, build_full, stick_count
from stickbound.geom import (
    DISJOINT,
    IMPROPER,
    SHARED_ENDPOINT,
    Plane,
    _cross3,
    _dot3,
    _sub3,
    bbox,
    binding_points,
    boxes_apart,
    convex_failure,
    joint,
    lattice,
    orient2d,
    polygon_embedded,
    seg3_relation,
    seg_triangle_intersection,
    triangle_pierced,
)

F = Fraction


def test_orient2d_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0
    assert orient2d((0, 0), (0, 1), (1, 0)) < 0
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


def test_convex_failure_names_the_first_bad_point():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert convex_failure(square) is None
    assert convex_failure(square[::-1]) == 0  # clockwise
    assert convex_failure([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]) == 1  # collinear
    assert convex_failure([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)]) == 2  # reflex
    pentagon = [(-3, -4), (0, -5), (5, 0), (0, 5), (-3, 4)]
    assert convex_failure(pentagon) is None
    # the pentagram turns left everywhere and winds a second time at point 3
    pentagram = [pentagon[k] for k in (0, 2, 4, 1, 3)]
    turns = [orient2d(pentagram[k - 1], pentagram[k], pentagram[(k + 1) % 5]) for k in range(5)]
    assert turns == [1] * 5
    assert convex_failure(pentagram) == 3


def strictly_convex_by_edges(pts):
    """O(n^2) reference: every point off an edge lies strictly left of it."""
    m = len(pts)
    return all(
        orient2d(pts[i], pts[(i + 1) % m], pts[k]) > 0
        for i in range(m)
        for k in range(m)
        if k not in (i, (i + 1) % m)
    )


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=8))
def test_convex_failure_agrees_with_every_edge_test(pts):
    assert (convex_failure(pts) is None) == strictly_convex_by_edges(pts)


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


def binding_points_on_fractions(n, retry):
    """The former binding_points: t and the circle map on Fractions."""
    pts = []
    for k in range(1, n + 1):
        t = Fraction(2 * k - (n + 1), 2)
        if retry:
            t += Fraction(k * k if retry <= 32 else k * k * k, 100 + retry)
        pts.append(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
    return pts


def test_binding_points_match_the_fraction_circle_map():
    for n in range(2, 41):
        for retry in (0, 1, 2, 7, 32, 33, 64):
            assert binding_points(n, retry) == binding_points_on_fractions(n, retry)


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


def point_on_segment3(p, s):
    """True iff p lies on the closed segment s (exact)."""
    a, b = s
    w = _sub3(b, a)
    if _cross3(_sub3(p, a), w) != (0, 0, 0):
        return False
    d = _dot3(_sub3(p, a), w)
    return 0 <= d <= _dot3(w, w)


def test_point_on_segment3():
    s = ((0, 0, 0), (2, 2, 2))
    assert point_on_segment3((1, 1, 1), s)
    assert point_on_segment3((0, 0, 0), s)
    assert not point_on_segment3((3, 3, 3), s)
    assert not point_on_segment3((1, 1, 0), s)


def test_polygon_embedded_accepts_square():
    rep = polygon_embedded([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    assert rep.ok


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


def test_preparing_a_degenerate_plane_raises():
    with pytest.raises(ValueError, match="degenerate triangle"):
        Plane(((0, 0, 0), (1, 1, 1), (2, 2, 2)))


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


# small ints and fractions, so equal coordinates, an int and a Fraction of
# one value included, are common
box_coords = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(box_coords, box_coords, box_coords), min_size=2, max_size=3))
def test_bbox_is_the_sorted_box(points):
    """Segments take bbox's two-point path, triangles the sorted one; both
    give the box of sorted coordinates, down to which of two tied ends, int
    or Fraction, stands for lo and for hi."""
    x, y, z = map(sorted, zip(*points))
    want = (x[0], y[0], z[0]), (x[-1], y[-1], z[-1])
    got = bbox(tuple(points))
    assert got == want
    assert [type(v) for end in got for v in end] == [type(v) for end in want for v in end]


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


# ------------------------------------------------------------ integer lattice


def seg3_relation_dividing(s1, s2):
    """The former seg3_relation, which divides the parameters out."""
    a, b = s1
    c, d = s2
    w1 = geom._sub3(b, a)
    w2 = geom._sub3(d, c)
    r = geom._sub3(c, a)
    n = geom._cross3(w1, w2)
    if n != (0, 0, 0):
        if geom._dot3(r, n) != 0:
            return DISJOINT
        nn = geom._dot3(n, n)
        s = Fraction(geom._dot3(geom._cross3(r, w2), n)) / nn
        u = Fraction(geom._dot3(geom._cross3(r, w1), n)) / nn
        if 0 <= s <= 1 and 0 <= u <= 1:
            if (s == 0 or s == 1) and (u == 0 or u == 1):
                return SHARED_ENDPOINT
            return IMPROPER
        return DISJOINT
    if geom._cross3(r, w1) != (0, 0, 0):
        return DISJOINT
    ww = geom._dot3(w1, w1)
    tc = Fraction(geom._dot3(r, w1)) / ww
    td = Fraction(geom._dot3(geom._sub3(d, a), w1)) / ww
    lo = max(min(tc, td), Fraction(0))
    hi = min(max(tc, td), Fraction(1))
    if lo > hi:
        return DISJOINT
    if lo == hi:
        return SHARED_ENDPOINT
    return IMPROPER


def _on_line(a, b, t):
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def _segment_pairs(rng, count):
    """(kind, s1, s2) on a half-integer grid; the second segment shares an
    endpoint, ends inside the first, lies on its line, or is free."""
    kinds = ("free", "shared", "t-contact", "collinear")
    out = []
    while len(out) < count:
        kind = kinds[len(out) % 4]
        a, b, c = (_grid_point3(rng) for _ in range(3))
        if kind == "shared":
            d = rng.choice((a, b))
        elif kind == "t-contact":
            d = _on_line(a, b, F(rng.randint(1, 3), 4))
        elif kind == "collinear":
            c, d = (_on_line(a, b, F(rng.randint(-2, 6), 4)) for _ in range(2))
        else:
            d = _grid_point3(rng)
        if a != b and c != d:
            out.append((kind, (a, b), rng.choice(((c, d), (d, c)))))
    return out


def _grid_point3(rng):
    return tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(3))


def test_undivided_seg3_relation_matches_the_dividing_one():
    rng = random.Random(1512_03592)
    seen = set()
    for kind, s1, s2 in _segment_pairs(rng, 4000):
        want = seg3_relation_dividing(s1, s2)
        assert seg3_relation(s1, s2) == want
        _, img = lattice(s1 + s2)
        i1, i2 = tuple(img[:2]), tuple(img[2:])
        assert seg3_relation(i1, i2) == want
        assert seg3_relation_dividing(i1, i2) == want
        seen.add((kind, want))
    assert seen >= {
        ("shared", SHARED_ENDPOINT),
        ("shared", IMPROPER),  # the second segment folds back along the first
        ("t-contact", IMPROPER),
        ("collinear", IMPROPER),  # overlap
        ("collinear", SHARED_ENDPOINT),  # end to end
        ("collinear", DISJOINT),
        ("free", DISJOINT),
        ("free", IMPROPER),
    }


def test_seg3_relation_does_not_round_a_600_bit_miss():
    # A segment from c ends at the midpoint p of (o, b), or one unit beside it
    # on c's side.  The second misses the first by a parameter near 2**-1200,
    # which a float quotient rounds to the contact.
    rng = random.Random(600)
    x, y = (rng.getrandbits(600) | 1 << 599 for _ in range(2))

    def lift(u, v):  # an integer shear of the plane z = 0 into 3-space
        return (u, v, u + v)

    o, b, p = lift(0, 0), lift(2 * x, 2 * y), lift(x, y)
    c = lift(x - y, y + x)
    miss = lift(x, y + 1)
    assert seg3_relation((o, b), (c, p)) == IMPROPER
    assert seg3_relation((o, b), (c, miss)) == DISJOINT
    assert float(x) == float(x + 1)  # the trap: floats cannot tell them apart


def _lcm_by_divisibility(coords):
    """Least D > 0 with every D * c an integer, checked against each prime
    factor of D: dropping any one of them leaves some c non-integral."""
    d = 1
    for c in coords:
        d *= F(c).denominator // math.gcd(d, F(c).denominator)
    assert all((d * F(c)).denominator == 1 for c in coords)
    k, primes = d, set()
    f = 2
    while f * f <= k:
        while k % f == 0:
            primes.add(f)
            k //= f
        f += 1
    primes |= {k} - {1}
    for q in primes:
        assert any((d // q * F(c)).denominator != 1 for c in coords)
    return d


def test_lattice_scales_to_distinct_integer_points():
    rng = random.Random(2015)
    for _ in range(200):
        pts = list({
            tuple(F(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(3))
            for _ in range(rng.randint(1, 12))
        })
        pts += rng.sample(pts, len(pts) // 2)  # repeated points map alike
        scales, img = lattice(pts)
        assert scales == (
            _lcm_by_divisibility([c for p in pts for c in p[:2]]),
            _lcm_by_divisibility([p[2] for p in pts]),
        )
        assert len(img) == len(pts)
        assert len(set(img)) == len(set(pts))
        for p, q in zip(pts, img):
            assert all(type(c) is int for c in q)
            assert q == (scales[0] * p[0], scales[0] * p[1], scales[1] * p[2])
        # integer heights keep their own values; plane points have D_z = 1
        flat = [(x, y, F(rng.randint(-9, 9))) for x, y, _ in pts]
        flat_img = [q[:2] + (int(p[2]),) for p, q in zip(flat, img)]
        assert lattice(flat) == ((scales[0], 1), flat_img)
        assert lattice([p[:2] for p in pts]) == ((scales[0], 1), [q[:2] for q in img])


def test_scaled_copies_get_equal_embedding_reports():
    rng = random.Random(3592)
    polygons = [_random_polygon(rng) for _ in range(150)]
    polygons.append(list(build_full(random_presentation(11, 5))[0].vertices))
    verdicts = set()
    for verts in polygons:
        rep = polygon_embedded(verts)
        lam = F(rng.randint(1, 97), rng.randint(1, 97))
        assert polygon_embedded([tuple(lam * c for c in v) for v in verts]) == rep
        verdicts.add(rep.ok)
    assert verdicts == {True, False}


def test_lattice_past_the_cap_keeps_the_points():
    verts = capped_polygon(48)
    scales, img = lattice(verts)
    assert scales == (1, 1)
    assert all(q is p for p, q in zip(verts, img, strict=True))
    # the cap holds for each scale: heights alone past it keep the points too
    cap = geom.LATTICE_MAX_BITS
    for bits, want in ((cap - 1, (1, 1 << cap - 1)), (cap, (1, 1))):
        tall = [(F(0), F(0), F(0)), (F(1), F(0), F(1, 1 << bits)), (F(0), F(1), F(1))]
        scales, img = lattice(tall)
        assert scales == want and (img == tall) == (want == (1, 1))
    assert math.lcm(*(c.denominator for v in verts for c in v)).bit_length() > (
        geom.LATTICE_MAX_BITS
    )
    rep = polygon_embedded(verts)
    assert rep.ok and rep.failures == embedded_reference(verts)
    # edge 0 through the midpoint of edge 30
    pulled = list(verts)
    mid = tuple((x + y) / 2 for x, y in zip(verts[30], verts[31]))
    pulled[1] = tuple(2 * y - x for x, y in zip(verts[0], mid))
    rep = polygon_embedded(pulled)
    assert (0, 30, IMPROPER) in rep.failures
    assert rep.failures == embedded_reference(pulled)


# ------------------------------------------------- segment/triangle on ints


def seg_triangle_on_fractions(t, s):
    """The former seg_triangle_intersection, which divides out the crossing
    parameter and builds every point it returns from ``Fraction``s."""
    a, b, c = t
    nrm = geom._cross3(geom._sub3(b, a), geom._sub3(c, a))
    if nrm == (0, 0, 0):
        raise ValueError("degenerate triangle")
    p, q = s
    if p == q:
        raise ValueError("degenerate segment")
    h0 = geom._dot3(nrm, geom._sub3(p, a))
    h1 = geom._dot3(nrm, geom._sub3(q, a))
    if (h0 > 0 and h1 > 0) or (h0 < 0 and h1 < 0):
        return None
    ax = geom._drop_axis(nrm)
    a2 = (a[ax[0]], a[ax[1]])
    b2 = (b[ax[0]], b[ax[1]])
    c2 = (c[ax[0]], c[ax[1]])
    if geom._orient_val(a2, b2, c2) < 0:
        b2, c2 = c2, b2
    if h0 == 0 and h1 == 0:
        p2 = (p[ax[0]], p[ax[1]])
        q2 = (q[ax[0]], q[ax[1]])
        lo, hi = Fraction(0), Fraction(1)
        for u, v in ((a2, b2), (b2, c2), (c2, a2)):
            f0 = geom._orient_val(u, v, p2)
            f1 = geom._orient_val(u, v, q2)
            if f0 < 0 and f1 < 0:
                return None
            if f0 >= 0 and f1 >= 0:
                continue
            tstar = Fraction(f0, f0 - f1)
            if f0 < 0:
                lo = max(lo, tstar)
            else:
                hi = min(hi, tstar)
            if lo > hi:
                return None
        pl = geom._lerp3(p, q, lo)
        if lo == hi:
            return ("point", pl)
        return ("segment", pl, geom._lerp3(p, q, hi))
    tau = Fraction(h0, h0 - h1)
    x = geom._lerp3(p, q, tau)
    x2 = (x[ax[0]], x[ax[1]])
    if (
        geom._orient_val(a2, b2, x2) >= 0
        and geom._orient_val(b2, c2, x2) >= 0
        and geom._orient_val(c2, a2, x2) >= 0
    ):
        return ("point", x)
    return None


@st.composite
def _triangle_and_segment(draw):
    """A triangle with corners on the lattice 3Z^3 and a segment whose ends
    are free small lattice points or lattice points of the triangle's plane
    (a + (i(b - a) + j(c - a)) / 3: corners, edge and inner points, and points
    outside), so that touching and coplanar cases are common."""
    t = tuple(tuple(3 * draw(st.integers(-2, 2)) for _ in range(3)) for _ in range(3))
    a, b, c = t

    def end():
        if draw(st.booleans()):
            return tuple(draw(st.integers(-6, 6)) for _ in range(3))
        i, j = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        return tuple(x + i * (y - x) // 3 + j * (z - x) // 3 for x, y, z in zip(a, b, c))

    return t, (end(), end())


def _seg_triangle_outcome(fn, t, s):
    try:
        return fn(t, s)
    except ValueError as exc:
        return str(exc)


_FLAT = ((0, 0, 0), (6, 0, 0), (0, 6, 0))


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(case=_triangle_and_segment(), den=st.integers(1, 7))
@example(case=(_FLAT, ((1, 1, 0), (1, 1, 3))), den=2)  # an end inside the triangle
@example(case=(_FLAT, ((1, 1, 3), (1, 1, -3))), den=3)  # crossing downwards
@example(case=(_FLAT, ((-3, 1, 0), (9, 1, 0))), den=5)  # coplanar, clipped twice
def test_integer_seg_triangle_matches_the_fraction_reference(case, den):
    scaled = tuple(tuple(tuple(F(c, den) for c in x) for x in y) for y in case)
    for t, s in (case, scaled):
        got = _seg_triangle_outcome(seg_triangle_intersection, t, s)
        want = _seg_triangle_outcome(seg_triangle_on_fractions, t, s)
        assert got == want and hash(got) == hash(want)


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(case=_triangle_and_segment(), den=st.integers(1, 7))
@example(case=(_FLAT, ((1, 1, 3), (1, 1, -3))), den=3)  # crossing downwards
@example(case=(_FLAT, ((-3, 1, 0), (9, 1, 0))), den=5)  # coplanar, clipped twice
def test_prepared_plane_matches_the_raw_triangle_and_the_reference(case, den):
    """One Plane, prepared before any segment is tested, gives the raw
    triangle's result and the dividing reference's for the segment either
    way round; a degenerate triangle raises as its plane is prepared."""
    scaled = tuple(tuple(tuple(F(c, den) for c in x) for x in y) for y in case)
    for t, (p, q) in (case, scaled):
        try:
            plane = Plane(t)
        except ValueError as exc:
            assert str(exc) == "degenerate triangle"
            assert _seg_triangle_outcome(seg_triangle_on_fractions, t, (p, q)) == str(exc)
            continue
        for s in ((p, q), (q, p)):
            want = _seg_triangle_outcome(seg_triangle_on_fractions, t, s)
            assert _seg_triangle_outcome(seg_triangle_intersection, plane, s) == want
            assert _seg_triangle_outcome(seg_triangle_intersection, t, s) == want


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(case=_triangle_and_segment())
@example(case=(_FLAT, ((0, 0, -1), (0, 0, 1))))  # through a corner
@example(case=(_FLAT, ((1, 1, 2), (1, 1, 0))))  # an end on the face
@example(case=(_FLAT, ((1, 1, 0), (2, 2, 0))))  # coplanar, inside
@example(case=(_FLAT, ((5, 5, 0), (1, 1, 0))))  # coplanar, one end clipped
def test_seg_triangle_returns_the_callers_ends(case):
    """On int input a miss or a contact at an end of the segment builds no
    ``Fraction``: the result holds the caller's own end tuples."""
    t, s = case
    hit = _seg_triangle_outcome(seg_triangle_intersection, t, s)
    if hit is None or isinstance(hit, str):
        return
    for x in hit[1:]:
        if x in s:
            assert x is s[0] or x is s[1]
            assert all(type(c) is int for c in x)


_SCALES = st.tuples(*[st.integers(1, 60) | st.fractions(F(1, 40), 40)] * 3)


def _scaled(p, scales):
    return tuple(c * k for c, k in zip(p, scales))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=_triangle_and_segment(), scales=_SCALES, seed=st.integers(0, 1 << 32))
@example(case=(_FLAT, ((-3, 1, 0), (9, 1, 0))), scales=(1, 7, F(1, 3)), seed=0)  # coplanar
@example(case=(_FLAT, ((0, 0, -1), (0, 0, 1))), scales=(5, 5, 2), seed=1)  # through a corner
def test_a_positive_scale_per_axis_keeps_every_verdict(case, scales, seed):
    """A positive scale on each axis, as the per-axis lattice applies, leaves
    the verdicts of seg3_relation and triangle_pierced (with its ignore set
    scaled alike), and polygon_embedded's failures and stick_count on a
    polygon through the case's points, unchanged."""
    (a, b, c), (p, q) = case

    def s(x):
        return _scaled(x, scales)

    try:
        plane = Plane((a, b, c))
    except ValueError:
        plane = None
    if plane is not None and p != q:
        image = Plane((s(a), s(b), s(c)))
        for ignore in (frozenset(), frozenset((a, c)), frozenset((p,))):
            want = triangle_pierced(plane, (p, q), ignore)
            assert triangle_pierced(image, (s(p), s(q)), set(map(s, ignore))) == want
    for s1, s2 in (((a, b), (p, q)), ((b, c), (q, p)), ((a, p), (p, b))):
        if s1[0] != s1[1] and s2[0] != s2[1]:
            assert seg3_relation(tuple(map(s, s1)), tuple(map(s, s2))) == seg3_relation(s1, s2)
    verts = [a, b, c, p, q]
    random.Random(seed).shuffle(verts)
    verts = [v for i, v in enumerate(verts) if v != verts[i - 1]]
    if len(verts) >= 3:
        image = [s(v) for v in verts]
        assert polygon_embedded(image) == polygon_embedded(verts)
        knots = [StickKnot(tuple(vs), ("?",) * len(vs)) for vs in (verts, image)]
        assert stick_count(knots[1]) == stick_count(knots[0])


@st.composite
def _joints(draw):
    """(kind, a, b, c): the path a, b, c runs straight on, doubles back
    (short of a, onto a, or past it), turns a right angle, or goes anywhere."""
    coord = st.integers(-4, 4)
    a = tuple(draw(coord) for _ in range(3))
    b = draw(st.tuples(coord, coord, coord).filter(lambda x: x != a))
    kind = draw(st.sampled_from(("on", "back", "right", "free")))
    d = _sub3(b, a)
    lam = draw(st.fractions(F(1, 4), 3))
    if kind == "on":
        c = tuple(x + lam * y for x, y in zip(b, d))
    elif kind == "back":
        c = tuple(x - lam * y for x, y in zip(b, d))
    elif kind == "right":
        u = draw(st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))))
        w = _cross3(d, u)
        if w == (0, 0, 0):
            w = _cross3(d, (u[1], u[2], u[0] + 1))
        c = tuple(x + lam * y for x, y in zip(b, w))
    else:
        c = draw(st.tuples(coord, coord, coord).filter(lambda x: x != b))
    return kind, a, b, c


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(case=_joints())
@example(case=("back", (0, 0, 0), (2, 0, 0), (0, 0, 0)))  # onto a
@example(case=("on", (0, 0, 0), (1, 1, 1), (3, 3, 3)))
def test_the_joint_test_agrees_with_seg3_relation(case):
    """On two consecutive edges a-b and b-c, joint's verdict is
    seg3_relation's: shared-endpoint unless the path doubles back, improper
    when it does, and never disjoint."""
    kind, a, b, c = case
    j = joint(a, b, c)
    want = {"on": 1, "back": -1, "right": 0}.get(kind)
    assert want is None or j == want
    assert seg3_relation((a, b), (b, c)) == (IMPROPER if j < 0 else SHARED_ENDPOINT)
    assert seg3_relation((b, c), (a, b)) == (IMPROPER if j < 0 else SHARED_ENDPOINT)
    # the joint of the reversed path is the same
    assert joint(c, b, a) == j
