"""Exact rational geometry kernel.

Points are tuples of ``fractions.Fraction`` (or ints); every predicate is
exact and deterministic.  No floating point, no tolerances, no rounding
anywhere.

Every predicate runs on the points it is given.  A command scales its points
onto an integer lattice once, where they enter it, with :func:`lattice`: x
and y times a plan scale D_p, z times its own D_z (1 for integer heights).
A positive scale per axis keeps every incidence, orientation sign, box
comparison, segment parameter, zero pattern of a plane normal and sign of a
dot product of parallel vectors, so the predicates give the same verdicts on
Python ints at a fraction of the cost of ``Fraction`` arithmetic.  Past
``LATTICE_MAX_BITS`` bits the points keep their own coordinates (scale 1)
and the same predicates run on them, though just past it the ints still
win (see the constant).
A segment crossing a triangle's plane is tested as the homogeneous point X / w,
so only a contact strictly inside a segment builds a ``Fraction``; a contact
at a segment's end returns the caller's own point tuple.  A triangle met by
many segments, a Δ-move triangle of the top move (``construct._certify_top``),
is prepared once as a :class:`Plane`.

Loops over many segment/segment or segment/triangle pairs first compare
exact axis-aligned bounding boxes (:func:`bbox`, :func:`boxes_apart`).  Two
closed boxes strictly apart on some axis hold sets that cannot meet, so the
pair is decided without the full predicate; boxes that merely touch (a shared
face, edge or corner) are never apart and always reach the full predicate.
The filter is exact, so every verdict is the one the unfiltered loop gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Segment3 = tuple  # ((x, y, z), (x, y, z))
Triangle3 = tuple  # three (x, y, z) points

DISJOINT = "disjoint"
SHARED_ENDPOINT = "shared-endpoint"
IMPROPER = "improper"

_ZERO3 = (0, 0, 0)

# Above a lattice scale of this many bits the points stay on their own
# coordinates.  polygon_embedded on ints against Fractions (Python 3.11.7,
# 2-vCPU VM): 24 against 61 ms on a 96-chord output after a layout retry
# (2,232 bits); on 48-vertex polygons with random denominators, 6 against
# 9 ms at 2,858 bits, 10 against 9 at 3,364 and 21 against 10 at 5,654.
LATTICE_MAX_BITS = 2048


def binding_points(n: int, retry: int = 0) -> list:
    """n distinct rational points on the unit circle, angularly ordered by index.

    Point k uses the tangent-half-angle parameter t = k - (n+1)/2 mapped through
    t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)), so all coordinates are rational and the
    angular order equals index order.

    ``retry`` > 0 applies the deterministic escape schedule used when three
    chords meet at one interior point.  The perturbation must be nonlinear in k:
    affine reparametrizations act projectively on the circle and provably leave
    every chord concurrence intact, so a uniform (or linear-in-k) shift can
    never resolve one.  Squared-index weights break all concurrences seen in
    practice; cubed weights are a second independent family for stubborn cases.
    """
    if n < 2:
        raise ValueError(f"need at least 2 binding points, got {n}")
    if retry < 0:
        raise ValueError("retry counter must be nonnegative")
    pts = []
    for k in range(1, n + 1):
        p, q = 2 * k - (n + 1), 2  # t = p / q
        if retry:
            weight = k * k if retry <= 32 else k * k * k
            p, q = p * (100 + retry) + 2 * weight, 2 * (100 + retry)
        den = q * q + p * p
        pts.append((Fraction(q * q - p * p, den), Fraction(2 * p * q, den)))
    return pts


def orient2d(a, b, c) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    d = _orient_val(a, b, c)
    return (d > 0) - (d < 0)


def convex_failure(points):
    """Index of the first point at which the cycle ``points`` fails to be in
    strictly convex position counterclockwise, or None.

    Point i fails where the cycle does not turn left at it, or where it
    winds a second time: with every turn left, each edge direction turns by
    less than a half turn, so the cycle winds once per point at which the
    direction passes from the lower half-plane (or the negative x axis) back
    to the upper one.  A cycle with every turn left that winds once is a
    convex polygon; a pentagram order winds twice.  O(len(points)).
    """
    m = len(points)
    wraps = 0
    for i in range(m):
        a, b, c = points[i - 1], points[i], points[(i + 1) % m]
        if orient2d(a, b, c) <= 0:
            return i
        into, out = (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])
        if not _upper(into) and _upper(out):
            wraps += 1
            if wraps > 1:
                return i
    return None


def _upper(d):
    """Whether direction d has angle in [0, pi)."""
    return d[1] > 0 or (d[1] == 0 and d[0] > 0)


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _homogeneous(p) -> tuple:
    """Point p, of ints or ``Fraction``s, on its own integers (X, ..., W):
    W > 0 the lcm of its denominators and each X its coordinate times W."""
    ratios = [c.as_integer_ratio() for c in p]
    w = math.lcm(*(den for _, den in ratios))
    return (*(num * (w // den) for num, den in ratios), w)


def _lerp3(p, q, t):
    return (
        p[0] + t * (q[0] - p[0]),
        p[1] + t * (q[1] - p[1]),
        p[2] + t * (q[2] - p[2]),
    )


def _point_at(p, q, t):
    """The point at parameter t of segment pq: p or q itself at an end."""
    return p if t == 0 else q if t == 1 else _lerp3(p, q, t)


def bbox(points) -> tuple:
    """Exact axis-aligned bounding box ``(lo, hi)`` of two or more 3D points.

    A segment's box compares its two ends axis by axis, as ``sorted`` would:
    on a tie the first end is lo and the second hi."""
    if len(points) == 2:
        (ax, ay, az), (bx, by, bz) = points
        return (
            (bx if bx < ax else ax, by if by < ay else ay, bz if bz < az else az),
            (ax if bx < ax else bx, ay if by < ay else by, az if bz < az else bz),
        )
    x, y, z = map(sorted, zip(*points))
    return (x[0], y[0], z[0]), (x[-1], y[-1], z[-1])


def boxes_apart(b1, b2) -> bool:
    """True iff closed boxes ``b1`` and ``b2`` are strictly apart on some axis.

    Touching boxes (equal bounds on an axis) are not apart, so a contact on a
    box boundary, such as two horizontals at one height, is left to the full
    predicate.  When this is True nothing inside one box meets the other.
    Heights are compared first: most edge pairs of a lifted polygon sit at
    different heights.
    """
    (lo1, hi1), (lo2, hi2) = b1, b2
    return (
        hi1[2] < lo2[2]
        or hi2[2] < lo1[2]
        or hi1[1] < lo2[1]
        or hi2[1] < lo1[1]
        or hi1[0] < lo2[0]
        or hi2[0] < lo1[0]
    )


def lattice(points) -> tuple:
    """The batch's integer lattice, one positive scale per axis: ``(scales, image)``.

    ``scales`` is (D_p, D_z): D_p is the lcm of the denominators of the x and
    y coordinates of ``points`` (a sequence of point tuples), D_z that of the
    z coordinates (1 for plane points), and ``image[i]`` is ``points[i]`` with
    x and y times D_p and z times D_z, a tuple of ints.  Once either scale
    passes ``LATTICE_MAX_BITS`` bits the result is ``((1, 1), list(points))``.
    The image is a list, not a map keyed by point: hashing a tuple of
    ``Fraction``s costs about as much as a predicate.
    """
    axes = (
        {c.denominator for p in points for c in p[:2]},
        {c.denominator for p in points for c in p[2:]},
    )
    scales = tuple(math.lcm(*dens) for dens in axes)
    if max(scales).bit_length() > LATTICE_MAX_BITS:
        return (1, 1), list(points)
    f = [{den: scale // den for den in dens} for scale, dens in zip(scales, axes)]  # xy, z
    image = [tuple(c.numerator * f[k > 1][c.denominator] for k, c in enumerate(p)) for p in points]
    return scales, image


def joint(a, b, c) -> int:
    """How the path a, b, c runs on at b: 0 where it bends, 1 where it runs
    straight on and -1 where it doubles back.  Edges ab and bc meet only in b
    unless it doubles back; a stick of a polygon ends at b unless it runs on."""
    d1, d2 = _sub3(b, a), _sub3(c, b)
    if _cross3(d1, d2) != _ZERO3:
        return 0
    return 1 if _dot3(d1, d2) > 0 else -1


def seg3_relation(s1: Segment3, s2: Segment3) -> str:
    """Classify the contact of two 3D segments.

    Returns ``shared-endpoint`` only when the segments meet in exactly one
    point and that point is an endpoint of both; any other contact (interior
    crossing, T-contact, collinear overlap) is ``improper``.  The segment
    parameters are compared as numerators over their positive common
    denominator, never divided, so integer input stays integer.
    """
    a, b = s1
    c, d = s2
    if a == b or c == d:
        raise ValueError("degenerate segment")
    w0, w1, w2 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    v0, v1, v2 = d[0] - c[0], d[1] - c[1], d[2] - c[2]
    r0, r1, r2 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    n0, n1, n2 = w1 * v2 - w2 * v1, w2 * v0 - w0 * v2, w0 * v1 - w1 * v0
    if n0 or n1 or n2:
        if r0 * n0 + r1 * n1 + r2 * n2:
            return DISJOINT  # skew lines
        nn = n0 * n0 + n1 * n1 + n2 * n2  # parameters s / nn and u / nn
        s = (r1 * v2 - r2 * v1) * n0 + (r2 * v0 - r0 * v2) * n1 + (r0 * v1 - r1 * v0) * n2
        u = (r1 * w2 - r2 * w1) * n0 + (r2 * w0 - r0 * w2) * n1 + (r0 * w1 - r1 * w0) * n2
        if 0 <= s <= nn and 0 <= u <= nn:
            if (s == 0 or s == nn) and (u == 0 or u == nn):
                return SHARED_ENDPOINT
            return IMPROPER
        return DISJOINT
    # parallel lines
    if r1 * w2 != r2 * w1 or r2 * w0 != r0 * w2 or r0 * w1 != r1 * w0:
        return DISJOINT
    # collinear: reduce to 1D parameter overlap along w, in units of 1 / ww
    ww = w0 * w0 + w1 * w1 + w2 * w2
    tc = r0 * w0 + r1 * w1 + r2 * w2
    td = tc + v0 * w0 + v1 * w1 + v2 * w2
    lo = max(min(tc, td), 0)
    hi = min(max(tc, td), ww)
    if lo > hi:
        return DISJOINT
    if lo == hi:
        # single contact point; on collinear segments it is a boundary point
        # of both parameter intervals, hence an endpoint of both segments
        return SHARED_ENDPOINT
    return IMPROPER


def _drop_axis(normal):
    """Indices of two coordinates giving an exact bijection on the plane."""
    if normal[2] != 0:
        return 0, 1
    if normal[1] != 0:
        return 0, 2
    return 1, 2


def _orient_val(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


class Plane:
    """A triangle prepared once for many segment tests: a point's height is
    normal . p - offset, and each of ``edges`` is a side projected to ``axes``
    as (e0, e1, k), with (x, y) at weight w inside iff e0 y - e1 x >= k w.
    Raises ValueError on a degenerate triangle."""

    __slots__ = ("triangle", "normal", "offset", "axes", "edges")

    def __init__(self, t: Triangle3):
        a, b, c = t
        nrm = _cross3(_sub3(b, a), _sub3(c, a))
        if nrm == _ZERO3:
            raise ValueError("degenerate triangle")
        i, j = _drop_axis(nrm)
        a2, b2, c2 = (a[i], a[j]), (b[i], b[j]), (c[i], c[j])
        if _orient_val(a2, b2, c2) < 0:
            b2, c2 = c2, b2
        self.triangle, self.normal, self.offset, self.axes = t, nrm, _dot3(nrm, a), (i, j)
        sides = ((a2, b2), (b2, c2), (c2, a2))
        self.edges = [(v[0] - u[0], v[1] - u[1], v[0] * u[1] - v[1] * u[0]) for u, v in sides]

    def height(self, p):
        n0, n1, n2 = self.normal
        return n0 * p[0] + n1 * p[1] + n2 * p[2] - self.offset


def seg_triangle_intersection(t, s: Segment3):
    """Exact intersection of a segment with a closed triangle.

    ``t`` is the triangle or its :class:`Plane`.  Returns None, ("point", p)
    or ("segment", p, q).  A crossing of the plane is the point X / w, X =
    h0 * q - h1 * p and w = h0 - h1 > 0 for the ends' signed heights h, and
    the edge tests are orientations scaled by w.  Only a point strictly
    inside the segment is divided out.
    """
    pl = t if type(t) is Plane else Plane(t)
    p, q = s
    if p == q:
        raise ValueError("degenerate segment")
    h0, h1 = pl.height(p), pl.height(q)
    if (h0 > 0 and h1 > 0) or (h0 < 0 and h1 < 0):
        return None
    i, j = pl.axes
    if h0 == 0 and h1 == 0:
        # coplanar: clip the segment's parameter interval by the three edges
        lo, hi = 0, 1
        for e0, e1, k in pl.edges:
            f0 = e0 * p[j] - e1 * p[i] - k
            f1 = e0 * q[j] - e1 * q[i] - k
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
        if lo == hi:
            return ("point", _point_at(p, q, lo))
        return ("segment", _point_at(p, q, lo), _point_at(p, q, hi))
    if h0 == 0 or h1 == 0:  # the end on the plane is the only candidate
        x = p if h0 == 0 else q
        x0, x1, w = x[i], x[j], 1
    else:
        if h0 < h1:
            h0, h1 = -h0, -h1
        w = h0 - h1
        x0, x1 = h0 * q[i] - h1 * p[i], h0 * q[j] - h1 * p[j]
        x = None
    for e0, e1, k in pl.edges:
        if e0 * x1 - e1 * x0 < k * w:
            return None
    return ("point", x if x is not None else _lerp3(p, q, Fraction(h0, w)))


def triangle_pierced(t, s: Segment3, ignore=frozenset()) -> bool:
    """True iff s meets the closed triangle anywhere outside ``ignore``.

    ``ignore`` is a set of exact points (attachment points of the polygon);
    contact at those alone does not count.  Any positive-length contact counts
    regardless of ignore, since a segment minus finitely many points is
    nonempty.
    """
    hit = seg_triangle_intersection(t, s)
    return hit is not None and (hit[0] == "segment" or hit[1] not in ignore)


@dataclass(frozen=True)
class EmbeddingReport:
    """Verdict of polygon_embedded; failures name offending edge index pairs."""

    ok: bool
    failures: tuple = ()


def polygon_embedded(vertices: Sequence) -> EmbeddingReport:
    """Exact embeddedness check for a closed polygon given by its vertex cycle.

    Consecutive edges must meet exactly at their shared vertex; all other pairs
    must be disjoint.  Collinear continuation at a vertex is allowed (it is a
    shared-endpoint contact); doubling back or overlap is not.  Consecutive
    edges share a vertex, so their :func:`joint` alone decides them, and a
    doubling back is ``improper``; a pair whose boxes are apart skips
    ``seg3_relation``.  The failures are the pairs (i, j, relation), i < j,
    in order.  The predicates run on the vertices as given; a caller holding
    ``Fraction``s passes their :func:`lattice` image to run them on ints.
    """
    m = len(vertices)
    if m < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {m}")
    for i in range(m):
        if vertices[i] == vertices[(i + 1) % m]:
            raise ValueError(f"repeated consecutive vertices at index {i}")
    edges = [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    boxes = [bbox(e) for e in edges]
    failures = []
    for i in range(m):
        for j in range(i + 1, m):
            if j - i in (1, m - 1):  # they share vertex j, or 0 for the pair (0, m - 1)
                k = j if j == i + 1 else 0
                if joint(vertices[k - 1], vertices[k], vertices[(k + 1) % m]) < 0:
                    failures.append((i, j, IMPROPER))
            elif not boxes_apart(boxes[i], boxes[j]):
                if (rel := seg3_relation(edges[i], edges[j])) != DISJOINT:
                    failures.append((i, j, rel))
    return EmbeddingReport(not failures, tuple(failures))
