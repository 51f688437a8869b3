"""Building short stick realizations from arc presentations.

The pipeline starts with the 2n-stick realization that places chord i as a
horizontal stick at height i and joins consecutive chords by verticals at the
shared binding points.  Re-lifting the horizontals to carefully chosen integer
heights makes one right triangle per type-II/III chord empty of the rest of
the polygon, so its two legs can be replaced by the hypotenuse (one stick
saved each).  A final certified move replaces the five-stick path through the
top chord by three sticks.  Every replacement is justified by an exact
certificate, never by construction alone: the reductions by the paper's
lemma, checked on integers, and the top move by its Δ-moves alone, whose
legality keeps the polygon embedded: the full embedding check only names a
skipped top move and checks the final polygon.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import invariants
from .arcpres import (
    ArcPresentation,
    _neighbours,
    _plan,
    chord_walk,
    classify,
    layout,
    normalize,
)
from .bounds import theorem2_upper
from .errors import InternalVerificationError, InvalidArcPresentation
from .geom import (
    Plane,
    bbox,
    boxes_apart,
    convex_failure,
    joint,
    polygon_embedded,
    triangle_pierced,
)

DEFAULT_MAX_L = 1 << 16

ROLE_H = "horizontal"
ROLE_V = "vertical"
ROLE_HYP = "hypotenuse"
ROLE_EXT = "extension"
ROLE_CONN = "connector"

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # str() of a Fraction


@dataclass(frozen=True)
class StickKnot:
    """Closed polygon in 3-space: vertex cycle plus a role tag per edge.

    Edge i runs from vertices[i] to vertices[(i+1) % len]; roles[i] names how
    that edge arose (horizontal / vertical / hypotenuse / extension /
    connector).
    """

    vertices: tuple
    roles: tuple

    def edges(self):
        m = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % m]) for i in range(m)]


def bends(vertices) -> list:
    """Indices of the vertices at which the closed polygon ``vertices`` does
    not run straight on: the ends of its maximal straight runs."""
    m = len(vertices)
    return [i for i in range(m) if joint(vertices[i - 1], vertices[i], vertices[(i + 1) % m]) != 1]


def stick_count(knot: StickKnot) -> int:
    """Number of maximal straight runs of the polygon: its :func:`bends`."""
    return len(bends(knot.vertices))


def _cycle_reads(ap, crossings):
    """What a build reads of ap's chord cycle, each derived once: its
    :func:`chord_walk`, that walk's neighbour table, and per chord i (at
    i - 1) None if it is of type I, else (j, apex, hits): its anchor j (the
    largest smaller neighbour), their shared apex, and (k, num, den) for each
    chord k < i crossing chord i at t = num / den from the apex, den > 0, k
    ascending as layout lists its ``crossings``, t = u or 1 - u of theirs."""
    walk = chord_walk(ap)
    nb = _neighbours(walk)
    hits = [[] for _ in range(ap.n + 1)]
    for (k, i), (num, den) in crossings.items():
        hits[i].append((k, num, den))
    anchors = []
    for i, (pair, (a, _)) in enumerate(zip(nb, ap.chords), start=1):
        anchor = max(((j + 1, p) for j, p in pair if j < i - 1), default=None)
        if anchor is not None:  # t from the apex
            anchor += ([(k, num if anchor[1] == a else den - num, den) for k, num, den in hits[i]],)
        anchors.append(anchor)
    return walk, nb, anchors


def _assign_heights(anchors) -> tuple:
    z = [0, 1, 2]
    for i, anchor in enumerate(anchors[2:], start=3):
        z.append(z[i - 1] + 1)
        if anchor is None:  # type I
            continue
        j, _, hits = anchor
        # the anchor shares the apex with chord i, so it is never among the k;
        # 1 + floor(z_j + (z_k - z_j) / t) clears k, and max of floors = floor of max
        for k, num, den in hits:
            if z[k] <= z[j]:
                continue
            if not 0 < num < den:
                raise InternalVerificationError(f"crossing of chords {i},{k} off the open chord")
            z[i] = max(z[i], 1 + z[j] + (z[k] - z[j]) * den // num)
    return tuple(z[1:])


def assign_heights(ap: ArcPresentation) -> tuple:
    """Monotone integer heights making every reduction triangle empty.

    The tuple holds z_i, the height of chord i, at index i - 1.  z_1 = 1,
    z_2 = 2; a type-I chord sits one above its predecessor; a type-II/III
    chord sits high enough that the triangle spanned by its horizontal stick
    and the vertical to its anchor clears every earlier horizontal crossing
    it (strictly below the hypotenuse).
    """
    return _assign_heights(_cycle_reads(ap, layout(ap)[2])[2])


def sweep_triangles(ap: ArcPresentation, z: tuple, anchors) -> list:
    """The pairs (k, i) failing the lemma's third condition; empty means
    every reduction triangle is clear (see :func:`triangle_reductions`).

    For each type-II/III chord i with anchor j and apex P, every chord k < i
    crossing chord i at fraction t = num / den from P must satisfy
    z_k < z_j + t*(z_i - z_j), compared on integers; ``anchors`` is the
    third value of :func:`_cycle_reads`.
    """
    bad = []
    for i in range(3, ap.n + 1):
        if anchors[i - 1] is not None:  # type II/III
            j, _, hits = anchors[i - 1]
            zj, zi = z[j - 1], z[i - 1]
            bad += [(k, i) for k, num, den in hits if not (z[k - 1] - zj) * den < num * (zi - zj)]
    return bad


def _check_heights(ap, z, anchors) -> None:
    """Raise unless the lemma's first and third conditions hold: the heights
    strictly increase, and :func:`sweep_triangles` finds no chord in the way."""
    for k in range(1, ap.n):
        if z[k] <= z[k - 1]:
            raise InternalVerificationError(f"chord {k + 1} is not above chord {k}")
    if bad := sweep_triangles(ap, z, anchors):
        k, i = bad[0]
        raise InternalVerificationError(f"chord {k} touches or pierces the triangle of chord {i}")


def verify_heights(ap: ArcPresentation, z: tuple, crossings) -> None:
    """Raise unless z starts 1, 2 and passes :func:`_check_heights`, the
    check :func:`triangle_reductions` runs: not an independent recheck.
    ``build_full`` does not run it."""
    if z[0] != 1 or z[1] != 2:
        raise InternalVerificationError("heights must start 1, 2")
    _check_heights(ap, z, _cycle_reads(ap, crossings)[2])


def _polygon(walk, z, pts) -> StickKnot:
    """The 2n-stick polygon of ``walk``, a :func:`chord_walk`: chord c at z[c]."""
    vertices = []
    roles = []
    for c, entry, exit_pt in walk:
        h = z[c]
        pe, px = pts[entry - 1], pts[exit_pt - 1]
        vertices.append((pe[0], pe[1], h))
        roles.append(ROLE_H)
        vertices.append((px[0], px[1], h))
        roles.append(ROLE_V)
    return StickKnot(tuple(vertices), tuple(roles))


def build_k1(ap: ArcPresentation) -> StickKnot:
    """The 2n-stick realization with chord i lifted flat to height i."""
    pts, _, _ = layout(ap)
    return _polygon(chord_walk(ap), [Fraction(h) for h in range(1, ap.n + 1)], pts)


def build_k2(ap: ArcPresentation) -> StickKnot:
    """The 2n-stick realization lifted to the reduction-ready heights."""
    pts, _, crossings = layout(ap)
    walk, _, anchors = _cycle_reads(ap, crossings)
    return _polygon(walk, [Fraction(h) for h in _assign_heights(anchors)], pts)


@dataclass(frozen=True)
class TriangleInfo:
    chord: int
    anchor: int
    triangle: tuple  # (A, B, C) = (apex low corner, right-angle corner, far corner)


def reduction_triangles(ap: ArcPresentation, z: tuple, pts, anchors) -> list:
    """The right triangle attached to every type-II/III chord (including n);
    ``anchors`` is the third value of :func:`_cycle_reads`."""
    out = []
    for i in range(2, ap.n + 1):
        if anchors[i - 1] is None:
            continue
        j, apex, _ = anchors[i - 1]
        a, b = ap.chords[i - 1]
        far = b if apex == a else a
        p, q = pts[apex - 1], pts[far - 1]
        zi, zj = z[i - 1], z[j - 1]
        tri = ((p[0], p[1], zj), (p[0], p[1], zi), (q[0], q[1], zi))
        out.append(TriangleInfo(i, j, tri))
    return out


def _triangle_clear(plane, edges, boxes, insertion):
    """Index of the first of ``edges`` meeting the closed triangle (u, x, v)
    of ``plane`` beyond its legs, or None; ``boxes`` are their boxes.

    The triangle is a Δ-move's: it deletes corner x between u and v, or for
    an ``insertion`` puts x between them.  Its legs, the sides that are
    edges of the polygon before the move (u-x and x-v, or u-v), are
    skipped, and contact exactly at u or v is allowed, since the polygon is
    attached there.
    """
    u, x, v = plane.triangle
    legs = ({u, v},) if insertion else ({u, x}, {x, v})
    allowed = frozenset((u, v))
    box = bbox(plane.triangle)
    for k, ((p, q), e_box) in enumerate(zip(edges, boxes)):
        if boxes_apart(box, e_box) or {p, q} in legs:
            continue
        if triangle_pierced(plane, (p, q), allowed):
            return k
    return None


def triangle_reductions(ap: ArcPresentation, k2: StickKnot, z: tuple, pts, anchors):
    """Replace both legs by the hypotenuse for chords 2..n-1 of type II/III.

    ``z`` and ``pts`` are the heights and layout points k2 was lifted from,
    ``anchors`` the third value of :func:`_cycle_reads`.  The paper's lemma
    proves k2 embedded and every triangle empty, with no geometry, when the
    heights strictly increase (no two horizontals meet), the points are in
    strictly convex position counterclockwise (:func:`convex_failure`: no
    two verticals meet, and a vertical meets a horizontal only at a shared
    corner) and :func:`sweep_triangles` finds no chord in the way.  A stick
    can then meet the triangle of chord i off its legs and its corners A and
    C only as the horizontal of a chord k < i crossing chord i in plan, which
    the third condition keeps below it: later chords lie above z_i, verticals
    stand off chord i's open segment, the anchor's horizontal meets it only
    at A and the other neighbour's vertical only at C.  An earlier
    hypotenuse runs at or below its own horizontal, so it passes under too.
    A failed condition raises, convexity checked first.  The triangles
    collapse in increasing chord order, each unlinking the index of its
    corner B once B's neighbours in k2 are A and C.  Returns (knot, the
    collapsed chords in order).
    """
    if (i := convex_failure(pts)) is not None:
        raise InternalVerificationError(
            f"binding point {i + 1} is not in strictly convex position"
        )
    _check_heights(ap, z, anchors)
    m = len(k2.vertices)
    index = {p: i for i, p in enumerate(k2.vertices)}
    roles, removed, reduced = list(k2.roles), set(), []
    for info in reduction_triangles(ap, z, pts, anchors):
        if info.chord == ap.n:
            continue
        a, b, c = info.triangle
        k = index.get(b)
        if k is None or {(k - 1) % m, (k + 1) % m} != {index.get(a), index.get(c)}:
            raise InternalVerificationError(
                f"polygon structure near chord {info.chord} unexpected"
            )
        roles[k - 1] = ROLE_HYP
        removed.add(k)
        reduced.append(info.chord)
    # collapsed corners B_i = (apex_i, z_i) are never neighbours, as apex_j != apex_i
    left = [i for i in range(m) if i not in removed]
    knot = StickKnot(tuple(k2.vertices[i] for i in left), tuple(roles[i] for i in left))
    return knot, tuple(reduced)


def top_reduction(knot: StickKnot):
    """Replace the five-stick path through the top chord by three sticks.

    The two sticks feeding the top chord's verticals are extended collinearly
    beyond their junctions by L times their own length and joined by one
    connector stick.  L is searched by doubling (4, 8, ..., up to the
    module's DEFAULT_MAX_L = 2^16, read at each call).  A candidate is
    accepted when four certified Δ-moves carry the old path onto the new
    one (:func:`_certify_top`), which alone decide; otherwise the move is
    skipped, the polygon returned unchanged and the skip named by
    :func:`_skip_reason`.  The stationary sticks and their boxes are built
    once per call.  Every check runs on the polygon's own coordinates, which
    hold every tip as L is an integer.

    The top chord is the horizontal at the polygon's greatest height: the
    heights increase with the chord and the top chord is never collapsed.

    Returns (knot, status, L) with status "applied" or "skipped:<reason>".
    """
    verts, roles = list(knot.vertices), list(knot.roles)
    zn = max(v[2] for v in verts)
    m = len(verts)
    flat = (i for i in range(m) if verts[i][2] == zn == verts[(i + 1) % m][2])
    top_idx = next((i for i in flat if roles[i] == ROLE_H), None)
    if top_idx is None:
        raise InternalVerificationError("top horizontal stick not found")
    rot_v = verts[(top_idx - 1) % m :] + verts[: (top_idx - 1) % m]
    rot_r = roles[(top_idx - 1) % m :] + roles[: (top_idx - 1) % m]
    if rot_r[0] != ROLE_V or rot_r[2] != ROLE_V:
        raise InternalVerificationError("top chord is not flanked by verticals")
    sticks = list(zip(rot_v[3:], rot_v[4:] + rot_v[:1]))  # off the old path
    stationary = sticks, [bbox(e) for e in sticks]
    length = 4
    while True:
        tips = _tips(rot_v, length)
        ok, why = _certify_top(rot_v, *tips, stationary)
        if ok:
            cand_r = (ROLE_CONN, ROLE_EXT, *rot_r[4:-1], ROLE_EXT)
            return StickKnot((*tips, *rot_v[4:]), cand_r), "applied", length
        length *= 2
        if length > DEFAULT_MAX_L:
            return knot, f"skipped:{_skip_reason(rot_v, *tips, why)}", None


def _skip_reason(rot_v, t_a, t_b, why):
    """The reason reported for a candidate :func:`_certify_top` rejected
    with ``why``: the first failure of the full embedding check of its new
    polygon, if it is not embedded, ahead of ``why``."""
    if t_a != t_b and not (emb := polygon_embedded([t_a, t_b] + rot_v[4:])).ok:
        return f"result-not-embedded:{emb.failures[0]}"
    return why


def _tips(v, length):
    """t_a, t_b: sticks f_a-j_a and f_b-j_b of ``v`` extended beyond j by L times."""
    ends = ((v[0], v[-1]), (v[3], v[4]))
    return [tuple(x + length * (x - y) for x, y in zip(j, f)) for j, f in ends]


# The top move's corners, by index: the old path j_a, top_a, top_b, j_b and
# the extension tips t_a, t_b.
J_A, TOP_A, TOP_B, J_B, T_A, T_B = range(6)

# The shapes of the move in the order they are tried, each four Δ-moves that
# carry the old path onto j_a, t_a, t_b, j_b: (u, p) inserts corner p after
# corner u, and w deletes corner w.
_SHAPES = (
    # ruled_a, ruled_b: the quad top_a, top_b, t_b, t_a cut along either diagonal
    ((J_A, T_A), (TOP_A, T_B), TOP_A, TOP_B),
    ((J_A, T_A), TOP_A, (T_A, T_B), TOP_B),
    # two-step-b: side b onto t_b, then side a onto t_a; two-step-a mirrors it
    ((TOP_B, T_B), TOP_B, (J_A, T_A), TOP_A),
    ((J_A, T_A), TOP_A, (TOP_B, T_B), TOP_B),
)


def _shape_failure(corners, moves, stationary):
    """Why the first illegal Δ-move of ``moves`` is illegal, or None.

    A move's triangle is (u, p, v) for an insertion between u and v and
    (u, w, v) for a deletion.  It is legal when it is not degenerate and its
    closed triangle meets the polygon before the move only in the sides it
    replaces and at u and v.  One pass tests the stationary sticks first and
    then the moving path, and the first stick it meets names the reason.
    """
    sticks, boxes = stationary
    path = [J_A, TOP_A, TOP_B, J_B]
    for move in moves:
        edges = [(corners[x], corners[y]) for x, y in zip(path, path[1:])]
        insertion = type(move) is tuple
        if insertion:
            u, p = move
            k = path.index(u) + 1
            tri = (u, p, path[k])
            path.insert(k, p)
        else:
            k = path.index(move)
            tri = path[k - 1 : k + 2]
            del path[k]
        try:
            plane = Plane(tuple(corners[i] for i in tri))
        except ValueError:  # a degenerate triangle
            return "self-intersecting-spanning-surface"
        hit = _triangle_clear(plane, sticks + edges, boxes + [bbox(e) for e in edges], insertion)
        if hit is not None:
            if hit < len(sticks):
                return "stationary-stick-meets-spanning-surface"
            return "self-intersecting-spanning-surface"
    return None


def _certify_top(rot_v, t_a, t_b, stationary):
    """Exact certificate for one candidate top reduction.

    ``rot_v`` is the reduced polygon from j_a on (vertical a, top stick,
    vertical b, chain f_b .. f_a) and t_a, t_b the tips, all in the same
    coordinates; ``stationary`` holds the other sticks and their boxes.
    Coinciding tips reject the candidate.  Else the shapes of ``_SHAPES``
    are tried in order, each four Δ-moves (Reidemeister, Knotentheorie,
    1932) carrying the old path (vertical, top stick, vertical) onto the new
    one (extension, connector, extension).  Legal moves keep the reduced
    polygon, which :func:`triangle_reductions` proved embedded by the
    paper's lemma, embedded and of its knot type, so the first shape whose
    moves are all legal certifies the candidate with no embedding check;
    else the last shape's reason is returned.
    """
    if t_a == t_b:
        return False, "extension-tips-coincide"
    corners = (*rot_v[:4], t_a, t_b)
    for moves in _SHAPES:
        reason = _shape_failure(corners, moves, stationary)
        if reason is None:
            return True, ""
    return False, reason


@dataclass(frozen=True)
class Certificate:
    """Machine-checked record of one full build."""

    n: int
    shift: int
    beta: tuple
    heights: tuple
    layout_retry: int
    sticks_final: int
    reduced_chords: tuple
    top_reduction: str
    top_length: Optional[int]
    bound: Fraction
    bound_satisfied: bool
    invariants_match: bool
    determinant: int
    determinant_out: int
    alexander_in: str
    alexander_out: str


def build_full(ap: ArcPresentation, top: bool = True):
    """Normalize, lift, reduce, certify; returns (StickKnot, Certificate).

    K2 and its collapses are proved by the paper's lemma in
    :func:`triangle_reductions`, not by the full check.  K2 is lifted from
    the (n, retry) plan's lattice image at the integer heights themselves
    (the lattice's scale D_z is 1), so every stage from the lemma's checks
    to the final embedding check runs on that image; one chord walk of the
    shift serves the heights, β, the lift and the lemma.  The stick
    accounting alone counts the collapses: each reduced vertex is a bend.
    x and y are then divided by the plan scale D_p once, and the projection
    takes those true points.  The invariant check compares the exact
    diagram of the input presentation with a generic projection of the
    output polygon (determinant and normalized Alexander polynomial); a
    mismatch is reported, not repaired.
    """
    if ap.n < 3:
        raise InvalidArcPresentation("full build needs at least 3 chords")
    norm, shift = normalize(ap)
    _, retry, crossings = layout(norm)
    walk, nb, anchors = _cycle_reads(norm, crossings)
    z = _assign_heights(anchors)
    _, beta = classify(norm, nb)
    n = norm.n
    _, _, scales, grid = _plan(n, retry)
    k2 = _polygon(walk, z, grid)
    reduced, reduced_chords = triangle_reductions(norm, k2, z, grid, anchors)
    if top:
        final, status, top_len = top_reduction(reduced)
    else:
        final, status, top_len = reduced, "skipped:disabled", None
    embf = polygon_embedded(final.vertices)
    if not embf.ok:
        raise InternalVerificationError(f"final polygon not embedded: {embf.failures}")
    sticks = stick_count(final)
    expected = n + beta.beta1 - 1 if status == "applied" else n + beta.beta1 + 1
    if sticks != expected:
        raise InternalVerificationError(
            f"stick accounting: counted {sticks}, expected {expected}"
        )
    bound = theorem2_upper(n)
    dp = scales[0]
    true_v = tuple((Fraction(x, dp), Fraction(y, dp), Fraction(h)) for x, y, h in final.vertices)
    rep = invariants.match(ap, invariants.project(true_v))
    cert = Certificate(
        n=n,
        shift=shift,
        beta=beta.as_tuple(),
        heights=z,
        layout_retry=retry,
        sticks_final=sticks,
        reduced_chords=reduced_chords,
        top_reduction=status,
        top_length=top_len,
        bound=bound,
        bound_satisfied=sticks <= bound,
        invariants_match=rep.ok,
        determinant=rep.det1,
        determinant_out=rep.det2,
        alexander_in=str(rep.alex1),
        alexander_out=str(rep.alex2),
    )
    return StickKnot(true_v, final.roles), cert


def polygon_json(cert: Certificate, knot: StickKnot) -> dict:
    """The documented JSON shape for one build result."""
    return {
        "n": cert.n,
        "shift": cert.shift,
        "beta": list(cert.beta),
        "sticks": cert.sticks_final,
        "bound_num": "3(n-1)",
        "bound": str(cert.bound),
        "bound_satisfied": cert.bound_satisfied,
        "top_reduction": cert.top_reduction,
        "vertices": [[str(c) for c in v] for v in knot.vertices],
        "edge_roles": list(knot.roles),
        "invariants_match": cert.invariants_match,
        "determinant": cert.determinant,
    }


def knot_from_json(d: dict) -> StickKnot:
    """The polygon of a build's JSON; raises ValueError on a malformed vertex.

    Each coordinate must be "p" or "p/q", as ``polygon_json`` writes it: no
    exponents, since Fraction("1e10000000") alone takes seconds to build.
    """
    matches = []
    for i, v in enumerate(d["vertices"]):
        if not isinstance(v, (list, tuple)) or len(v) != 3:
            raise ValueError(f"vertex {i} is not a list of three coordinates: {v!r}")
        matches.append([type(c) is str and _RATIONAL.fullmatch(c) for c in v])
        if not all(matches[-1]):
            raise ValueError(f"vertex {i} has a coordinate other than p or p/q: {v!r}")
    verts = tuple(tuple(Fraction(int(mt[1]), int(mt[2] or 1)) for mt in v) for v in matches)
    roles = tuple(d.get("edge_roles", ["?"] * len(verts)))
    return StickKnot(verts, roles)


def obj_export(knot: StickKnot) -> str:
    """Wavefront OBJ polyline (12 significant digits, presentation only)."""
    lines = []
    for v in knot.vertices:
        lines.append("v " + " ".join(f"{float(c):.12g}" for c in v))
    m = len(knot.vertices)
    lines.append("l " + " ".join(str(i) for i in range(1, m + 1)) + " 1")
    return "\n".join(lines) + "\n"
