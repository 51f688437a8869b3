"""Lift, reduce, certify: the geometric pipeline from chords to few sticks."""

import functools
import hashlib
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stickbound import arcpres, construct, geom, invariants
from stickbound.arcpres import (
    ArcPresentation,
    _neighbours,
    chord_walk,
    classify,
    layout,
    normalize,
    random_presentation,
)
from stickbound.construct import (
    _SHAPES,
    _certify_top,
    _shape_failure,
    _skip_reason,
    StickKnot,
    TriangleInfo,
    _assign_heights,
    _triangle_clear,
    assign_heights,
    build_full,
    build_k1,
    build_k2,
    knot_from_json,
    obj_export,
    polygon_json,
    reduction_triangles,
    stick_count,
    top_reduction,
    triangle_reductions,
    verify_heights,
)
from stickbound.errors import InternalVerificationError, InvalidArcPresentation
from stickbound.geom import (
    Plane,
    bbox,
    convex_failure,
    lattice,
    polygon_embedded,
    seg_triangle_intersection,
    triangle_pierced,
)
from stickbound.invariants import alexander
from test_geom import point_on_segment3
from test_invariants import reintersecting_diagram


def anchors_of(ap):
    """Each chord's anchor, apex and crossings from the apex, as a build
    reads them of ap's chord cycle and layout."""
    return construct._cycle_reads(ap, layout(ap)[2])[2]


def reductions_of(ap, k2):
    """triangle_reductions of k2 at ap's assigned heights and layout."""
    pts, _, _ = layout(ap)
    return triangle_reductions(ap, k2, assign_heights(ap), pts, anchors_of(ap))


def clear(edges, info):
    """_triangle_clear of a reduction triangle against ``edges``: the
    geometric check the collapses made before the lemma replaced it: the
    first stick that meets the triangle, or None."""
    hit = _triangle_clear(Plane(info.triangle), edges, [bbox(e) for e in edges], False)
    return None if hit is None else edges[hit]


def test_assign_heights_constraints(ap5):
    z = assign_heights(ap5)
    assert len(z) == ap5.n
    assert z[0] == 1 and z[1] == 2
    assert all(z[i] < z[i + 1] for i in range(len(z) - 1))
    _, _, crossings = layout(ap5)
    verify_heights(ap5, z, crossings)  # independent recheck must accept


def test_verify_heights_rejects_nonmonotone(ap5):
    z = assign_heights(ap5)
    _, _, crossings = layout(ap5)
    bad = z[:-1] + (z[-2],)
    with pytest.raises(InternalVerificationError):
        verify_heights(ap5, bad, crossings)


def test_verify_heights_rejects_squashed_clearance(ap5):
    # chord 4 must clear the chords crossing it; pulling it down to the bare
    # monotone minimum has to be caught by the visibility recheck
    _, _, crossings = layout(ap5)
    z = list(assign_heights(ap5))
    assert z[3] > z[2] + 1, "fixture should actually need clearance"
    z[3] = z[2] + 1
    with pytest.raises(InternalVerificationError):
        verify_heights(ap5, tuple(z), crossings)


def _clearances_on_fractions(ap, crossings, i):
    """(k, j, t) for each chord k < i crossing type-II/III chord i at fraction
    t from its apex, j its anchor, t a Fraction; None for a type-I chord."""
    nb = _neighbours(chord_walk(ap))
    anchor = max(((j + 1, p) for j, p in nb[i - 1] if j < i - 1), default=None)
    if anchor is None:
        return None
    j, apex = anchor
    near = apex == ap.chords[i - 1][0]
    hits = [(k, Fraction(*crossings[k, i])) for k in range(1, i) if (k, i) in crossings]
    return [(k, j, u if near else 1 - u) for k, u in hits]


def assign_heights_on_fractions(ap, crossings):
    """The former _assign_heights: the max of z_j + (z_k - z_j) / t as a
    Fraction, then its floor."""
    z = [0, 1, 2]
    for i in range(3, ap.n + 1):
        hits = _clearances_on_fractions(ap, crossings, i)
        vals = [z[j] + Fraction(z[k] - z[j]) / t for k, j, t in hits or () if z[k] > z[j]]
        z.append(max(z[i - 1] + 1, 1 + math.floor(max(vals))) if vals else z[i - 1] + 1)
    return tuple(z[1:])


def verify_heights_on_fractions(ap, z, crossings):
    """The first chord pair (k, i) of the former verify_heights' clearance
    test with z_k >= z_j + t (z_i - z_j), on a Fraction t, or None."""
    for i in range(3, ap.n + 1):
        for k, j, t in _clearances_on_fractions(ap, crossings, i) or ():
            if not z[k - 1] < z[j - 1] + t * (z[i - 1] - z[j - 1]):
                return k, i
    return None


def test_integer_heights_match_the_fraction_heights(concurrence9):
    """_assign_heights on each crossing's numerator and denominator gives the
    Fraction heights at n = 5..48 and on concurrence9; verify_heights, on
    integers too, rejects exactly the squashed heights the Fraction test
    rejects, naming the same chords."""
    aps = [random_presentation(n, 7919 * n + s) for n in range(5, 49) for s in range(2)]
    aps.append(concurrence9)
    rejected = 0
    for ap in aps:
        _, _, crossings = layout(ap)
        z = _assign_heights(anchors_of(ap))
        assert z == assign_heights_on_fractions(ap, crossings)
        verify_heights(ap, z, crossings)
        assert verify_heights_on_fractions(ap, z, crossings) is None
        for squash in (1, 2, 5, 1 << 20):
            low = list(z)
            for i in range(2, ap.n):
                low[i] = max(low[i - 1] + 1, z[i] - squash)
            want = verify_heights_on_fractions(ap, low, crossings)
            if want is None:
                verify_heights(ap, tuple(low), crossings)
                continue
            rejected += 1
            k, i = want
            with pytest.raises(InternalVerificationError) as err:
                verify_heights(ap, tuple(low), crossings)
            assert str(err.value) == f"chord {k} touches or pierces the triangle of chord {i}"
    assert rejected > len(aps)


def test_build_k1_counts_and_embedding():
    for seed in (0, 5, 11):
        n = 4 + seed % 7
        ap = random_presentation(n, seed)
        k1 = build_k1(ap)
        assert len(k1.vertices) == 2 * n
        assert stick_count(k1) == 2 * n
        assert polygon_embedded(k1.vertices).ok
        assert set(k1.roles) == {"horizontal", "vertical"}


def test_build_k2_keeps_count(ap5):
    k2 = build_k2(ap5)
    assert stick_count(k2) == 2 * ap5.n
    assert polygon_embedded(k2.vertices).ok


def test_reduction_triangle_shape(ap5):
    z = assign_heights(ap5)
    pts, _, _ = layout(ap5)
    infos = reduction_triangles(ap5, z, pts, anchors_of(ap5))
    assert infos, "trefoil has type II/III chords"
    for info in infos:
        a, b, c = info.triangle
        assert a[0] == b[0] and a[1] == b[1]  # vertical leg over the apex
        assert b[2] == c[2]  # horizontal leg at the lifted height
        assert a[2] == z[info.anchor - 1]
        assert b[2] == z[info.chord - 1]


def test_triangle_reductions_accounting():
    for seed in (3, 8, 21):
        n = 5 + seed % 6
        ap, _ = normalize(random_presentation(n, seed))
        _, beta = classify(ap)
        k2 = build_k2(ap)
        reduced, chords = reductions_of(ap, k2)
        assert stick_count(reduced) == 2 * n - (beta.beta2 + beta.beta3 - 1)
        assert polygon_embedded(reduced.vertices).ok
        assert len(chords) == beta.beta2 + beta.beta3 - 1
        assert reduced.roles.count("hypotenuse") == len(chords)
        assert list(chords) == sorted(chords)
        assert all(2 <= c <= n - 1 for c in chords)


def test_top_reduction_trefoil(ap5):
    ap, _ = normalize(ap5)
    k2 = build_k2(ap)
    reduced, _ = reductions_of(ap, k2)
    final, status, length = top_reduction(reduced)
    assert status == "applied"
    assert length >= 4
    assert stick_count(final) == 6
    assert final.roles.count("connector") == 1
    assert final.roles.count("extension") == 2
    assert polygon_embedded(final.vertices).ok


# 6 chords whose top move first certifies at L = 16
NEEDS_L16 = ArcPresentation([(1, 3), (2, 4), (1, 5), (4, 6), (2, 5), (3, 6)])


def test_top_reduction_respects_length_cap(monkeypatch):
    ap, _ = normalize(NEEDS_L16)
    k2 = build_k2(ap)
    reduced, _ = reductions_of(ap, k2)
    monkeypatch.setattr(construct, "DEFAULT_MAX_L", 8)
    final, status, length = top_reduction(reduced)
    assert status.startswith("skipped:")
    assert length is None
    assert final is reduced
    monkeypatch.setattr(construct, "DEFAULT_MAX_L", 16)
    assert top_reduction(reduced)[1:] == ("applied", 16)


def test_top_reduction_needs_a_horizontal_at_the_top(ap5, ap6_fig8):
    for ap in (ap5, ap6_fig8, NEEDS_L16, random_presentation(12, 7)):
        ap, _ = normalize(ap)
        reduced, _ = reductions_of(ap, build_k2(ap))
        verts, m = reduced.vertices, len(reduced.vertices)
        zn = max(v[2] for v in verts)
        flat = [i for i in range(m) if verts[i][2] == zn == verts[(i + 1) % m][2]]
        assert len(flat) == 1 and reduced.roles[flat[0]] == "horizontal"
        roles = list(reduced.roles)
        roles[flat[0]] = "hypotenuse"
        with pytest.raises(InternalVerificationError, match="top horizontal stick"):
            top_reduction(StickKnot(verts, tuple(roles)))


@pytest.mark.parametrize("n", range(5, 15))
def test_reduced_chords_are_the_hypotenuse_chords_in_order(n):
    # a hypotenuse of chord i ends at the corner at height z_i, its highest
    for seed in range(3):
        ap, _ = normalize(random_presentation(n, seed))
        _, beta = classify(ap)
        z = assign_heights(ap)
        reduced, chords = reductions_of(ap, build_k2(ap))
        tagged = [
            z.index(max(p[2], q[2])) + 1
            for (p, q), role in zip(reduced.edges(), reduced.roles)
            if role == "hypotenuse"
        ]
        assert chords == tuple(sorted(tagged))
        assert list(chords) == sorted(set(chords))
        assert len(chords) == beta.beta2 + beta.beta3 - 1


def test_build_full_trefoil_certificate(ap5):
    knot, cert = build_full(ap5)
    assert cert.n == 5
    assert cert.beta == (2, 1, 2)
    assert cert.sticks_final == 6
    assert cert.bound == Fraction(6)
    assert cert.bound_satisfied
    assert polygon_embedded(knot.vertices).ok
    assert cert.top_reduction == "applied"
    assert cert.reduced_chords == (3, 4)
    assert cert.determinant == 3 == cert.determinant_out
    assert cert.alexander_in == "t^2 - t + 1" == cert.alexander_out
    assert cert.invariants_match


def test_build_full_without_top_move(ap5):
    knot, cert = build_full(ap5, top=False)
    assert cert.top_reduction == "skipped:disabled"
    assert cert.sticks_final == cert.n + cert.beta[0] + 1 == 8
    assert not cert.bound_satisfied
    assert cert.invariants_match


def test_build_full_figure_eight(ap6_fig8):
    knot, cert = build_full(ap6_fig8)
    assert cert.determinant == 5
    assert cert.alexander_in == "t^2 - 3*t + 1"
    assert cert.invariants_match
    assert cert.sticks_final <= Fraction(3 * (cert.n - 1), 2)


def test_build_full_survives_layout_retry(concurrence9):
    knot, cert = build_full(concurrence9)
    assert cert.layout_retry >= 1
    assert polygon_embedded(knot.vertices).ok
    assert cert.invariants_match


def test_build_full_deterministic(ap6_fig8):
    k1, c1 = build_full(ap6_fig8)
    k2, c2 = build_full(ap6_fig8)
    assert k1.vertices == k2.vertices
    assert c1 == c2


def test_build_full_rejects_tiny_or_invalid():
    from stickbound.arcpres import ArcPresentation

    with pytest.raises(InvalidArcPresentation):
        build_full(ArcPresentation([(1, 2), (1, 2)]))
    with pytest.raises(InvalidArcPresentation):
        build_full(ArcPresentation([(1, 2), (2, 3), (1, 3), (1, 3)]))


def test_build_full_validates_nothing(concurrence9, monkeypatch):
    """The input is valid by construction and its shift is a rotation of
    it, so a build makes no require_valid call, shifted or not."""
    calls = []
    original = arcpres.require_valid

    def counted(p):
        calls.append(p)
        original(p)

    aps = [random_presentation(12, 5), concurrence9, random_presentation(24, 5)]
    monkeypatch.setattr(arcpres, "require_valid", counted)
    shifts = set()
    for ap in aps:
        shifts.add(build_full(ap)[1].shift > 0)
    assert calls == [] and shifts == {False, True}


@pytest.mark.parametrize("top", [True, False])
def test_a_skipped_collapse_fails_the_stick_accounting(ap5, concurrence9, monkeypatch, top):
    """build_full counts the collapses only by its stick accounting: with
    triangle_reductions skipping one collapse, the corner left in place is
    a bend, so the count is off by one and the build raises there, with the
    top move on and off."""
    triangles = construct.reduction_triangles

    def one_fewer(ap, *args):
        infos = triangles(ap, *args)
        skip = next(t for t in infos if t.chord < ap.n)
        return [t for t in infos if t is not skip]

    aps = [ap5, concurrence9, random_presentation(24, 5), random_presentation(8, 1)]
    monkeypatch.setattr(construct, "reduction_triangles", one_fewer)
    for ap in aps:
        with pytest.raises(InternalVerificationError, match="^stick accounting: counted"):
            build_full(ap, top=top)


PIERCED = r"chord (\d+) touches or pierces the triangle of chord (\d+)"


@pytest.mark.parametrize("n, seed", [(5, 3), (9, 2), (12, 5), (16, 7)])
def test_build_full_leaves_the_height_recheck_to_the_sweep(monkeypatch, n, seed):
    """Heights with one chord squashed to the bare monotone minimum are
    refused by sweep_triangles, the lemma's third condition, with
    verify_heights' message: it names the squashed chord i and a chord k < i
    whose horizontal meets the triangle of chord i in K2.  build_full never
    calls verify_heights, and sweeps once, on the very anchors table its
    heights were assigned from."""
    ap = normalize(random_presentation(n, seed))[0]
    original = construct._assign_heights
    squashed = []

    def squash(anchors):
        z = list(original(anchors))
        i = next(i for i in range(2, len(z)) if z[i] > z[i - 1] + 1)
        z[i] = z[i - 1] + 1
        with pytest.raises(InternalVerificationError, match="pierces the triangle") as e:
            verify_heights(ap, tuple(z), layout(ap)[2])
        squashed.append((i + 1, str(e.value), tuple(z), anchors))
        return tuple(z)

    calls = []

    def counted(*args):
        calls.append(args)
        verify_heights(*args)

    swept = []
    sweep = construct.sweep_triangles

    def recorded(*args):
        swept.append(args)
        return sweep(*args)

    monkeypatch.setattr(construct, "_assign_heights", squash)
    monkeypatch.setattr(construct, "verify_heights", counted)
    monkeypatch.setattr(construct, "sweep_triangles", recorded)
    with pytest.raises(InternalVerificationError, match="pierces the triangle") as e:
        build_full(random_presentation(n, seed))
    ((chord, message, z, anchors),) = squashed
    assert str(e.value) == message and calls == []
    # one sweep by the verify_heights call in squash, one by build_full
    assert swept == [(ap, z, anchors)] * 2 and swept[1][2] is anchors
    k, i = map(int, re.fullmatch(PIERCED, message).groups())
    assert i == chord and k < i
    # the geometric sweep agrees: chord k's horizontal meets chord i's triangle
    k2 = construct._polygon(chord_walk(ap), z, layout(ap)[0])
    (horizontal,) = [(p, q) for p, q in k2.edges() if p[2] == q[2] == z[k - 1]]
    infos = reduction_triangles(ap, z, layout(ap)[0], anchors_of(ap))
    info = next(t for t in infos if t.chord == i)
    assert clear([horizontal], info) == horizontal


def test_stick_count_merges_collinear_runs():
    verts = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0))
    knot = StickKnot(verts, ("a",) * 5)
    assert stick_count(knot) == 4


def test_polygon_json_schema(ap5):
    knot, cert = build_full(ap5)
    doc = polygon_json(cert, knot)
    assert list(doc) == [
        "n",
        "shift",
        "beta",
        "sticks",
        "bound_num",
        "bound",
        "bound_satisfied",
        "top_reduction",
        "vertices",
        "edge_roles",
        "invariants_match",
        "determinant",
    ]
    assert doc["bound_num"] == "3(n-1)"
    assert doc["bound"] == "6"
    assert doc["sticks"] == 6
    for vertex in doc["vertices"]:
        assert all(isinstance(c, str) for c in vertex)
        Fraction(vertex[0])  # parses exactly
    json.dumps(doc)  # serializable as-is


def test_knot_from_json_roundtrip(ap5):
    knot, cert = build_full(ap5)
    again = knot_from_json(polygon_json(cert, knot))
    assert again.vertices == knot.vertices
    assert again.roles == knot.roles


def test_obj_export_polyline(ap3):
    knot, _ = build_full(ap3)
    text = obj_export(knot)
    lines = text.strip().splitlines()
    m = len(knot.vertices)
    assert len(lines) == m + 1
    assert all(line.startswith("v ") for line in lines[:m])
    assert lines[m] == "l " + " ".join(str(i) for i in range(1, m + 1)) + " 1"


# SHA-256 of the JSON `stickbound build` writes for random_presentation(n, seed),
# recorded before the exact box filter went in front of the predicates.
GOLDEN_BUILD_SHA256 = {
    (8, 1): "0f2a11f3373d2fa6b146f222ded2328fa30513233b1e9215be7f404a2f629149",
    (8, 2): "15237e83e56f40daca6e2c3c9fdb055530f90b7a7ebc623e21ac1760035e79db",
    (8, 3): "11259ca12e13a72b536ea4ea685f9f4fa38b84b5f42063af274d412a10405bfd",
    (12, 1): "4a8b04e2597e51ccf686bc8e1461270f6313263828733d66783e5bc40d3be7bf",
    (12, 2): "62b5e815c622e609990b727f987c63918f9547e24183b0dd10b05d1de98537b6",
    (12, 3): "6d40c7330d68418f35213f1edea0136fd3fb69c06ade4e9dda1913dd269a05e7",
    (16, 1): "ed32899aa37e21404de315d05c0b685297604c2181588dd191e6280ff20a7070",
    (16, 2): "77c9fff944caa3acc1eb1bc05c92a53da3e33fe89019abb7ab98f38ffc410148",
}


# The same with the cap DEFAULT_MAX_L at 8, recorded before the spanning-disk
# shapes became one table; the first five inputs skip the move at that cap.
GOLDEN_CAPPED_SHA256 = {
    (9, 16): "349b962400c79ed52f4a333a3b24138962ec29c1f8458708cba4805ff8bb84c7",
    (10, 43): "25b73b9b64f0160248e8e814eeb4b82e2e703a0b4d9cc27d98158b9b20e0eeeb",
    (11, 14): "5f3f82b4f0c0d00ca2b8a683713e0b02964a64aef58d9e2a26f05988e3fb52a7",
    (13, 3): "b262135e7d0609b11ae31da8c85cdf41bfabbeb113b8ca2bb84271592829ee18",
    (14, 23): "d1bfe30aea487490c2210cd2f12f05cc81877742cb5ce7f0fad1751dc18c93d2",
    (9, 1): "65c936a52f3e734ee9c9c8ce8ec08599a8773cd304d8b17d9db03d80db8c8935",
    (10, 1): "528d7dedb27caa74862e743cca1331fcb8697b2f8550e503bad43178dcde1b4c",
    (13, 1): "59d596336dcc6a08ad182fa9b2fd5888a307c421fe0849246610ff7790debe33",
}


def build_digest(n, seed):
    knot, cert = build_full(random_presentation(n, seed))
    text = json.dumps(polygon_json(cert, knot), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_BUILD_SHA256))
def test_build_json_matches_golden_digest(n, seed):
    assert build_digest(n, seed) == GOLDEN_BUILD_SHA256[n, seed]


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_CAPPED_SHA256))
def test_capped_build_json_matches_golden_digest(n, seed, monkeypatch):
    monkeypatch.setattr(construct, "DEFAULT_MAX_L", 8)
    assert build_digest(n, seed) == GOLDEN_CAPPED_SHA256[n, seed]


# One sha256 over the build JSON and repr(Certificate) of a wider corpus,
# recorded before the disk check's separating-plane rule: the first 128
# seeded 8-chord inputs, the two known 8-chord skips and the first 16 seeded
# 24-chord inputs.
CORPUS = [(8, 1000003 + i) for i in range(128)] + [(8, 601001851), (8, 941003160)]
CORPUS += [(24, 1000003 + i) for i in range(16)]
CORPUS_SHA256 = "fc45961cded80e71e2e011179adc6233e58a81dafaa6515c4ecf31211d1d330a"


def test_corpus_builds_match_the_recorded_digest():
    digest = hashlib.sha256()
    for n, seed in CORPUS:
        knot, cert = build_full(random_presentation(n, seed))
        text = json.dumps(polygon_json(cert, knot), indent=2) + "\n" + repr(cert) + "\n"
        digest.update(text.encode())
    assert digest.hexdigest() == CORPUS_SHA256


# Seeded inputs past 12 chords whose top move is skipped, and their sticks
SKIPPED_PAST_12 = {(64, 448000194): 82, (32, 1000055): 42}


@pytest.mark.parametrize("n,seed", sorted(SKIPPED_PAST_12))
def test_skipped_moves_past_12_chords_keep_an_embedded_polygon_in_the_bound(n, seed):
    knot, cert = build_full(random_presentation(n, seed))
    assert cert.top_reduction == "skipped:stationary-stick-meets-spanning-surface"
    assert cert.sticks_final == stick_count(knot) == SKIPPED_PAST_12[n, seed]
    assert polygon_embedded(lattice(knot.vertices)[1]).ok
    assert cert.invariants_match and cert.bound_satisfied


STATIONARY = "stationary-stick-meets-spanning-surface"
SELF = "self-intersecting-spanning-surface"

# The top move's certificate before it became four Δ-moves per shape, kept
# here as the reference: a triangulated spanning disk per shape between the
# old and the new path.  The corners by index: the old path j_a, top_a,
# top_b, j_b and the extension tips t_a, t_b.
J_A, TOP_A, TOP_B, J_B, T_A, T_B = range(6)
OLD_PATH = (J_A, TOP_A, TOP_B, J_B)
S1 = (J_A, TOP_A, T_A)  # swing triangles of sides a and b
S2 = (J_B, TOP_B, T_B)

# Spanning-disk shapes in the order they are tried: (interim path or None,
# steps).  Each step is a tuple of disk triangles; the first step starts from
# the old path, the second from the interim path.
DISKS = (
    # ruled_a, ruled_b: one ruled step, the middle quad split along either diagonal
    (None, ((S1, S2, (TOP_A, TOP_B, T_B), (TOP_A, T_B, T_A)),)),
    (None, ((S1, S2, (TOP_A, TOP_B, T_A), (TOP_B, T_B, T_A)),)),
    # two-step-b: the top stick and vertical b onto T_b, then vertical a and
    # the interim stick onto T_a; two-step-a mirrors it
    ((J_A, TOP_A, T_B, J_B), ((S2, (TOP_A, TOP_B, T_B)), (S1, (TOP_A, T_B, T_A)))),
    ((J_A, T_A, TOP_B, J_B), ((S1, (TOP_A, TOP_B, T_A)), (S2, (TOP_B, T_B, T_A)))),
)


def tri_edges(t):
    return ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))


def disk_parts(corners, before, tris):
    """Triangles, shared simplices, rim and kept path sticks of one disk step.

    ``tris`` index into ``corners``, and ``before`` is the path the step
    starts from.  Two triangles may meet only in their common corners, the
    rim is every corner of the step, and the sticks of the path that are no
    side of a disk triangle stay where they are during the step.
    """
    disk = tuple(tuple(corners[i] for i in t) for t in tris)
    shared = {
        (x, y): tuple(corners[i] for i in sorted(set(tris[x]) & set(tris[y])))
        for x in range(len(tris))
        for y in range(x + 1, len(tris))
    }
    rim = frozenset(corners[i] for t in tris for i in t)
    sides = {frozenset(e) for t in tris for e in tri_edges(t)}
    kept = [
        (corners[a], corners[b])
        for a, b in zip(before, before[1:])
        if frozenset((a, b)) not in sides
    ]
    return disk, shared, rim, kept


def test_disk_table_derives_the_hand_written_tables():
    # The tables the disk certificate spelled out by hand before its shapes
    # became data: per shape its interim path, and per step the triangles,
    # shared simplices, rim and the path sticks that stay put (besides the
    # sticks off the old path).
    corners = ("j_a", "top_a", "top_b", "j_b", "t_a", "t_b")
    j_a, top_a, top_b, j_b, t_a, t_b = corners
    s1 = (j_a, top_a, t_a)
    s2 = (j_b, top_b, t_b)
    hex_rim = frozenset(corners)
    ruled_a = (
        (s1, s2, (top_a, top_b, t_b), (top_a, t_b, t_a)),
        {
            (0, 1): (),
            (0, 2): (top_a,),
            (0, 3): (top_a, t_a),
            (1, 2): (top_b, t_b),
            (1, 3): (t_b,),
            (2, 3): (top_a, t_b),
        },
        hex_rim,
        [],
    )
    ruled_b = (
        (s1, s2, (top_a, top_b, t_a), (top_b, t_b, t_a)),
        {
            (0, 1): (),
            (0, 2): (top_a, t_a),
            (0, 3): (t_a,),
            (1, 2): (top_b,),
            (1, 3): (top_b, t_b),
            (2, 3): (top_b, t_a),
        },
        hex_rim,
        [],
    )
    two_step_b = (
        (
            (s2, (top_a, top_b, t_b)),
            {(0, 1): (top_b, t_b)},
            frozenset((top_a, top_b, j_b, t_b)),
            [(j_a, top_a)],
        ),
        (
            (s1, (top_a, t_b, t_a)),
            {(0, 1): (top_a, t_a)},
            frozenset((j_a, top_a, t_b, t_a)),
            [(t_b, j_b)],
        ),
    )
    two_step_a = (
        (
            (s1, (top_a, top_b, t_a)),
            {(0, 1): (top_a, t_a)},
            frozenset((j_a, top_a, top_b, t_a)),
            [(top_b, j_b)],
        ),
        (
            (s2, (top_b, t_b, t_a)),
            {(0, 1): (top_b, t_b)},
            frozenset((top_b, j_b, t_b, t_a)),
            [(j_a, t_a)],
        ),
    )
    expected = [
        (None, (ruled_a,)),
        (None, (ruled_b,)),
        ((j_a, top_a, t_b, j_b), two_step_b),
        ((j_a, t_a, top_b, j_b), two_step_a),
    ]
    derived = []
    for interim, steps in DISKS:
        path = None if interim is None else tuple(corners[i] for i in interim)
        parts = tuple(
            disk_parts(corners, before, tris) for before, tris in zip((OLD_PATH, interim), steps)
        )
        derived.append((path, parts))
    assert derived == expected


# (n, seed) of a seeded input whose top move the shape _SHAPES[k] certifies
# at L = 4 (ruled_a, ruled_b, two-step-b, two-step-a), and the first shape
# that does.  The four Δ-moves of ruled_a certify (8, 7), although its disk's
# swing triangles meet: s1 has left the polygon when s2's move is made.
CERTIFIED_BY = {0: (5, 1), 1: (6, 9), 2: (6, 15), 3: (8, 7)}
FIRST_SHAPE = {0: 0, 1: 1, 2: 2, 3: 0}


@pytest.mark.parametrize("k", sorted(CERTIFIED_BY))
def test_each_disk_shape_certifies_a_seeded_input(k, monkeypatch):
    ap, _ = normalize(random_presentation(*CERTIFIED_BY[k]))
    reduced, _ = reductions_of(ap, build_k2(ap))
    assert top_reduction(reduced)[1:] == ("applied", 4)
    monkeypatch.setattr(construct, "DEFAULT_MAX_L", 4)
    monkeypatch.setattr(construct, "_SHAPES", _SHAPES[k : k + 1])
    assert top_reduction(reduced)[1:] == ("applied", 4)
    first = FIRST_SHAPE[k]
    monkeypatch.setattr(construct, "_SHAPES", _SHAPES[: first + 1])
    assert top_reduction(reduced)[1:] == ("applied", 4)
    if first:  # the shapes tried before it do not certify the move
        monkeypatch.setattr(construct, "_SHAPES", _SHAPES[:first])
        assert top_reduction(reduced)[1].startswith("skipped:")


def clear_reference(knot, info):
    """Unfiltered loop: the stick _triangle_clear must report, or None."""
    a, b, c = info.triangle
    for p, q in knot.edges():
        if {p, q} in ({a, b}, {b, c}):
            continue
        if triangle_pierced(info.triangle, (p, q), frozenset((a, c))):
            return (p, q)
    return None


def avoids_reference(tris, rim, sticks):
    """No stick meets a disk triangle except at its own end that is a corner
    of the triangle and of the disk's rim."""
    for e in sticks:
        for tri in tris:
            ig = frozenset(p for p in e if p in tri and p in rim)
            if triangle_pierced(tri, e, ig):
                return False
    return True


def nondegenerate(tri):
    a, b, c = tri
    u, v = [tuple(x - y for x, y in zip(p, a)) for p in (b, c)]
    return any(u[i] * v[j] != u[j] * v[i] for i, j in ((0, 1), (1, 2), (2, 0)))


def within_reference(hit, shared):
    """Does a seg_triangle_intersection result lie in conv(shared)?"""
    if hit is None:
        return True
    if not shared:
        return False
    if len(shared) == 1:
        return hit == ("point", shared[0])
    return all(point_on_segment3(p, shared) for p in hit[1:])


def surface_reference(tris, shared_map):
    """The six-edge loop, with no separating-plane rule: each side of either
    triangle of a pair meets the other only in their shared simplex."""
    for (x, y), shared in shared_map.items():
        for t, u in ((tris[x], tris[y]), (tris[y], tris[x])):
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if not within_reference(seg_triangle_intersection(u, e), shared):
                    return False
    return True


def _grid_point(rng):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3))


def _random_triangle(rng):
    while True:
        tri = tuple(_grid_point(rng) for _ in range(3))
        if nondegenerate(tri):
            return tri


def test_filtered_triangle_checks_agree_with_unfiltered_loops():
    # Half-integer grid points: sticks on the triangle's plane, through its
    # corners and along its box faces are common.  The polygon runs through
    # the triangle's corners so that its legs and pinned corners occur too.
    rng = random.Random(1512)
    outcomes = set()
    for _ in range(300):
        tri = _random_triangle(rng)
        a, b, c = tri
        extra = [_grid_point(rng) for _ in range(rng.randint(2, 6))]
        verts = [a, b, c] + extra
        if any(verts[i] == verts[i - 1] for i in range(len(verts))):
            continue
        knot = StickKnot(tuple(verts), ("?",) * len(verts))
        info = TriangleInfo(2, 1, tri)
        hit = clear(knot.edges(), info)
        assert hit == clear_reference(knot, info)
        outcomes.add(hit is None)
    assert outcomes == {True, False}


def test_pierced_reduction_triangle_is_rejected_by_both_loops():
    ap, _ = normalize(random_presentation(10, 3))
    k2 = build_k2(ap)
    pts, _, _ = layout(ap)
    infos = reduction_triangles(ap, assign_heights(ap), pts, anchors_of(ap))
    for info in infos:
        assert clear(k2.edges(), info) is None
        assert clear_reference(k2, info) is None
    # a stick through the centroid of a triangle, across its plane
    info = infos[-1]
    a, b, c = info.triangle
    g = tuple(Fraction(x + y + z, 3) for x, y, z in zip(a, b, c))
    normal = (c[1] - b[1], b[0] - c[0], 0)  # horizontal, off the vertical plane
    stick = (
        tuple(u - v for u, v in zip(g, normal)),
        tuple(u + v for u, v in zip(g, normal)),
    )
    # prepended, so the stick is the first edge both loops test
    pierced = StickKnot(stick + k2.vertices, ("?", "?") + k2.roles)
    assert clear(pierced.edges(), info) == stick
    assert clear_reference(pierced, info) == stick
    # a stick along the triangle's horizontal leg, overlapping it in a segment
    mid = tuple(Fraction(x + y, 2) for x, y in zip(b, c))
    along = StickKnot((mid, c) + k2.vertices, ("?", "?") + k2.roles)
    assert clear(along.edges(), info) == (mid, c)
    assert clear_reference(along, info) == (mid, c)
    # a slanted stick through the centroid, as a hypotenuse laid down by an
    # earlier collapse would be, which the lemma rules out
    hyp = (
        tuple(u - v for u, v in zip(g, normal + (1,))),
        tuple(u + v for u, v in zip(g, normal + (1,))),
    )
    assert clear([hyp], info) == hyp
    assert clear(k2.edges() + [hyp], info) == hyp
    laid = StickKnot(hyp + k2.vertices, ("hypotenuse", "?") + k2.roles)
    assert clear_reference(laid, info) == hyp


def sweep_reference(knot, triangles):
    """The geometric sweep the lemma replaced: all (triangle, offending
    stick) pairs of ``knot``; empty means every triangle clear."""
    edges = knot.edges()
    return [(t, hit) for t in triangles if (hit := clear(edges, t))]


def two_pass_reference(ap, k2, z, pts):
    """The reductions proved by geometry: a sweep of k2, then a check of
    each triangle against the whole current polygon before it collapses."""
    infos = reduction_triangles(ap, z, pts, anchors_of(ap))
    if sweep_reference(k2, infos):
        raise InternalVerificationError("triangle not empty in lifted polygon")
    knot, chords = k2, []
    for info in infos:
        if info.chord >= ap.n or info.chord < 2:
            continue
        if clear(knot.edges(), info) is not None:
            raise InternalVerificationError("triangle pierced")
        a, b, c = info.triangle
        verts, roles = list(knot.vertices), list(knot.roles)
        idx = verts.index(b)
        if {verts[idx - 1], verts[(idx + 1) % len(verts)]} != {a, c}:
            raise InternalVerificationError("polygon structure unexpected")
        if idx == 0:
            verts = verts[1:] + verts[:1]
            roles = roles[1:] + roles[:1]
            idx = verts.index(b)
        del verts[idx]
        roles[idx - 1] = "hypotenuse"
        del roles[idx]
        knot = StickKnot(tuple(verts), tuple(roles))
        chords.append(info.chord)
    return knot, tuple(chords)


def _height_mutants(heights, rng):
    """Assigned heights, each chord lowered to its monotone minimum, and two
    random swaps of a pair of heights."""
    z = list(heights)
    yield z
    for i in range(2, len(z)):
        if z[i] > z[i - 1] + 1:
            yield z[:i] + [z[i - 1] + 1] + z[i + 1 :]
    for _ in range(2):
        i, j = rng.sample(range(len(z)), 2)
        w = list(z)
        w[i], w[j] = w[j], w[i]
        yield w


def test_lemma_matches_the_two_pass_loop():
    """On assigned, squashed and swapped heights, also with K2 rotated so
    that the first collapsed corner sits at index 0: strictly increasing
    heights get the geometric reference's verdict and result, and the others
    are refused as not increasing."""
    rng = random.Random(1603)
    outcomes = set()
    for n in range(5, 9):
        for seed in range(8):
            ap, _ = normalize(random_presentation(n, seed))
            pts, _, _ = layout(ap)
            anchors = anchors_of(ap)
            for z in _height_mutants(assign_heights(ap), rng):
                hz = tuple(z)
                k2 = construct._polygon(chord_walk(ap), z, pts)
                first = [t for t in reduction_triangles(ap, hz, pts, anchors) if 2 <= t.chord < n]
                r = k2.vertices.index(first[0].triangle[1]) if first else 0
                rotated = StickKnot(
                    k2.vertices[r:] + k2.vertices[:r], k2.roles[r:] + k2.roles[:r]
                )
                for knot in (k2, rotated):
                    try:
                        got, why = triangle_reductions(ap, knot, hz, pts, anchors), ""
                    except InternalVerificationError as e:
                        got, why = None, str(e)
                    if any(a >= b for a, b in zip(hz, hz[1:])):
                        assert re.fullmatch(r"chord (\d+) is not above chord (\d+)", why)
                        outcomes.add("not increasing")
                        continue
                    try:
                        expected = two_pass_reference(ap, knot, hz, pts)
                    except InternalVerificationError:
                        expected = None
                    assert got == expected, (n, seed, z)
                    assert got is not None or re.fullmatch(PIERCED, why)
                    outcomes.add(got is None)
    # returned, refused by the third condition, refused as not increasing
    assert outcomes == {True, False, "not increasing"}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(4, 24),
    seed=st.integers(0, 1 << 32),
    squash=st.lists(st.integers(0, 1 << 20), min_size=24, max_size=24),
    swap=st.integers(0, 1 << 32),
)
def test_lemma_verdict_matches_the_reference_at_squashed_heights(n, seed, squash, swap):
    """K2 lifted as build_full lifts it, at the assigned heights with each
    chord from the third on pulled down by a random amount but kept above
    the one before it: triangle_reductions refuses exactly where the
    geometric reference does, and otherwise returns its result.  The same
    heights with a neighbouring pair swapped are refused."""
    ap, _ = normalize(random_presentation(n, seed))
    pts, _, _ = layout(ap)
    grid = lattice(pts)[1]
    z = list(assign_heights(ap))
    for i in range(2, n):
        z[i] = max(z[i - 1] + 1, z[i] - squash[i])
    k2 = construct._polygon(chord_walk(ap), z, grid)
    try:
        expected = two_pass_reference(ap, k2, tuple(z), grid)
    except InternalVerificationError:
        expected = None
    try:
        got = triangle_reductions(ap, k2, tuple(z), grid, anchors_of(ap))
    except InternalVerificationError as e:
        assert re.fullmatch(PIERCED, str(e))
        got = None
    assert got == expected
    i = swap % (n - 1)
    z[i], z[i + 1] = z[i + 1], z[i]
    with pytest.raises(InternalVerificationError, match=f"chord {i + 2} is not above chord {i + 1}"):
        k2 = construct._polygon(chord_walk(ap), z, grid)
        triangle_reductions(ap, k2, tuple(z), grid, anchors_of(ap))


def test_reductions_make_no_geometric_check(monkeypatch):
    """On K2 in true coordinates and on its lattice image, lifted as
    build_full lifts it, at the integer heights themselves: the collapses
    make no triangle_pierced call and give the two-pass reference's
    result."""
    ap, _ = normalize(random_presentation(10, 3))
    pts, _, _ = layout(ap)
    z = assign_heights(ap)
    (dp, dz), grid = lattice(pts)
    assert dp > 1 and dz == 1
    for k2, points in ((build_k2(ap), pts), (construct._polygon(chord_walk(ap), z, grid), grid)):
        expected = two_pass_reference(ap, k2, z, points)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(construct, "triangle_pierced", lambda *args: calls.append(args))
            got = triangle_reductions(ap, k2, z, points, anchors_of(ap))
        assert calls == [] and got == expected
        assert len(got[1]) >= 3


def test_build_full_sweeps_the_lifted_polygon_once(ap6_fig8, monkeypatch):
    """sweep_triangles, the lemma's proof of every triangle of the lifted
    polygon, runs once per build, on its heights and each chord's anchor,
    apex and layout crossings from the apex, read off one chord walk."""
    sweeps = []
    sweep = construct.sweep_triangles

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(construct, "sweep_triangles", counted)
    _, cert = build_full(ap6_fig8)
    ((ap, z, anchors),) = sweeps
    assert ap == normalize(ap6_fig8)[0] and z == cert.heights
    assert anchors == anchors_of(ap)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(3, 24),
    seed=st.integers(0, 1 << 32),
    gaps=st.lists(st.integers(1, 1 << 20), min_size=24, max_size=24),
    low=st.integers(-(1 << 20), 1 << 20),
)
def test_k2_at_any_increasing_heights_is_embedded(n, seed, gaps, low):
    """The lemma build_full rests on: K2 lifted from the layout's lattice
    points, which are in strictly convex position, at any strictly
    increasing integer heights passes the full embedding check."""
    ap = random_presentation(n, seed)
    pts, _, _ = layout(ap)
    grid = lattice(pts)[1]
    assert convex_failure(grid) is None
    z = [low + sum(gaps[:k]) for k in range(n)]
    k2 = construct._polygon(chord_walk(ap), z, grid)
    assert polygon_embedded(k2.vertices).ok


def _plan_reordered(monkeypatch, order):
    """The (n, retry) plan build_full lifts from, with its lattice points put
    in ``order`` (indices into them); the cached plan itself is untouched."""
    def reordered(n, retry):
        pts, hom, scales, grid = arcpres._plan(n, retry)
        return pts, hom, scales, tuple(grid[k] for k in order(n))

    monkeypatch.setattr(construct, "_plan", reordered)


def test_build_full_refuses_points_out_of_convex_position(ap5, ap6_fig8, monkeypatch):
    """Two binding points swapped turn the cycle right at the first of them;
    a pentagram order turns left everywhere but winds twice."""
    _plan_reordered(monkeypatch, lambda n: [0, 2, 1, *range(3, n)])
    with pytest.raises(InternalVerificationError, match="binding point 2 is not in strictly"):
        build_full(ap6_fig8)
    _plan_reordered(monkeypatch, lambda n: [0, 2, 4, 1, 3])
    with pytest.raises(InternalVerificationError, match="binding point 4 is not in strictly"):
        build_full(ap5)


def test_build_full_refuses_a_repeated_height(ap6_fig8, monkeypatch):
    real = construct._assign_heights

    def repeated(*args):
        z = list(real(*args))
        z[3] = z[2]
        return tuple(z)

    monkeypatch.setattr(construct, "_assign_heights", repeated)
    with pytest.raises(InternalVerificationError, match="chord 4 is not above chord 3"):
        build_full(ap6_fig8)


def test_build_full_checks_only_the_final_polygon_in_full(ap5, concurrence9, monkeypatch):
    """K2 is proved embedded by the lemma; polygon_embedded runs once, on
    the final polygon, with the top move applied or not."""
    checked = []

    def counted(vertices):
        checked.append(len(vertices))
        return polygon_embedded(vertices)

    monkeypatch.setattr(construct, "polygon_embedded", counted)
    for ap in (ap5, concurrence9, random_presentation(24, 5)):
        for top in (True, False):
            checked.clear()
            knot, cert = build_full(ap, top=top)
            assert checked == [len(knot.vertices)]


def test_build_full_walks_the_chord_cycle_at_most_three_times(concurrence9, monkeypatch):
    """A build walks the chord cycle, and maps the chords through each
    point, at most three times: normalize's scoring of the shifts, one walk
    of the chosen shift that every stage reads, and diagram of the input."""
    counts = Counter()
    for name in ("_walk", "_point_uses"):

        def counted(*args, _real=getattr(arcpres, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(arcpres, name, counted)
    for ap in (random_presentation(24, 5), random_presentation(8, 1), concurrence9):
        counts.clear()
        build_full(ap)
        assert set(counts) == {"_walk", "_point_uses"}
        assert max(counts.values()) <= 3, counts


def test_build_full_intersects_chords_only_in_layout(ap6_fig8, concurrence9, monkeypatch):
    """layout intersects the chords on the binding points' own integers, and
    project the edge shadows on each vertex's own integers: no stickbound
    module holds a line intersection."""
    layouts = []
    lay_out = arcpres.layout

    def counted_layout(ap):
        layouts.append(ap)
        return lay_out(ap)

    for module in (geom, arcpres, invariants, construct):
        assert not hasattr(module, "seg2_line_intersection")
    monkeypatch.setattr(arcpres, "layout", counted_layout)
    monkeypatch.setattr(construct, "layout", counted_layout)
    for ap in (ap6_fig8, concurrence9):
        layouts.clear()
        build_full(ap)
        # one layout, of the normalized shift; diagram(ap) lays nothing out
        assert layouts == [normalize(ap)[0]]


def test_build_full_diagram_is_the_diagram_of_the_input(concurrence9, monkeypatch):
    """build_full matches the grid diagram of the input itself, not of its
    shift, drawn once by invariants.match, and its alexander_in is that of
    the input's circle diagram."""
    drawn = []
    draw = arcpres.diagram

    def kept(ap):
        drawn.append(ap)
        return draw(ap)

    monkeypatch.setattr(invariants, "diagram", kept)
    shifts, retries = set(), set()
    aps = [concurrence9] + [random_presentation(5 + k % 10, 8800 + k) for k in range(30)]
    for ap in aps:
        drawn.clear()
        _, cert = build_full(ap)
        assert drawn == [ap]
        assert cert.alexander_in == str(alexander(reintersecting_diagram(ap)))
        shifts.add(cert.shift > 0)
        retries.add(cert.layout_retry > 0)
    assert shifts == retries == {False, True}


def certify_top_on_fractions(rot_v, cand_v, t_a, t_b):
    """The spanning-disk _certify_top, which runs every check on the points
    as given, Fractions included, each embedding test on the whole polygon
    and each pair of disk triangles by the plain six-edge loop.

    The new polygon must be embedded, and some shape of DISKS must span the
    old and the new path by a disk whose triangles meet each other only in
    their shared simplices and no stationary stick except at the rim.  A
    two-step shape also needs an embedded interim polygon.
    """
    if t_a == t_b:
        return False, "extension-tips-coincide"
    emb = polygon_embedded(cand_v)
    if not emb.ok:
        return False, f"result-not-embedded:{emb.failures[0]}"
    for shape in DISKS:
        reason = disk_failure(rot_v, (*rot_v[:4], t_a, t_b), shape)
        if reason is None:
            return True, ""
    return False, reason


def disk_failure(rot_v, corners, shape):
    """Why the disk of one shape of DISKS fails, or None."""
    interim, steps = shape
    m = len(rot_v)
    outside = [(rot_v[i], rot_v[i + 1]) for i in range(4, m - 1)]
    outside += [(rot_v[-1], rot_v[0]), (rot_v[3], rot_v[4])]
    if interim is not None:
        path = [corners[i] for i in interim]
        if len(set(path)) < 4 or not polygon_embedded(path + rot_v[4:]).ok:
            return "interim-polygon-not-embedded"
    for before, tris in zip((OLD_PATH, interim), steps):
        disk, shared, rim, kept = disk_parts(corners, before, tris)
        if not all(map(nondegenerate, disk)) or not surface_reference(disk, shared):
            return "self-intersecting-spanning-surface"
        if not avoids_reference(disk, rim, outside + kept):
            return "stationary-stick-meets-spanning-surface"
    return None


def _top_move(ap):
    """(rot_v, j_a, d_a, j_b, d_b) of the top move of ap's build, read off the
    first candidate top_reduction certifies: tip = j + L * d.  The candidate
    arrives in the reduced polygon's own coordinates."""
    norm, _ = normalize(ap)
    reduced, _ = reductions_of(norm, build_k2(norm))
    calls = []

    def first_call(rot_v, t_a, t_b, stationary=None):
        calls.append(rot_v + [t_a, t_b])
        return True, ""

    construct._certify_top, real = first_call, construct._certify_top
    try:
        top_reduction(reduced)
    finally:
        construct._certify_top = real
    *rot_v, t_a, t_b = calls[0]
    j_a, j_b = rot_v[0], rot_v[3]
    d_a = tuple((t - j) / 4 for t, j in zip(t_a, j_a))
    d_b = tuple((t - j) / 4 for t, j in zip(t_b, j_b))
    return rot_v, j_a, d_a, j_b, d_b


def _top_moves(count, seed):
    """_top_move of seeded random presentations with 5..14 chords."""
    rng = random.Random(seed)
    return [
        _top_move(random_presentation(rng.randint(5, 14), rng.randrange(1 << 30)))
        for _ in range(count)
    ]


def _tips(move, la, lb):
    """The tips of a _top_move at lengths L_a = la and L_b = lb."""
    _, j_a, d_a, j_b, d_b = move
    t_a = tuple(j + la * d for j, d in zip(j_a, d_a))
    t_b = tuple(j + lb * d for j, d in zip(j_b, d_b))
    return t_a, t_b


def named(rot_v, t_a, t_b, verdict):
    """A verdict of _certify_top, a rejection renamed as top_reduction
    names a skip (_skip_reason)."""
    ok, why = verdict
    return ok, why if ok else _skip_reason(rot_v, t_a, t_b, why)


def on_lattice(rot_v, t_a, t_b):
    """_certify_top's arguments on one lattice image of the move's points,
    as build_full's top move passes them, with the stationary sticks in the
    reference's order."""
    m = len(rot_v)
    _, image = lattice(rot_v + [t_a, t_b])
    rot_v = image[:m]
    outside = [(rot_v[i], rot_v[i + 1]) for i in range(4, m - 1)]
    outside += [(rot_v[-1], rot_v[0]), (rot_v[3], rot_v[4])]
    return rot_v, *image[m:], (outside, [bbox(e) for e in outside])


def certify_on_lattice(rot_v, t_a, t_b):
    """_certify_top on_lattice, a rejection named as a skip."""
    args = on_lattice(rot_v, t_a, t_b)
    return named(*args[:3], _certify_top(*args))


def test_certify_top_on_the_lattice_matches_the_fraction_checks():
    """The Δ-moves on one lattice image give the spanning-disk reference's
    verdict on every candidate, and its reason at the lengths L >= 4 the
    doubling search tries.  At the other lengths a Δ-move may fail first
    where the reference rejects an interim polygon."""
    # (L_a, L_b): the doubling search's lengths, shorter ones, and asymmetric
    # pairs with one tip pulled back along its stick
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    pairs = [(x, x) for x in (eighth, half, 1, 2, 4, 1 << 10)]
    pairs += [(2, -half), (-half, 2), (4, -eighth)]
    reasons = set()
    for move in _top_moves(28, 1203):
        rot_v = move[0]
        cands = [_tips(move, la, lb) for la, lb in pairs]
        # pinched: tip b on a vertex of the unchanged chain
        cands.append((cands[4][0], rot_v[len(rot_v) // 2 + 2]))
        for (la, lb), (t_a, t_b) in zip(pairs + [(4, None)], cands):
            cand_v = [t_a, t_b] + rot_v[4:]
            got = certify_on_lattice(rot_v, t_a, t_b)
            want = certify_top_on_fractions(rot_v, cand_v, t_a, t_b)
            assert got[0] == want[0]
            if la == lb and la in (4, 1 << 10):
                assert got == want
            reasons.add(got[1].split(":")[0])
    assert reasons == {"", "result-not-embedded", "stationary-stick-meets-spanning-surface"}


@functools.cache
def _corpus_candidates():
    """(rot_v, t_a, t_b, stationary, verdict) for every candidate the builds
    of CORPUS and of SKIPPED_PAST_12 try."""
    calls = []
    certify = construct._certify_top

    def recorded(*args):
        calls.append((*args, certify(*args)))
        return calls[-1][-1]

    construct._certify_top = recorded
    try:
        for n, seed in CORPUS + sorted(SKIPPED_PAST_12):
            build_full(random_presentation(n, seed))
    finally:
        construct._certify_top = certify
    return calls


def test_top_moves_of_the_corpus_certify_as_the_disk_reference_did():
    """Every candidate the builds of CORPUS and of SKIPPED_PAST_12 try gets
    the verdict of the spanning-disk reference, and its reason once a
    rejection is named as a skip.  Shape by shape, the four Δ-moves are
    legal where the reference's disk certifies and not where a stationary
    stick meets the disk.  A disk whose triangles meet each other decides
    nothing: its Δ-moves may still be legal."""
    reasons, pairs = set(), set()
    for rot_v, t_a, t_b, stationary, verdict in _corpus_candidates():
        got = named(rot_v, t_a, t_b, verdict)
        assert got == certify_top_on_fractions(rot_v, [t_a, t_b] + rot_v[4:], t_a, t_b)
        reasons.add(got[1].split(":")[0])
        if got[1].startswith(("result", "extension")):
            continue
        corners = (*rot_v[:4], t_a, t_b)
        for shape, moves in zip(DISKS, _SHAPES):
            disk = disk_failure(rot_v, corners, shape)
            legal = _shape_failure(corners, moves, stationary) is None
            if disk is None:
                assert legal
            elif disk == STATIONARY:
                assert not legal
            pairs.add((disk, legal))
    assert reasons == {"", "result-not-embedded", STATIONARY}
    assert pairs == {(None, True), (STATIONARY, False), (SELF, True), (SELF, False)}


def test_coinciding_top_move_corners_reject_without_raising():
    # the two extensions of this move meet at L = 1/2; L = 1/4 certifies
    move = _top_move(random_presentation(7, 601702067))
    rot_v = move[0]
    t_a, t_b = _tips(move, Fraction(1, 2), Fraction(1, 2))
    assert t_a == t_b
    assert certify_on_lattice(rot_v, t_a, t_b) == (False, "extension-tips-coincide")
    t_a, t_b = _tips(move, Fraction(1, 4), Fraction(1, 4))
    assert certify_on_lattice(rot_v, t_a, t_b) == (True, "")
    # a tip on the other side's top corner makes a triangle of a two-step
    # shape degenerate: two-step-b's when t_b = top_a, two-step-a's when
    # t_a = top_b
    moves = _top_moves(10, 1203)
    t_a, _ = _tips(moves[0], 4, 4)
    rot_v = moves[0][0]
    assert certify_on_lattice(rot_v, t_a, rot_v[1]) == (True, "")
    _, t_b = _tips(moves[9], 4, 4)
    rot_v = moves[9][0]
    assert certify_on_lattice(rot_v, rot_v[2], t_b) == (
        False,
        "stationary-stick-meets-spanning-surface",
    )


def test_a_corner_off_its_neighbours_raises():
    """A hand-made K2 whose right-angle corner of a reduction triangle has
    the wrong neighbours, or is not a vertex at all, raises the
    InternalVerificationError of a broken structure, never a ValueError."""
    ap, _ = normalize(random_presentation(10, 3))
    k2 = build_k2(ap)
    pts, _, _ = layout(ap)
    anchors = anchors_of(ap)
    z = assign_heights(ap)
    infos = {t.chord: t for t in reduction_triangles(ap, z, pts, anchors_of(ap))}
    a, b, c = infos[3].triangle
    verts = list(k2.vertices)
    k, m = verts.index(b), len(verts)
    swapped = list(verts)
    swapped[k], swapped[(k + 1) % m] = verts[(k + 1) % m], b
    with pytest.raises(InternalVerificationError, match="polygon structure near chord 3"):
        triangle_reductions(ap, StickKnot(tuple(swapped), k2.roles), z, pts, anchors)
    # moved off the triangle's plane: the lemma's conditions hold, and the
    # collapse of chord 3 finds no corner b
    normal = (c[1] - b[1], b[0] - c[0], 0)
    verts[k] = tuple(x + Fraction(y) / 64 for x, y in zip(b, normal))
    with pytest.raises(InternalVerificationError, match="polygon structure near chord 3"):
        triangle_reductions(ap, StickKnot(tuple(verts), k2.roles), z, pts, anchors)


@pytest.mark.parametrize(
    "seed,status",
    [
        (601001851, "skipped:result-not-embedded:(1, 8, 'improper')"),
        (941003160, "skipped:result-not-embedded:(1, 8, 'improper')"),
    ],
)
def test_known_skips_report_the_full_checks_first_failure(seed, status):
    # the full check of the last candidate names the skip, ahead of the
    # last shape's reason
    _, cert = build_full(random_presentation(8, seed))
    assert cert.top_reduction == status


# A hand-made move.  The old path j_a, top_a, top_b, j_b bounds the square
# x, z in 0..4 of the plane y = 0, both feeding sticks run along y from
# y = 4, and the tips at L = 4 sit at y = -16.  The swing triangle s1 lies
# in the plane x = 0 at y <= 0.  Each case sets the chain from f_b to f_a.
HAND_PATH = ((0, 0, 0), (0, 0, 4), (4, 0, 4), (4, 0, 0), (4, 4, 0))
HAND_TIPS = ((0, -16, 0), (4, -16, 0))


@pytest.mark.parametrize(
    "chain,pinch,want",
    [
        # a stick beside s1
        (((1, 1, 1), (-1, 1, 1)), None, (True, "")),
        # a stick through s1
        (((1, -1, 1), (-1, -1, 1)), None, (False, "stationary-stick-meets-spanning-surface")),
        # a stick across extension a
        (((1, -2, 0), (-1, -2, 0)), None, (False, "result-not-embedded:(3, 5, 'improper')")),
        # tip b pinched onto a chain vertex
        (((1, 2, 2),), (1, 2, 2), (False, "result-not-embedded:(0, 2, 'shared-endpoint')")),
    ],
)
def test_incremental_and_full_checks_reject_the_same_mutants(chain, pinch, want):
    """The Δ-moves, a rejection named by the full check, and the
    spanning-disk reference give each hand-made move the same verdict."""
    rot_v = [tuple(map(Fraction, p)) for p in HAND_PATH + chain + ((0, 4, 0),)]
    t_a, t_b = (tuple(map(Fraction, p)) for p in (HAND_TIPS[0], pinch or HAND_TIPS[1]))
    assert polygon_embedded(rot_v).ok
    cand_v = [t_a, t_b] + rot_v[4:]
    assert certify_on_lattice(rot_v, t_a, t_b) == want
    assert certify_top_on_fractions(rot_v, cand_v, t_a, t_b) == want
    if not want[1].startswith("result"):  # the stick misses s1, or pierces it
        assert triangle_pierced((rot_v[0], rot_v[1], t_a), rot_v[5:7]) == (not want[0])


@functools.cache
def _property_moves():
    return _top_moves(20, 1807)


_LENGTHS = st.one_of(
    st.integers(1, 1 << 12), st.fractions(Fraction(-7, 8), 64, max_denominator=16)
)


def embedded_where_certified(rot_v, t_a, t_b, stationary, verdict):
    """Whether a shape certified the candidate, whose new polygon must then
    be embedded."""
    if verdict[0]:
        assert t_a != t_b and polygon_embedded([t_a, t_b] + rot_v[4:]).ok
    return verdict[0]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    k=st.integers(0, 19),
    la=_LENGTHS,
    lb=_LENGTHS,
    pinch=st.sampled_from((None, "a", "b")),
    at=st.integers(0, 1 << 10),
)
def test_certified_candidates_are_embedded(k, la, lb, pinch, at):
    """Legal Δ-moves on the embedded reduced polygon keep it embedded: every
    candidate a shape certifies, at integer, fractional and asymmetric L
    and with a tip pinched onto the chain, has an embedded new polygon."""
    move = _property_moves()[k]
    rot_v = move[0]
    t_a, t_b = _tips(move, la, lb)
    chain = rot_v[5:-1]  # vertices of the chain off both feeding sticks
    if pinch and chain:
        t_a, t_b = (chain[at % len(chain)], t_b) if pinch == "a" else (t_a, chain[at % len(chain)])
    args = on_lattice(rot_v, t_a, t_b)
    embedded_where_certified(*args, _certify_top(*args))


def test_certified_candidates_of_the_corpus_are_embedded():
    """Every candidate of the CORPUS and SKIPPED_PAST_12 builds that a shape
    certifies has an embedded new polygon."""
    certified = [embedded_where_certified(*call) for call in _corpus_candidates()]
    assert True in certified and False in certified
