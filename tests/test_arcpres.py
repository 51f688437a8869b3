import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest as reference
from stickbound import arcpres
from stickbound.arcpres import (
    ArcPresentation,
    ChordType,
    _gauss_diagram,
    chord_walk,
    classify,
    crossing_pairs,
    cyclic_shift,
    destabilize_top,
    diagram,
    layout,
    normalize,
    parse,
    random_presentation,
    require_valid,
    serialize,
    simplify,
)
from stickbound.errors import InvalidArcPresentation
from stickbound.geom import binding_points, orient2d
from stickbound.invariants import alexander
from test_invariants import _mutant, reintersecting_diagram, seg2_line_intersection


def test_validate_good():
    ap = ArcPresentation([(4, 1), (3, 5), (2, 4), (1, 3), (5, 2)])
    assert ap.chords == ((1, 4), (3, 5), (2, 4), (1, 3), (2, 5))


# each bad chord list with a fragment of the message of the phase that rejects it;
# from chords5 on, chord 2 of the trefoil, (1, 4), is not a pair of ints
@pytest.mark.parametrize(
    "chords",
    [
        ([(1, 1), (1, 2), (2, 2)], "degenerate"),  # loops
        ([(1, 2), (1, 2), (3, 3)], "degenerate"),  # point 3 paired with itself
        ([(1, 2), (2, 3), (1, 4)], "outside 1..3"),  # label 4 of 3 chords
        ([(1, 2), (1, 2), (3, 4), (3, 4)], "not a single 4-cycle"),  # two 2-cycles
        ([(1, 2), (2, 3), (1, 3), (1, 4)], "used 1 times"),  # 1 thrice, 4 once
    ]
    + [
        (
            [(2, 5), chord, (3, 5), (2, 4), (1, 3)],
            f"chord 2 is not a pair of integer labels: {chord!r}",
        )
        for chord in [(1, 4, 5), (1.0, 4.0), ("1", "4"), ("1", 4), (True, 4), (1,), None]
    ]
    # from chords12 on, the chords themselves are not iterable
    + [(bad, "chords must be a sequence of label pairs") for bad in (None, 5, 1.5)],
)
def test_validate_bad(chords):
    bad, fragment = chords
    with pytest.raises(InvalidArcPresentation) as err:
        ArcPresentation(bad)
    assert fragment in str(err.value)


def test_classify_trefoil(ap5):
    types, beta = classify(ap5)
    assert types == (
        ChordType.I,
        ChordType.I,
        ChordType.II,
        ChordType.III,
        ChordType.III,
    )
    assert beta.as_tuple() == (2, 1, 2)


def test_beta_symmetry_random():
    for seed in range(40):
        n = 3 + seed % 9
        ap = random_presentation(n, seed)
        _, beta = classify(ap)
        assert beta.beta1 == beta.beta3
        assert beta.beta1 + beta.beta2 + beta.beta3 == n
        assert beta.beta1 >= 1


def test_normalize_bound_and_minimality():
    for seed in range(30):
        n = 4 + seed % 8
        ap = random_presentation(n, 1000 + seed)
        norm, k = normalize(ap)
        _, beta = classify(norm)
        assert beta.beta1 <= (n - 1) // 2
        # no shift does better
        for j in range(n):
            _, other = classify(cyclic_shift(ap, j))
            assert other.beta1 >= beta.beta1
        assert cyclic_shift(ap, k).chords == norm.chords


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
def test_normalize_builds_the_first_shift_of_least_beta1(n, seed):
    """normalize scores the shifts without building them; the reference
    builds and classifies every shift."""
    ap = random_presentation(n, seed)
    shifts = [cyclic_shift(ap, k) for k in range(n)]
    k = min(range(n), key=lambda j: classify(shifts[j])[1].beta1)
    assert normalize(ap) == (shifts[k], k)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_normalize_matches_the_quadratic_count(n, seed):
    """normalize's difference array picks the shift k, and builds the shifted
    presentation, that counting beta1 under every shift picks."""
    ap = random_presentation(n, seed)
    assert normalize(ap) == reference.normalize_by_counting(ap)


def test_normalize_matches_the_quadratic_count_on_seeded_presentations():
    for n in range(3, 65):
        for s in range(8):
            ap = random_presentation(n, 9500 * n + s)
            assert normalize(ap) == reference.normalize_by_counting(ap), (n, s)


def test_cyclic_shift_identity(ap5):
    assert cyclic_shift(ap5, 0).chords == ap5.chords
    assert cyclic_shift(ap5, ap5.n).chords == ap5.chords
    assert cyclic_shift(cyclic_shift(ap5, 2), 3).chords == ap5.chords


def test_destabilize_unknot4(unknot4):
    smaller = destabilize_top(unknot4)
    assert smaller is not None
    assert smaller.n == 3


def test_destabilize_requires_type_two(ap5):
    # trefoil is already at its arc index; chord 4 is type III
    assert destabilize_top(ap5) is None


def test_simplify_runs_to_fixpoint(unknot4):
    # 4-chord unknot collapses through the triangle to the doubled pair
    reduced, steps = simplify(unknot4)
    assert steps == 2
    assert reduced.n == 2
    trefoil, steps = simplify(ArcPresentation([(1, 4), (3, 5), (2, 4), (1, 3), (2, 5)]))
    assert steps == 0 and trefoil.n == 5  # already at its arc index


def test_parse_serialize_roundtrip(ap5):
    text = serialize(ap5)
    assert parse(text).chords == ap5.chords
    decorated = "# a comment\n\n" + text.replace("\n", "\r\n")
    assert parse(decorated).chords == ap5.chords


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no chord count"),
        ("2 3\n", "first data line"),
        ("x\n", "not an integer"),
        ("3\n1 2\n2 3\n", "expected 3 chords"),
        ("3\n1 2\n2 3\n1 3\n1 2\n", "extra data (line 5)"),
        ("3\n1 2\n2 9\n1 3\n", "line 3"),
        ("3\n1 2\nnope\n1 3\n", "line 3"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InvalidArcPresentation) as err:
        parse(text)
    assert fragment in str(err.value)


def test_random_presentation_deterministic_and_valid():
    a = random_presentation(9, 123)
    b = random_presentation(9, 123)
    assert a.chords == b.chords
    assert random_presentation(9, 124).chords != a.chords
    for n in range(2, 33):
        for seed in range(25):
            ap = random_presentation(n, seed)
            require_valid(ap)
            assert ap.n == n and all(a < b for a, b in ap.chords)


# One sha256 over serialize(random_presentation(n, seed)) for n = 2..48 and
# seeds 0..19, recorded while the sampler still built a validated
# ArcPresentation for every draw: the stream of draws is pinned.
RANDOM_STREAM_SHA256 = "baa1f7066600f918a1ef053533c56823390b601ab6396929f7e04d127558e635"


def test_random_presentation_stream_matches_the_recorded_digest():
    digest = hashlib.sha256()
    for n in range(2, 49):
        for seed in range(20):
            digest.update(serialize(random_presentation(n, seed)).encode())
    assert digest.hexdigest() == RANDOM_STREAM_SHA256


def _slot_pairings(n):
    slots = [p for p in range(1, n + 1) for _ in range(2)]
    return st.permutations(slots).map(lambda s: tuple(zip(s[::2], s[1::2])))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 9).flatmap(_slot_pairings))
@example(((1, 1), (2, 2)))  # degenerate chords
@example(((1, 2), (3, 3), (1, 2)))  # a degenerate chord beside a 2-cycle
@example(((1, 2), (2, 1), (3, 4), (4, 3)))  # two cycles
@example(((2, 3), (1, 3), (1, 2), (4, 5), (5, 6), (4, 6)))  # two 3-cycles
@example(((2, 1), (3, 2), (1, 3)))  # one cycle, pairs unsorted
def test_the_samplers_acceptance_is_arc_presentation_validity(chords):
    """On any pairing of the slot multiset, each label twice, the test the
    sampler runs on a draw accepts exactly what ArcPresentation accepts."""
    try:
        ArcPresentation(chords)
        valid = True
    except InvalidArcPresentation:
        valid = False
    assert arcpres._single_cycle(chords) is valid


def test_layout_general_position(ap5):
    pts, retry, _ = layout(ap5)
    assert retry == 0
    assert len(pts) == ap5.n and len(set(pts)) == ap5.n


def test_layout_retries_past_concurrence(concurrence9):
    pts, retry, crossings = layout(concurrence9)
    assert retry >= 1
    # after the retry every interior crossing is a plain double point
    segs = [(pts[a - 1], pts[b - 1]) for a, b in concurrence9.chords]
    points = [seg2_line_intersection(segs[i - 1], segs[j - 1])[2] for i, j in crossings]
    assert len(points) == len(set(points)) == len(crossing_pairs(concurrence9))


def test_diagram_trefoil(ap5):
    d = diagram(ap5)
    assert len(d.crossings) == 3
    assert len(d.gauss) == 6
    assert len(d.arcs) == 6
    for c in d.crossings:
        assert c.over % 2 == 1 and c.under % 2 == 0  # verticals pass over
    # the grid trefoil is alternating, and all three signs agree
    overs = [over for _, over in d.gauss]
    assert all(x != y for x, y in zip(overs, overs[1:] + overs[:1]))
    assert len({c.sign for c in d.crossings}) == 1


def strand_names(ap):
    """Strand 2k is ("chord", chord index) and 2k + 1 ("label", its exit)."""
    names = []
    for cur, _, exit_pt in chord_walk(ap):
        names += [("chord", cur + 1), ("label", exit_pt)]
    return names


def grid_pairs(ap):
    """(i, c) with chord i = (a, b) such that a < c < b and i strictly between
    the indices of the two chords that use label c."""
    users = {c: [i for i, ch in enumerate(ap.chords, 1) if c in ch] for c in range(1, ap.n + 1)}
    return {
        (i, c)
        for i, (a, b) in enumerate(ap.chords, 1)
        for c in range(a + 1, b)
        if min(users[c]) < i < max(users[c])
    }


def test_diagram_crossing_pairs_match(ap5, ap6_fig8, concurrence9):
    for ap in [ap5, ap6_fig8] + _seeded_presentations(concurrence9):
        names, crossings = strand_names(ap), diagram(ap).crossings
        got = set()
        for c in crossings:
            (under_kind, chord), (over_kind, label) = names[c.under], names[c.over]
            assert (under_kind, over_kind) == ("chord", "label")
            got.add((chord, label))
        assert got == grid_pairs(ap) and len(crossings) == len(got)


def test_diagram_triangle_has_no_crossings(ap3):
    d = diagram(ap3)
    assert d.crossings == ()
    assert d.gauss == ()


def test_math_consistency_of_fixture_sizes(ap3, ap5, ap6_fig8):
    for ap in (ap3, ap5, ap6_fig8):
        assert math.comb(ap.n, 2) >= len(crossing_pairs(ap))


def _seeded_presentations(concurrence9):
    # random_presentation(12, 4200) needs a layout retry too
    seeded = [random_presentation(5 + k % 8, 4100 + k) for k in range(24)]
    return [concurrence9, random_presentation(12, 4200)] + seeded


def test_layout_crossings_are_the_direct_intersections(concurrence9):
    for ap in _seeded_presentations(concurrence9):
        pts, _, crossings = layout(ap)
        assert list(crossings) == crossing_pairs(ap)
        segs = [(pts[a - 1], pts[b - 1]) for a, b in ap.chords]  # from the smaller label
        for i, j in crossing_pairs(ap):  # u, along the higher chord j
            num, den = crossings[i, j]
            assert den > 0
            assert Fraction(num, den) == seg2_line_intersection(segs[i - 1], segs[j - 1])[1]
    assert layout(concurrence9)[1] > 0 and layout(random_presentation(12, 4200))[1] > 0


def grid_diagram_by_intersection(ap):
    """ap's grid diagram drawn independently of ``diagram``: the polyline
    through (entry, i) and (exit, i) for each chord i the walk visits, every
    vertical strand against every horizontal one intersected as segments,
    a crossing wherever both parameters are strictly inside, and its sign
    orient2d of the vertical (over) and horizontal (under) directions."""
    pts = [p for cur, a, b in chord_walk(ap) for p in ((a, cur + 1), (b, cur + 1))]
    m = len(pts)
    strands = [(pts[s], pts[(s + 1) % m]) for s in range(m)]

    def direction(s):
        (x0, y0), (x1, y1) = strands[s]
        return x1 - x0, y1 - y0

    hits = []
    for v in range(1, m, 2):
        for h in range(0, m, 2):
            s, u, _ = seg2_line_intersection(strands[v], strands[h])
            if 0 < s < 1 and 0 < u < 1:
                hits.append((v, h, orient2d((0, 0), direction(v), direction(h)), s, u))
    return _gauss_diagram(hits, range(m))


def gauss_word(d):
    """The Gauss code as (crossing, is_over) pairs: free of crossing ids."""
    return [(d.crossings[cid], over) for cid, over in d.gauss]


def test_diagram_matches_the_grid_polyline(concurrence9, ap5, ap6_fig8):
    for ap in [ap5, ap6_fig8] + _seeded_presentations(concurrence9):
        assert gauss_word(diagram(ap)) == gauss_word(grid_diagram_by_intersection(ap))


# (name, source text of arcpres.diagram, its replacement, seeded presentations
# it leaves unchanged): ignoring the vertical direction keeps the diagram of
# a presentation whose crossings' verticals all run up, as two of them do
SIGN_MUTANTS = [
    ("vertical direction ignored", "h if y0 > y1 else -h", "-h", 2),
    ("horizontal direction ignored", "1 if exit_pt > entry else -1", "1", 0),
    ("every sign negated", "h if y0 > y1 else -h", "-h if y0 > y1 else h", 0),
]


def test_grid_polyline_catches_sign_rule_mutants(concurrence9):
    aps = _seeded_presentations(concurrence9)
    want = [gauss_word(grid_diagram_by_intersection(ap)) for ap in aps]
    for name, old, new, kept in SIGN_MUTANTS:
        mutant = _mutant(diagram, old, new)
        caught = [gauss_word(mutant(ap)) != w for ap, w in zip(aps, want)]
        assert caught.count(False) == kept, name


def test_diagram_alexander_is_the_circle_diagrams(concurrence9):
    """The grid and the circle diagram of each presentation are diagrams of
    one knot: their Alexander polynomials agree for n = 3..30."""
    aps = [random_presentation(n, 9300 * n + s) for n in range(3, 31) for s in range(2)]
    for ap in [concurrence9] + aps:
        assert alexander(diagram(ap)) == alexander(reintersecting_diagram(ap))


def layout_on_fractions(ap):
    """The former layout: each crossing pair intersected on the Fraction
    points, concurrence found by hashing the Fraction crossing points; each
    crossing kept as its u, along the higher chord."""
    pairs = crossing_pairs(ap)
    for retry in range(arcpres.MAX_LAYOUT_RETRIES + 1):
        pts = binding_points(ap.n, retry)
        segs = [(pts[a - 1], pts[b - 1]) for a, b in ap.chords]
        crossings = {}
        seen = set()
        for i, j in pairs:
            hit = seg2_line_intersection(segs[i - 1], segs[j - 1])
            if hit is None or hit[2] in seen:
                break
            seen.add(hit[2])
            crossings[i, j] = hit[1]
        else:
            return pts, retry, crossings
    raise AssertionError("no generic layout")


def as_fractions(crossings):
    """``layout``'s crossings, each pair (num, den) as the u = num / den."""
    return {pair: Fraction(num, den) for pair, (num, den) in crossings.items()}


def test_integer_layout_matches_the_fraction_layout(concurrence9):
    aps = [random_presentation(n, 9100 * n + s) for n in range(5, 33) for s in range(4)]
    aps += [concurrence9, random_presentation(12, 4200)]
    aps += [random_presentation(n, 1) for n in (48, 64, 96)]
    retries = []
    for ap in aps:
        pts, retry, crossings = layout(ap)
        assert (pts, retry, as_fractions(crossings)) == layout_on_fractions(ap)
        retries.append(retry)
    assert sum(r > 0 for r in retries) >= 20
    # n = 48, 64 and 96 after a retry, each binding point with its own denominator
    assert min(retries[-3:]) >= 1


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 39))
def test_layout_is_shift_invariant(n, seed, k):
    """The layout is the Fraction layout's, and a cyclic shift renumbers the
    chords: same points, same retry, and each crossing of the shift is the
    crossing of the chords it renumbers.  Where the shift puts the lower
    chord on top, its u is the unshifted pair's parameter along the lower
    chord, which ``layout`` does not keep, so it is compared with the direct
    intersection of the unshifted chords."""
    ap = random_presentation(n, seed)
    pts, retry, crossings = layout(ap)
    crossings = as_fractions(crossings)
    assert (pts, retry, crossings) == layout_on_fractions(ap)
    spts, sretry, scrossings = layout(cyclic_shift(ap, k))
    assert (spts, sretry) == (pts, retry)
    assert len(scrossings) == len(crossings)
    segs = [(pts[a - 1], pts[b - 1]) for a, b in ap.chords]
    for (i, j), u in as_fractions(scrossings).items():
        i, j = (i - 1 + k) % n + 1, (j - 1 + k) % n + 1  # u is along chord j
        if i < j:
            assert crossings[i, j] == u
        else:
            assert (j, i) in crossings
            assert seg2_line_intersection(segs[j - 1], segs[i - 1])[0] == u
