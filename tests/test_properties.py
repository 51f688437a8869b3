"""Property tests: certificate identities over random valid presentations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from stickbound.arcpres import (
    ArcPresentation,
    _neighbours,
    chord_walk,
    classify,
    random_presentation,
)
from stickbound.bounds import theorem2_upper
from stickbound.construct import build_full, stick_count
from stickbound.errors import InvalidArcPresentation


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1))
def test_certificate_identities(n, seed):
    knot, cert = build_full(random_presentation(n, seed))
    beta1 = cert.beta[0]
    applied = cert.top_reduction == "applied"
    assert applied or cert.top_reduction.startswith("skipped:")
    assert cert.sticks_final == stick_count(knot)
    assert cert.sticks_final == (n + beta1 - 1 if applied else n + beta1 + 1)
    assert cert.bound == theorem2_upper(n)
    assert cert.bound_satisfied == (cert.sticks_final <= cert.bound)
    assert cert.invariants_match is True


def _reference_walk(chords):
    """The chord cycle through chord 0 as (chord, entry, exit) steps, 0-based
    chords, entering chord 0 through chords[0][0], or None if it is not back
    at chord 0 within len(chords) steps; needs each label used twice and no
    loop.  Also returns label -> the two chords through it."""
    through = {}
    for i, chord in enumerate(chords):
        for x in chord:
            through.setdefault(x, []).append(i)
    walk = []
    chord, point = 0, chords[0][0]
    for _ in chords:
        a, b = chords[chord]
        walk.append((chord, point, b if point == a else a))
        point = walk[-1][2]
        chord = next(j for j in through[point] if j != chord)
        if chord == 0:
            return walk, through
    return None, through


def _is_arc_presentation(chords, n):
    """Reference check: labels used twice, no loop, one cycle of n chords."""
    labels = sorted(x for chord in chords for x in chord)
    if labels != sorted(2 * list(range(1, n + 1))):
        return False
    if any(a == b for a, b in chords):
        return False
    walk, _ = _reference_walk(chords)
    return walk is not None and len(walk) == n


@st.composite
def _chord_lists(draw):
    """n in 2..12 and n chords over labels 1..n: one cycle through the labels
    with its chords in any order, each label twice, or free pairs."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("cycle", "twice", "free")))
    if kind == "cycle":
        labels = draw(st.permutations(range(1, n + 1)))
        return n, draw(st.permutations([(labels[k - 1], labels[k]) for k in range(n)]))
    if kind == "twice":
        slots = draw(st.permutations([x for x in range(1, n + 1) for _ in range(2)]))
        return n, [(slots[2 * i], slots[2 * i + 1]) for i in range(n)]
    label = st.integers(1, n)
    return n, draw(st.lists(st.tuples(label, label), min_size=n, max_size=n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=_chord_lists())
def test_construction_accepts_exactly_the_arc_presentations(case):
    n, chords = case
    try:
        ArcPresentation(chords)
        accepted = True
    except InvalidArcPresentation:
        accepted = False
    assert accepted == _is_arc_presentation(chords, n)
    if not accepted:
        return
    ap = ArcPresentation(chords)
    walk, through = _reference_walk(ap.chords)
    assert chord_walk(ap) == walk
    # each chord's neighbours are the other chords through its labels, the
    # previous one through its entry and the next one through its exit
    nb = _neighbours(walk)
    for k, (i, entry, exit_pt) in enumerate(walk):
        assert nb[i] == ((walk[k - 1][0], entry), (walk[(k + 1) % n][0], exit_pt))
        for j, x in nb[i]:
            assert {i, j} == set(through[x])
    if n >= 3:
        lesser = [sum(j < i for j, _ in nb[i]) for i in range(n)]
        types, beta = classify(ap)
        assert [t.value for t in types] == [("I", "II", "III")[c] for c in lesser]
        assert beta.as_tuple() == tuple(lesser.count(c) for c in range(3))
