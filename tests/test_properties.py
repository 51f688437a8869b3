"""Property tests: certificate identities over random valid presentations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from stickbound.arcpres import ArcPresentation, random_presentation
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


def _is_arc_presentation(chords, n):
    """Reference check: labels used twice, no loop, one cycle of n chords."""
    labels = sorted(x for chord in chords for x in chord)
    if labels != sorted(2 * list(range(1, n + 1))):
        return False
    if any(a == b for a, b in chords):
        return False
    through = {}  # label -> the two chords through it
    for i, chord in enumerate(chords):
        for x in chord:
            through.setdefault(x, []).append(i)
    chord, point = 0, chords[0][0]
    for step in range(1, n + 1):
        a, b = chords[chord]
        point = b if point == a else a
        chord = next(j for j in through[point] if j != chord)
        if chord == 0:
            return step == n
    return False


@st.composite
def _chord_lists(draw):
    """n in 2..12 and n chords over labels 1..n: free pairs, or each label twice."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
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
