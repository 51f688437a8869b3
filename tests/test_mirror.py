"""A mirror-sensitive oracle: the writhe-normalized Kauffman bracket.

The determinant and the Alexander polynomial cannot tell a knot from its
mirror image, so a bug that mirrors a diagram or a polygon passes ``match``.
The bracket can.  It is a state sum over every smoothing of every crossing,
exponential in the crossing count, so it lives here and runs only on
diagrams of at most 16 crossings.
"""

from collections import Counter

import pytest

from stickbound import arcpres, invariants
from stickbound.arcpres import diagram, random_presentation
from stickbound.construct import build_full
from stickbound.invariants import project
from test_invariants import _mutant, reintersecting_diagram

MAX_CROSSINGS = 16


def kauffman_bracket(d):
    """(-A^3)^(-w) <d> as {exponent of A: coefficient}, w the writhe.

    Gauss position p starts edge p, which ends at position p + 1.  At a
    crossing of sign +1 the half-edges run counterclockwise over-out,
    under-out, over-in, under-in; sign -1 swaps the two under ones.  The
    A-smoothing joins the 2nd with the 3rd and the 4th with the 1st, the
    B-smoothing the other two pairs.  A state of a A-smoothings and b
    B-smoothings closing into l loops adds A^(a - b) (-A^2 - A^-2)^(l - 1);
    the loops are counted by a union-find over the edges, undone on the way
    back up the recursion.
    """
    c = len(d.crossings)
    if not c:
        return {0: 1}
    m = 2 * c
    at = {key: p for p, key in enumerate(d.gauss)}
    smoothings = []
    for cid, x in enumerate(d.crossings):
        o, u = at[cid, True], at[cid, False]
        o_in, u_in = (o - 1) % m, (u - 1) % m
        h = (o, u, o_in, u_in) if x.sign > 0 else (o, u_in, o_in, u)
        smoothings.append((((h[1], h[2]), (h[3], h[0])), ((h[0], h[1]), (h[2], h[3]))))
    parent = list(range(m))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    states = Counter()  # (a - b, loops) -> number of states

    def smooth(k, excess, joined):
        if k == c:
            states[excess, m - joined] += 1
            return
        for step, pairs in zip((1, -1), smoothings[k]):
            linked = []
            for x, y in pairs:
                rx, ry = root(x), root(y)
                if rx != ry:
                    parent[rx] = ry
                    linked.append(rx)
            smooth(k + 1, excess + step, joined + len(linked))
            for rx in linked:
                parent[rx] = rx

    smooth(0, 0, 0)
    total = Counter()
    for (excess, loops), count in states.items():
        term = {excess: count}
        for _ in range(loops - 1):
            nxt = Counter()
            for e, v in term.items():
                nxt[e + 2] -= v
                nxt[e - 2] -= v
            term = nxt
        total.update(term)
    w = sum(x.sign for x in d.crossings)
    sign = -1 if w % 2 else 1
    return {e - 3 * w: sign * v for e, v in total.items() if v}


def mirrored(f):
    return {-e: v for e, v in f.items()}


def test_bracket_of_the_trefoil(ap5):
    """The README's trefoil, on its grid and its circle diagram."""
    want = {-4: 1, -12: 1, -16: -1}
    assert kauffman_bracket(diagram(ap5)) == kauffman_bracket(reintersecting_diagram(ap5)) == want


def test_bracket_is_a_knot_invariant(ap3, ap6_fig8):
    """The unknot's bracket is 1, and every cyclic shift of a presentation,
    a rotation of its open book, keeps the value."""
    assert kauffman_bracket(diagram(ap3)) == {0: 1}
    fig8 = kauffman_bracket(diagram(ap6_fig8))
    assert fig8 == mirrored(fig8)  # the figure-eight is amphichiral
    for n, seed in ((7, 91 * 7 + 3), (8, 91 * 8 + 11)):
        ap = random_presentation(n, seed)
        f = kauffman_bracket(diagram(ap))
        for k in range(1, n):
            assert kauffman_bracket(diagram(arcpres.cyclic_shift(ap, k))) == f


@pytest.fixture(scope="module")
def chiral_cases():
    """(presentation, bracket of its circle diagram, output polygon) for the
    seeded inputs n = 5..8 whose bracket tells the knot from its mirror."""
    cases = []
    for n in range(5, 9):
        for s in range(150):
            ap = random_presentation(n, 91 * n + s)
            circle = reintersecting_diagram(ap)
            if len(circle.crossings) > MAX_CROSSINGS:
                continue
            f = kauffman_bracket(circle)
            if f != mirrored(f):
                cases.append((ap, f, build_full(ap)[0]))
    return cases


def same_bracket(cases, draw=diagram):
    """Each case's grid diagram and projected output have its circle bracket."""
    return all(
        kauffman_bracket(draw(ap)) == f == kauffman_bracket(project(knot).diagram)
        for ap, f, knot in cases
    )


def test_grid_circle_and_output_diagrams_share_the_bracket(chiral_cases):
    assert len(chiral_cases) == 26
    assert same_bracket(chiral_cases)


# (name, function, source text, its replacement): each mirrors its diagrams
MIRROR_MUTANTS = [
    (
        "horizontals over verticals",
        arcpres.diagram,
        "hits.append((v, 2 * k, h if y0 > y1 else -h, abs(y - y0), abs(c - entry)))",
        "hits.append((2 * k, v, -h if y0 > y1 else h, abs(c - entry), abs(y - y0)))",
    ),
    (
        "every project sign negated",
        invariants._project_once,
        "(i, j, sign, ks, ku) if zi > zj else (j, i, -sign, ku, ks)",
        "(i, j, -sign, ks, ku) if zi > zj else (j, i, sign, ku, ks)",
    ),
]


@pytest.mark.parametrize(
    "name, func, old, new", MIRROR_MUTANTS, ids=[m[0] for m in MIRROR_MUTANTS]
)
def test_bracket_catches_mirroring_mutants(name, func, old, new, chiral_cases, monkeypatch):
    mutant = _mutant(func, old, new)
    if func is arcpres.diagram:
        assert not same_bracket(chiral_cases, draw=mutant), name
    else:
        monkeypatch.setattr(invariants, func.__name__, mutant)
        assert not same_bracket(chiral_cases), name
