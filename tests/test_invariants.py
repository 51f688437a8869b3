"""Diagram invariants, checked against independent computations.

The polynomial pipeline here is deliberately home-grown (runs between
over-arcs, sparse unit-monomial elimination + fraction-free dense
elimination), so the tests lean on an external oracle: the full Wirtinger
matrix handed to sympy's symbolic determinant, plus frozen values for knots
whose invariants are classical.  The full Wirtinger matrix, one row per
crossing, is kept here as the reference for the contracted rows, and the
grid determinant of a presentation is checked against Bareiss on it at
t = -1.
"""

import copy
import inspect
import itertools
import random
import textwrap
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import conftest as reference
import pytest
import sympy
from conftest import (
    pdivexact_schoolbook,
    pmul_schoolbook,
    project_on_one_scale,
    project_once_on_one_scale,
)
from hypothesis import given, settings, strategies as st

from stickbound.arcpres import (
    ArcPresentation,
    Crossing,
    Diagram,
    _gauss_diagram,
    chord_walk,
    crossing_pairs,
    cyclic_shift,
    diagram,
    layout,
    random_presentation,
)
from stickbound.errors import InternalVerificationError, InvalidArcPresentation
from stickbound.construct import build_full, build_k1
from stickbound.geom import orient2d
from stickbound import geom, invariants
from stickbound.invariants import (
    LaurentPoly,
    _int_bareiss,
    _project_once,
    _pstrip,
    _psub,
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
    assert determinant(ap3) == 1


def test_alexander_trefoil(ap5):
    d = diagram(ap5)
    assert str(alexander(d)) == "t^2 - t + 1"
    assert determinant(ap5) == 3


def test_alexander_figure_eight(ap6_fig8):
    d = diagram(ap6_fig8)
    assert str(alexander(d)) == "t^2 - 3*t + 1"
    assert determinant(ap6_fig8) == 5


def seg2_line_intersection(s1, s2):
    """Intersection of the supporting lines of two 2D segments.

    Returns (s, u, point) with the point at parameter s along s1 and u along
    s2, or None when the lines are parallel.  Callers check the parameter
    ranges themselves.
    """
    (a, b), (c, d) = s1, s2
    ab = (b[0] - a[0], b[1] - a[1])
    cd = (d[0] - c[0], d[1] - c[1])
    den = ab[0] * cd[1] - ab[1] * cd[0]
    if den == 0:
        return None
    r = (c[0] - a[0], c[1] - a[1])
    s = Fraction(r[0] * cd[1] - r[1] * cd[0], den)
    u = Fraction(r[0] * ab[1] - r[1] * ab[0], den)
    return s, u, (a[0] + s * ab[0], a[1] + s * ab[1])


def reintersecting_diagram(ap):
    """The circle diagram of ap: each crossing pair of its layout intersected
    again, along the chords as the walk orients them, the smaller chord index
    under, each sign the orientation of the over and under chords' Fraction
    directions; strands are 1-based chords.  It has more crossings than
    ap's grid diagram, so the elimination tests keep it as their input."""
    pts = layout(ap)[0]
    walk = chord_walk(ap)
    oriented = {cur + 1: (pts[entry - 1], pts[exit_pt - 1]) for cur, entry, exit_pt in walk}

    def direction(chord):
        (x0, y0), (x1, y1) = oriented[chord]
        return x1 - x0, y1 - y0

    hits = []
    for i, j in crossing_pairs(ap):
        s, u, _ = seg2_line_intersection(oriented[i], oriented[j])
        assert 0 < s < 1 and 0 < u < 1
        hits.append((j, i, orient2d((0, 0), direction(j), direction(i)), u, s))
    return _gauss_diagram(hits, [cur + 1 for cur, _, _ in walk])


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


_ZERO = (0, [])


def _offset(p):
    """The offset pair of a dense polynomial."""
    lo = next((i for i, c in enumerate(p) if c), 0)
    return lo, p[lo:]


def _dense_matrix(m):
    """A matrix of offset pairs as dense lists padded with zeros."""
    return [[[0] * lo + cs for lo, cs in row] for row in m]


def _relation_rows(d):
    """The full Wirtinger matrix: one sparse row per crossing, {arc id: dense
    polynomial}.

    At a positive crossing with incoming under-arc a, outgoing under-arc b and
    over-arc o the relation contributes t*a - b + (1-t)*o; at a negative one
    (scaled by a unit) a - t*b + (t-1)*o.  Contributions to a repeated arc
    accumulate.
    """
    c = len(d.crossings)
    pos_under = {}
    pos_over = {}
    for p, (cid, is_over) in enumerate(d.gauss):
        if is_over:
            pos_over[cid] = p
        else:
            pos_under[cid] = p
    rows = []
    for cid, cr in enumerate(d.crossings):
        a = d.arcs[pos_under[cid]]
        b = (a + 1) % c
        o = d.arcs[pos_over[cid]]
        ent = {}
        if cr.sign > 0:  # (column, coefficient of 1, coefficient of t)
            terms = ((a, 0, 1), (b, -1, 0), (o, 1, -1))
        else:
            terms = ((a, 1, 0), (b, 0, -1), (o, -1, 1))
        for col, c0, c1 in terms:
            acc = ent.setdefault(col, [0, 0])
            acc[0] += c0
            acc[1] += c1
        rows.append({k: v for k, v in ent.items() if _pstrip(v)})
    return rows


def alexander_full_wirtinger(d):
    """Alexander from every crossing's relation row, with row 0 and column 0
    deleted and no arc contracted, by the rescanning unit elimination and
    the dense Bareiss with row pivoting only."""
    diag = getattr(d, "diagram", d)
    c = len(diag.crossings)
    if c == 0:
        return LaurentPoly((1,))
    rows = _relation_rows(diag)
    minor = {r: {col: _offset(p) for col, p in rows[r].items() if col} for r in range(1, c)}
    core = sparse_eliminate_rescanning(minor)
    return LaurentPoly.normalized(poly_bareiss_dense(_dense_matrix(core)))


def contraction_holds(d, want):
    """alexander(d) is want, the full-Wirtinger value; raising is a failure."""
    try:
        return alexander(d) == want
    except InternalVerificationError:
        return False


def _over_arcs(d):
    return {arc for (_, is_over), arc in zip(d.gauss, d.arcs) if is_over}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1))
def test_run_rows_give_the_full_wirtinger_alexander(n, seed):
    """On the input and output diagrams: one row per over-arc but one, each
    -1 at t = 1 at the arc its run ends on, and the full-Wirtinger value."""
    ap = random_presentation(n, seed)
    for d in (diagram(ap), reintersecting_diagram(ap), project(build_full(ap)[0]).diagram):
        rows = invariants._run_rows(d) if d.crossings else {}
        assert len(rows) == max(len(_over_arcs(d)) - 1, 0)
        assert all(sum(row[end].values()) == -1 for end, (row, _, _) in rows.items())
        # each row's unit factor shifts it to least exponent 0
        assert all((k, s) == (-min(map(min, row.values())), 1) for row, k, s in rows.values())
        assert contraction_holds(d, alexander_full_wirtinger(d))


def gauss_code(code, signs):
    """A diagram from a Gauss code such as "O1 U2 ..." and its crossings' signs;
    the crossings' strands are not read by alexander."""
    gauss = tuple((int(w[1:]) - 1, w[0] == "O") for w in code.split())
    return Diagram(tuple(Crossing(0, 0, s) for s in signs), gauss)


def mirror(d):
    """The diagram with every crossing switched."""
    crossings = tuple(Crossing(c.under, c.over, -c.sign) for c in d.crossings)
    return Diagram(crossings, tuple((cid, not over) for cid, over in d.gauss))


TREFOIL = gauss_code("O1 U2 O3 U1 O2 U3", [1, 1, 1])
FIGURE_EIGHT = reintersecting_diagram(
    ArcPresentation([(1, 3), (2, 5), (4, 6), (3, 5), (1, 4), (2, 6)])
)

# (name, diagram, normalized Alexander polynomial)
HAND_MADE = [
    ("no crossings", Diagram((), ()), (1,)),
    ("one-crossing kink", gauss_code("O1 U1", [1]), (1,)),
    ("one-crossing kink, under first", gauss_code("U1 O1", [-1]), (1,)),
    # crossing 4's over-arc is its own incoming under-arc
    ("an arc over itself", gauss_code("O1 U2 O4 U4 O3 U1 O2 U3", [1, 1, 1, -1]), (1, -1, 1)),
    ("all crossings under one arc", gauss_code("O1 O2 O3 U1 U2 U3", [1, -1, 1]), (1,)),
    ("trefoil", TREFOIL, (1, -1, 1)),
    ("mirror trefoil", mirror(TREFOIL), (1, -1, 1)),
    ("mirror figure-eight", mirror(FIGURE_EIGHT), (1, -3, 1)),
]


@pytest.mark.parametrize("name, d, want", HAND_MADE, ids=[h[0] for h in HAND_MADE])
def test_run_rows_on_hand_made_diagrams(name, d, want):
    assert alexander(d).coeffs == want
    assert alexander_full_wirtinger(d).coeffs == want
    if d.crossings:
        assert len(invariants._run_rows(d)) == len(_over_arcs(d)) - 1


# (name, source text of invariants._run_rows, its replacement)
RUN_MUTANTS = [
    ("exponent step of the wrong sign", "e += eps", "e -= eps"),
    (
        "1 - t^eps negated",
        "terms.get(-e, 0) + 1, terms.get(eps - e, 0) - 1",
        "terms.get(-e, 0) - 1, terms.get(eps - e, 0) + 1",
    ),
    ("repeated over-arc overwritten", "terms = expr.setdefault(o, {})", "terms = expr[o] = {}"),
]


@pytest.fixture(scope="module")
def contraction_cases(seeded_diagrams):
    """(diagram, full-Wirtinger Alexander) for the seeded and hand-made diagrams."""
    diagrams = [d for _, _, d in seeded_diagrams] + [d for _, d, _ in HAND_MADE]
    return [(d, alexander_full_wirtinger(d)) for d in diagrams]


@pytest.mark.parametrize("name, old, new", RUN_MUTANTS, ids=[m[0] for m in RUN_MUTANTS])
def test_contraction_property_catches_mutants(name, old, new, contraction_cases, monkeypatch):
    assert all(contraction_holds(d, want) for d, want in contraction_cases)
    monkeypatch.setattr(invariants, "_run_rows", _mutant(invariants._run_rows, old, new))
    assert not all(contraction_holds(d, want) for d, want in contraction_cases), name


@pytest.mark.parametrize("seed", range(12))
def test_alexander_agrees_with_sympy(seed):
    ap = random_presentation(5 + seed % 6, 5000 + seed)
    d = reintersecting_diagram(ap)
    assert alexander(d).coeffs == _sympy_alexander(d)


def test_alexander_self_checks_hold_broadly():
    for seed in range(25):
        ap = random_presentation(4 + seed % 8, 300 + seed)
        for d in (diagram(ap), reintersecting_diagram(ap)):
            a = alexander(d)
            assert a(1) in (1, -1)
            assert a.reversed() == a
            assert abs(a(-1)) % 2 == 1
            assert abs(a(-1)) == determinant(ap)  # the two routes agree


def test_determinant_positive_odd(ap6_fig8):
    assert determinant(ap6_fig8) % 2 == 1


# (n, seed) of seeded presentations whose determinant is not prime
COMPOSITE_DETERMINANTS = {(12, 9): 9, (20, 57): 25, (22, 38): 45}


@pytest.fixture(scope="module")
def seeded_diagrams():
    """(n, seed, diagram): circle diagrams of the inputs and projected output
    diagrams of seeded builds for n = 5..32, and of the composite-determinant
    presentations."""
    cases = [(n, 7100 + n) for n in range(5, 33)] + sorted(COMPOSITE_DETERMINANTS)
    out = []
    for n, seed in cases:
        ap = random_presentation(n, seed)
        out.append((n, seed, reintersecting_diagram(ap)))
        out.append((n, seed, project(build_full(ap)[0])))
    return out


def determinant_dense_reference(d):
    """The Wirtinger determinant: Bareiss on the full (c-1) x (c-1) matrix at t = -1."""
    diag = getattr(d, "diagram", d)
    c = len(diag.crossings)
    if c == 0:
        return 1
    rows = _relation_rows(diag)
    m = [[0] * (c - 1) for _ in range(c - 1)]
    for rid in range(1, c):
        for col, p in rows[rid].items():
            if col:
                m[rid - 1][col - 1] = sum(x * (-1) ** i for i, x in enumerate(p))
    return abs(_int_bareiss(m))


def test_determinant_matches_the_dense_reference(seeded_diagrams, ap3):
    """The grid determinant of each seeded presentation against the Wirtinger
    determinant of its diagram and of its output polygon's projection."""
    for n, seed, d in seeded_diagrams + [(3, None, diagram(ap3))]:
        det = determinant(ap3 if seed is None else random_presentation(n, seed))
        assert det == determinant_dense_reference(d), (n, seed)
        if (n, seed) in COMPOSITE_DETERMINANTS:
            assert det == COMPOSITE_DETERMINANTS[n, seed]


def grid_property_holds(det, ap, k):
    """det(ap) is the Wirtinger determinant of ap's circle diagram and det of
    its k-th cyclic shift is the same; det raising counts as a failure."""
    try:
        value = det(ap)
        wirtinger = determinant_dense_reference(reintersecting_diagram(ap))
        return value == wirtinger == det(cyclic_shift(ap, k))
    except InternalVerificationError:
        return False


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 29))
def test_grid_determinant_is_the_wirtinger_determinant(n, seed, k):
    assert grid_property_holds(determinant, random_presentation(n, seed), k % n)


# (name, source text of invariants.determinant, its replacement).  Reading
# every height, or every label, one step further round the grid torus, the
# wrap included, keeps the determinant, so such a mutant is no fault and is
# not listed.  The interval mutants give label x the heights j1 <= y <= j2,
# or j1 < y < j2, with the running signs flipped there.
GRID_MUTANTS = [
    ("interval start off by one", "range(j1 + 1, j2 + 1)", "range(j1, j2 + 1)"),
    ("interval end off by one", "range(j1 + 1, j2 + 1)", "range(j1 + 1, j2)"),
    ("running sign not flipped", "row[y] = sign[y] = -sign[y]", "row[y] = -sign[y]"),
]


def _mutant(func, old, new):
    """A function of its module with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(func)))
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


@pytest.mark.parametrize("name, old, new", GRID_MUTANTS, ids=[m[0] for m in GRID_MUTANTS])
def test_grid_property_catches_mutants(name, old, new):
    mutant = _mutant(invariants.determinant, old, new)
    cases = [(random_presentation(n, 7300 + n), n // 2) for n in range(3, 31, 3)]
    assert all(grid_property_holds(determinant, ap, k) for ap, k in cases)
    assert not all(grid_property_holds(mutant, ap, k) for ap, k in cases), name


@st.composite
def unit_matrices(draw):
    """Square {0, +-1} matrices up to 12 x 12; half of those of size 2 or
    more repeat their first row last, so singular ones are common."""
    k = draw(st.integers(0, 12))
    row = st.lists(st.sampled_from((0, 1, -1)), min_size=k, max_size=k)
    m = draw(st.lists(row, min_size=k, max_size=k))
    if k >= 2 and draw(st.booleans()):
        m[-1] = list(m[0])
    return m


def unit_pivot_agrees(det, m):
    """det of m's sparse rows is |det m| by the dense Bareiss, the reference."""
    return det(reference.sparse_rows(m)) == abs(_int_bareiss(copy.deepcopy(m)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(unit_matrices())
def test_unit_pivots_give_the_dense_determinant(m):
    assert unit_pivot_agrees(invariants._unit_pivot_det, m)


@pytest.fixture(scope="module")
def grid_matrices():
    """The rows determinant hands to _unit_pivot_det for seeded n = 3..96,
    dense: n - 1 rows on the columns 1..n - 1."""
    recorded, real = [], invariants._unit_pivot_det

    def recording(rows):
        recorded.append([[w.get(c, 0) for c in range(1, len(rows) + 1)] for w in rows])
        return real(rows)

    with mock.patch.object(invariants, "_unit_pivot_det", recording):
        for n in range(3, 97):
            determinant(random_presentation(n, 7400 + n))
    return recorded


def test_unit_pivots_on_the_seeded_grid_matrices(grid_matrices):
    assert [len(m) for m in grid_matrices] == list(range(2, 96))
    assert all(unit_pivot_agrees(invariants._unit_pivot_det, m) for m in grid_matrices)


# (name, source text of invariants._unit_pivot_det, its replacement)
UNIT_PIVOT_MUTANTS = [
    ("pivot sign dropped", "f * pv * v", "f * v"),
    ("pivot row left live", "prow = rows.pop(best[1])", "prow = rows[best[1]]"),
]


@pytest.mark.parametrize(
    "name, old, new", UNIT_PIVOT_MUTANTS, ids=[m[0] for m in UNIT_PIVOT_MUTANTS]
)
def test_unit_pivot_property_catches_mutants(name, old, new, grid_matrices):
    rng = random.Random(7411)
    cases = [
        [[rng.choice((0, 1, -1)) for _ in range(k)] for _ in range(k)]
        for k in range(1, 13)
        for _ in range(10)
    ]
    cases += grid_matrices[:30]
    mutant = _mutant(invariants._unit_pivot_det, old, new)
    assert all(unit_pivot_agrees(invariants._unit_pivot_det, m) for m in cases)
    assert not all(unit_pivot_agrees(mutant, m) for m in cases), name


def rows_handed_over(ap, det=determinant):
    """The rows det(ap) hands to _unit_pivot_det, as handed over."""
    recorded = []

    def recording(rows):
        recorded.append(copy.deepcopy(rows))
        return 1

    with mock.patch.dict(det.__globals__, _unit_pivot_det=recording):
        det(ap)
    (rows,) = recorded
    return rows


def rows_are_the_halved_differences(ap, det=determinant):
    """det's interval rows are the former n^2 builder's halved row
    differences but row 0, with their zeros dropped: same keys, key order
    and values."""
    want = reference.sparse_rows(reference.grid_rows_dense(ap))[1:]
    return [list(w.items()) for w in rows_handed_over(ap, det)] == [list(w.items()) for w in want]


def test_grid_rows_are_the_former_halved_differences():
    for n in range(3, 129):
        assert rows_are_the_halved_differences(random_presentation(n, 7400 + n)), n


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_grid_rows_are_the_halved_differences_on_random_presentations(n, seed):
    assert rows_are_the_halved_differences(random_presentation(n, seed))


# The grid mutants and one more.  Column 0 is nonzero in row 0 alone, where
# it is 1, so keeping row 0 keeps the determinant (expand along column 0):
# only the rows themselves show that mutant.
ROW_MUTANTS = GRID_MUTANTS + [
    ("row 0 kept", "rows = []", "rows = [dict.fromkeys(range(ap.n), 1)]"),
]


@pytest.mark.parametrize("name, old, new", ROW_MUTANTS, ids=[m[0] for m in ROW_MUTANTS])
def test_row_property_catches_mutants(name, old, new):
    mutant = _mutant(invariants.determinant, old, new)
    aps = [random_presentation(n, 7300 + n) for n in range(3, 31, 3)]
    assert all(rows_are_the_halved_differences(ap) for ap in aps)
    assert not all(rows_are_the_halved_differences(ap, mutant) for ap in aps), name


class PopLog(list):
    """Rows that log the (length, index) of each row popped from them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.popped = []

    def pop(self, i):
        self.popped.append((len(self[i]), i))
        return super().pop(i)


def pivots_follow_the_rescan(m):
    """_unit_pivot_det on m's sparse rows pops the (length, row) pivots the
    former rescan of every row popped, and gives the same determinant."""
    new, old = PopLog(reference.sparse_rows(m)), PopLog(reference.sparse_rows(m))
    det = invariants._unit_pivot_det(new)
    return det == reference.unit_pivot_det_rescan(old) and new.popped == old.popped


def test_unit_pivots_follow_the_rescan_on_the_seeded_grids():
    for n in range(3, 129):
        m = reference.grid_rows_dense(random_presentation(n, 7400 + n))
        assert pivots_follow_the_rescan([row[1:] for row in m[1:]]), n


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(unit_matrices())
def test_unit_pivots_follow_the_rescan(m):
    assert pivots_follow_the_rescan(m)


@pytest.mark.parametrize(
    "relations",
    [
        # rows 1 and 2 are equal: elimination empties a row
        (
            {1: {1: [0, 1], 2: [-1], 3: [1, -1]}, 2: {1: [0, 1], 2: [-1], 3: [1, -1]}, 3: {3: [1]}},
            "singular crossing relation matrix",
        ),
        # no row has an entry in column 2: the core is not square
        (
            {1: {1: [2], 3: [3]}, 2: {1: [3], 3: [2]}, 3: {1: [4], 3: [2]}},
            "crossing relation matrix lost squareness",
        ),
        # no +-t^e entry at all, and two equal rows: Bareiss finds 0
        (
            {1: {1: [2], 2: [1, -1]}, 2: {1: [2], 2: [1, -1]}},
            "zero polynomial cannot be unit-normalized",
        ),
    ],
)
def test_singular_rows_raise(relations, monkeypatch):
    dense, message = relations
    rows = laurent_rows({r: {c: _offset(p) for c, p in row.items()} for r, row in dense.items()})
    monkeypatch.setattr(invariants, "_run_rows", lambda d: rows)
    d = SimpleNamespace(crossings=(None,) * (len(rows) + 1))
    with pytest.raises(InternalVerificationError, match=message):
        alexander(d)


def is_unit_dense(p):
    nz = [i for i, c in enumerate(p) if c]
    return len(nz) == 1 and abs(p[nz[0]]) == 1


def _mono_mul(p, mono):
    e = len(mono) - 1
    s = mono[-1]
    return [0] * e + [s * c for c in p]


def laurent_rows(rows):
    """Offset-pair rows {r: {col: (lo, coeffs)}} in the form of
    invariants._run_rows: Laurent entries, each row's unit factor 1."""
    return {
        r: ({c: {lo + i: x for i, x in enumerate(cs) if x} for c, (lo, cs) in row.items()}, 0, 1)
        for r, row in rows.items()
    }


def offset_rows(rows):
    """Rows of invariants._run_rows as offset pairs, each row's unit factor
    s t^k applied."""
    return {
        r: {
            c: (min(p) + k, [s * p.get(x, 0) for x in range(min(p), max(p) + 1)])
            for c, p in row.items()
        }
        for r, (row, k, s) in rows.items()
    }


def sparse_eliminate_rescanning(rows):
    """The former Alexander elimination, which rescans every entry per pivot
    and keeps each polynomial as a dense list padded with zeros; takes and
    returns offset pairs."""
    rows = {r: {c: [0] * lo + cs for c, (lo, cs) in row.items()} for r, row in rows.items()}
    col_rows = {}
    for r, row in rows.items():
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    while True:
        best = None
        for r in sorted(rows):
            for col in sorted(rows[r]):
                if not is_unit_dense(rows[r][col]):
                    continue
                score = (len(rows[r]) - 1) * (len(col_rows[col]) - 1)
                key = (score, r, col)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, r, col = best
        pivot_row = rows.pop(r)
        mono = pivot_row[col]
        for c2 in pivot_row:
            col_rows[c2].discard(r)
        for r2 in sorted(col_rows.get(col, ())):
            f = rows[r2].pop(col)
            new = {c2: _mono_mul(p, mono) for c2, p in rows[r2].items()}
            for c2, p in pivot_row.items():
                if c2 == col:
                    continue
                new[c2] = _psub(new.get(c2, []), pmul_schoolbook(f, p))
            cleaned = {c2: p for c2, p in new.items() if p}
            if not cleaned:
                raise InternalVerificationError("singular crossing relation matrix")
            for c2 in rows[r2]:
                if c2 not in cleaned:
                    col_rows[c2].discard(r2)
            for c2 in cleaned:
                col_rows.setdefault(c2, set()).add(r2)
            rows[r2] = cleaned
        col_rows.pop(col, None)
    cols = sorted({c for row in rows.values() for c in row})
    order = sorted(rows)
    if len(order) != len(cols):
        raise InternalVerificationError("crossing relation matrix lost squareness")
    return [[_offset(list(rows[r].get(c, []))) for c in cols] for r in order]


def rescanning_on_offset_pairs(rows):
    """sparse_eliminate_rescanning on the rows of invariants._run_rows."""
    return sparse_eliminate_rescanning(offset_rows(rows))


def _recording(monkeypatch, name):
    """Route invariants.<name> through a recorder; returns the list of results,
    copied before the caller can change them."""
    real = getattr(invariants, name)
    seen = []

    def wrapper(*args):
        out = real(*args)
        seen.append(copy.deepcopy(out))
        return out

    monkeypatch.setattr(invariants, name, wrapper)
    return seen


def test_alexander_matches_the_rescanning_elimination(seeded_diagrams, monkeypatch):
    cores = _recording(monkeypatch, "_sparse_eliminate")
    fast = [alexander(d) for _, _, d in seeded_diagrams]
    fast_cores = list(cores)
    monkeypatch.setattr(invariants, "_sparse_eliminate", rescanning_on_offset_pairs)
    cores = _recording(monkeypatch, "_sparse_eliminate")
    slow = [alexander(d) for _, _, d in seeded_diagrams]
    assert fast == slow
    assert fast_cores == cores  # same pivots, so the same core


def test_candidate_pivots_cut_unit_monomial_tests(monkeypatch):
    """The unit set tests each entry once up front, then only the entries a
    rewrite changes beyond a unit factor (the pivot row's columns); the
    rescan tests every entry at every step."""
    d = reintersecting_diagram(random_presentation(24, 7124))
    calls = _recording(monkeypatch, "_is_unit")
    fast = alexander(d)
    unit_set_tests = len(calls)
    rescan_tests, real = [], is_unit_dense

    def counted(p):
        rescan_tests.append(p)
        return real(p)

    monkeypatch.setitem(globals(), "is_unit_dense", counted)
    monkeypatch.setattr(invariants, "_sparse_eliminate", rescanning_on_offset_pairs)
    assert alexander(d) == fast
    assert 0 < unit_set_tests and unit_set_tests * 4 < len(rescan_tests)


def rescanning_elimination(rows):
    """Pivot rows and core of a full rescan that scores every unit entry
    afresh at each step, eliminating in place with the reference
    _poly_rewrite; the core is None if a row empties, and may not be square."""
    order = []
    while True:
        col_len = Counter(c for row in rows.values() for c in row)
        keys = [
            ((len(row) - 1) * (col_len[c] - 1), r, c)
            for r, row in rows.items()
            for c, v in row.items()
            if reference._is_unit_monomial(v)
        ]
        if not keys:
            break
        _, r, col = min(keys)
        order.append(r)
        pivot_row = rows.pop(r)
        for r2 in sorted(r2 for r2, row in rows.items() if col in row):
            rows[r2] = reference._poly_rewrite(rows[r2], col, pivot_row)
            if not rows[r2]:
                return order, None
    cols = sorted({c for row in rows.values() for c in row})
    return order, [[rows[r].get(c, _ZERO) for c in cols] for r in sorted(rows)]


# entries of random rows over Z[t]: units +-t^e and non-units
PALETTE = [[1], [-1], [0, 1], [0, -1], [1, -1], [-1, 1], [2], [0, 0, 1], [1, 1]]


def random_rows(rng, palette):
    """Sparse rows, many of them near-copies of an earlier row so that
    elimination cancels entries and shrinks rows and columns."""
    k = rng.randint(2, 9)
    rows = {}
    for r in range(k):
        row = dict(rows[rng.choice(list(rows))]) if rows and rng.random() < 0.5 else {}
        for _ in range(rng.randint(1, 3)):
            row[rng.randrange(k + 1)] = rng.choice(palette)
        rows[r] = row
    return rows


class PoppedRows(dict):
    """Relation rows that record the keys popped from them: the pivot rows."""

    def __init__(self, rows):
        super().__init__(rows)
        self.popped = []

    def pop(self, key, *default):
        self.popped.append(key)
        return super().pop(key, *default)


def elimination_agrees(rng, eliminate):
    """``eliminate`` pops the rescan's pivot rows from one random matrix and
    returns its core, or raises as the rescan finds the matrix singular or
    the core not square."""
    rows = random_rows(rng, PALETTE)
    rows = {r: {c: _offset(p) for c, p in row.items()} for r, row in rows.items()}
    order, core = rescanning_elimination(copy.deepcopy(rows))
    recorded = PoppedRows(laurent_rows(rows))
    try:
        got = eliminate(recorded)
    except InternalVerificationError as e:
        got = str(e)
    if core is None:
        want = "singular crossing relation matrix"
    elif len(core) != len(core[0] if core else []):
        want = "crossing relation matrix lost squareness"
    else:
        want = core
    return recorded.popped == order and got == want


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sparse_elimination_follows_the_rescan(rng):
    assert elimination_agrees(rng, invariants._sparse_eliminate)


# (name, source text of invariants._sparse_eliminate, its replacement)
ELIMINATION_MUTANTS = [
    ("a new unit never added", "units.add((r2, c))", "pass"),
    (
        "a lost unit never discarded",
        "col_rows[c].discard(r2)\n                    units.discard((r2, c))",
        "col_rows[c].discard(r2)",
    ),
    ("a lost column left in col_rows", "col_rows[c].discard(r2)", "pass"),
]


@pytest.mark.parametrize(
    "name, old, new", ELIMINATION_MUTANTS, ids=[m[0] for m in ELIMINATION_MUTANTS]
)
def test_elimination_property_catches_mutants(name, old, new):
    mutant = _mutant(invariants._sparse_eliminate, old, new)
    caught = 0
    for seed in range(300):
        try:
            caught += not elimination_agrees(random.Random(seed), mutant)
        except (KeyError, ValueError):  # a stale unit or column entry
            caught += 1
    assert caught > 0, name



def eliminations_agree(rows, reference_rows):
    """invariants._sparse_eliminate pops from its Laurent rows the pivot rows
    that the reference pops from its offset-pair rows, and returns the same
    core or raises the same message."""
    popped, outcomes = [], []
    for eliminate, given_rows in (
        (invariants._sparse_eliminate, rows),
        (reference._sparse_eliminate, reference_rows),
    ):
        recorded = PoppedRows(given_rows)
        try:
            outcomes.append(eliminate(recorded))
        except InternalVerificationError as e:
            outcomes.append(str(e))
        popped.append(recorded.popped)
    return popped[0] == popped[1] and outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_matches_the_reference_on_random_rows(rng):
    rows = random_rows(rng, PALETTE)
    rows = {r: {c: _offset(p) for c, p in row.items()} for r, row in rows.items()}
    assert eliminations_agree(laurent_rows(rows), copy.deepcopy(rows))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(n=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
def test_elimination_matches_the_reference_on_seeded_diagrams(n, seed):
    """On the input and output diagrams, the Laurent rows and their unit
    factors pop the reference's pivot rows and give its core exactly."""
    ap = random_presentation(n, seed)
    for d in (diagram(ap), project(build_full(ap)[0]).diagram):
        if d.crossings:
            assert eliminations_agree(invariants._run_rows(d), reference._run_rows(d))


def poly_bareiss_dense(m):
    """The former polynomial Bareiss, on dense lists padded with zeros, with
    schoolbook products and quotients."""
    k = len(m)
    if k == 0:
        return [1]
    sign = 1
    prev = [1]
    for col in range(k - 1):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            raise InternalVerificationError("singular crossing relation matrix")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, k):
            for c2 in range(col + 1, k):
                num = _psub(
                    pmul_schoolbook(m[r][c2], m[col][col]), pmul_schoolbook(m[r][col], m[col][c2])
                )
                m[r][c2] = pdivexact_schoolbook(num, prev)
            m[r][col] = []
        prev = m[col][col]
    return [sign * c for c in m[k - 1][k - 1]]


@pytest.fixture(scope="module")
def seeded_cores(seeded_diagrams):
    """The cores that alexander hands to _poly_bareiss on the seeded diagrams."""
    cores, real = [], invariants._sparse_eliminate

    def recording(rows):
        core = real(rows)
        cores.append(copy.deepcopy(core))
        return core

    with mock.patch.object(invariants, "_sparse_eliminate", recording):
        for _, _, d in seeded_diagrams:
            alexander(d)
    return cores


def bareiss_agrees(bareiss, m):
    """bareiss(m) is the dense Bareiss determinant exactly, sign included; on
    a singular m, where the dense one raises or gives 0, bareiss must raise
    or give 0, so that normalizing its value raises."""
    try:
        want = _offset(poly_bareiss_dense(_dense_matrix(m)))
    except InternalVerificationError:
        want = _ZERO
    try:
        got = bareiss(copy.deepcopy(m))
    except InternalVerificationError:
        got = _ZERO
    return got == want if want[1] else not got[1]


def test_offset_bareiss_matches_the_dense_bareiss(seeded_cores):
    assert max(len(core) for core in seeded_cores) >= 3
    for core in seeded_cores:
        assert invariants._poly_bareiss(copy.deepcopy(core)) == _offset(
            poly_bareiss_dense(_dense_matrix(core))
        )


ENTRIES = st.one_of(
    st.just(_ZERO),
    st.tuples(st.integers(0, 2), st.lists(st.integers(-2, 2), min_size=1, max_size=3)).filter(
        lambda p: p[1][0] and p[1][-1]
    ),
)
MATRICES = st.integers(0, 5).flatmap(
    lambda k: st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=k, max_size=k)
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(MATRICES)
def test_full_pivoting_bareiss_is_the_dense_determinant(m):
    assert bareiss_agrees(invariants._poly_bareiss, m)


@pytest.mark.parametrize(
    "m",
    [
        [[_ZERO, _ZERO], [_ZERO, _ZERO]],
        [[(0, [1, 1]), (1, [2])], [(0, [1, 1]), (1, [2])]],
        [[(0, [1]), _ZERO, (0, [3])], [(0, [2]), _ZERO, (1, [1])], [(0, [1, 1]), _ZERO, (0, [1])]],
    ],
    ids=["zero", "equal rows", "zero column"],
)
def test_singular_bareiss_raises(m):
    with pytest.raises(InternalVerificationError):
        LaurentPoly.normalized(invariants._poly_bareiss(m)[1])


def test_bareiss_needs_the_column_swap_sign(seeded_cores):
    swap = "row[col], row[pc] = row[pc], row[col]"
    mutant = _mutant(invariants._poly_bareiss, swap + "\n            sign = -sign", swap)
    assert all(bareiss_agrees(invariants._poly_bareiss, core) for core in seeded_cores)
    assert not all(bareiss_agrees(mutant, core) for core in seeded_cores)



# ------------------------------------------------------- packed polynomial kernels


def _outcome(divide, num, den):
    try:
        return divide(num, den)
    except InternalVerificationError:
        return "raises"


def kernels_agree(a, b):
    """invariants._pmul(a, b) is the schoolbook product; when b's top
    coefficient is nonzero, invariants._pdivexact gives the schoolbook
    quotient of a b and of a by b, or raises where it raises."""
    if invariants._pmul(a, b) != pmul_schoolbook(a, b):
        return False
    if not b or not b[-1]:
        return True
    return all(
        _outcome(invariants._pdivexact, num, b) == _outcome(pdivexact_schoolbook, num, b)
        for num in (pmul_schoolbook(a, b), a)
    )


@st.composite
def kernel_polys(draw):
    """Dense lists of lengths near invariants._PACK_LEN and beyond, of small
    coefficients (so zero ends are common), of large signed ones, or of one
    value repeated, whose products reach the packing's coefficient bound."""
    n = draw(st.one_of(st.sampled_from((1, 7, 8, 9)), st.integers(0, 24)))
    kind = draw(st.sampled_from(("small", "large", "repeated")))
    if kind == "repeated":
        return [draw(st.integers(-(1 << 70), 1 << 70))] * n
    bound = 3 if kind == "small" else 1 << 130
    return draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(kernel_polys(), kernel_polys())
def test_packed_kernels_match_the_schoolbook(a, b):
    assert kernels_agree(a, b)


def test_packed_product_one_bit_short_is_caught(monkeypatch):
    """With a byte too few whenever the product's coefficient bound has a
    multiple of 8 bits, a coefficient reaching that bound wraps: 8 * 4 * 4 =
    2^7 needs 9 bits signed."""
    rng = random.Random(7001)
    cases = [([4] * 8, [4] * 8), ([-5] * 9, [5] * 8), ([1 << 60] * 8, [-(1 << 60)] * 12)]
    for _ in range(60):
        k = rng.choice((7, 8, 9, 16))
        cases.append(tuple([rng.randint(-(1 << 40), 1 << 40) for _ in range(k)] for _ in "ab"))
    assert all(kernels_agree(a, b) for a, b in cases)
    old = "bound.bit_length() // 8 + 1"
    monkeypatch.setattr(
        invariants, "_pmul", _mutant(invariants._pmul, old, "(bound.bit_length() - 1) // 8 + 1")
    )
    assert not all(kernels_agree(a, b) for a, b in cases)


LONG_DEN = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
LONG_QUOTIENT = [2, 7, -1, 8, 2, 8, -1, 8, 2, 8, 4, 5]


def test_inexact_packed_division_raises_after_four_widths(monkeypatch):
    """Each of the four widths w, 2w, 4w and 8w packs num and den once; then
    the schoolbook loop raises."""
    num = pmul_schoolbook(LONG_QUOTIENT, LONG_DEN)
    num[3] += 1
    widths, real = [], invariants._pack

    def pack(p, w):
        widths.append(w)
        return real(p, w)

    monkeypatch.setattr(invariants, "_pack", pack)
    with pytest.raises(InternalVerificationError, match="inexact polynomial division"):
        invariants._pdivexact(num, LONG_DEN)
    w = widths[0]
    assert widths == [w, w, 2 * w, 2 * w, 4 * w, 4 * w, 8 * w, 8 * w]


def test_packed_division_doubles_the_width_for_a_large_quotient(monkeypatch):
    """t^120 - 1 over the product of the cyclotomic polynomials of 1, 6, 8,
    10, 12, 15 and 120 has a quotient coefficient of 178.  One signed byte
    holds every coefficient of num and den but not 178: at that width the
    quotient's digits carry, and only two bytes give it."""
    t = sympy.Symbol("t")
    den = sympy.prod(sympy.cyclotomic_poly(k, t) for k in (1, 6, 8, 10, 12, 15, 120))
    den = [int(c) for c in reversed(sympy.Poly(den, t).all_coeffs())]
    num = [-1] + [0] * 119 + [1]
    want = pdivexact_schoolbook(num, den)
    assert max(map(abs, want)) == 178 and max(map(abs, den)) < 128
    widths, real = [], invariants._pack

    def pack(p, w):
        widths.append((len(p), w))
        return real(p, w)

    monkeypatch.setattr(invariants, "_pack", pack)
    assert invariants._pdivexact(num, den) == want
    # num at one byte and at two, each try's digits multiplied back by den
    assert [w for k, w in widths if k == len(num)] == [1, 2]
    assert [k for k, _ in widths] == [len(num), len(den), len(want), len(den)] * 2


def test_exact_division_falls_back_to_the_schoolbook_loop(monkeypatch):
    """When no width unpacks a quotient, the schoolbook loop still returns it."""
    num = pmul_schoolbook(LONG_QUOTIENT, LONG_DEN)
    assert invariants._pdivexact(num, LONG_DEN) == LONG_QUOTIENT

    def unpack(v, n, w):
        raise OverflowError

    monkeypatch.setattr(invariants, "_unpack", unpack)
    assert invariants._pdivexact(num, LONG_DEN) == LONG_QUOTIENT


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
        rep = match(ap, project(build_k1(ap)))
        assert rep.ok


def project_reference(knot):
    """The former project, which runs every check on the Fraction shadows."""
    verts = getattr(knot, "vertices", knot)
    for attempt in range(invariants.PROJECTION_ATTEMPTS):
        dx = Fraction(1, 7 + attempt)
        dy = Fraction(1, 11 + 2 * attempt)
        shadows = [(v[0] - v[2] * dx, v[1] - v[2] * dy) for v in verts]
        diag, _ = project_once_on_one_scale(tuple(verts), shadows)
        if diag is not None:
            return invariants.ProjectedDiagram(diag, (dx, dy, Fraction(1)), attempt)
    raise InternalVerificationError("no generic projection direction found")


def on_own_ints(verts, shadows):
    """_project_once on int vertices and shadows, each at its own W = 1."""
    return _project_once([(*v, 1) for v in verts], [(*p, 1) for p in shadows])


def _projection(project_fn, poly):
    try:
        return project_fn(poly)
    except InternalVerificationError:
        return None


def test_project_on_the_lattice_matches_the_fraction_projection():
    rng = random.Random(1203)
    polygons = []
    for _ in range(24):
        ap = random_presentation(rng.randint(5, 16), rng.randrange(1 << 30))
        polygons.append(build_full(ap)[0])
    # a vertex whose shadow along (1/7, 1/11, 1) lands on edge 0
    polygons.append([(0, 0, 0), (4, 0, 0), (4, 4, 0), (3, Fraction(7, 11), 7), (0, 4, 0)])
    # grid polygons, stretched off the integers, fail attempts and raise too
    for verts in _grid_polygons(1203, 400):
        polygons.append([(Fraction(x, 2), Fraction(y, 3), z) for x, y, z in verts])
    attempts = set()
    for poly in polygons:
        got, want = _projection(project, poly), _projection(project_reference, poly)
        if want is None:
            assert got is None
            attempts.add(None)
            continue
        assert got.direction == want.direction
        assert got.attempt == want.attempt
        assert got.diagram.gauss == want.diagram.gauss
        assert len(got.diagram.crossings) == len(want.diagram.crossings)
        for c, w in zip(got.diagram.crossings, want.diagram.crossings):
            assert c == w
        attempts.add(got.attempt)
    assert {None, 0, 1} <= attempts


FRACTIONS = st.tuples(
    st.integers(0, 1 << 64), st.one_of(st.integers(1, 16), st.integers(1, 1 << 64))
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(FRACTIONS, min_size=2, max_size=8))
def test_projection_keys_order_like_fractions(pairs):
    k = invariants._key_shift(den for _, den in pairs)
    keyed = [((num << k) // den, Fraction(num, den)) for num, den in pairs]
    for (a, x), (b, y) in itertools.combinations(keyed, 2):
        assert (a < b, a == b) == (x < y, x == y)


def test_key_shift_separates_two_fifths_from_three_sevenths():
    k = invariants._key_shift([5, 7])
    assert (2 << k) // 5 < (3 << k) // 7
    b = max(d.bit_length() for d in (5, 7))
    assert (2 << b) // 5 == (3 << b) // 7  # a key with k = b would merge them


# shadows of a hexagon whose edge 0, from (0, 0) to (1, 0), edge 2 crosses at
# x = 2/5 and edge 4 at x = 3/7, over denominators 5 and 7; edges 2 and 4
# cross at (1/2, 1/2) over denominator 2
COMB = [(0, 0), (1, 0), (1, 3), (0, -2), (0, -3), (1, 4)]


def test_project_once_orders_two_fifths_before_three_sevenths(monkeypatch):
    verts = tuple((x, y, z) for (x, y), z in zip(COMB, (0, 0, 1, 2, 3, 4)))
    diag, failed = on_own_ints(verts, COMB)
    assert failed is None and (diag, failed) == project_once_reference(verts, COMB)
    assert [(diag.crossings[cid].over, is_over) for cid, is_over in diag.gauss[:2]] == [
        (2, False),
        (4, False),
    ]
    monkeypatch.setattr(invariants, "_key_shift", lambda dens: max(d.bit_length() for d in dens))
    assert on_own_ints(verts, COMB) == (None, "no-triple-points")


def test_project_past_the_lattice_cap_matches_the_lattice_ints(monkeypatch):
    """On Fraction vertices, as lattice returns them past LATTICE_MAX_BITS,
    project carries each vertex on its own ints and gives the diagram that
    the one-scale lattice's ints give."""
    polygons = [build_full(random_presentation(n, 7500 + n))[0].vertices for n in range(5, 17)]
    for verts in _grid_polygons(1729, 200):
        polygons.append([(Fraction(x, 2), Fraction(y, 3), z) for x, y, z in verts])
    want = [_projection(project_on_one_scale, verts) for verts in polygons]
    monkeypatch.setattr(geom, "LATTICE_MAX_BITS", 0)
    crossings = 0
    for verts, w in zip(polygons, want):
        scales, image = geom.lattice(verts)
        assert scales == (1, 1) and any(type(c) is Fraction for v in image for c in v)
        got = _projection(project, image)
        assert (got is None) == (w is None)
        if got is not None:
            assert (got.diagram, got.direction, got.attempt) == (w.diagram, w.direction, w.attempt)
            crossings += len(got.diagram.crossings)
    assert crossings > 0 and None in want


def test_project_on_per_axis_scales_matches_the_one_scale_projection(concurrence9):
    """project on the true points, each vertex on its own ints, draws the
    diagram that the one-scale lattice drew, on points whose per-axis
    lattice has scales of different sizes: built polygons at layout retry 0
    and 1 (n = 8 at retry 0 and the 9-chord concurrence9 at retry 1, since no
    n = 8 seed below 2,000 needs a retry; n = 24 and 48 at both), and the
    same polygons with every height divided by 3, where D_z = 3."""
    aps = [random_presentation(8, 0), concurrence9]
    aps += [random_presentation(n, seed) for n, seed in ((24, 2), (24, 0), (48, 7), (48, 0))]
    retries = []
    for ap in aps:
        knot, cert = build_full(ap)
        retries.append(cert.layout_retry)
        for dz in (1, 3):
            verts = [(x, y, z / dz) for x, y, z in knot.vertices]
            scales, image = geom.lattice(verts)
            assert scales[1] == dz
            want = project_on_one_scale(verts)
            assert project(verts) == want
            assert len(want.diagram.crossings) > 0
            # the heights keep their own scale, however large the plan's
            assert [v[2] for v in image] == [z * dz for _, _, z in verts]
            assert scales[0].bit_length() > (100 if cert.layout_retry else 8)
    assert retries == [0, 1, 0, 1, 0, 1]


def test_seg2_line_intersection():
    s, u, p = seg2_line_intersection(((0, 0), (2, 2)), ((0, 2), (2, 0)))
    assert (s, u, p) == (Fraction(1, 2), Fraction(1, 2), (1, 1))
    assert seg2_line_intersection(((0, 0), (1, 0)), ((0, 1), (1, 1))) is None


def _on_open_segment2(p, a, b):
    if orient2d(a, b, p) != 0:
        return False
    dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return 0 < dot < length2


def _over_under(verts, shadows, hits):
    """Each hit (i, j, s, u, point) as (over, under, sign, p_over, p_under),
    the sign the orientation of the over and under edges' shadow directions."""
    m = len(verts)

    def direction(e):
        (x0, y0), (x1, y1) = shadows[e], shadows[(e + 1) % m]
        return x1 - x0, y1 - y0

    out = []
    for i, j, s, u, _ in hits:
        zi = verts[i][2] + s * (verts[(i + 1) % m][2] - verts[i][2])
        zj = verts[j][2] + u * (verts[(j + 1) % m][2] - verts[j][2])
        if zi == zj:
            raise InternalVerificationError("polygon edges meet in space")
        over, under, p_over, p_under = (i, j, s, u) if zi > zj else (j, i, u, s)
        sign = orient2d((0, 0), direction(over), direction(under))
        out.append((over, under, sign, p_over, p_under))
    return out


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
    return _gauss_diagram(_over_under(verts, shadows, hits), range(m)), None


def _attempt(project_once, verts):
    """("accept", diagram), ("reject", None) or ("raise", None)."""
    shadows = [v[:2] for v in verts]
    try:
        diag, _ = project_once(tuple(verts), shadows)
    except InternalVerificationError:
        return "raise", None
    return ("accept", diag) if diag is not None else ("reject", None)


def _grid_polygons(seed, count):
    """Seeded polygons on a 4 x 4 grid of shadows, where every kind of
    degeneracy is common, with heights in 0..2."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(3, 7)
        yield [(rng.randrange(4), rng.randrange(4), rng.randrange(3)) for _ in range(m)]


def test_project_once_agrees_with_the_separate_checks():
    outcomes = set()
    for verts in _grid_polygons(2718, 6000):
        got = _attempt(on_own_ints, verts)
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
    assert on_own_ints(verts, shadows) == (None, now)


def project_once_unfiltered(verts, shadows):
    """The projection attempt without the box filter: every non-adjacent
    pair of edge shadows goes through seg2_line_intersection."""
    m = len(verts)
    for i in range(m):
        if orient2d(shadows[i - 1], shadows[i], shadows[(i + 1) % m]) == 0:
            return None, "no-collinear-joints"
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
    return _gauss_diagram(_over_under(verts, shadows, hits), range(m)), None


def _named_attempt(project_once, verts):
    """("accept", diagram), ("reject", failure name) or ("raise", message)."""
    shadows = [v[:2] for v in verts]
    try:
        diag, failed = project_once(tuple(verts), shadows)
    except InternalVerificationError as e:
        return "raise", str(e)
    return ("accept", diag) if diag is not None else ("reject", failed)


def test_box_filter_agrees_with_the_unfiltered_loop():
    outcomes = set()
    for verts in _grid_polygons(3141, 6000):
        got = _named_attempt(on_own_ints, verts)
        assert got == _named_attempt(project_once_unfiltered, verts), verts
        outcomes.add(got if got[0] == "reject" else got[0])
    assert outcomes == {
        "accept",
        "raise",
        ("reject", "no-collinear-joints"),
        ("reject", "no-parallel-overlap"),
        ("reject", "no-vertex-on-edge"),
        ("reject", "no-triple-points"),
    }


@pytest.mark.parametrize(
    "shadows,failed",
    [
        # vertex 4 repeats vertex 1, the end of edge 0; edges 0 and 3, the
        # first pair to meet there, have boxes that share only that corner
        ([(0, 1), (2, 2), (0, 4), (4, 4), (2, 2), (4, 0)], "no-vertex-on-edge"),
        # vertex 4 lies inside the horizontal edge 0, at the lower corner of
        # the boxes of edges 3 and 4, which touch edge 0's box on its side
        ([(0, 0), (4, 0), (4, 3), (3, 2), (2, 0), (1, 2), (0, 3)], "no-vertex-on-edge"),
        # edges 0 and 4 are collinear and meet end to end at (2, 0); their
        # boxes share only that point of their sides
        (
            [(0, 0), (2, 0), (1, 2), (3, 2), (4, 0), (2, 0), (3, -2), (0, -2)],
            "no-parallel-overlap",
        ),
    ],
)
def test_box_filter_keeps_touching_boxes(shadows, failed):
    verts = tuple((x, y, 0) for x, y in shadows)
    assert project_once_unfiltered(verts, shadows) == (None, failed)
    assert on_own_ints(verts, shadows) == (None, failed)


def at_weights(weights):
    """_project_once on int vertices and shadows, vertex k carried as its
    coordinates times weights[k] over W = weights[k]."""

    def project_once(verts, shadows):
        return _project_once(
            [(*(c * w for c in v), w) for v, w in zip(verts, weights)],
            [(*(c * w for c in p), w) for p, w in zip(shadows, weights)],
        )

    return project_once


def test_project_once_reads_each_vertex_at_its_own_weight():
    """A weight w per vertex, the point (xw, yw, zw, w), changes no outcome,
    failure name or diagram of a grid polygon."""
    rng = random.Random(1618)
    outcomes = set()
    for verts in _grid_polygons(1618, 6000):
        weights = [rng.randint(1, 7) for _ in verts]
        got = _named_attempt(at_weights(weights), verts)
        assert got == _named_attempt(on_own_ints, verts), (verts, weights)
        outcomes.add(got if got[0] == "reject" else got[0])
    assert len(outcomes) == 6


# ---------------------------------------------------------------------- match


def test_match_same_knot(ap5):
    rep = match(ap5, diagram(ap5))
    assert rep.ok
    assert rep.det1 == rep.det2 == 3


def test_match_flags_different_knots(ap3, ap5):
    rep = match(ap5, diagram(ap3))
    assert not rep.ok
    assert (rep.det1, rep.det2) == (3, 1)


def test_match_full_pipeline_output(ap6_fig8):
    knot, cert = build_full(ap6_fig8)
    rep = match(ap6_fig8, project(knot))
    assert rep.ok
    assert str(rep.alex1) == "t^2 - 3*t + 1"
