import math
import random
from fractions import Fraction

import pytest

from stickbound.arcpres import (
    ArcPresentation,
    Diagram,
    _gauss_diagram,
    _neighbours,
    chord_walk,
    cyclic_shift,
    random_presentation,
)
from stickbound.errors import InternalVerificationError
from stickbound.geom import orient2d
from stickbound.invariants import (
    _ZERO,
    PROJECTION_ATTEMPTS,
    ProjectedDiagram,
    _int_bareiss,
    _key_shift,
    _omul,
    _osub,
    _pstrip,
)


@pytest.fixture
def ap3():
    """Triangle unknot, the smallest valid presentation."""
    return ArcPresentation([(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def ap5():
    """5-chord trefoil; determinant 3, reaches exactly 6 sticks."""
    return ArcPresentation([(1, 4), (3, 5), (2, 4), (1, 3), (2, 5)])


@pytest.fixture
def ap6_fig8():
    """6-chord figure-eight; determinant 5, alexander t^2 - 3t + 1."""
    return ArcPresentation([(1, 3), (2, 5), (4, 6), (3, 5), (1, 4), (2, 6)])


@pytest.fixture
def unknot4():
    """4-chord unknot whose top two chords merge under destabilization."""
    return ArcPresentation([(1, 2), (2, 3), (3, 4), (1, 4)])


@pytest.fixture
def concurrence9():
    """Presentation whose first chord layout has a triple point (retries once)."""
    return ArcPresentation(
        [(1, 6), (1, 2), (2, 3), (3, 7), (7, 8), (8, 9), (4, 9), (4, 5), (5, 6)]
    )


def make_instances(count, n_lo, n_hi, master_seed):
    """Deterministic list of (seed, presentation) pairs, n cycling the range."""
    out = []
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        seed = master_seed * 1_000_003 + i
        out.append((seed, random_presentation(n, seed)))
    return out


@pytest.fixture(scope="session")
def instances100():
    return make_instances(100, 4, 10, 7)


def capped_polygon(seed, bits=64):
    """48 vertices near the parabola y = x^2, each coordinate off by 1/q with q
    a seeded ``bits``-bit integer, so that the lcm of the denominators runs to
    thousands of bits.  The perturbations are far below the parabola's
    curvature, so the polygon is convex in its shadow: an embedded unknot."""
    rng = random.Random(seed)

    def jitter():
        return Fraction(1, rng.randrange(1 << (bits - 1), 1 << bits))

    return [
        (k + jitter(), k * k + jitter(), jitter()) for k in range(48)
    ]


def project_on_one_scale(verts):
    """Reference projection: ``invariants.project`` as it ran when one scale D,
    the lcm of every coordinate's denominator, multiplied all three axes, so
    that the shadows (b(aX - Z), a(bY - Z)) were those of the points times D."""
    d = math.lcm(*(Fraction(c).denominator for v in verts for c in v))
    image = [tuple(int(c * d) for c in v) for v in verts]
    for attempt in range(PROJECTION_ATTEMPTS):
        a, b = 7 + attempt, 11 + 2 * attempt
        shadows = [(b * (a * x - z), a * (b * y - z)) for x, y, z in image]
        diag, _ = project_once_on_one_scale(image, shadows)
        if diag is not None:
            return ProjectedDiagram(diag, (Fraction(1, a), Fraction(1, b), Fraction(1)), attempt)
    raise InternalVerificationError("no generic projection direction found")


def project_once_on_one_scale(verts, shadows):
    """Reference projection attempt: ``invariants._project_once`` as it ran
    when every vertex and shadow shared one scale, as ints or ``Fraction``s."""
    m = len(verts)
    for i in range(m):
        if orient2d(shadows[i - 1], shadows[i], shadows[(i + 1) % m]) == 0:
            return None, "no-collinear-joints"
    boxes = []
    for i in range(m):
        (ax, ay), (bx, by) = shadows[i], shadows[(i + 1) % m]
        boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)))
    hits = []
    for i in range(m):
        a, b = shadows[i], shadows[(i + 1) % m]
        abx, aby = b[0] - a[0], b[1] - a[1]
        xi0, xi1, yi0, yi1 = boxes[i]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            xj0, xj1, yj0, yj1 = boxes[j]
            if xi1 < xj0 or xj1 < xi0 or yi1 < yj0 or yj1 < yi0:
                continue  # boxes strictly apart: the edges share no point
            c, d = shadows[j], shadows[(j + 1) % m]
            cdx, cdy = d[0] - c[0], d[1] - c[1]
            den = abx * cdy - aby * cdx
            if den == 0:
                if orient2d(a, b, c) == 0:
                    xs1 = sorted((a, b))
                    xs2 = sorted((c, d))
                    if max(xs1[0], xs2[0]) <= min(xs1[1], xs2[1]):
                        return None, "no-parallel-overlap"
                continue
            rx, ry = c[0] - a[0], c[1] - a[1]
            sn, un = rx * cdy - ry * cdx, rx * aby - ry * abx
            sign = 1
            if den < 0:
                sign, den, sn, un = -1, -den, -sn, -un
            if 0 < sn < den and 0 < un < den:
                if type(den) is not int:  # Fraction shadows, past the lattice cap
                    q = math.lcm(sn.denominator, un.denominator, den.denominator)
                    sn, un, den = int(sn * q), int(un * q), int(den * q)
                hits.append((i, j, sign, sn, un, den))
            elif 0 <= sn <= den and 0 <= un <= den:
                return None, "no-vertex-on-edge"
    k = _key_shift(hit[5] for hit in hits)
    keys = [((i, (sn << k) // den), (j, (un << k) // den)) for i, j, _, sn, un, den in hits]
    if len({key for pair in keys for key in pair}) != 2 * len(hits):
        return None, "no-triple-points"
    over_under = []
    for (i, j, sign, sn, un, den), ((_, ks), (_, ku)) in zip(hits, keys):
        zi = verts[i][2] * den + sn * (verts[(i + 1) % m][2] - verts[i][2])
        zj = verts[j][2] * den + un * (verts[(j + 1) % m][2] - verts[j][2])
        if zi == zj:
            raise InternalVerificationError("polygon edges meet in space")
        over_under.append((i, j, sign, ks, ku) if zi > zj else (j, i, -sign, ku, ks))
    return _gauss_diagram(over_under, range(m)), None


# ---------------------------------------------------------------------------
# References for the Alexander kernels of stickbound.invariants as they ran
# on offset-pair rows, each shifted to least offset 0 and rebuilt at every
# pivot, with schoolbook products and quotients: the relation rows and their
# elimination under their own names, the product and quotient renamed.


def _run_rows(d: Diagram):
    """Relation rows {r: {arc: offset pair}} over the arcs that pass over something.

    The k-th under-crossing in Gauss order, of sign eps and over-arc o, gives
    x_(k+1) = t^eps x_k + (1 - t^eps) x_o.  Walking from ``start``, the least
    arc that passes over something, x_k = t^e * sum(expr) over such arcs
    until arc k is one of them; the run then ends with the row t^e expr - x_k,
    shifted to least offset 0 and keyed by k.  This clears each arc that
    passes over nothing by a unit pivot on a row that stays, so the minor
    without the run ending at ``start`` and without column ``start`` is
    Alexander up to units (Crowell-Fox, ch. VII-VIII).
    """
    c = len(d.crossings)
    unders = [cid for cid, is_over in d.gauss if not is_over]
    over_arc = {cid: arc for (cid, is_over), arc in zip(d.gauss, d.arcs) if is_over}
    kept = set(over_arc.values())
    start = min(kept)
    rows, expr, e = {}, {start: {0: 1}}, 0
    for k in range(start, start + c - 1):  # the run ending at start is left out
        cid = unders[k % c]
        eps, o = d.crossings[cid].sign, over_arc[cid]
        e += eps
        # expr[o] += t^-e (1 - t^eps); each expr[a] is {exponent: coefficient}
        terms = expr.setdefault(o, {})
        terms[-e], terms[eps - e] = terms.get(-e, 0) + 1, terms.get(eps - e, 0) - 1
        end = (k + 1) % c
        if end not in kept:
            continue
        terms = expr.setdefault(end, {})
        terms[-e] = terms.get(-e, 0) - 1  # the row t^e expr - x_end, over t^e
        row = {}
        for a, terms in expr.items():
            if a != start and (xs := [x for x, v in terms.items() if v]):
                row[a] = min(xs), [terms.get(x, 0) for x in range(min(xs), max(xs) + 1)]
        # never empty: the entry at end is -1 at t = 1, as end is not the run's start
        low = min(lo for lo, _ in row.values())
        rows[end] = {a: (lo - low, cs) for a, (lo, cs) in row.items()}
        expr, e = {end: {0: 1}}, 0
    return rows


def _is_unit_monomial(p):
    """True iff the offset polynomial p is +-t^lo."""
    return len(p[1]) == 1 and p[1][0] in (1, -1)


def _poly_rewrite(row, col, pivot_row):
    """+-t^e * row - row[col] * pivot_row, the pivot entry being +-t^e."""
    e, (s,) = pivot_row[col]
    f = row[col]
    new = {
        c: (lo + e, cs if s == 1 else [-x for x in cs])
        for c, (lo, cs) in row.items()
        if c != col
    }
    for c, p in pivot_row.items():
        if c != col:
            new[c] = _osub(new.get(c, _ZERO), _omul(f, p))
    return {c: p for c, p in new.items() if p[1]}


def _sparse_eliminate(rows):
    """Pivot away the +-t^e entries of offset-pair rows {r: {col: entry}}, in
    place; returns the dense core left.

    Each pivot is the unit entry of least fill-in, the Markowitz count
    (row length - 1) * (column length - 1), ties going to the smallest
    (row, col).  :func:`_poly_rewrite` clears column col of each row holding
    it; outside the pivot row's columns that only scales the row by a unit,
    harmless for a determinant defined up to units, so only those columns
    and the ones the row lost can change which entries are units.
    """
    col_rows = {}
    for r, row in rows.items():
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    units = {(r, c) for r, row in rows.items() for c, p in row.items() if _is_unit_monomial(p)}
    while units:
        _, r, col = min(((len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c) for r, c in units)
        pivot_row = rows.pop(r)
        for c in pivot_row:
            col_rows[c].discard(r)
            units.discard((r, c))
        for r2 in sorted(col_rows[col]):
            old, new = rows[r2], _poly_rewrite(rows[r2], col, pivot_row)
            if not new:
                raise InternalVerificationError("singular crossing relation matrix")
            rows[r2] = new
            for c in old.keys() - new.keys():
                col_rows[c].discard(r2)
                units.discard((r2, c))
            for c in pivot_row.keys() & new.keys():
                col_rows[c].add(r2)
                if _is_unit_monomial(new[c]):
                    units.add((r2, c))
                else:
                    units.discard((r2, c))
    cols = sorted({c for row in rows.values() for c in row})
    if len(cols) != len(rows):
        raise InternalVerificationError("crossing relation matrix lost squareness")
    return [[rows[r].get(c, _ZERO) for c in cols] for r in sorted(rows)]


def pmul_schoolbook(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pstrip(out)


def pdivexact_schoolbook(num, den):
    """Quotient num/den in Z[t]; raises if the division is not exact."""
    num = list(num)
    if not den:
        raise InternalVerificationError("polynomial division by zero")
    if not _pstrip(num):
        return []
    if len(num) < len(den):
        raise InternalVerificationError("inexact polynomial division")
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(q) - 1, -1, -1):
        top = num[i + len(den) - 1]
        if top % lead:
            raise InternalVerificationError("inexact polynomial division")
        f = top // lead
        q[i] = f
        if f:
            for j, d in enumerate(den):
                num[i + j] -= f * d
    if any(num):
        raise InternalVerificationError("inexact polynomial division")
    return _pstrip(q)


# ---------------------------------------------------------------------------
# The grid determinant's rows and unit pivots as stickbound.invariants built
# and chose them: the winding-number matrix by an n^2 parity loop, its halved
# row differences, and a rescan of every row's values at every pivot.


def grid_rows_dense(ap):
    """The halved row differences of ap's grid matrix, dense, row 0 all 1s."""
    n = ap.n
    m, prev = [], None
    for x in range(n):
        row, s = [0] * n, 1
        for y in range(n - 1, -1, -1):
            a, b = ap.chords[y]  # the chord of index y + 1
            if a <= x < b:
                s = -s
            row[y] = s
        m.append(row if prev is None else [(u - v) // 2 for u, v in zip(row, prev)])
        prev = row
    return m


def sparse_rows(m):
    """Dense integer rows as sparse rows {col: value}, columns in order."""
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def unit_pivot_det_rescan(rows):
    """|det| by unit pivots, each the least (length, row) among all rows
    whose values hold a +-1, all rescanned at every step; consumes rows."""
    while ones := [(len(w), r) for r, w in enumerate(rows) if 1 in w.values() or -1 in w.values()]:
        prow = rows.pop(min(ones)[1])
        col = next(c for c, v in prow.items() if v in (1, -1))
        pv = prow.pop(col)
        for row in rows:
            f = row.pop(col, 0)
            if f:
                for c, v in prow.items():
                    x = row[c] = row.get(c, 0) - f * pv * v
                    if not x:
                        del row[c]
    cols = sorted({c for row in rows for c in row})
    if len(cols) < len(rows):
        return 0
    return abs(_int_bareiss([[row.get(c, 0) for c in cols] for row in rows]))


# ---------------------------------------------------------------------------
# normalize as stickbound.arcpres scored the shifts: beta1 counted under
# every shift, O(n^2).


def normalize_by_counting(ap):
    """The first cyclic shift of least beta1 and its k.  Chord c is type I
    under shift j iff (c - j) % n < (c - x) % n for both neighbours x."""
    n = ap.n
    reach = [
        min((c - prev) % n, (c - nxt) % n)
        for c, ((prev, _), (nxt, _)) in enumerate(_neighbours(chord_walk(ap)))
    ]
    k = min(range(n), key=lambda j: sum((c - j) % n < r for c, r in enumerate(reach)))
    return cyclic_shift(ap, k), k
