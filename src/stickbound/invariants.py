"""Diagram invariants: Alexander polynomial, determinant, projections.

All computation is exact over the integers.  The Alexander polynomial comes
from the crossing relation matrix (one row per crossing, one column per
over-arc) with one row and one column deleted; it is defined up to units
+-t^k, so results are normalized to lowest degree 0 with positive constant
term.  The knot determinant is computed twice, by deliberately disjoint code
paths, and the two values are compared whenever both are at hand: as
|Alexander(-1)|, and by integer elimination at t = -1 that first pivots away
the +-1 entries (most of a crossing row is +-1 there) and then runs
fraction-free Bareiss elimination on the small core left.  Both eliminations
pick pivots by least fill-in.  A projection tests pairs of edge shadows for
crossings only when their exact 2D bounding boxes are not strictly apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arcpres import Diagram, _gauss_diagram
from .errors import InternalVerificationError
from .geom import lattice, orient2d, seg2_line_intersection

PROJECTION_ATTEMPTS = 65


# ---------------------------------------------------------------------------
# integer polynomials (dense lists, lowest degree first)


def _pstrip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip(out)


def _psub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _pstrip(out)


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pstrip(out)


def _pdivexact(num, den):
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


@dataclass(frozen=True)
class LaurentPoly:
    """An integer polynomial taken modulo units +-t^k.

    Canonical form: tuple of coefficients from degree 0 up, nonzero at both
    ends, constant term positive.  Two knot polynomials agree up to units
    exactly when their canonical forms are equal.
    """

    coeffs: tuple

    @staticmethod
    def normalized(coeffs) -> "LaurentPoly":
        c = list(coeffs)
        while c and c[0] == 0:
            c.pop(0)
        _pstrip(c)
        if not c:
            raise InternalVerificationError("zero polynomial cannot be unit-normalized")
        if c[0] < 0:
            c = [-x for x in c]
        return LaurentPoly(tuple(c))

    def reversed(self) -> "LaurentPoly":
        return LaurentPoly.normalized(tuple(reversed(self.coeffs)))

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def span(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# crossing relation rows


def _as_diagram(d) -> Diagram:
    return d.diagram if isinstance(d, ProjectedDiagram) else d


def _relation_rows(d: Diagram):
    """One sparse row per crossing: {arc id: polynomial coefficient}.

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

        def add(col, poly):
            ent[col] = _padd(ent.get(col, []), poly)

        if cr.sign > 0:
            add(a, [0, 1])
            add(b, [-1])
            add(o, [1, -1])
        else:
            add(a, [1])
            add(b, [0, -1])
            add(o, [-1, 1])
        rows.append({k: v for k, v in ent.items() if v})
    return rows


def _is_unit_monomial(p):
    nz = [i for i, c in enumerate(p) if c]
    return len(nz) == 1 and abs(p[nz[0]]) == 1


def _mono_mul(p, mono):
    e = len(mono) - 1
    s = mono[-1]
    return [0] * e + [s * c for c in p]


def _sparse_eliminate(rows):
    """Pivot away +-t^e entries; returns the remaining dense core matrix.

    Each step scales a row by a unit, which is harmless for a determinant
    defined up to units.  Deterministic: among the unit-monomial entries,
    kept as a candidate set that only rewritten rows update, the pivot is
    the one of least fill-in, ties going to the smallest (row, col).
    """
    col_rows = {}
    for r, row in rows.items():
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    units = {
        (r, col) for r, row in rows.items() for col, p in row.items() if _is_unit_monomial(p)
    }
    while units:
        _, r, col = min(
            ((len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c) for r, c in units
        )
        pivot_row = rows.pop(r)
        mono = pivot_row[col]
        for c2 in pivot_row:
            col_rows[c2].discard(r)
            units.discard((r, c2))
        for r2 in sorted(col_rows.get(col, ())):
            f = rows[r2].pop(col)
            new = {c2: _mono_mul(p, mono) for c2, p in rows[r2].items()}
            for c2, p in pivot_row.items():
                if c2 == col:
                    continue
                new[c2] = _psub(new.get(c2, []), _pmul(f, p))
            cleaned = {c2: p for c2, p in new.items() if p}
            if not cleaned:
                raise InternalVerificationError("singular crossing relation matrix")
            units.discard((r2, col))
            for c2 in rows[r2]:
                units.discard((r2, c2))
                if c2 not in cleaned:
                    col_rows[c2].discard(r2)
            for c2, p in cleaned.items():
                col_rows.setdefault(c2, set()).add(r2)
                if _is_unit_monomial(p):
                    units.add((r2, c2))
            rows[r2] = cleaned
        col_rows.pop(col, None)
    cols = sorted({c for row in rows.values() for c in row})
    order = sorted(rows)
    if len(order) != len(cols):
        raise InternalVerificationError("crossing relation matrix lost squareness")
    return [[list(rows[r].get(c, [])) for c in cols] for r in order]


def _poly_bareiss(m):
    """Exact fraction-free determinant of a dense matrix over Z[t]."""
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
                num = _psub(_pmul(m[r][c2], m[col][col]), _pmul(m[r][col], m[col][c2]))
                m[r][c2] = _pdivexact(num, prev)
            m[r][col] = []
        prev = m[col][col]
    res = m[k - 1][k - 1]
    return [sign * c for c in res]


def alexander(d) -> LaurentPoly:
    """Normalized Alexander polynomial of a diagram.

    Every call self-checks the result: value +-1 at t=1, palindromic up to
    units, odd absolute value at t=-1.  Failures raise rather than return.
    """
    diag = _as_diagram(d)
    c = len(diag.crossings)
    if c == 0:
        return LaurentPoly((1,))
    rows = _relation_rows(diag)
    sparse = {}
    for rid in range(1, c):
        row = {col: list(p) for col, p in rows[rid].items() if col != 0}
        if not row:
            raise InternalVerificationError("singular crossing relation matrix")
        sparse[rid] = row
    core = _sparse_eliminate(sparse)
    poly = LaurentPoly.normalized(_poly_bareiss(core))
    at_one = poly(1)
    if at_one not in (1, -1):
        raise InternalVerificationError(
            f"Alexander self-check failed: value at t=1 is {at_one}"
        )
    if poly.reversed() != poly:
        raise InternalVerificationError(
            f"Alexander self-check failed: {poly} is not palindromic"
        )
    if poly(-1) % 2 == 0:
        raise InternalVerificationError(
            f"Alexander self-check failed: even value {poly(-1)} at t=-1"
        )
    return poly


def determinant(d) -> int:
    """Knot determinant by integer-only elimination.

    Deliberately shares no elimination code with :func:`alexander`: the
    crossing relation rows are evaluated at t=-1, their +-1 entries are
    pivoted away by integer row operations (:func:`_unit_eliminate`), and
    the small core left is reduced by fraction-free elimination.
    Cross-checked against |Alexander(-1)| in :func:`match`.
    """
    diag = _as_diagram(d)
    c = len(diag.crossings)
    if c == 0:
        return 1
    relations = _relation_rows(diag)
    rows = {}
    for rid in range(1, c):
        rows[rid] = row = {}
        for col, p in relations[rid].items():
            value = sum(x * (-1) ** i for i, x in enumerate(p))
            if col and value:
                row[col] = value
    core = _unit_eliminate(rows)
    det = 0 if core is None else _int_bareiss(core)
    if det == 0:
        raise InternalVerificationError("determinant path produced 0")
    return abs(det)


def _unit_eliminate(rows):
    """Pivot away the +-1 entries of sparse integer rows {col: value}.

    Returns the dense core left, whose determinant equals that of the whole
    matrix up to sign, or None when the matrix is visibly singular: a row
    empties or the core is not square.  A +-1 pivot divides nothing.  Each
    pivot is the +-1 entry of least fill-in, ties going to the smallest
    (row, col).
    """
    if not all(rows.values()):
        return None
    col_rows = {}
    for r, row in rows.items():
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    units = {(r, col) for r, row in rows.items() for col, v in row.items() if v in (1, -1)}
    while units:
        _, r, col = min(
            ((len(rows[r]) - 1) * (len(col_rows[c]) - 1), r, c) for r, c in units
        )
        pivot_row = rows.pop(r)
        for c2 in pivot_row:
            col_rows[c2].discard(r)
            units.discard((r, c2))
        p = pivot_row.pop(col)
        for r2 in col_rows.pop(col):
            row = rows[r2]
            f = row.pop(col) * p
            units.discard((r2, col))
            for c2, v in pivot_row.items():
                value = row.get(c2, 0) - f * v
                if value:
                    row[c2] = value
                    col_rows[c2].add(r2)
                    if value in (1, -1):
                        units.add((r2, c2))
                    else:
                        units.discard((r2, c2))
                elif c2 in row:
                    del row[c2]
                    col_rows[c2].discard(r2)
                    units.discard((r2, c2))
            if not row:
                return None
    cols = sorted({c for row in rows.values() for c in row})
    if len(cols) != len(rows):
        return None
    return [[rows[r].get(c, 0) for c in cols] for r in sorted(rows)]


def _int_bareiss(m):
    k = len(m)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(k - 1):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, k):
            for c2 in range(col + 1, k):
                num = m[r][c2] * m[col][col] - m[r][col] * m[col][c2]
                if num % prev:
                    raise InternalVerificationError("fraction-free step not exact")
                m[r][c2] = num // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[k - 1][k - 1]


# ---------------------------------------------------------------------------
# generic projection of a polygon to a diagram


@dataclass(frozen=True)
class ProjectedDiagram:
    """A diagram obtained by projecting a polygon along a generic direction."""

    diagram: Diagram
    direction: tuple
    attempt: int


def _project_once(verts, shadows):
    """One projection attempt: a Diagram, or the name of the failed check.

    A zero-length edge shadow, or a vertex on a neighbouring edge's line,
    makes a joint collinear.  Any other vertex on an edge, or two equal
    vertex shadows, puts a parameter 0 or 1 on a pair of non-adjacent edges,
    which the crossing loop rejects.  That loop skips a pair whose shadow
    boxes are strictly apart on an axis, since such edges share no point;
    boxes that touch still go through the full test.
    """
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
        xi0, xi1, yi0, yi1 = boxes[i]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            xj0, xj1, yj0, yj1 = boxes[j]
            if xi1 < xj0 or xj1 < xi0 or yi1 < yj0 or yj1 < yi0:
                continue  # boxes strictly apart: the edges share no point
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
    over_under = []
    for i, j, s, u, point in hits:
        zi = verts[i][2] + s * (verts[(i + 1) % m][2] - verts[i][2])
        zj = verts[j][2] + u * (verts[(j + 1) % m][2] - verts[j][2])
        if zi == zj:
            raise InternalVerificationError("polygon edges meet in space")
        over_under.append((i, j, s, u, point) if zi > zj else (j, i, u, s, point))
    edges = {e: (shadows[e], shadows[(e + 1) % m]) for e in range(m)}
    return _gauss_diagram(over_under, edges.get, range(m)), None


def project(knot) -> ProjectedDiagram:
    """Project a polygon along (1/(7+m), 1/(11+2m), 1) for the first generic m.

    Larger z is the over strand.  Every genericity condition is checked
    exactly; a failed check moves to the next direction, and running out of
    directions raises.  The checks run on the vertices' :func:`lattice`
    image, scale D: with a = 7+m and b = 11+2m the shadows
    (b(aX - Z), a(bY - Z)) of the image points (X, Y, Z) are the true
    shadows times D*a*b, and each crossing point is divided back.
    """
    verts = getattr(knot, "vertices", knot)
    scale, lifted = lattice(verts)
    last = "no directions tried"
    for attempt in range(PROJECTION_ATTEMPTS):
        a, b = 7 + attempt, 11 + 2 * attempt
        shadows = [(b * (a * x - z), a * (b * y - z)) for x, y, z in lifted]
        diag, failed = _project_once(lifted, shadows)
        if diag is not None:
            k = scale * a * b
            crossings = tuple(
                replace(c, point=(c.point[0] / k, c.point[1] / k)) for c in diag.crossings
            )
            return ProjectedDiagram(
                diagram=replace(diag, crossings=crossings),
                direction=(Fraction(1, a), Fraction(1, b), Fraction(1)),
                attempt=attempt,
            )
        last = failed
    raise InternalVerificationError(
        f"no generic projection direction found (last failure: {last})"
    )


# ---------------------------------------------------------------------------
# comparing two diagrams


@dataclass(frozen=True)
class MatchReport:
    """Side-by-side invariants of two diagrams of purportedly the same knot."""

    ok: bool
    det1: int
    det2: int
    alex1: LaurentPoly
    alex2: LaurentPoly
    mirrored: bool


def match(d1, d2) -> MatchReport:
    """Compare determinant and Alexander polynomial of two diagrams.

    The Alexander comparison allows the t -> 1/t substitution, which a change
    of traversal orientation induces.  As a side effect the two determinant
    code paths are cross-checked against each other on both diagrams.
    """
    a1, a2 = alexander(d1), alexander(d2)
    n1, n2 = determinant(d1), determinant(d2)
    for a, n in ((a1, n1), (a2, n2)):
        if abs(a(-1)) != n:
            raise InternalVerificationError(
                f"determinant paths disagree: |{a}(-1)| = {abs(a(-1))} vs {n}"
            )
    direct = a1 == a2
    mirrored = not direct and a1 == a2.reversed()
    return MatchReport(
        ok=n1 == n2 and (direct or mirrored),
        det1=n1,
        det2=n2,
        alex1=a1,
        alex2=a2,
        mirrored=mirrored,
    )
