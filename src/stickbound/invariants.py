"""Knot invariants: Alexander polynomial, determinant, projections.

All computation is exact over the integers.  The Alexander polynomial comes
from the Wirtinger relations of a diagram with the arcs that pass over no
crossing substituted away: one row per run between arcs that pass over
something, one column per such arc, one row and one column deleted
(:func:`_run_rows`).  It is defined up to units +-t^k, so results are
normalized to lowest degree 0 with positive constant term.  Each row's
entries are Laurent polynomials {exponent: coefficient}, and the row
carries a unit factor s t^k of its own.  Its sparse elimination
(:func:`_sparse_eliminate`) pivots away the +-t^e entries, each the one of
least fill-in over the set of unit entries left, by in-place updates that
touch only the pivot row's columns; the unit each step would scale a row by
goes into the row's factor, applied once to the few rows of the dense core
left.  Fraction-free Bareiss elimination of that core pivots on the entry
of fewest coefficients, each polynomial an offset pair (lo, coeffs), t^lo
times coeffs, so a unit factor t^e never pads it with zeros.  Products and
exact quotients of operands of 8 or more coefficients are taken on packed
ints, the polynomials' values at t = 2^(8w) (:func:`_pmul`,
:func:`_pdivexact`).  The determinant of an arc presentation is read from its grid
instead (unit pivots, then Bareiss on the core), by code that shares
nothing with diagrams or relation rows, and :func:`match` checks it against
|Alexander(-1)| of the presentation's diagram.  A projection carries each
vertex on its own integers (X, Y, Z, W), tests a pair of edge shadows for a
crossing only when boxes holding them are not strictly apart, tests it on
integer numerators whose denominator's sign gives the crossing's sign, and
sorts the crossings by integer keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arcpres import Diagram, _gauss_diagram, diagram
from .errors import InternalVerificationError
from .geom import _cross3, _dot3, _homogeneous

PROJECTION_ATTEMPTS = 65


# ---------------------------------------------------------------------------
# integer polynomials: dense lists, lowest degree first, and offset pairs
# (lo, coeffs) for t^lo * coeffs with no zero at either end of coeffs


def _pstrip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _psub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _pstrip(out)


# operands of at least this many coefficients each are multiplied, and
# divided, as packed ints (:func:`_pack`)
_PACK_LEN = 8


def _pack(p, w):
    """The value of the list p at t = 2^(8w), each coefficient a signed digit
    of w bytes: biased by 2^(8w - 1) into one unsigned digit, the bias taken
    off the whole."""
    h = 1 << (8 * w - 1)
    raw = b"".join((c + h).to_bytes(w, "little") for c in p)
    return int.from_bytes(raw, "little") - _bias(len(p), w)


def _unpack(v, n, w):
    """The n signed digits of w bytes whose value at t = 2^(8w) is v; raises
    OverflowError if v has no such digits."""
    h = 1 << (8 * w - 1)
    raw = (v + _bias(n, w)).to_bytes(n * w, "little")
    return [int.from_bytes(raw[i : i + w], "little") - h for i in range(0, n * w, w)]


def _bias(n, w):
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pmul(a, b):
    """Product of two dense lists in Z[t].

    When both have at least _PACK_LEN coefficients it is one int product at
    t = 2^(8w): no coefficient of a b exceeds min(len) max|a| max|b| in
    absolute value, and w bytes hold that bound and a sign bit.  Shorter
    operands take the schoolbook loop.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) >= _PACK_LEN:
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        if not bound:
            return []
        w = bound.bit_length() // 8 + 1
        return _pstrip(_unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pstrip(out)


_ZERO = (0, [])


def _osub(a, b):
    (la, ca), (lb, cb) = a, b
    if not cb:
        return a
    lo = min(la, lb) if ca else lb
    out = _psub([0] * (la - lo) + ca, [0] * (lb - lo) + cb)
    k = next((i for i, c in enumerate(out) if c), 0)
    return lo + k, out[k:]


def _omul(a, b):
    return a[0] + b[0], _pmul(a[1], b[1])


def _pdivexact(num, den):
    """Quotient num/den in Z[t], den's top coefficient nonzero; raises if the
    division is not exact.

    When den and the quotient have at least _PACK_LEN coefficients each, the
    packed num and den are divided as ints, first with digits of w bytes
    that hold every coefficient of num and den and a sign bit, then of 2w,
    4w and 8w.  A quotient stands only if the remainder is 0 and its digits
    times den give num exactly; if none does, the schoolbook loop decides.
    """
    num = list(num)
    if not den:
        raise InternalVerificationError("polynomial division by zero")
    if not _pstrip(num):
        return []
    if len(num) < len(den):
        raise InternalVerificationError("inexact polynomial division")
    q = [0] * (len(num) - len(den) + 1)
    if min(len(den), len(q)) >= _PACK_LEN:
        w = max(max(map(abs, num)), max(map(abs, den))).bit_length() // 8 + 1
        for _ in range(4):
            packed, rest = divmod(_pack(num, w), _pack(den, w))
            if not rest:
                try:
                    quo = _unpack(packed, len(q), w)
                except OverflowError:  # the quotient has no digits of w bytes
                    quo = None
                if quo is not None and _pmul(quo, den) == num:
                    return quo
            w *= 2
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
        c = _pstrip(list(coeffs))
        c = c[next((i for i, x in enumerate(c) if x), 0) :]
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
# Wirtinger relation rows, one per run between arcs that pass over something


def _as_diagram(d) -> Diagram:
    return d.diagram if isinstance(d, ProjectedDiagram) else d


def _run_rows(d: Diagram):
    """Relation rows {r: (entries, k, s)} over the arcs that pass over
    something: entries {arc: {exponent: coefficient}} and the row's unit
    factor s t^k.

    The k-th under-crossing in Gauss order, of sign eps and over-arc o, gives
    x_(k+1) = t^eps x_k + (1 - t^eps) x_o.  Walking from ``start``, the least
    arc that passes over something, x_k = t^e * sum(expr) over such arcs
    until arc k is one of them; the run then ends with the row t^e expr - x_k,
    each entry a Laurent polynomial, keyed by k.  Its unit factor starts as
    t^-low, low the row's least exponent, the shift to least exponent 0;
    :func:`_sparse_eliminate` applies it to the rows of the core alone.  This clears
    each arc that passes over nothing by a unit pivot on a row that stays,
    so the minor without the run ending at ``start`` and without column
    ``start`` is Alexander up to units (Crowell-Fox, ch. VII-VIII).
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
            if a != start and (entry := {x: v for x, v in terms.items() if v}):
                row[a] = entry
        # never empty: the entry at end is -1 at t = 1, as end is not the run's start
        rows[end] = row, -min(min(entry) for entry in row.values()), 1
        expr, e = {end: {0: 1}}, 0
    return rows


def _sparse_eliminate(rows):
    """Pivot away the +-t^e entries of Laurent rows {r: (entries, k, s)}, in
    place; returns the dense core left as offset pairs.

    Each pivot is the unit entry of least fill-in, the Markowitz count
    (row length - 1) * (column length - 1), ties going to the smallest
    (row, col).  A pivot s t^e in column col clears col from each row
    holding it by row -= f s t^-e pivot_row, f the row's entry there, which
    changes only the pivot row's columns, so only those can change which
    entries are units.  That is s t^e row - f pivot_row over s t^e, so the
    row's unit factor takes on s t^e and the pivot row's own factor; a unit
    factor keeps every row's length and units, and so every pivot.  The
    factors are applied to the rows of the core alone.
    """
    col_rows = {}
    for r, (row, _, _) in rows.items():
        for col in row:
            col_rows.setdefault(col, set()).add(r)
    units = {(r, c) for r, (row, _, _) in rows.items() for c, p in row.items() if _is_unit(p)}
    while units:
        _, r, col = min(((len(rows[r][0]) - 1) * (len(col_rows[c]) - 1), r, c) for r, c in units)
        pivot_row, k, sign = rows.pop(r)
        for c in pivot_row:
            col_rows[c].discard(r)
            units.discard((r, c))
        ((e, s),) = pivot_row.pop(col).items()
        k, sign = k + e, sign * s  # the pivot row's factor times s t^e
        for r2 in sorted(col_rows.pop(col)):
            row, k2, sign2 = rows[r2]
            units.discard((r2, col))
            g = {x - e: -s * v for x, v in row.pop(col).items()}  # -f s t^-e
            for c, p in pivot_row.items():
                entry = row.setdefault(c, {})
                for x, v in p.items():
                    for y, u in g.items():
                        if z := entry.get(x + y, 0) + u * v:
                            entry[x + y] = z
                        else:
                            del entry[x + y]
                if not entry:
                    del row[c]
                    col_rows[c].discard(r2)
                    units.discard((r2, c))
                    continue
                col_rows[c].add(r2)
                if _is_unit(entry):
                    units.add((r2, c))
                else:
                    units.discard((r2, c))
            if not row:
                raise InternalVerificationError("singular crossing relation matrix")
            rows[r2] = row, k2 + k, sign2 * sign
    cols = sorted({c for row, _, _ in rows.values() for c in row})
    if len(cols) != len(rows):
        raise InternalVerificationError("crossing relation matrix lost squareness")
    core = [rows[r] for r in sorted(rows)]
    return [[_offset_pair(row.get(c), k, s) for c in cols] for row, k, s in core]


def _is_unit(p):
    """True iff the Laurent polynomial p is +-t^e."""
    return len(p) == 1 and abs(*p.values()) == 1


def _offset_pair(p, k, s):
    """The offset pair of s t^k times the Laurent polynomial p, _ZERO if None."""
    if p is None:
        return _ZERO
    lo, hi = min(p), max(p)
    return lo + k, [s * p.get(x, 0) for x in range(lo, hi + 1)]


def _poly_bareiss(m):
    """Exact fraction-free determinant of a dense matrix of offset pairs over Z[t].

    Each step pivots on the nonzero entry of fewest coefficients left, ties
    going to the smallest (row, col); a row swap and a column swap each flip
    the sign.  Returns an offset pair; each exact division divides
    coefficient lists with nonzero constant terms and subtracts offsets.
    """
    k = len(m)
    if k == 0:
        return 0, [1]
    m = [list(row) for row in m]
    sign, prev = 1, (0, [1])
    for col in range(k - 1):
        left = [(len(m[r][c][1]), r, c) for r in range(col, k) for c in range(col, k)]
        left = [key for key in left if key[0]]
        if not left:
            raise InternalVerificationError("singular crossing relation matrix")
        _, pr, pc = min(left)
        if pr != col:
            m[col], m[pr] = m[pr], m[col]
            sign = -sign
        if pc != col:
            for row in m:
                row[col], row[pc] = row[pc], row[col]
            sign = -sign
        top = m[col]
        for r in range(col + 1, k):
            row = m[r]
            for c2 in range(col + 1, k):
                num = _osub(_omul(row[c2], top[col]), _omul(row[col], top[c2]))
                row[c2] = (num[0] - prev[0], _pdivexact(num[1], prev[1])) if num[1] else _ZERO
        prev = top[col]
    lo, res = m[k - 1][k - 1]
    return lo, [sign * c for c in res]


def alexander(d) -> LaurentPoly:
    """Normalized Alexander polynomial of a diagram.

    Every call self-checks the result: value +-1 at t=1, palindromic up to
    units, odd absolute value at t=-1.  Failures raise rather than return.
    """
    diag = _as_diagram(d)
    if not diag.crossings:
        return LaurentPoly((1,))
    core = _sparse_eliminate(_run_rows(diag))
    poly = LaurentPoly.normalized(_poly_bareiss(core)[1])
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


def determinant(ap) -> int:
    """Knot determinant of an arc presentation, read from its grid.

    In the grid, chord i is a horizontal at height i and label a a vertical
    at a (Cromwell, Topology Appl. 64, 1995).  With M[x][y] = (-1) to the
    number of chords (a, b) of index above y with a <= x < b, the parity of
    the winding number around (x + 1/2, y + 1/2), det M = +-2^(n-1) det K
    (Manolescu-Ozsvath-Sarkar, arXiv:math/0607691).  Row 0 of M is all 1s;
    label x's chords are j1 < j2 (0-based), so M[x] is M[x-1] with columns
    j1 < y <= j2 negated and (M[x] - M[x-1]) / 2 is M[x] there, 0 elsewhere.
    Those sparse rows, built with one running sign list, have determinant
    +-det K, and so do rows 1..n-1 on columns 1..n-1, since column 0 is
    nonzero in row 0 alone; :func:`_unit_pivot_det` takes those.
    """
    # (label, chord) sorted: label x's chords j1 < j2 are entries 2x - 2 and 2x - 1
    ends = sorted((a, j) for j, chord in enumerate(ap.chords) for a in chord)
    sign = [1] * ap.n
    rows = []
    for (_, j1), (_, j2) in zip(ends[:-2:2], ends[1:-2:2]):
        rows.append(row := {})
        for y in range(j1 + 1, j2 + 1):
            row[y] = sign[y] = -sign[y]
    if not (det := _unit_pivot_det(rows)):
        raise InternalVerificationError("determinant path produced 0")
    return det


def _unit_pivot_det(rows):
    """|det| of a square int matrix of sparse rows {col: value}, consumed:
    unit pivots, then Bareiss on the core.  Each step pivots on the first
    of the shortest rows with a +-1 entry, found in one pass that skips rows
    no shorter than the best so far, at its first one pv, and subtracts
    f * pv times it from each row with f in that column: no division.
    Fewer columns than rows left make det 0."""
    while True:
        best = None
        for r, w in enumerate(rows):
            if (best is None or len(w) < best[0]) and (1 in (vs := w.values()) or -1 in vs):
                best = len(w), r
        if best is None:
            break
        prow = rows.pop(best[1])
        pv = prow.pop(col := next(c for c, v in prow.items() if v in (1, -1)))
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


def _int_bareiss(m):
    """The determinant of the square int matrix ``m`` up to sign, by
    fraction-free elimination in place: a row swap's sign is not kept."""
    k = len(m)
    if k == 0:
        return 1
    prev = 1
    for col in range(k - 1):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return 0
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, k):
            for c2 in range(col + 1, k):
                num = m[r][c2] * m[col][col] - m[r][col] * m[col][c2]
                if num % prev:
                    raise InternalVerificationError("fraction-free step not exact")
                m[r][c2] = num // prev
            m[r][col] = 0
        prev = m[col][col]
    return m[k - 1][k - 1]


# ---------------------------------------------------------------------------
# generic projection of a polygon to a diagram


@dataclass(frozen=True)
class ProjectedDiagram:
    """A diagram obtained by projecting a polygon along a generic direction."""

    diagram: Diagram
    direction: tuple
    attempt: int


def _key_shift(dens):
    """k such that floor(x * 2^k) orders the x = num/den exactly: two distinct
    x with every den below 2^b differ by more than 2^-2b, and k = 2b + 1."""
    return 2 * max((den.bit_length() for den in dens), default=0) + 1


def _project_once(points, shadows):
    """One projection attempt: a Diagram, or the name of the failed check.

    ``points`` are the vertices as ints (X, Y, Z, W), W > 0, the point
    (X, Y, Z) / W, and ``shadows`` their shadows as (x, y, W), the plane
    point (x, y) / W.  A zero-length edge shadow, or a vertex on a
    neighbouring edge's line, makes a joint collinear.  Any other vertex on
    an edge, or two equal vertex shadows, puts a parameter 0 or 1 on a pair
    of non-adjacent edges, which the crossing loop rejects.  That loop skips
    a pair whose shadow boxes are strictly apart on an axis, since such
    edges share no point.  The boxes are taken on the floors of the
    coordinates, and floor(p) < floor(q) implies p < q, so the skip stays
    exact.  With each edge's direction scaled by the W of its
    ends, the parameters of a pair i, j with ends a, b and c, d are
    (sn W_b) / (den W_c) along i and (un W_d) / (den W_a) along j, den > 0
    keeping the sign den had, the crossing's sign when edge i is over; the
    two heights there share the denominator den W_a W_c.  Crossings sort by
    the int keys of :func:`_key_shift`; a repeated (edge, key) is a triple
    point.
    """
    m = len(points)
    for i in range(m):
        if _dot3(shadows[i - 1], _cross3(shadows[i], shadows[(i + 1) % m])) == 0:
            return None, "no-collinear-joints"
    floors = [(x // w, y // w) for x, y, w in shadows]
    edges, boxes = [], []  # direction (x, y, Z) times W_a W_b; box of floors
    for i in range(m):
        (ax, ay, wa), (bx, by, wb) = shadows[i], shadows[(i + 1) % m]
        za, zb = points[i][2], points[(i + 1) % m][2]
        edges.append((bx * wa - ax * wb, by * wa - ay * wb, zb * wa - za * wb))
        (fax, fay), (fbx, fby) = floors[i], floors[(i + 1) % m]
        boxes.append((min(fax, fbx), max(fax, fbx), min(fay, fby), max(fay, fby)))
    hits = []
    for i in range(m):
        a, b = shadows[i], shadows[(i + 1) % m]
        wa, wb, za = a[2], b[2], points[i][2]
        abx, aby, abz = edges[i]
        xi0, xi1, yi0, yi1 = boxes[i]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            xj0, xj1, yj0, yj1 = boxes[j]
            if xi1 < xj0 or xj1 < xi0 or yi1 < yj0 or yj1 < yi0:
                continue  # boxes strictly apart: the edges share no point
            c, d = shadows[j], shadows[(j + 1) % m]
            wc = c[2]
            cdx, cdy, cdz = edges[j]
            den = abx * cdy - aby * cdx
            rx, ry = c[0] * wa - a[0] * wc, c[1] * wa - a[1] * wc  # c - a times W_a W_c
            un = rx * aby - ry * abx
            if den == 0:
                if un == 0 and any(_on_segment(*e) for e in ((c, a, b), (d, a, b), (a, c, d))):
                    return None, "no-parallel-overlap"
                continue
            sn = rx * cdy - ry * cdx
            sign = 1
            if den < 0:
                sign, den, sn, un = -1, -den, -sn, -un
            s_num, s_den, u_num, u_den = sn * wb, den * wc, un * d[2], den * wa
            if 0 < s_num < s_den and 0 < u_num < u_den:
                zi = za * s_den + sn * abz
                zj = points[j][2] * u_den + un * cdz
                hits.append((i, j, sign, s_num, s_den, u_num, u_den, zi, zj))
            elif 0 <= s_num <= s_den and 0 <= u_num <= u_den:
                return None, "no-vertex-on-edge"
    k = _key_shift(den for hit in hits for den in (hit[4], hit[6]))
    keys = [((i, (sn << k) // sd), (j, (un << k) // ud)) for i, j, _, sn, sd, un, ud, _, _ in hits]
    if len({key for pair in keys for key in pair}) != 2 * len(hits):
        return None, "no-triple-points"
    over_under = []
    for (i, j, sign, *_, zi, zj), ((_, ks), (_, ku)) in zip(hits, keys):
        if zi == zj:
            raise InternalVerificationError("polygon edges meet in space")
        over_under.append((i, j, sign, ks, ku) if zi > zj else (j, i, -sign, ku, ks))
    return _gauss_diagram(over_under, range(m)), None


def _on_segment(p, a, b):
    """Whether shadow p, on the line of shadows a and b, lies on the closed
    segment ab: (p - a) . (p - b) <= 0, scaled by W_p^2 W_a W_b > 0."""
    (px, py, wp), (ax, ay, wa), (bx, by, wb) = p, a, b
    dot = (px * wa - ax * wp) * (px * wb - bx * wp) + (py * wa - ay * wp) * (py * wb - by * wp)
    return dot <= 0


def project(knot) -> ProjectedDiagram:
    """Project a polygon along (1/(7+m), 1/(11+2m), 1) for the first generic m.

    Larger z is the over strand.  Every genericity condition is checked
    exactly; a failed check moves to the next direction, and running out of
    directions raises.  The vertices are true points, ints or ``Fraction``s.
    Each runs on its own integers (X, Y, Z, W), W > 0 the lcm of its three
    denominators: with a = 7+m and b = 11+2m its shadow (b(aX - Z),
    a(bY - Z), W) is the plane point a b times the true shadow, so no
    common scale carries one vertex's denominators to another's.
    """
    points = [_homogeneous(v) for v in getattr(knot, "vertices", knot)]
    last = "no directions tried"
    for attempt in range(PROJECTION_ATTEMPTS):
        a, b = 7 + attempt, 11 + 2 * attempt
        shadows = [(b * (a * x - z), a * (b * y - z), w) for x, y, z, w in points]
        diag, failed = _project_once(points, shadows)
        if diag is not None:
            return ProjectedDiagram(
                diagram=diag,
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


def match(ap, d) -> MatchReport:
    """Compare determinant and Alexander polynomial of ap with those of diagram d.

    The Alexander polynomials are compared as they are: :func:`alexander`
    raises unless its result is palindromic, so the t -> 1/t substitution a
    change of traversal orientation induces leaves it unchanged.  det1 is
    ap's grid determinant, which must equal |Alexander(-1)| of ap's grid
    diagram, drawn here; det2 is |Alexander(-1)| of d.  The two routes share
    no code: :func:`determinant` eliminates interval rows read off ap's
    label uses, Alexander the relation rows of the grid's Gauss code.
    """
    a1, a2 = alexander(diagram(ap)), alexander(d)
    n1, n2 = determinant(ap), abs(a2(-1))
    if abs(a1(-1)) != n1:
        raise InternalVerificationError(
            f"determinant paths disagree: |{a1}(-1)| = {abs(a1(-1))} vs {n1}"
        )
    return MatchReport(
        ok=n1 == n2 and a1 == a2,
        det1=n1,
        det2=n2,
        alex1=a1,
        alex2=a2,
    )
