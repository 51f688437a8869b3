"""Arc presentations of knots.

An arc presentation with n chords places n binding points on the unit circle
and joins them by n straight chords, each binding point shared by exactly two
chords, so that the chords close up into a single cycle.  Chord index doubles
as height: where two chords cross, the one with the smaller index passes
under.

This module owns the combinatorics (validation, crossing pairs, chord types),
the moves (cyclic shift, top destabilization), the text format, random
generation, the circle layout the construction lifts, and the planar
diagram of a presentation.  The layout runs on each binding point's own
homogeneous integers.  The diagram is read from the presentation's grid, on
integers, with no layout.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Optional

from .errors import InternalVerificationError, InvalidArcPresentation
from .geom import _cross3, _dot3, _homogeneous, binding_points, lattice

MAX_LAYOUT_RETRIES = 64


@dataclass(frozen=True)
class ArcPresentation:
    """n chords as unordered label pairs; chords[i] is the chord of index i+1.

    Construction runs ``require_valid`` and raises InvalidArcPresentation, so
    every instance is a valid arc presentation.
    """

    chords: tuple

    def __post_init__(self):
        try:
            chords = tuple(map(_sorted_pair, self.chords))
        except TypeError:  # not iterable
            raise InvalidArcPresentation(
                f"chords must be a sequence of label pairs, got {self.chords!r}"
            ) from None
        object.__setattr__(self, "chords", chords)
        require_valid(self)

    @property
    def n(self) -> int:
        return len(self.chords)


class ChordType(Enum):
    I = "I"  # both neighbor chords have greater index
    II = "II"  # one greater, one smaller
    III = "III"  # both smaller


@dataclass(frozen=True)
class BetaCounts:
    beta1: int
    beta2: int
    beta3: int

    def as_tuple(self):
        return (self.beta1, self.beta2, self.beta3)


def _sorted_pair(pair):
    """A chord as a sorted tuple, or as given if it cannot be sorted."""
    try:
        return tuple(sorted(pair))
    except TypeError:  # not iterable, or labels of mixed types: require_valid says so
        return pair


def require_valid(ap: ArcPresentation) -> None:
    """Raise InvalidArcPresentation unless ap is a valid arc presentation.

    Checked one phase at a time: every chord is a pair of distinct labels in
    1..n, every binding point is used twice, and the chords close into one
    cycle through all n.
    """
    errors = []
    n = ap.n
    if n < 2:
        raise InvalidArcPresentation(f"need at least 2 chords, got {n}")
    for idx, pair in enumerate(ap.chords, start=1):
        is_pair = type(pair) is tuple and len(pair) == 2
        if not (is_pair and type(pair[0]) is type(pair[1]) is int):
            errors.append(f"chord {idx} is not a pair of integer labels: {pair!r}")
            continue
        a, b = pair
        if not (1 <= a <= n and 1 <= b <= n):
            errors.append(f"chord {idx} uses label outside 1..{n}: {{{a},{b}}}")
        if a == b:
            errors.append(f"chord {idx} is degenerate: both endpoints at {a}")
    if errors:
        raise InvalidArcPresentation("; ".join(errors))
    uses = _point_uses(ap)
    for p in range(1, n + 1):
        count = len(uses.get(p, ()))
        if count != 2:
            errors.append(f"binding point {p} used {count} times, expected 2")
    if errors:
        raise InvalidArcPresentation("; ".join(errors))
    # valid iff the cycle through chord 1 is the whole chord-adjacency multigraph
    steps = len(_walk(ap.chords, uses))
    if steps != n:
        raise InvalidArcPresentation(
            f"chord-adjacency graph is not a single {n}-cycle (closed after {steps})"
        )


def _walk(chords, uses):
    """:func:`chord_walk`'s steps around the cycle through chord 1.

    ``uses`` is :func:`_point_uses`' map with every point used twice, so the
    chord-adjacency multigraph is a union of cycles and the walk is back at
    chord 1 within n steps.
    """
    walk = []
    cur, entry = 0, chords[0][0]
    while True:
        a, b = chords[cur]
        exit_pt = b if entry == a else a
        walk.append((cur, entry, exit_pt))
        u, v = uses[exit_pt]
        cur, entry = (v if u == cur else u), exit_pt
        if cur == 0:
            return walk


def _point_uses(ap):
    """Binding point label -> 0-based indices of the chords that use it."""
    uses = {}
    for idx, (a, b) in enumerate(ap.chords):
        uses.setdefault(a, []).append(idx)
        uses.setdefault(b, []).append(idx)
    return uses


def crossing_pairs(ap: ArcPresentation) -> list:
    """Sorted list of 1-based chord index pairs whose endpoints interleave."""
    n = ap.n
    out = []
    for i in range(n):
        a, b = ap.chords[i]  # a < b
        for j in range(i + 1, n):
            c, d = ap.chords[j]
            if a in (c, d) or b in (c, d):
                continue
            if (a < c < b) != (a < d < b):
                out.append((i + 1, j + 1))
    return out


def classify(ap: ArcPresentation, nb=None):
    """Per-chord types and the (beta1, beta2, beta3) census; needs n >= 3.
    ``nb``, if given, is :func:`_neighbours` of ap's walk."""
    if ap.n < 3:
        raise InvalidArcPresentation("chord types need at least 3 chords")
    types = [
        (ChordType.I, ChordType.II, ChordType.III)[(prev < i) + (nxt < i)]
        for i, ((prev, _), (nxt, _)) in enumerate(nb or _neighbours(chord_walk(ap)))
    ]
    return tuple(types), BetaCounts(*(types.count(t) for t in ChordType))


def cyclic_shift(ap: ArcPresentation, k: int) -> ArcPresentation:
    """Relabel chord indices so that old chord 1+k becomes new chord 1.  A
    rotation of a valid presentation is valid: it is not validated again."""
    k %= ap.n
    shifted = object.__new__(ArcPresentation)
    object.__setattr__(shifted, "chords", ap.chords[k:] + ap.chords[:k])
    return shifted


def normalize(ap: ArcPresentation):
    """Cyclic shift minimizing beta1; ties broken by smallest shift k >= 0.

    Shift k renumbers chord c (0-based) as (c - k) % n, so c is type I under
    it iff (x - k) % n > (c - k) % n for both neighbour chords x, that is iff
    (c - k) % n < r_c = min over x of (c - x) % n: iff k is c + n - r_c + 1,
    ..., c + n mod n.  A difference array over 0..2n - 1 counts those runs;
    beta1 of shift k is the count at k plus that at k + n.  Only the chosen
    shift is built.
    """
    n = ap.n
    if n < 3:
        raise InvalidArcPresentation("chord types need at least 3 chords")
    diff = [0] * (2 * n + 1)
    for c, ((prev, _), (nxt, _)) in enumerate(_neighbours(chord_walk(ap))):
        diff[c + n - min((c - prev) % n, (c - nxt) % n) + 1] += 1
        diff[c + n + 1] -= 1
    runs = list(accumulate(diff))
    beta1 = [runs[j] + runs[j + n] for j in range(n)]
    k = beta1.index(min(beta1))
    return cyclic_shift(ap, k), k


def destabilize_top(ap: ArcPresentation) -> Optional[ArcPresentation]:
    """Merge chords n-1 and n into one top chord when chord n-1 is type II.

    Returns the destabilized presentation (n-1 chords, binding points
    relabeled to stay 1..n-1 in circular order), or None when the move does
    not apply or would create a degenerate chord.
    """
    n = ap.n
    types, _ = classify(ap)
    if types[n - 2] is not ChordType.II:
        return None
    top = set(ap.chords[n - 1])
    sub = set(ap.chords[n - 2])
    shared = top & sub
    if len(shared) != 1:
        return None  # doubled pair: merging would close a 2-cycle on itself
    s = shared.pop()
    p = (sub - {s}).pop()
    q = (top - {s}).pop()

    def relabel(x):
        return x - 1 if x > s else x

    chords = [tuple(sorted((relabel(a), relabel(b)))) for a, b in ap.chords[: n - 2]]
    chords.append(tuple(sorted((relabel(p), relabel(q)))))
    return ArcPresentation(tuple(chords))


def simplify(ap: ArcPresentation):
    """Destabilize from the top until no merge applies; returns (ap, steps)."""
    steps = 0
    while ap.n >= 3:
        nxt = destabilize_top(ap)
        if nxt is None:
            break
        ap = nxt
        steps += 1
    return ap, steps


def chord_walk(ap: ArcPresentation) -> list:
    """Traversal of the chord cycle as (chord index 0-based, entry, exit).

    Starts at chord 1 entering through its smaller-labeled binding point; each
    subsequent chord is entered through the point it shares with the previous
    one.  The exit of the last chord is the entry of the first.
    """
    return _walk(ap.chords, _point_uses(ap))


def _neighbours(walk) -> list:
    """Per chord (0-based): ((previous chord, entry), (next chord, exit)) on
    ``walk``, a :func:`chord_walk`: the two chords sharing a point with it."""
    out = [None] * len(walk)
    for k, (cur, entry, exit_pt) in enumerate(walk):
        out[cur] = ((walk[k - 1][0], entry), (walk[(k + 1) % len(walk)][0], exit_pt))
    return out


@functools.lru_cache(maxsize=16)
def _plan(n, retry):
    """``binding_points(n, retry)``, each as (X, Y, W), W > 0 the lcm of its
    own denominators, and their :func:`lattice` (scales, grid), once per
    process, as immutable tuples: no caller can change what another reads."""
    pts = tuple(binding_points(n, retry))
    scales, grid = lattice(pts)
    return pts, tuple(map(_homogeneous, pts)), scales, tuple(grid)


def layout(ap: ArcPresentation):
    """Generic circle layout for ap: binding points with no chord concurrence.

    Tries the canonical layout first, then the deterministic perturbation
    schedule, and fails loudly if 64 retries cannot separate a concurrence.
    Returns (pts, retry, crossings): ``crossings`` maps each pair (i, j) of
    ``crossing_pairs`` to the integers (num, den), den > 0, of the u =
    num / den at which chord j (the higher) meets chord i, measured along
    chord j from its smaller label.  Each binding point is
    the integer triple (X, Y, W), W > 0 the lcm of its own denominators;
    each chord's line is the cross product of its ends and each crossing
    the cross product of two lines, W = 0 when they are parallel.  A triple
    point shows as a repeated crossing, reduced by its gcd with W > 0.  The
    points and triples come from :func:`_plan`.
    """
    pairs = crossing_pairs(ap)
    for retry in range(MAX_LAYOUT_RETRIES + 1):
        pts, hom, _, _ = _plan(ap.n, retry)
        ends = [(hom[a - 1], hom[b - 1]) for a, b in ap.chords]
        lines = [_cross3(c, d) for c, d in ends]
        crossings = {}
        seen = set()
        for i, j in pairs:
            x, y, w = _cross3(lines[i - 1], lines[j - 1])
            if w == 0:
                break  # crossing chords turned parallel: not generic
            g = math.gcd(x, y, w) if w > 0 else -math.gcd(x, y, w)
            key = x // g, y // g, w // g
            if key in seen:
                break  # three chords meet: not generic
            seen.add(key)
            c, d = ends[j - 1]
            s_c, s_d = _dot3(lines[i - 1], c) * d[2], _dot3(lines[i - 1], d) * c[2]
            crossings[i, j] = (s_c, s_c - s_d) if s_c > s_d else (-s_c, s_d - s_c)
        else:
            return list(pts), retry, crossings
    raise InternalVerificationError(
        f"no generic layout within {MAX_LAYOUT_RETRIES} perturbation retries"
    )


@dataclass(frozen=True)
class Crossing:
    """One transversal crossing of a planar diagram.

    ``over``/``under`` index the two strands (the strands of :func:`diagram`
    for arc presentations, 0-based polygon edges for projections); ``sign`` is
    the orientation sign of (over direction, under direction), +1 when the
    under strand runs counterclockwise of the over strand.
    """

    over: int
    under: int
    sign: int


@dataclass(frozen=True)
class Diagram:
    """Planar knot diagram: crossings plus the cyclic Gauss traversal.

    ``gauss`` lists (crossing id, is_over) in traversal order; ``arcs`` gives
    the over-arc id at each traversal position (an arc ends just after each
    under visit).
    """

    crossings: tuple
    gauss: tuple
    arcs: tuple = field(init=False)

    def __post_init__(self):
        n_under = sum(1 for _, over in self.gauss if not over)
        if len(self.gauss) != 2 * len(self.crossings) or n_under != len(self.crossings):
            raise InvalidArcPresentation(
                "gauss sequence must visit every crossing once over, once under"
            )
        object.__setattr__(self, "arcs", _arc_ids(self.gauss))


def _arc_ids(gauss) -> tuple:
    c = sum(1 for _, over in gauss if not over)
    if c == 0:
        return ()
    ids = []
    a = 0
    for _, over in gauss:
        ids.append(a % c)
        if not over:
            a += 1
    return tuple(ids)


def _gauss_diagram(hits, strands) -> Diagram:
    """Diagram of ``hits``, crossings as (over, under, sign, p_over, p_under).

    The Gauss code walks ``strands`` in order and each strand's crossings by
    their parameter along it (an int offset on a grid, an int scaled floor
    on a projection); the parameters serve only as sort keys.
    """
    crossings = []
    by_strand = {}
    for over, under, sign, p_over, p_under in hits:
        cid = len(crossings)
        crossings.append(Crossing(over, under, sign))
        by_strand.setdefault(over, []).append((p_over, cid, True))
        by_strand.setdefault(under, []).append((p_under, cid, False))
    gauss = [
        (cid, is_over)
        for s in strands
        for _, cid, is_over in sorted(by_strand.get(s, []))
    ]
    return Diagram(tuple(crossings), tuple(gauss))


def diagram(ap: ArcPresentation) -> Diagram:
    """The planar diagram of ap's grid; verticals pass over horizontals.

    Chord i is the horizontal at height i between its labels, and label c
    the vertical at x = c between the heights of the two chords that use it
    (Cromwell, Topology Appl. 64, 1995).  Strand 2k is the chord of
    :func:`chord_walk`'s step k and strand 2k + 1 the vertical at its exit;
    each crossing's parameters are integer offsets along its strands, and
    its sign is -(vertical direction) * (horizontal direction).
    """
    walk = chord_walk(ap)
    n = ap.n
    # label -> (strand, height it starts at, height it ends at)
    verticals = {
        exit_pt: (2 * k + 1, cur + 1, walk[(k + 1) % n][0] + 1)
        for k, (cur, _, exit_pt) in enumerate(walk)
    }
    hits = []
    for k, (cur, entry, exit_pt) in enumerate(walk):
        y, h = cur + 1, 1 if exit_pt > entry else -1
        a, b = ap.chords[cur]
        for c in range(a + 1, b):
            v, y0, y1 = verticals[c]
            if y0 < y < y1 or y1 < y < y0:
                hits.append((v, 2 * k, h if y0 > y1 else -h, abs(y - y0), abs(c - entry)))
    return _gauss_diagram(hits, range(2 * n))


def random_presentation(n: int, seed: int) -> ArcPresentation:
    """Uniform-over-retries random valid presentation with n chords.

    Shuffles the multiset of binding-point slots (each point twice) into n
    chords and rejects until the single-cycle invariant holds.  Deterministic
    for fixed (n, seed).
    """
    if n < 2:
        raise InvalidArcPresentation(f"need n >= 2, got {n}")
    rng = random.Random(seed)
    slots = [p for p in range(1, n + 1) for _ in range(2)]
    for _ in range(1_000_000):
        rng.shuffle(slots)
        try:
            return ArcPresentation(tuple(zip(slots[::2], slots[1::2])))
        except InvalidArcPresentation:
            continue
    raise InternalVerificationError(f"rejection sampling stalled for n={n}")


def parse(text: str) -> ArcPresentation:
    """Parse the chord-list text format.

    Lines starting with '#' and blank lines are skipped.  The first data line
    is n; exactly n lines "a b" follow, chord index given by order (1 = lowest,
    always under).  Raises InvalidArcPresentation with a line number on any
    malformed input.
    """
    n = None
    chords = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise InvalidArcPresentation(
                    f"expected chord count on first data line (line {lineno})"
                )
            try:
                n = int(tokens[0])
            except ValueError:
                raise InvalidArcPresentation(
                    f"chord count is not an integer: {tokens[0]!r} (line {lineno})"
                ) from None
            if n < 2:
                raise InvalidArcPresentation(f"need at least 2 chords (line {lineno})")
            continue
        if len(chords) == n:
            raise InvalidArcPresentation(
                f"expected {n} chords, found extra data (line {lineno})"
            )
        if len(tokens) != 2:
            raise InvalidArcPresentation(
                f"malformed chord line, expected 'a b' (line {lineno})"
            )
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InvalidArcPresentation(
                f"chord labels are not integers (line {lineno})"
            ) from None
        if not (1 <= a <= n and 1 <= b <= n):
            raise InvalidArcPresentation(
                f"label outside 1..{n} on line {lineno}: {a} {b}"
            )
        chords.append((a, b))
    if n is None:
        raise InvalidArcPresentation("empty input: no chord count found")
    if len(chords) != n:
        raise InvalidArcPresentation(
            f"expected {n} chords, got {len(chords)} (line {lineno + 1})"
        )
    return ArcPresentation(tuple(chords))


def serialize(ap: ArcPresentation) -> str:
    """Canonical text: chord count, then one 'a b' line per chord (a < b)."""
    lines = [str(ap.n)]
    lines.extend(f"{a} {b}" for a, b in ap.chords)
    return "\n".join(lines) + "\n"
