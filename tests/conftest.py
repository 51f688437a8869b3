import math
import random
from fractions import Fraction

import pytest

from stickbound.arcpres import ArcPresentation, _gauss_diagram, random_presentation
from stickbound.errors import InternalVerificationError
from stickbound.geom import orient2d
from stickbound.invariants import PROJECTION_ATTEMPTS, ProjectedDiagram, _key_shift


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
