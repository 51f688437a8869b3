import math
import random
from fractions import Fraction

import pytest

from stickbound.arcpres import ArcPresentation, random_presentation
from stickbound.errors import InternalVerificationError
from stickbound.invariants import PROJECTION_ATTEMPTS, ProjectedDiagram, _project_once


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
        diag, _ = _project_once(image, shadows)
        if diag is not None:
            return ProjectedDiagram(diag, (Fraction(1, a), Fraction(1, b), Fraction(1)), attempt)
    raise InternalVerificationError("no generic projection direction found")
