"""End-to-end acceptance sweep.

Each test prints one PASS/FAIL line (bypassing capture, so the lines show up
in a plain ``pytest -v`` run) and then asserts, so a red criterion is visible
both ways.  The expensive corpora are built once per module.
"""

import time
from fractions import Fraction

import pytest

from conftest import make_instances
from stickbound.arcpres import (
    classify,
    cyclic_shift,
    destabilize_top,
    diagram,
    normalize,
)
from stickbound.bounds import bae_park_upper, huh_oh_upper, theorem2_upper
from stickbound.construct import build_full, build_k1, stick_count
from stickbound.geom import polygon_embedded
from stickbound.invariants import alexander, determinant


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus200():
    """200 deterministic presentations, n cycling 3..12 (criteria 3 and 4)."""
    return make_instances(200, 3, 12, 42)


@pytest.fixture(scope="module")
def built200(corpus200):
    t0 = time.perf_counter()
    knots = [build_k1(ap) for _, ap in corpus200]
    return knots, time.perf_counter() - t0


@pytest.fixture(scope="module")
def full500():
    """500 deterministic full builds, n cycling 5..20 (criteria 5 and 6)."""
    instances = make_instances(500, 5, 20, 424242)
    t0 = time.perf_counter()
    results = [(ap, *build_full(ap)) for _, ap in instances]
    return results, time.perf_counter() - t0


def test_criterion_1_trefoil_tightness(ap5, capsys):
    t0 = time.perf_counter()
    knot, cert = build_full(ap5)
    dt = time.perf_counter() - t0
    ok = (
        cert.sticks_final == 6
        and cert.bound == Fraction(3 * (5 - 1), 2)
        and polygon_embedded(knot.vertices).ok
        and cert.determinant == 3
        and cert.determinant_out == 3
        and cert.invariants_match
        and dt < 1.0
    )
    _report(capsys, 1, ok, f"5-chord trefoil → {cert.sticks_final} sticks, "
            f"det {cert.determinant}, {dt:.3f}s")


def test_criterion_2_unknot_sanity(ap3, capsys):
    t0 = time.perf_counter()
    knot, cert = build_full(ap3)
    dt = time.perf_counter() - t0
    ok = (
        cert.sticks_final == 3
        and polygon_embedded(knot.vertices).ok
        and cert.determinant == 1
        and dt < 1.0
    )
    _report(capsys, 2, ok, f"triangle → {cert.sticks_final} sticks, "
            f"det {cert.determinant}, {dt:.3f}s")


def test_criterion_3_k1_count(corpus200, built200, capsys):
    knots, elapsed = built200
    bad = 0
    for (_, ap), knot in zip(corpus200, knots):
        if stick_count(knot) != 2 * ap.n or not polygon_embedded(knot.vertices).ok:
            bad += 1
    ok = bad == 0 and elapsed < 30.0
    _report(capsys, 3, ok,
            f"200 lifts all 2n sticks and embedded ({bad} failures, {elapsed:.1f}s)")


def test_criterion_4_beta_accounting(corpus200, capsys):
    bad = 0
    for _, ap in corpus200:
        _, beta = classify(ap)
        if beta.beta1 != beta.beta3:
            bad += 1
            continue
        norm, _ = normalize(ap)
        _, nbeta = classify(norm)
        if nbeta.beta1 > (ap.n - 1) // 2:
            bad += 1
    _report(capsys, 4, bad == 0,
            f"beta1 = beta3 and normalized beta1 <= (n-1)/2 on 200 ({bad} failures)")


def test_criterion_5_theorem_at_scale(full500, capsys):
    results, elapsed = full500
    applied = 0
    bad = []
    for ap, knot, cert in results:
        n, b1 = cert.n, cert.beta[0]
        if not polygon_embedded(knot.vertices).ok:
            bad.append((ap, "not embedded"))
        if cert.top_reduction == "applied":
            applied += 1
            if cert.sticks_final != n + b1 - 1:
                bad.append((ap, "wrong applied count"))
            if cert.sticks_final > Fraction(3 * (n - 1), 2):
                bad.append((ap, "bound violated"))
        elif cert.top_reduction.startswith("skipped:"):
            if cert.sticks_final != n + b1 + 1:
                bad.append((ap, "wrong skipped count"))
        else:
            bad.append((ap, f"unreported outcome {cert.top_reduction!r}"))
    rate = applied / len(results)
    ok = not bad and rate >= 0.95 and elapsed < 120.0
    _report(capsys, 5, ok,
            f"top reduction applied on {applied}/{len(results)} "
            f"({rate:.1%}), {len(bad)} violations, {elapsed:.1f}s")


def test_criterion_6_invariant_preservation(full500, capsys):
    results, _ = full500
    mismatched = sum(1 for _, _, cert in results if not cert.invariants_match)
    _report(capsys, 6, mismatched == 0,
            f"determinant+alexander preserved on {len(results) - mismatched}"
            f"/{len(results)} builds")


def test_criterion_7_invariant_self_checks(corpus200, capsys):
    bad = 0
    for _, ap in corpus200:
        a = alexander(diagram(ap))
        det = determinant(ap)
        if a(1) not in (1, -1) or a.reversed() != a:
            bad += 1
        elif abs(a(-1)) % 2 != 1 or abs(a(-1)) != det:
            bad += 1
    _report(capsys, 7, bad == 0,
            f"unit value, palindromicity, odd |Δ(-1)| = det on 200 diagrams "
            f"({bad} failures)")


def test_criterion_8_bounds_composition(capsys):
    bad = 0
    for c in range(3, 101):
        for flag in (False, True):
            if theorem2_upper(bae_park_upper(c, flag)) != huh_oh_upper(c, flag):
                bad += 1
    for c in range(4, 101):
        if not huh_oh_upper(c) < 2 * c:
            bad += 1
    _report(capsys, 8, bad == 0,
            f"composition identity and sub-2c growth on c=3..100 ({bad} failures)")


def test_criterion_9_move_soundness(capsys):
    instances = make_instances(100, 4, 10, 9)
    bad = 0
    destabilized = 0
    for _, ap in instances:
        det0, alex0 = determinant(ap), alexander(diagram(ap))
        for k in range(ap.n):
            shifted = cyclic_shift(ap, k)
            if determinant(shifted) != det0 or alexander(diagram(shifted)) != alex0:
                bad += 1
        smaller = destabilize_top(ap)
        if smaller is not None:
            destabilized += 1
            if determinant(smaller) != det0 or alexander(diagram(smaller)) != alex0:
                bad += 1
    _report(capsys, 9, bad == 0,
            f"all shifts + {destabilized} destabilizations preserve invariants "
            f"on 100 instances ({bad} failures)")
