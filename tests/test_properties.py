"""Property tests: certificate identities over random valid presentations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from stickbound.arcpres import random_presentation
from stickbound.bounds import theorem2_upper
from stickbound.construct import build_full, stick_count


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
