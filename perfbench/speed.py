"""Machine speed, from a fixed reference kernel timed between operations.

The benchmark's host is shared: measured on a 2-vCPU VM, the same builds ran
up to 1.8 times slower for minutes at a time, and process CPU time slowed
with them.  So each operation's time is scaled by the reference kernel's
recent speed, and times are reported as they would read on a machine where
the kernel takes ``REFERENCE_MS``.

The kernel mixes the two kinds of work stickbound spends its time on:
``Fraction`` orientation tests (geometry) and fraction-free integer
elimination (invariants).  Over 57 windows of about 2 s on that VM, the
ratio of a verify or a small build to the kernel varied by 7-8% (coefficient
of variation), against 24-27% for the raw times.  The kernel is the
benchmark's own code: no change to stickbound can make it faster or slower.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_MS = 3.0  # nominal kernel time that reported times are scaled to
EVERY_S = 0.1  # least wall time between two kernel samples
WINDOW = 5  # samples whose median gives the current speed


def _orientations() -> int:
    """Orientation signs of all pairs of 20 rational points on the unit circle."""
    ts = [Fraction(k, 7) for k in range(-10, 10)]
    pts = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    positive = 0
    for a in pts:
        for b in pts:
            if a[0] * b[1] - a[1] * b[0] > 0:
                positive += 1
    return positive


def _bareiss(size: int = 24) -> int:
    """Fraction-free elimination of a fixed integer matrix; no pivot is zero."""
    m = [
        [(3 * i + 5 * j) % 7 - 3 + (4 if i == j else 0) for j in range(size)]
        for i in range(size)
    ]
    prev = 1
    for k in range(size - 1):
        pivot = m[k][k]
        for i in range(k + 1, size):
            row, factor = m[i], m[i][k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * m[k][j]) // prev
        prev = pivot
    return m[-1][-1]


def reference_kernel() -> tuple:
    return _orientations(), _bareiss()


class Speed:
    """Samples the reference kernel at most every EVERY_S seconds."""

    def __init__(self):
        self.samples_ms = []
        self._last = -EVERY_S

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        t0 = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples_ms.append((self._last - t0) * 1e3)

    def scale(self) -> float:
        """Factor turning a time measured now into a time at reference speed."""
        if not self.samples_ms:
            self.sample(force=True)
        return REFERENCE_MS / statistics.median(self.samples_ms[-WINDOW:])
