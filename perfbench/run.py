#!/usr/bin/env python3
"""Benchmark of stickbound's public API: seeded build and verify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build_n8 --seed 1 --seconds 35 --trace 0

One client in one process and thread sends operations in a closed loop, the
next one after the previous returns.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the same operations again
with spans and call counters around each stage function (see ``spans.py``)
and prints the per-layer metrics.  Times are scaled to a
reference speed (see ``speed.py``).  Every output is checked.  Human-readable
lines go first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md next to
this file describes the workloads and metrics.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Instrumentation, Tracer, per_layer
from speed import WINDOW, Speed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUPS = 9  # set-ups per run; setup_s is their median
AUX_OPS = 3  # operations of the other kind each traced run adds (see spans.per_layer)


@dataclass(frozen=True)
class Workload:
    kind: str  # "build" or "verify"
    n: int  # chords per presentation
    corpus: int  # presentations generated from the seed
    fixed: int  # leading corpus entries every --trace 0 run completes: quality, digest
    counted: int  # leading corpus entries every --trace 1 run traces twice: counts


# Why each workload exists: see README.md next to this file.
WORKLOADS = {
    "build_n8": Workload("build", 8, corpus=512, fixed=256, counted=32),
    "build_n24": Workload("build", 24, corpus=160, fixed=32, counted=6),
    "verify_n24": Workload("verify", 24, corpus=160, fixed=32, counted=8),
}


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def set_up(workload: Workload, seed: int):
    """Import stickbound afresh and generate the workload's presentations."""
    for name in [m for m in sys.modules if m.split(".")[0] == "stickbound"]:
        del sys.modules[name]
    sb = importlib.import_module("stickbound")
    importlib.import_module("stickbound.cli")
    corpus = [
        sb.random_presentation(workload.n, instance_seed(seed, i))
        for i in range(workload.corpus)
    ]
    return sb, corpus


def polygon_text(sb, knot, cert):
    """The JSON `stickbound build` writes, after checking the certificate."""
    if cert.invariants_match is not True:
        raise RuntimeError("invariants of the output polygon do not match the input")
    if not cert.bound_satisfied:
        raise RuntimeError(f"{cert.sticks_final} sticks exceed the bound {cert.bound}")
    return json.dumps(sb.polygon_json(cert, knot), indent=2) + "\n"


def build_text(sb, ap):
    knot, cert = sb.build_full(ap)
    return knot, cert, polygon_text(sb, knot, cert)


def write_pair(sb, directory: Path, key: int, ap, text: str):
    arc = directory / f"{key:03d}.arc"
    js = directory / f"{key:03d}.json"
    arc.write_text(sb.serialize(ap))
    js.write_text(text)
    return str(arc), str(js)


class Run:
    """Operation tallies shared by every loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # run-level check failures

    def op(self, fn):
        """Call fn(); a raise or a False result is a failed operation."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as e:  # any failure of one operation is counted, not fatal
            ok = False
            print(f"operation {self.attempted} raised {type(e).__name__}: {e}", file=sys.stderr)
        if ok is False:
            self.failed += 1
        return ok

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)


@dataclass(frozen=True)
class Stored:
    """One built polygon as `verify` reads it, with what `build_full` returned."""

    arc_path: str
    json_path: str
    data: dict
    knot: object
    cert: object


class VerifyInputs:
    """Builds and writes each polygon the first time the verify loop needs it.

    Building inside the loop, untimed, lets one run verify as many distinct
    polygons as time allows instead of a few built up front.
    """

    def __init__(self, sb, corpus, directory: Path, run: Run):
        self.sb, self.corpus, self.directory = sb, corpus, directory
        self._stored = {}
        # Negative control: a wrong stored stick count must be rejected with exit 2.
        first = self[0]
        bad = directory / "bad.json"
        bad.write_text(json.dumps(dict(first.data, sticks=first.data["sticks"] + 1)))
        with contextlib.redirect_stderr(io.StringIO()):
            rc = sb.cli.main(["verify", first.arc_path, str(bad)])
        run.check(rc == 2, f"verify accepted a wrong stick count (exit {rc})")

    def __getitem__(self, key: int) -> Stored:
        if key not in self._stored:
            ap = self.corpus[key]
            knot, cert, text = build_text(self.sb, ap)
            arc, js = write_pair(self.sb, self.directory, key, ap, text)
            self._stored[key] = Stored(arc, js, json.loads(text), knot, cert)
        return self._stored[key]


def loop(seconds: float, fixed: int, corpus_size: int):
    """Corpus indices for a closed loop: at least `fixed` operations, then until time is up."""
    start = time.perf_counter()
    i = 0
    while i < fixed or time.perf_counter() - start < seconds:
        yield i % corpus_size
        i += 1


class Meter:
    """Wall and CPU time of each operation, scaled to reference speed.

    A failed operation counts as infinitely slow, so that failing fast never
    improves a percentile.
    """

    def __init__(self, run: Run, speed: Speed):
        self.run, self.speed = run, speed
        self.lat_ms, self.cpu_ms, self.raw_ms = [], [], []
        self.busy_s = 0.0  # scaled wall time of all operations, failed ones too

    def op(self, fn) -> bool:
        self.speed.sample()
        t0, c0 = time.perf_counter(), time.process_time()
        ok = self.run.op(fn) is not False
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        k = self.speed.scale()
        self.busy_s += wall * k
        self.raw_ms.append(wall * 1e3)
        self.lat_ms.append(wall * k * 1e3 if ok else math.inf)
        self.cpu_ms.append(cpu * k * 1e3 if ok else math.inf)
        return ok


def measure_builds(sb, corpus, workload, seconds, meter: Meter):
    """Returns (sticks, applied) of the first `fixed` operations that succeeded."""
    sticks, applied = [], []
    digest = hashlib.sha256()
    for i, key in enumerate(loop(seconds, workload.fixed, len(corpus))):
        out = {}

        def one():
            out["cert"], out["text"] = build_text(sb, corpus[key])[1:]

        ok = meter.op(one)
        if i < workload.fixed:
            digest.update(out.get("text", "<failed>\n").encode())
            if ok:
                sticks.append(out["cert"].sticks_final)
                applied.append(out["cert"].top_reduction == "applied")
    print(f"polygon_sha256 (first {workload.fixed} outputs): {digest.hexdigest()}")
    return sticks, applied


def measure_verifies(sb, inputs: VerifyInputs, workload, seconds, meter: Meter):
    """Returns (sticks, applied) of the first `fixed` operations that succeeded."""
    sticks, applied = [], []
    for i, key in enumerate(loop(seconds, workload.fixed, len(inputs.corpus))):
        p = inputs[key]
        ok = meter.op(lambda: sb.cli.main(["verify", p.arc_path, p.json_path]) == 0)
        if i < workload.fixed and ok:
            sticks.append(p.data["sticks"])
            applied.append(p.data["top_reduction"] == "applied")
    return sticks, applied


def end_to_end(sb, corpus, workload, seconds, setup_s, directory, run: Run, speed: Speed):
    """End-to-end metrics, or None when half or more of the operations failed.

    The quality metrics cover the first `fixed` corpus entries only, which
    every run completes, so they describe the same inputs however fast the
    program runs.  A failed operation counts as one without the top move.
    """
    meter = Meter(run, speed)
    if workload.kind == "build":
        sticks, applied = measure_builds(sb, corpus, workload, seconds, meter)
    else:
        inputs = VerifyInputs(sb, corpus, directory, run)
        sticks, applied = measure_verifies(sb, inputs, workload, seconds, meter)
    ops = len(meter.lat_ms)
    print(f"fail_frac: {run.failed / run.attempted} ({run.failed} of {run.attempted})")
    print(f"reference kernel: median {statistics.median(speed.samples_ms):.4f} ms over "
          f"{len(speed.samples_ms)} samples; unscaled latency_ms.p50 "
          f"{statistics.median(meter.raw_ms):.4f} ms")
    if 2 * run.failed >= ops or 2 * len(sticks) < workload.fixed:
        return None
    if ops >= 100:
        p90 = statistics.quantiles(meter.lat_ms, n=10)[8]
        print(f"latency_ms.p90: {p90:.4f} ms (n={ops})")
    print(f"top_applied_frac and sticks_mean: over the first {workload.fixed} inputs")
    return {
        "latency_ms.p50": (statistics.median(meter.lat_ms), "ms"),
        "throughput_ops_per_s": ((ops - run.failed) / meter.busy_s, "1/s"),
        "cpu_ms_per_op": (statistics.median(meter.cpu_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "top_applied_frac": (sum(applied) / workload.fixed, "frac"),
        "sticks_mean": (statistics.fmean(sticks), "sticks"),
    }


def traced(sb, corpus, workload, seconds, directory, run: Run, speed: Speed):
    """Per-layer metrics: each operation runs untraced and again under spans.

    The two alternate in which goes first, so that neither always finds the
    caches warm; the difference of their times is the tracing overhead, and
    their outputs must be identical.  Every operation on the first `counted`
    corpus entries is then traced once more, and its call counts must repeat
    exactly.  Times are scaled to reference speed like the end-to-end ones.
    Returns None when half or more of the operations failed.
    """
    tracer = Tracer()
    instrumented = Instrumentation(sb, tracer)
    overhead = {}  # kind -> traced minus untraced ms, per operation
    calls = {}  # (kind, key) -> the call, for the repeat; it must bind its arguments

    def spanned(kind, key, call):
        calls.setdefault((kind, key), call)
        speed.sample()
        with instrumented:
            result = tracer.op(kind, key, call)
        tracer.ops[-1].scale = speed.scale()
        return result

    def paired(i, kind, key, call):
        """(untraced result, traced result) of call()."""

        def timed():
            speed.sample()
            t0 = time.perf_counter()
            result = call()
            return result, (time.perf_counter() - t0) * 1e3

        if i % 2:
            traced_result = spanned(kind, key, call)
            result, untraced_ms = timed()
        else:
            result, untraced_ms = timed()
            traced_result = spanned(kind, key, call)
        rec = tracer.ops[-1]
        overhead.setdefault(kind, []).append((rec.wall_ms - untraced_ms) * rec.scale)
        return result, traced_result

    def same_build(key, built, traced_built):
        (knot, cert), (t_knot, t_cert) = built, traced_built
        same = (t_knot.vertices, t_knot.roles, t_cert) == (knot.vertices, knot.roles, cert)
        run.check(same, f"build {key}: traced build_full differs from untraced")
        return same

    def verify_pair(i, key, arc, js):
        rc, traced_rc = paired(i, "verify", key, lambda: sb.cli.main(["verify", arc, js]))
        return rc == 0 and traced_rc == 0

    if workload.kind == "build":
        outputs = {}
        for i, key in enumerate(loop(seconds, workload.counted, len(corpus))):
            ap = corpus[key]

            def one():
                build = lambda ap=ap: sb.build_full(ap)  # noqa: E731
                built, traced_built = paired(i, "build", key, build)
                outputs.setdefault(key, polygon_text(sb, *built))
                return same_build(key, built, traced_built)

            run.op(one)
        for key in sorted(outputs)[:AUX_OPS]:
            arc, js = write_pair(sb, directory, key, corpus[key], outputs[key])
            run.check(verify_pair(key, key, arc, js), f"verify rejected build output {key}")
    else:
        inputs = VerifyInputs(sb, corpus, directory, run)
        for key in range(AUX_OPS):
            p, ap = inputs[key], corpus[key]
            build = lambda ap=ap: sb.build_full(ap)  # noqa: E731
            same_build(key, (p.knot, p.cert), spanned("build", key, build))
        for i, key in enumerate(loop(seconds, workload.counted, len(corpus))):
            p = inputs[key]
            run.op(lambda: verify_pair(i, key, p.arc_path, p.json_path))

    count_keys = set(range(workload.counted))
    first = {}
    for rec in tracer.ops:
        first.setdefault((rec.kind, rec.key), rec.counts)
    for (kind, key), call in calls.items():
        if key in count_keys:
            # A raise was counted as a failed operation the first time round.
            with contextlib.suppress(Exception):
                spanned(kind, key, call)
            again = tracer.ops.pop()
            run.check(again.counts == first[kind, key],
                      f"{kind} {key}: call counts differ when traced again")

    if 2 * run.failed >= run.attempted:
        return None
    ms, counts = per_layer(tracer.ops, workload.kind, count_keys)
    metrics = {k: (v, "ms") for k, v in ms.items()}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics["trace.overhead_ms"] = (statistics.fmean(overhead[workload.kind]), "ms")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fixed", type=int, default=None,
                   help="fewer leading corpus entries every run completes (smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stickbound" / "__init__.py").is_file():
        print(f"error: no stickbound sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The top move's search cap comes from the environment; pin the default.
    os.environ.pop("STICKBOUND_MAX_L", None)
    workload = WORKLOADS[args.workload]
    if args.fixed is not None:
        size = max(1, min(args.fixed, workload.fixed))
        workload = dataclasses.replace(workload, fixed=size, counted=min(size, workload.counted))

    speed = Speed()
    for _ in range(WINDOW):
        speed.sample(force=True)
    setups = []
    for _ in range(SETUPS):
        speed.sample(force=True)
        t0 = time.perf_counter()
        sb, corpus = set_up(workload, args.seed)
        setups.append((time.perf_counter() - t0) * speed.scale())
    if Path(sb.__file__).resolve().parent != (SRC / "stickbound").resolve():
        print(f"error: stickbound was imported from {sb.__file__}", file=sys.stderr)
        return 2

    run = Run()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as tmp:
        if args.trace:
            metrics = traced(sb, corpus, workload, args.seconds, Path(tmp), run, speed)
        else:
            metrics = end_to_end(sb, corpus, workload, args.seconds,
                                 statistics.median(setups), Path(tmp), run, speed)
    # A thread of the program's own would slow the reference kernel with it.
    run.check(threading.active_count() == 1, "stickbound left threads running")
    if metrics is None:
        print("error: half or more of the operations failed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit} (n={run.attempted})")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
