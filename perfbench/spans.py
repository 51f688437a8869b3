"""Spans and exact call counters recorded around stickbound's stage functions.

The stages are the functions ``build_full`` and ``verify`` call, public ones
and the two private ones ``build_full`` uses to lift (``_assign_heights``,
``_polygon``), so a traced build runs ``build_full`` itself and its stage
times describe exactly the work it does.  Nothing in ``src/`` is edited.  :class:`Instrumentation` replaces each traced
function with a wrapper in every ``stickbound`` module that holds it by name
(``construct`` imports ``polygon_embedded`` by name, ``invariants.match``
looks ``alexander`` up in its own module, and so on), and puts the originals
back when removed, so untraced calls run the unmodified program.

Spans live in memory only for the operation in progress; each finished
operation is folded into an :class:`OpRecord` (inclusive time per span name,
self time per module, counts), so memory stays flat over a long run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, function): timed spans.  Their nesting gives each module's self time.
# build_full looks every stage up by module-global name at call time, so the
# rebound wrappers see each stage as it runs inside build_full.
SPANNED = (
    ("arcpres", "require_valid"),
    ("arcpres", "classify"),
    ("arcpres", "crossing_pairs"),
    ("arcpres", "chord_walk"),
    ("arcpres", "normalize"),
    ("arcpres", "layout"),
    ("arcpres", "diagram"),
    ("arcpres", "parse"),
    ("construct", "build_full"),
    ("construct", "_assign_heights"),
    ("construct", "verify_heights"),
    ("construct", "_polygon"),
    ("construct", "reduction_triangles"),
    ("construct", "sweep_triangles"),
    ("construct", "triangle_reductions"),
    ("construct", "top_reduction"),
    ("construct", "stick_count"),
    ("construct", "knot_from_json"),
    ("geom", "polygon_embedded"),
    ("invariants", "project"),
    ("invariants", "match"),
    ("invariants", "alexander"),
    ("invariants", "determinant"),
    ("cli", "main"),
)

# Hot predicates (hundreds of calls per embedding check): counted, not timed,
# so that tracing does not swamp the time it measures.
COUNTED = (
    ("geom", "seg3_relation", "geom.seg3_relation_calls"),
    ("geom", "seg_triangle_intersection", "geom.seg_triangle_calls"),
)


def _top_candidates(construct, result):
    """Extension lengths L the doubling search tried: 4, 8, ..., L or the cap."""
    _, status, length = result
    last = length if status == "applied" else construct.DEFAULT_MAX_L
    return last.bit_length() - 2


def _observers(sb):
    """Counts read off return values of public calls: name -> fn(result) -> int."""
    return {
        "construct.top_reduction": {
            "construct.top_move_candidates": lambda r: _top_candidates(sb.construct, r),
        },
        "invariants.project": {
            "invariants.project_attempts": lambda r: r.attempt + 1,
            "invariants.crossings_out": lambda r: len(r.diagram.crossings),
        },
        "arcpres.layout": {"arcpres.layout_attempts": lambda r: r[1] + 1},
        "geom.polygon_embedded": {"geom.polygon_embedded_calls": lambda r: 1},
    }


@dataclass
class OpRecord:
    """One finished operation: its kind, corpus index and what it spent."""

    kind: str
    key: int
    wall_ms: float
    scale: float = 1.0  # factor to reference speed (see speed.py)
    inclusive_ms: Counter = field(default_factory=Counter)  # span name -> ms
    self_ms: Counter = field(default_factory=Counter)  # module -> ms
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Span stack and counters for the operation in progress."""

    def __init__(self):
        self.ops = []
        self._spans = []  # [name, start, end, parent index]
        self._stack = []
        self._counts = Counter()

    def wrap(self, name, fn, observe):
        spans, stack = self._spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            for counter, read in observe.items():
                tracer._counts[counter] += read(result)
            return result

        return traced

    def count(self, counter, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def op(self, kind, key, fn):
        """Run fn() as one operation under a root span; returns its result."""
        self._spans.clear()
        self._counts = Counter()
        root = self.wrap(f"bench.{kind}", fn, {})
        try:
            return root()
        finally:
            self.ops.append(self._fold(kind, key))

    def _fold(self, kind, key):
        spans = self._spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        rec = OpRecord(kind, key, (spans[0][2] - spans[0][1]) * 1e3)
        for (name, start, end, _), inner in zip(spans, child_ms):
            ms = (end - start) * 1e3
            rec.inclusive_ms[name] += ms
            rec.self_ms[name.split(".", 1)[0]] += ms - inner
        rec.counts = self._counts
        return rec


class Instrumentation:
    """Wrappers for SPANNED and COUNTED, bound wherever stickbound holds them."""

    def __init__(self, sb, tracer):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "stickbound"]
        observers = _observers(sb)
        wrappers = {}
        for mod, fname in SPANNED:
            orig = getattr(getattr(sb, mod), fname)
            name = f"{mod}.{fname}"
            wrappers[id(orig)] = (orig, tracer.wrap(name, orig, observers.get(name, {})))
        for mod, fname, counter in COUNTED:
            orig = getattr(getattr(sb, mod), fname)
            wrappers[id(orig)] = (orig, tracer.count(counter, orig))
        self._bindings = []
        for m in modules:
            for attr, value in vars(m).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((m, attr, value, hit[1]))
        if len({id(orig) for _, _, orig, _ in self._bindings}) != len(wrappers):
            raise RuntimeError("a traced function is bound in no stickbound module")

    def __enter__(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)
        return False


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(ops, main_kind, count_keys):
    """Per-layer metrics from folded operations.

    Stage times are inclusive ms per operation, at reference speed.  Build
    stages come from the run's build operations, ``cli.self_ms`` from its
    verify operations, and everything else from operations of the workload's
    own kind.  Counts are means over the operations whose corpus index is in
    ``count_keys``, a fixed prefix of the corpus, so they repeat exactly for
    a given seed; counts that only a build makes come from build operations,
    so that no workload reports a count that is always 0.
    """
    builds = [r for r in ops if r.kind == "build"]
    verifies = [r for r in ops if r.kind == "verify"]
    main = [r for r in ops if r.kind == main_kind]

    def first_visits(records):
        seen = {}
        for r in records:
            if r.key in count_keys:
                seen.setdefault(r.key, r.counts)
        return list(seen.values())

    counted = first_visits(main)
    build_counted = first_visits(builds)

    def incl(records, *names):
        return _mean([r.scale * sum(r.inclusive_ms[n] for n in names) for r in records])

    def self_of(records, module):
        return _mean([r.scale * r.self_ms[module] for r in records])

    def count(records, name):
        return _mean([c[name] for c in records])

    ms = {
        "construct.top_move_ms": incl(builds, "construct.top_reduction"),
        "construct.sweep_ms": incl(builds, "construct.sweep_triangles"),
        "construct.reductions_ms": incl(builds, "construct.triangle_reductions"),
        "construct.heights_ms": incl(
            builds, "construct._assign_heights", "construct.verify_heights"
        ),
        "construct.lift_ms": incl(builds, "construct._polygon"),
        "construct.self_ms": self_of(main, "construct"),
        "geom.polygon_embedded_ms": incl(main, "geom.polygon_embedded"),
        "geom.self_ms": self_of(main, "geom"),
        "invariants.project_ms": incl(main, "invariants.project"),
        "invariants.alexander_ms": incl(main, "invariants.alexander"),
        "invariants.determinant_ms": incl(main, "invariants.determinant"),
        "invariants.self_ms": self_of(main, "invariants"),
        "arcpres.normalize_ms": incl(builds, "arcpres.normalize"),
        "arcpres.layout_ms": incl(main, "arcpres.layout"),
        "arcpres.diagram_ms": incl(main, "arcpres.diagram"),
        "arcpres.self_ms": self_of(main, "arcpres"),
        "cli.self_ms": self_of(verifies, "cli"),
    }
    counts = {
        "construct.top_move_candidates": count(build_counted, "construct.top_move_candidates"),
        "geom.polygon_embedded_calls": count(counted, "geom.polygon_embedded_calls"),
        "geom.seg3_relation_calls": count(counted, "geom.seg3_relation_calls"),
        "geom.seg_triangle_calls": count(build_counted, "geom.seg_triangle_calls"),
        "invariants.project_attempts": count(counted, "invariants.project_attempts"),
        "invariants.crossings_out": count(counted, "invariants.crossings_out"),
        "arcpres.layout_attempts": count(counted, "arcpres.layout_attempts"),
    }
    return ms, counts
