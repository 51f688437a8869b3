"""Command-line front end: build, verify, simplify, random, batch, bounds.

Exit codes: 0 success, 1 invalid input or usage, 2 internal verification
failure (including a ``ValueError`` from degenerate geometry), 3 invariant
mismatch.  Identical inputs and flags produce byte-identical output.
"""

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from .arcpres import parse, random_presentation, serialize, torus_presentation
from .arcpres import simplify as simplify_presentation
from .bounds import bound_report, theorem2_upper
from .construct import bends, build_full, knot_from_json, obj_export, polygon_json
from .errors import InternalVerificationError, InvalidArcPresentation
from .geom import lattice, polygon_embedded
from .invariants import match, project

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3

CSV_COLUMNS = (
    "id",
    "n",
    "beta1",
    "beta2",
    "beta3",
    "shift",
    "sticks",
    "bound",
    "bound_satisfied",
    "top_reduction",
    "embedded",
    "invariants_match",
    "determinant",
    "seed",
)


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidArcPresentation(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InvalidArcPresentation(
            f"cannot read {path}: not UTF-8 text (byte {e.start})"
        ) from None


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _tf(flag) -> str:
    return "true" if flag else "false"


def _instance_seed(seed: int, index: int) -> int:
    # Large odd multiplier keeps derived streams disjoint across indices.
    return seed * 1_000_003 + index


def cmd_build(args) -> int:
    ap = parse(_read_text(args.arc))
    knot, cert = build_full(ap, top=not args.no_top_reduction)
    _emit(json.dumps(polygon_json(cert, knot), indent=2) + "\n", args.out)
    if args.obj:
        Path(args.obj).write_text(obj_export(knot))
    if not cert.invariants_match:
        print("error: invariants of output polygon do not match input", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _stored(data, key, *types):
    """data[key] if its type is exactly one of ``types`` (a bool is no int)."""
    value = data[key]
    if type(value) not in types:
        raise TypeError(f"{key} has the wrong type: {value!r}")
    return value


def cmd_verify(args) -> int:
    """Recheck a stored polygon against an .arc file: the embedding check and
    the stick count on one per-axis lattice image of its vertices, the
    projection on the vertices themselves, each on its own integers; both
    take only the :func:`bends`, read off the image."""
    ap = parse(_read_text(args.arc))
    try:
        data = json.loads(_read_text(args.polygon))
        knot = knot_from_json(data)
        stored_sticks = _stored(data, "sticks", int)
        stored_bound_ok = _stored(data, "bound_satisfied", bool)
        stored_det = _stored(data, "determinant", int, type(None))
    except InvalidArcPresentation:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as e:
        print(f"error: malformed polygon JSON: {e}", file=sys.stderr)
        return EXIT_INVALID

    image = lattice(knot.vertices)[1]
    try:
        emb = polygon_embedded(image)
    except ValueError as e:  # degenerate polygon (repeated vertex, too short)
        print(f"error: stored polygon is degenerate: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    if not emb.ok:
        print(f"error: stored polygon is not embedded: {emb.failures[0]}", file=sys.stderr)
        return EXIT_INTERNAL
    corners = bends(image)
    sticks = len(corners)
    if sticks != stored_sticks:
        print(
            f"error: stored stick count {stored_sticks}, recount {sticks}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if (sticks <= theorem2_upper(ap.n)) != stored_bound_ok:
        print("error: stored bound verdict does not match recount", file=sys.stderr)
        return EXIT_INTERNAL
    report = match(ap, project([knot.vertices[i] for i in corners]))
    if stored_det is not None and report.det2 != stored_det:
        print(
            f"error: stored determinant {stored_det} but polygon has {report.det2}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if not report.ok:
        print(
            f"error: invariant mismatch: determinant {report.det1} vs {report.det2}, "
            f"alexander {report.alex1} vs {report.alex2}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_simplify(args) -> int:
    ap = parse(_read_text(args.arc))
    reduced, steps = simplify_presentation(ap)
    _emit(f"# destabilized {steps} time(s)\n" + serialize(reduced), args.out)
    return EXIT_OK


def cmd_random(args) -> int:
    if args.torus and args.count != 1:
        print(f"error: random --torus makes one presentation, not {args.count}", file=sys.stderr)
        return EXIT_INVALID
    if args.out is not None:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed_i = _instance_seed(args.seed, i)
        if args.torus:
            head, ap = "torus T({}, {})".format(*args.torus), torus_presentation(*args.torus)
        else:
            head, ap = f"n={args.n} seed={seed_i}", random_presentation(args.n, seed_i)
        text = f"# {head}\n" + serialize(ap)
        if args.out is None:
            sys.stdout.write(text)
        else:
            (directory / f"{i:03d}.arc").write_text(text)
    return EXIT_OK


def _batch_row(ident, source, seed, top) -> dict:
    """One CSV row for ``source``, an .arc path or a generated presentation.

    An unreadable or unparsable file, like a failed build or a geometry
    ``ValueError`` escaping one, yields an error row rather than ending the
    batch.
    """
    row = dict.fromkeys(CSV_COLUMNS, "")
    row["id"] = ident
    row["seed"] = seed
    try:
        ap = parse(_read_text(source)) if isinstance(source, str) else source
        row["n"] = ap.n
        knot, cert = build_full(ap, top=top)
    except (ValueError, InternalVerificationError) as e:
        row["top_reduction"] = f"error:{type(e).__name__}: {e}"
        row["bound_satisfied"] = _tf(False)
        row["embedded"] = _tf(False)
        row["invariants_match"] = _tf(False)
        return row
    row["beta1"], row["beta2"], row["beta3"] = cert.beta
    row["shift"] = cert.shift
    row["sticks"] = cert.sticks_final
    row["bound"] = str(cert.bound)
    row["bound_satisfied"] = _tf(cert.bound_satisfied)
    row["top_reduction"] = cert.top_reduction
    row["embedded"] = _tf(True)  # a build that is not embedded raises
    row["invariants_match"] = _tf(cert.invariants_match)
    row["determinant"] = cert.determinant
    return row


def cmd_batch(args) -> int:
    jobs = []
    for path in args.arcs:
        jobs.append((Path(path).stem, path, ""))
    if args.count:
        if args.n is None:
            print("error: batch --count needs --n", file=sys.stderr)
            return EXIT_INVALID
        for i in range(args.count):
            seed_i = _instance_seed(args.seed, i)
            jobs.append((f"{i:03d}", random_presentation(args.n, seed_i), seed_i))
    if not jobs:
        print("error: batch needs .arc paths or --count/--n", file=sys.stderr)
        return EXIT_INVALID

    top = not args.no_top_reduction
    rows = [_batch_row(ident, source, seed, top) for ident, source, seed in jobs]
    sink = sys.stdout if args.csv is None else open(args.csv, "w", newline="")
    try:
        writer = csv.DictWriter(sink, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.cmax < args.cmin:
        print(f"error: bounds --cmax {args.cmax} is below --cmin {args.cmin}", file=sys.stderr)
        return EXIT_INVALID
    header = (
        f"{'c':>4} {'lower':>7} {'lower~':>9} {'negami_upper':>13} "
        f"{'arc_upper':>10} {'stick_upper':>12}"
    )
    try:
        reports = [
            bound_report(c, nonalternating_prime=args.nonalternating_prime)
            for c in range(args.cmin, args.cmax + 1)
        ]
    except ValueError as e:  # crossing number outside the bounds' domain
        print(f"error: bounds --cmin {args.cmin}: {e}", file=sys.stderr)
        return EXIT_INVALID
    print(header)
    for rep in reports:
        ng = rep.negami
        print(
            f"{rep.c:>4} {ng.lower_ceiling:>7} {ng.lower_decimal:>9} {ng.upper:>13} "
            f"{str(rep.arc_index_upper):>10} {str(rep.stick_upper):>12}"
        )
    return EXIT_OK


@functools.cache  # prog is fixed, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stickbound",
        description="Build certified short stick polygons from arc presentations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a polygon from an .arc file")
    b.add_argument("arc")
    b.add_argument("--out", metavar="PATH", help="write polygon JSON here (default stdout)")
    b.add_argument("--obj", metavar="PATH", help="also write a Wavefront OBJ polyline")
    b.add_argument("--no-top-reduction", action="store_true")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="re-check a stored polygon against an .arc file")
    v.add_argument("arc")
    v.add_argument("polygon", help="polygon JSON produced by build")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simplify", help="destabilize the top chord until stuck")
    s.add_argument("arc")
    s.add_argument("--out", metavar="PATH")
    s.set_defaults(func=cmd_simplify)

    r = sub.add_parser("random", help="generate random valid presentations")
    kind = r.add_mutually_exclusive_group(required=True)
    kind.add_argument("--n", type=int)
    kind.add_argument("--torus", type=int, nargs=2, metavar=("P", "Q"),
                      help="the torus knot T(P, Q) in place of random presentations")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--count", type=int, default=1)
    r.add_argument("--out", metavar="PATH", help="directory for NNN.arc files (default stdout)")
    r.set_defaults(func=cmd_random)

    t = sub.add_parser("batch", help="run the full pipeline over many presentations")
    t.add_argument("arcs", nargs="*", metavar="ARC")
    t.add_argument("--n", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--count", type=int, default=0)
    t.add_argument("--csv", metavar="PATH", help="write rows here (default stdout)")
    t.add_argument("--no-top-reduction", action="store_true")
    t.set_defaults(func=cmd_batch)

    d = sub.add_parser("bounds", help="print the crossing-number bound table")
    d.add_argument("--cmin", type=int, default=3)
    d.add_argument("--cmax", type=int, default=10)
    d.add_argument("--nonalternating-prime", action="store_true")
    d.set_defaults(func=cmd_bounds)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed its usage or help
        return EXIT_INVALID if e.code else EXIT_OK
    if getattr(args, "count", 0) < 0:  # random and batch
        print(f"error: {args.command} --count {args.count} is negative", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except InvalidArcPresentation as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (InternalVerificationError, ValueError) as e:  # ValueError: bad geometry
        print(f"internal verification failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
