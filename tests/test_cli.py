import csv
import io
import json
import sys
from fractions import Fraction

import pytest

from conftest import capped_polygon, project_on_one_scale
from stickbound import arcpres, cli, construct, geom
from stickbound.arcpres import diagram, parse, random_presentation, serialize
from stickbound.construct import StickKnot, stick_count
from stickbound.invariants import alexander

TREFOIL = "5\n1 4\n3 5\n2 4\n1 3\n2 5\n"
UNKNOT3 = "3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def trefoil_arc(tmp_path):
    p = tmp_path / "trefoil.arc"
    p.write_text(TREFOIL)
    return p


@pytest.fixture
def unknot_arc(tmp_path):
    p = tmp_path / "unknot3.arc"
    p.write_text(UNKNOT3)
    return p


def test_build_writes_json_and_obj(trefoil_arc, tmp_path):
    out = tmp_path / "out.json"
    obj = tmp_path / "out.obj"
    rc = cli.main(["build", str(trefoil_arc), "--out", str(out), "--obj", str(obj)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["sticks"] == 6
    assert doc["bound_satisfied"] is True
    assert doc["determinant"] == 3
    assert obj.read_text().startswith("v ")


def test_build_stdout_and_determinism(trefoil_arc, capsys):
    assert cli.main(["build", str(trefoil_arc)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["build", str(trefoil_arc)]) == 0
    assert capsys.readouterr().out == first


def test_build_no_top_reduction(unknot_arc, capsys):
    rc = cli.main(["build", str(unknot_arc), "--no-top-reduction"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["top_reduction"] == "skipped:disabled"
    assert doc["sticks"] == doc["n"] + doc["beta"][0] + 1


def test_build_malformed_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.arc"
    bad.write_text("5\n1 4\n3 5\nbogus\n1 3\n2 5\n")
    assert cli.main(["build", str(bad)]) == 1
    assert "line 4" in capsys.readouterr().err


def test_build_missing_file_exits_1(tmp_path):
    assert cli.main(["build", str(tmp_path / "absent.arc")]) == 1


def test_verify_accepts_own_output(trefoil_arc, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["build", str(trefoil_arc), "--out", str(out)]) == 0
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 0


# a presentation whose circle layout needs a retry, and the 3-chord kink,
# whose grid diagram has one crossing though its circle diagram has none
CONCURRENCE9 = "9\n1 6\n1 2\n2 3\n3 7\n7 8\n8 9\n4 9\n4 5\n5 6\n"
KINK = "3\n1 2\n1 3\n2 3\n"


def test_verify_lays_nothing_out(tmp_path, monkeypatch):
    arc, out = tmp_path / "c9.arc", tmp_path / "c9.json"
    arc.write_text(CONCURRENCE9)
    assert cli.main(["build", str(arc), "--out", str(out)]) == 0

    def refused(*args):
        raise AssertionError("verify laid the chords out")

    monkeypatch.setattr(arcpres, "layout", refused)
    monkeypatch.setattr(construct, "layout", refused)
    assert cli.main(["verify", str(arc), str(out)]) == 0


def _lattice_calls(monkeypatch):
    """Count geom.lattice calls by the name of the stickbound module calling."""
    calls = []
    real = geom.lattice
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stickbound" and getattr(module, "lattice", None) is real:

            def counted(points, _name=name):
                calls.append(_name)
                return real(points)

            monkeypatch.setattr(module, "lattice", counted)
    return calls


def test_one_lattice_per_build_and_per_verify(ap6_fig8, concurrence9, tmp_path, monkeypatch):
    """A build lifts from the lattice of its (n, retry) plan, which arcpres
    scales once per process for each (n, retry) the layout tries, and no
    other stage scales anything: a second build of the same presentation
    scales nothing.  verify scales the stored polygon once."""
    calls = _lattice_calls(monkeypatch)
    arcpres._plan.cache_clear()
    retries = []
    for ap in (ap6_fig8, concurrence9):
        calls.clear()
        _, cert = construct.build_full(ap)
        assert calls == ["stickbound.arcpres"] * (cert.layout_retry + 1)
        retries.append(cert.layout_retry)
        calls.clear()
        assert construct.build_full(ap)[1] == cert
        assert calls == []
    assert retries == [0, 1]
    arc, out = tmp_path / "c9.arc", tmp_path / "c9.json"
    arc.write_text(CONCURRENCE9)
    assert cli.main(["build", str(arc), "--out", str(out)]) == 0
    calls.clear()
    assert cli.main(["verify", str(arc), str(out)]) == 0
    assert calls == ["stickbound.cli"]


def test_verify_projects_heights_at_their_own_scale(tmp_path, monkeypatch):
    """A stored polygon whose heights are divided by 3 has D_z = 3: verify
    passes the stored vertices themselves, each a bend, to project, which
    draws the diagram that the one-scale lattice drew, and exits 0.
    random_presentation(24, 2 * 1_000_003) takes layout retry 1, so D_p is
    hundreds of bits."""
    ap = random_presentation(24, 2 * 1_000_003)
    knot, cert = construct.build_full(ap)
    assert cert.layout_retry == 1
    doc = construct.polygon_json(cert, knot)
    doc["vertices"] = [[x, y, str(Fraction(z) / 3)] for x, y, z in doc["vertices"]]
    arc, poly = tmp_path / "n24.arc", tmp_path / "n24-thirds.json"
    arc.write_text(serialize(ap))
    poly.write_text(json.dumps(doc))
    drawn = []
    real = cli.project

    def recorded(points):
        drawn.append((points, real(points)))
        return drawn[-1][1]

    monkeypatch.setattr(cli, "project", recorded)
    assert cli.main(["verify", str(arc), str(poly)]) == 0
    [(projected, pd)] = drawn
    verts = construct.knot_from_json(doc).vertices
    assert construct.bends(verts) == list(range(len(verts)))
    assert projected == list(verts)
    scales = geom.lattice(verts)[0]
    assert scales[1] == 3 and scales[0].bit_length() > 100
    assert pd == project_on_one_scale(verts)


def with_points_on_edges(doc, edges, at):
    """Build JSON ``doc`` with the point at parameter ``at`` of each of
    ``edges`` (0-based) inserted as a vertex after the edge's start: at 1/2
    a vertex inside a stick, at 3/2 one past the stick's end, at which the
    polygon doubles back."""
    verts = [[Fraction(c) for c in v] for v in doc["vertices"]]
    roles = list(doc["edge_roles"])
    for e in sorted(edges, reverse=True):
        a, b = verts[e], verts[(e + 1) % len(verts)]
        verts.insert(e + 1, [x + at * (y - x) for x, y in zip(a, b)])
        roles.insert(e + 1, roles[e])
    return {**doc, "vertices": [[str(c) for c in v] for v in verts], "edge_roles": roles}


@pytest.mark.parametrize(
    "text",
    [KINK, TREFOIL, serialize(random_presentation(24, 1_000_003))],
    ids=["kink", "trefoil", "n24"],
)
def test_verify_counts_and_projects_only_the_bends(text, tmp_path, monkeypatch):
    """A vertex inside a stick is no joint: verify counts the sticks and
    projects only the vertices at which the polygon bends, so a build's
    output with a midpoint added to one edge or to two verifies; a vertex
    at which the polygon doubles back is refused by the embedding check."""
    arc, out, poly = tmp_path / "p.arc", tmp_path / "p.json", tmp_path / "p-more.json"
    arc.write_text(text)
    assert cli.main(["build", str(arc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    m = len(doc["vertices"])
    drawn = []
    real = cli.project

    def recorded(points):
        drawn.append(points)
        return real(points)

    monkeypatch.setattr(cli, "project", recorded)
    verts = construct.knot_from_json(doc).vertices
    for edges in ([0], [0, m // 2]):
        more = with_points_on_edges(doc, edges, Fraction(1, 2))
        assert len(more["vertices"]) == m + len(edges) and more["sticks"] == m
        poly.write_text(json.dumps(more))
        drawn.clear()
        assert cli.main(["verify", str(arc), str(poly)]) == 0
        assert drawn == [list(verts)]
    poly.write_text(json.dumps(with_points_on_edges(doc, [0], Fraction(3, 2))))
    assert cli.main(["verify", str(arc), str(poly)]) == 2


def test_the_kink_builds_and_verifies(tmp_path):
    d = diagram(parse(KINK))
    assert len(d.crossings) == 1 and alexander(d).coeffs == (1,)
    arc, out = tmp_path / "kink.arc", tmp_path / "kink.json"
    arc.write_text(KINK)
    assert cli.main(["build", str(arc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["determinant"] == 1
    assert cli.main(["verify", str(arc), str(out)]) == 0


def test_verify_wrong_knot_exits_3(trefoil_arc, unknot_arc, tmp_path, capsys):
    out = tmp_path / "u.json"
    assert cli.main(["build", str(unknot_arc), "--out", str(out)]) == 0
    rc = cli.main(["verify", str(trefoil_arc), str(out)])
    assert rc == 3
    assert "mismatch" in capsys.readouterr().err


def test_verify_tampered_polygon_exits_2(trefoil_arc, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["build", str(trefoil_arc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["vertices"][2] = doc["vertices"][4]  # collapse two joints
    out.write_text(json.dumps(doc))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 2


def test_verify_tampered_stick_claim_exits_2(trefoil_arc, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["build", str(trefoil_arc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["sticks"] = 5
    out.write_text(json.dumps(doc))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 2


def _tampered(trefoil_arc, tmp_path, change):
    """Path of the trefoil's build JSON after ``change(doc)``."""
    out = tmp_path / "t.json"
    assert cli.main(["build", str(trefoil_arc), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    change(doc)
    out.write_text(json.dumps(doc))
    return out


def test_verify_wrong_determinant_exits_2(trefoil_arc, tmp_path, capsys):
    out = _tampered(trefoil_arc, tmp_path, lambda doc: doc.update(determinant=7))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 2
    err = capsys.readouterr().err
    assert "stored determinant 7" in err and "polygon has 3" in err


def test_verify_flipped_bound_verdict_exits_2(trefoil_arc, tmp_path, capsys):
    out = _tampered(trefoil_arc, tmp_path, lambda doc: doc.update(bound_satisfied=False))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 2
    assert "bound verdict" in capsys.readouterr().err


# two and four coordinates, and a string whose three characters would parse
@pytest.mark.parametrize("vertex", [["0", "0"], ["0", "0", "0", "0"], "000"])
def test_verify_vertex_without_three_coordinates_exits_1(
    trefoil_arc, tmp_path, capsys, vertex
):
    def change(doc):
        doc["vertices"][1] = vertex

    out = _tampered(trefoil_arc, tmp_path, change)
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 1
    err = capsys.readouterr().err
    assert "malformed polygon JSON: vertex 1 is not a list of three coordinates" in err


# coordinates not in the "p" or "p/q" form build writes: the JSON number 1e400
# overflowed to a traceback, 0.5 and true were accepted, and an exponent makes
# Fraction build a huge integer before any check
@pytest.mark.parametrize("raw", ["1e400", "0.5", "true", '"1e400"', '"0.5"', '" 1"', '"+1"'])
def test_verify_coordinate_not_in_build_form_exits_1(
    trefoil_arc, tmp_path, capsys, raw
):
    def change(doc):
        doc["vertices"][1][0] = "COORDINATE"

    out = _tampered(trefoil_arc, tmp_path, change)
    out.write_text(out.read_text().replace('"COORDINATE"', raw))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 1
    err = capsys.readouterr().err
    assert "vertex 1 has a coordinate other than p or p/q" in err
    assert err.startswith("error: malformed polygon JSON: ")


def test_verify_reads_unreduced_fractions_and_minus_zero(trefoil_arc, tmp_path):
    """A coordinate "2/4" reads as 1/2 and "-0" as 0, as Fraction parses them."""
    zeros = []

    def change(doc):
        for v in doc["vertices"]:
            for k, c in enumerate(v):
                if c == "0":
                    v[k] = "-0"
                    zeros.append(c)
                else:
                    x = Fraction(c)
                    v[k] = f"{2 * x.numerator}/{2 * x.denominator}"

    out = _tampered(trefoil_arc, tmp_path, change)
    assert zeros
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 0
    knot = construct.knot_from_json({"vertices": [["2/4", "-0", "-6/3"]]})
    assert knot.vertices == ((Fraction(1, 2), 0, -2),)


def test_verify_zero_denominator_exits_1(trefoil_arc, tmp_path, capsys):
    def change(doc):
        doc["vertices"][1][0] = "1/0"

    out = _tampered(trefoil_arc, tmp_path, change)
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed polygon JSON: ")


def test_verify_invalid_arc_exits_1_before_the_polygon_checks(
    trefoil_arc, tmp_path, capsys
):
    def change(doc):
        doc["vertices"][2] = doc["vertices"][4]  # a polygon check would exit 2

    out = _tampered(trefoil_arc, tmp_path, change)
    bad = tmp_path / "loops.arc"
    bad.write_text("3\n1 2\n1 2\n3 3\n")
    assert cli.main(["verify", str(bad), str(out)]) == 1
    assert "degenerate" in capsys.readouterr().err


# stored fields of the wrong JSON type, each of which once coerced to a pass
# (6.9 -> 6, "false" -> True) or to a confusing mismatch ("3" != 3)
@pytest.mark.parametrize(
    "field, value",
    [
        ("sticks", 6.9),
        ("sticks", 6.0),
        ("sticks", "6"),
        ("sticks", True),
        ("bound_satisfied", "false"),
        ("bound_satisfied", 1),
        ("bound_satisfied", None),
        ("determinant", "3"),
        ("determinant", 3.0),
        ("determinant", True),
    ],
)
def test_verify_stored_field_of_wrong_type_exits_1(
    trefoil_arc, tmp_path, capsys, field, value
):
    out = _tampered(trefoil_arc, tmp_path, lambda doc: doc.update({field: value}))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 1
    err = capsys.readouterr().err
    assert f"malformed polygon JSON: {field} has the wrong type" in err


def test_verify_accepts_null_determinant(trefoil_arc, tmp_path):
    out = _tampered(trefoil_arc, tmp_path, lambda doc: doc.update(determinant=None))
    assert cli.main(["verify", str(trefoil_arc), str(out)]) == 0


def test_verify_garbage_json_exits_1(trefoil_arc, tmp_path):
    bad = tmp_path / "g.json"
    bad.write_text("{not json")
    assert cli.main(["verify", str(trefoil_arc), str(bad)]) == 1


def test_verify_deeply_nested_json_exits_1(trefoil_arc, tmp_path, capsys):
    """Nesting past the parser's recursion limit ended in a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli.main(["verify", str(trefoil_arc), str(deep)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed polygon JSON: ")


def test_simplify_reduces_stabilized_unknot(tmp_path, capsys):
    arc = tmp_path / "u4.arc"
    arc.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
    assert cli.main(["simplify", str(arc)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# destabilized 2 time(s)"
    assert out.splitlines()[1] == "2"  # unknot bottoms out at the doubled pair


def test_random_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = cli.main(["random", "--n", "8", "--seed", "42", "--count", "10", "--out", str(d)])
        assert rc == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == [f"{i:03d}.arc" for i in range(10)]
    for name in names:
        assert (d1 / name).read_text() == (d2 / name).read_text()


def test_batch_over_files(tmp_path):
    gen = tmp_path / "gen"
    assert cli.main(["random", "--n", "7", "--seed", "5", "--count", "4", "--out", str(gen)]) == 0
    csv_path = tmp_path / "rows.csv"
    arcs = sorted(str(p) for p in gen.iterdir())
    assert cli.main(["batch", *arcs, "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "id,n,beta1,beta2,beta3,shift,sticks,bound,bound_satisfied,"
        "top_reduction,embedded,invariants_match,determinant,seed"
    )
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[1] == "7"
        assert fields[8] == "true"  # bound_satisfied
        assert fields[11] == "true"  # invariants_match


def test_batch_generates_inline(capsys):
    assert cli.main(["batch", "--count", "3", "--n", "6", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("000,6,")


def test_batch_without_inputs_errors(capsys):
    assert cli.main(["batch"]) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["random", "--n", "3", "--count", "-1"], "--count -1"),
        (["batch", "--n", "9", "--count", "-1"], "--count -1"),
        (["bounds", "--cmin", "5", "--cmax", "3"], "--cmax 3"),
    ],
)
def test_bad_count_or_range_exits_1_naming_the_flag(argv, flag, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_count_zero_keeps_its_behaviour(capsys):
    assert cli.main(["random", "--n", "3", "--count", "0"]) == 0
    assert capsys.readouterr() == ("", "")
    assert cli.main(["batch", "--n", "9", "--count", "0"]) == 1
    assert "batch needs .arc paths" in capsys.readouterr().err


def test_batch_turns_bad_file_into_error_row(tmp_path, capsys):
    good = tmp_path / "good.arc"
    good.write_text(UNKNOT3)
    bad = tmp_path / "bad.arc"
    bad.write_text("3\n1 2\nnope\n1 3\n")
    missing = tmp_path / "missing.arc"
    assert cli.main(["batch", str(bad), str(good), str(missing)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["id"] for r in rows] == ["bad", "good", "missing"]
    assert rows[0]["top_reduction"].startswith("error:InvalidArcPresentation: ")
    assert "line 3" in rows[0]["top_reduction"]
    assert rows[0]["n"] == "" and rows[0]["bound_satisfied"] == "false"
    assert rows[1]["top_reduction"] == "applied"
    assert rows[2]["top_reduction"].startswith("error:InvalidArcPresentation: cannot read")


def test_batch_invalid_presentation_row_has_empty_n(tmp_path, capsys):
    bad = tmp_path / "loops.arc"
    bad.write_text("3\n1 2\n1 2\n3 3\n")
    assert cli.main(["batch", str(bad)]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert row["n"] == ""
    assert row["top_reduction"].startswith("error:InvalidArcPresentation: ")
    assert "degenerate" in row["top_reduction"]


def _non_utf8_arc(tmp_path):
    p = tmp_path / "bin.arc"
    p.write_bytes(b"\xff\xfe5\n1 4\n")
    return p


def test_build_non_utf8_file_exits_1(tmp_path, capsys):
    assert cli.main(["build", str(_non_utf8_arc(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err and "not UTF-8" in err and "Traceback" not in err


def test_batch_non_utf8_file_is_an_error_row(tmp_path, unknot_arc, capsys):
    assert cli.main(["batch", str(_non_utf8_arc(tmp_path)), str(unknot_arc)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["top_reduction"].startswith("error:InvalidArcPresentation: cannot read")
    assert rows[1]["top_reduction"] == "applied"


def test_batch_error_row_carries_message(capsys):
    # n = 2 generates a valid presentation that the full build refuses
    assert cli.main(["batch", "--count", "1", "--n", "2"]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert row["top_reduction"] == (
        "error:InvalidArcPresentation: full build needs at least 3 chords"
    )


def test_verify_accepts_a_seeded_n48_build(tmp_path):
    arc = tmp_path / "n48.arc"
    arc.write_text(serialize(random_presentation(48, 900)))
    poly = tmp_path / "n48.json"
    assert cli.main(["build", str(arc), "--out", str(poly)]) == 0
    assert cli.main(["verify", str(arc), str(poly)]) == 0


def test_build_and_verify_the_n48_presentation_of_random_seed_7(tmp_path):
    """`stickbound random --n 48 --seed 7` writes random_presentation(48,
    7000021); its Alexander core is 10 x 10, with entries of high degree."""
    arc = tmp_path / "seed7.arc"
    arc.write_text(serialize(random_presentation(48, 7 * 1_000_003)))
    poly = tmp_path / "seed7.json"
    assert cli.main(["build", str(arc), "--out", str(poly)]) == 0
    assert cli.main(["verify", str(arc), str(poly)]) == 0


def test_build_and_verify_an_n96_presentation(tmp_path):
    """random_presentation(96, 7000003 * 96 + 2): both Alexander cores are
    15 x 15, the scale the contracted relation rows and least-span pivoting
    are for; the output polygon's lattice is past LATTICE_MAX_BITS."""
    arc = tmp_path / "n96.arc"
    arc.write_text(serialize(random_presentation(96, 7_000_003 * 96 + 2)))
    poly = tmp_path / "n96.json"
    assert cli.main(["build", str(arc), "--out", str(poly)]) == 0
    assert cli.main(["verify", str(arc), str(poly)]) == 0


def _capped_json(verts):
    sticks = stick_count(StickKnot(tuple(verts), ("?",) * len(verts)))
    return json.dumps({
        "vertices": [[str(c) for c in v] for v in verts],
        "sticks": sticks,
        "bound_satisfied": sticks <= 3,
        "determinant": 1,
    })


def test_verify_past_the_lattice_cap(unknot_arc, tmp_path, capsys):
    # 64-bit denominators put the polygon's lattice past LATTICE_MAX_BITS:
    # verify runs the same checks on the fractions and reaches the same verdicts
    verts = capped_polygon(48)
    poly = tmp_path / "capped.json"
    poly.write_text(_capped_json(verts))
    assert cli.main(["verify", str(unknot_arc), str(poly)]) == 0
    # edge 0 through the midpoint of edge 30
    mid = tuple((x + y) / 2 for x, y in zip(verts[30], verts[31]))
    verts[1] = tuple(2 * y - x for x, y in zip(verts[0], mid))
    poly.write_text(_capped_json(verts))
    capsys.readouterr()
    assert cli.main(["verify", str(unknot_arc), str(poly)]) == 2
    assert "not embedded: (0, 30, 'improper')" in capsys.readouterr().err


def _raise_repeated_vertex(ap, top=True):
    raise ValueError("repeated consecutive vertices at index 3")


def test_build_geometry_value_error_exits_2(trefoil_arc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_full", _raise_repeated_vertex)
    assert cli.main(["build", str(trefoil_arc)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "internal verification failure: repeated consecutive vertices at index 3\n"
    )


def test_batch_geometry_value_error_is_an_error_row(
    trefoil_arc, unknot_arc, monkeypatch, capsys
):
    real_build_full = cli.build_full

    def build_full(ap, top=True):
        if ap.n == 5:
            _raise_repeated_vertex(ap, top)
        return real_build_full(ap, top=top)

    monkeypatch.setattr(cli, "build_full", build_full)
    assert cli.main(["batch", str(trefoil_arc), str(unknot_arc)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["id"] for r in rows] == ["trefoil", "unknot3"]
    assert rows[0]["top_reduction"] == (
        "error:ValueError: repeated consecutive vertices at index 3"
    )
    assert rows[0]["n"] == "5" and rows[0]["embedded"] == "false"
    assert rows[1]["top_reduction"] == "applied"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "required: command"),
        (["build"], "required: arc"),
        (["random", "--n", "abc"], "invalid int value: 'abc'"),
    ],
)
def test_usage_error_exits_1(argv, message, capsys):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage: stickbound" in err and message in err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage: stickbound" in capsys.readouterr().out


def test_batch_reports_the_known_n8_skip_as_a_row(capsys):
    """Entry 48 of seed 601 skips the top move at the default cap, so a batch
    runs every disk shape's rejection path and still writes each row."""
    assert cli.main(["batch", "--n", "8", "--count", "49", "--seed", "601"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 49
    assert not any(r["top_reduction"].startswith("error:") for r in rows)
    assert rows[48]["id"] == "048" and rows[48]["top_reduction"].startswith("skipped:")


def test_bounds_below_domain_exits_1(capsys):
    assert cli.main(["bounds", "--cmin", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--cmin 1" in err and "at least 3" in err


def test_bounds_table(capsys):
    assert cli.main(["bounds", "--cmin", "3", "--cmax", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    row3 = lines[1].split()
    assert row3[0] == "3"
    assert row3[3] == "6"  # negami upper
    assert row3[5] == "6"  # stick upper
    row4 = lines[2].split()
    assert row4[5] == "15/2"


def test_bounds_flag_changes_arc_column(capsys):
    assert cli.main(["bounds", "--cmin", "3", "--cmax", "3", "--nonalternating-prime"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[4] == "4"
    assert row[5] == "9/2"


def test_serialize_matches_cli_random_content(tmp_path):
    d = tmp_path / "r"
    assert cli.main(["random", "--n", "5", "--seed", "1", "--count", "1", "--out", str(d)]) == 0
    text = (d / "000.arc").read_text()
    from stickbound.arcpres import parse

    ap = parse(text)
    assert serialize(ap) in text
