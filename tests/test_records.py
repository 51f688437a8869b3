"""The public records are NamedTuples: immutable, compared by value, shown as
``Name(field=value, ...)`` and unpackable as tuples.  ArcPresentation and
Diagram stay frozen dataclasses, since they validate outside input."""

import dataclasses

import pytest

from stickbound.arcpres import ArcPresentation, BetaCounts, Crossing, classify, diagram
from stickbound.bounds import BoundReport, NegamiBounds, bound_report, negami_bounds
from stickbound.construct import Certificate, StickKnot, TriangleInfo, build_full
from stickbound.geom import EmbeddingReport, polygon_embedded
from stickbound.invariants import LaurentPoly, MatchReport, ProjectedDiagram, match, project

TREFOIL = ArcPresentation([(1, 4), (3, 5), (2, 4), (1, 3), (2, 5)])


def records():
    """One instance of each record, made by the code that makes it."""
    knot, cert = build_full(TREFOIL)
    projected = project(knot.vertices)
    report = match(TREFOIL, projected.diagram)
    return [
        classify(TREFOIL)[1],
        diagram(TREFOIL).crossings[0],
        negami_bounds(5),
        bound_report(5),
        knot,
        TriangleInfo(2, 1, ((0, 0, 0), (1, 0, 0), (1, 1, 0))),
        cert,
        polygon_embedded(knot.vertices),
        report.alex1,
        projected,
        report,
    ]


RECORD_TYPES = [
    BetaCounts,
    Crossing,
    NegamiBounds,
    BoundReport,
    StickKnot,
    TriangleInfo,
    Certificate,
    EmbeddingReport,
    LaurentPoly,
    ProjectedDiagram,
    MatchReport,
]


@pytest.fixture(scope="module")
def made():
    return records()


def test_each_record_type_is_made_once(made):
    assert [type(r) for r in made] == RECORD_TYPES


@pytest.mark.parametrize("index", range(len(RECORD_TYPES)), ids=[t.__name__ for t in RECORD_TYPES])
def test_record_is_an_immutable_value(made, index):
    rec = made[index]
    cls = type(rec)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(rec) == tuple(getattr(rec, name) for name in cls._fields)
    copy = cls(*rec)
    assert copy == rec and copy is not rec and hash(copy) == hash(rec)
    first = cls._fields[0]
    assert rec._replace(**{first: "other"}) != rec
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in cls._fields)
    assert repr(rec) == f"{cls.__name__}({fields})"


def test_embedding_report_keeps_its_default():
    assert EmbeddingReport(True) == EmbeddingReport(True, ())


@pytest.mark.parametrize(
    "rec, name",
    [(TREFOIL, "chords"), (diagram(TREFOIL), "gauss")],
    ids=["ArcPresentation", "Diagram"],
)
def test_validating_records_stay_frozen_dataclasses(rec, name):
    assert dataclasses.is_dataclass(rec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, name, ())
