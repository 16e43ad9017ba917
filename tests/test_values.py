"""The package's value and report types, compared, hashed, printed and
copied by field: repr text, equality only within a class, hashing that
agrees with equality, refused assignment, pickle and deepcopy."""

import copy
import pickle

import pytest

from cubeclaw.detect import Claw, FiveSetKind, InducedCycle, PathClassification, classify_five_set
from cubeclaw.hypercube import VertexSet
from cubeclaw.verify import ExtremalResult, VerificationReport
from cubeclaw.witness import ExtractionTrace, SplitStep, find_witness_inductive

P5 = VertexSet.from_members([0, 1, 3, 7, 15], 4)
DENSE_Q5 = VertexSet(5, 0x0010FFFF)

# (value, one field name, its repr as the dataclass versions printed it)
VALUES = [
    (VertexSet(4, 0x5557), "mask", "VertexSet(dim=4, mask=0x5557)"),
    (Claw(0, (1, 2, 4)), "center", "Claw(center=0, leaves=(1, 2, 4))"),
    (
        InducedCycle((0, 1, 3, 7, 15, 14, 12, 8)),
        "vertices",
        "InducedCycle(vertices=(0, 1, 3, 7, 15, 14, 12, 8))",
    ),
    (
        classify_five_set(P5),
        "kind",
        "PathClassification(kind=<FiveSetKind.PATH_P5: 'path_p5'>,"
        " endpoints=(0, 15), internal=(1, 3, 7))",
    ),
    (
        PathClassification(FiveSetKind.DISCONNECTED),
        "endpoints",
        "PathClassification(kind=<FiveSetKind.DISCONNECTED: 'disconnected'>,"
        " endpoints=None, internal=None)",
    ),
    (
        SplitStep(5, 1, 0, (9, 8)),
        "chosen_side",
        "SplitStep(dim=5, split_coord=1, chosen_side=0, side_cardinalities=(9, 8))",
    ),
    (
        find_witness_inductive(DENSE_Q5)[1],
        "base",
        "ExtractionTrace(steps=(SplitStep(dim=5, split_coord=1, chosen_side=0,"
        " side_cardinalities=(9, 8)),), base='brute-force')",
    ),
]


def report():
    return VerificationReport("c", 1, 1, 0, [], 0.5, 1, "ab")


def extremal():
    return ExtremalResult(1, ("claw", "C8"), 1, VertexSet(1, 1), 3, 1)


@pytest.mark.parametrize("value, field, text", VALUES)
def test_repr_text_is_pinned(value, field, text):
    assert repr(value) == text


def test_report_reprs_are_pinned():
    assert repr(report()) == (
        "VerificationReport(check_name='c', universe_size=1, passed=1, failed=0,"
        " counterexamples=[], wall_time=0.5, worker_count=1, deterministic_digest='ab',"
        " details={})"
    )
    assert repr(extremal()) == (
        "ExtremalResult(dim=1, forbidden=('claw', 'C8'), max_size=1,"
        " certificate=VertexSet(dim=1, mask=0x1), nodes_explored=3, half_cap=1, metrics={})"
    )


def test_equality_is_by_field_and_only_within_a_class():
    assert Claw(0, (1, 2, 4)) == Claw(0, (1, 2, 4))
    assert Claw(0, (1, 2, 4)) != Claw(0, (1, 2, 8))
    assert Claw(0, (1, 2, 4)) != (0, (1, 2, 4))
    assert InducedCycle((0, 1, 3, 2)) != (0, 1, 3, 2)
    assert VertexSet(4, 7) != VertexSet(3, 7)
    assert VertexSet(4, 7) != (4, 7)
    assert VertexSet(4, 7) != Claw(4, 7)  # the same field values, another class
    assert PathClassification(FiveSetKind.PATH_P5) != PathClassification(FiveSetKind.DISCONNECTED)
    assert report() == report() and report() != ("c", 1, 1, 0, [], 0.5, 1, "ab", {})
    assert extremal() == extremal()


def test_hash_agrees_with_equality():
    for value, _, _ in VALUES:
        twin = copy.deepcopy(value)
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1
    assert len({Claw(0, (1, 2, 4)), Claw(0, (1, 2, 8)), VertexSet(4, 0), VertexSet(3, 0)}) == 4
    with pytest.raises(TypeError):
        hash(report())
    with pytest.raises(TypeError):
        hash(extremal())


@pytest.mark.parametrize("value, field, text", VALUES)
def test_assignment_is_refused(value, field, text):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_reports_refuse_assignment_but_fill_their_dicts():
    r, e = report(), extremal()
    for value, field in ((r, "worker_count"), (r, "details"), (e, "max_size"), (e, "metrics")):
        with pytest.raises(AttributeError):
            setattr(value, field, {})
        with pytest.raises(AttributeError):
            delattr(value, field)
    # the check that builds a result fills its own dict in place
    r.details["seed"] = 1
    e.metrics["prunes"] = {}
    assert (r.worker_count, r.details, e.max_size, e.metrics) == (1, {"seed": 1}, 1, {"prunes": {}})
    assert report().details == {} and extremal().metrics == {}  # each gets its own dict


@pytest.mark.parametrize("value", [v for v, _, _ in VALUES] + [report(), extremal()])
def test_pickle_and_deepcopy_round_trips_are_equal(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def test_vertex_set_checks_its_fields_also_when_unpickled():
    with pytest.raises(ValueError, match="dimension"):
        VertexSet(0, 0)
    with pytest.raises(ValueError, match="bits outside"):
        VertexSet(2, 16)
    with pytest.raises(ValueError, match="bits outside"):
        VertexSet(2, -1)
    forged = pickle.dumps(VertexSet(2, 15)).replace(b"K\x0f", b"K\x10")
    with pytest.raises(ValueError, match="bits outside"):
        pickle.loads(forged)


def test_report_to_dict_lists_its_fields_in_order():
    assert list(report().to_dict()) == [
        "check_name",
        "universe_size",
        "passed",
        "failed",
        "counterexamples",
        "wall_time",
        "worker_count",
        "deterministic_digest",
        "details",
    ]
    assert extremal().to_dict() == {
        "dim": 1,
        "forbidden": ["claw", "C8"],
        "max_size": 1,
        "certificate": "1",
        "nodes_explored": 3,
        "half_cap": 1,
        "metrics": {},
    }
