"""Inductive extraction and the dimension-4 structured solver."""

import hashlib
import random
from itertools import combinations

import pytest

from cubeclaw.detect import (
    Claw,
    InducedCycle,
    check_witness,
    find_claw,
    find_induced_cycle,
    find_theorem_witness,
)
from cubeclaw import witness
from cubeclaw.errors import InsufficientCardinalityError, TheoremViolationError
from cubeclaw.hypercube import VertexSet, embed, split
from cubeclaw.witness import (
    base_case_solve_structured,
    find_witness_inductive,
    required_size,
    resolve_five_four,
)
from oracles import (
    claw_exists,
    classify_five,
    induces_cycle,
    naive_adjacent,
    path_order_of_p5,
)

EVEN_LABELS_Q4 = [v for v in range(16) if v % 2 == 0]
ODD_LABELS_Q4 = [v for v in range(16) if v % 2 == 1]


def seeded_subset(rng, n, size):
    labels = list(range(1 << n))
    rng.shuffle(labels)
    return VertexSet.from_members(labels[:size], n)


def assert_trace_consistent(s, trace):
    prev = len(s)
    for st in trace.steps:
        a, b = st.side_cardinalities
        assert a + b == prev
        chosen = st.side_cardinalities[st.chosen_side]
        assert chosen >= (1 << (st.dim - 2)) + 1  # the pigeonhole inequality
        assert st.split_coord == 1
        prev = chosen
    assert prev >= 9


def test_required_size():
    assert required_size(4) == 9
    assert required_size(5) == 17
    assert required_size(10) == 513


def test_inductive_base_case_full_half_plus_one():
    s = VertexSet.from_members(EVEN_LABELS_Q4 + [1], 4)
    w, trace = find_witness_inductive(s)
    assert isinstance(w, Claw)
    assert w.center % 2 == 0  # a center in the coordinate-1 = 0 half
    assert check_witness(w, s)
    assert trace.steps == () and trace.base == "brute-force"
    for big in (VertexSet(4, 0xFFFF), VertexSet(4, 0xFFFF).remove(3)):
        assert check_witness(find_witness_inductive(big)[0], big)


def test_inductive_base_case_search_failure_names_the_base_mask(monkeypatch):
    # exhaustive certification rules this out; the alarm must still name
    # the Q_4 set the descent reached, not the input set
    monkeypatch.setattr(witness, "find_theorem_witness", lambda s: None)
    evens = [v for v in range(32) if bin(v).count("1") % 2 == 0]
    s = VertexSet.from_members(evens + [1], 5)
    base = split(s, 1)[1]  # the 9-vertex side the descent takes
    with pytest.raises(TheoremViolationError) as err:
        find_witness_inductive(s)
    assert str(err.value).startswith("no witness in a nine-or-more-vertex Q_4 subset")
    assert (err.value.dim, err.value.mask) == (4, base.mask)


def test_inductive_dimension_five_example():
    evens = [v for v in range(32) if bin(v).count("1") % 2 == 0]
    s = VertexSet.from_members(evens + [1], 5)
    w, trace = find_witness_inductive(s)
    assert isinstance(w, Claw) and w.center == 1
    assert check_witness(w, s)
    assert len(trace.steps) == 1
    assert trace.steps[0].side_cardinalities == (8, 9)
    assert trace.steps[0].chosen_side == 1
    assert_trace_consistent(s, trace)


def test_inductive_rejects_small_sets_naming_the_bound():
    with pytest.raises(InsufficientCardinalityError) as err:
        find_witness_inductive(VertexSet.from_members(EVEN_LABELS_Q4, 4))
    assert err.value.required == 9
    with pytest.raises(ValueError):
        find_witness_inductive(VertexSet(3, 0xFF))


def test_inductive_random_dimensions():
    rng = random.Random(404)
    for n in (4, 5, 6, 8, 10, 12):
        for _ in range(8):
            s = seeded_subset(rng, n, required_size(n))
            w, trace = find_witness_inductive(s)
            assert check_witness(w, s)
            assert_trace_consistent(s, trace)
            if n <= 5:
                assert find_theorem_witness(s) is not None


def test_witness_found_in_subcube_survives_embedding():
    rng = random.Random(88)
    for _ in range(30):
        s = seeded_subset(rng, 4, 9)
        w, _ = find_witness_inductive(s)
        coord, bit = rng.randint(1, 5), rng.randint(0, 1)
        ambient = embed(s, coord, bit)
        mapper = lambda v: embed(VertexSet(4, 1 << v), coord, bit).members()[0]
        if isinstance(w, Claw):
            mapped = Claw(mapper(w.center), tuple(map(mapper, w.leaves)))
        else:
            mapped = InducedCycle(tuple(map(mapper, w.vertices)))
        assert check_witness(mapped, ambient)


def test_structured_case_1():
    s = VertexSet.from_members(EVEN_LABELS_Q4 + [1], 4)
    w, case = base_case_solve_structured(s)
    assert case == 1
    assert isinstance(w, Claw) and check_witness(w, s)


def test_structured_case_2():
    # larger half: the full coordinate-1 = 0 half minus vertex 0.  The
    # subcube vertex antipodal to the removed one (ambient 14) keeps all
    # three subcube neighbors.
    big = [v for v in EVEN_LABELS_Q4 if v != 0]
    s = VertexSet.from_members(big + [9, 11], 4)
    w, case = base_case_solve_structured(s)
    assert case == 2
    assert isinstance(w, Claw) and check_witness(w, s)
    hood14 = [u for u in big if naive_adjacent(u, 14, 4)]
    assert len(hood14) == 3


def test_structured_case_3_chordless_half():
    # six even labels inducing the chordless 6-cycle (no subcube
    # claw-center); the cross edge into the three odd vertices is what
    # produces one.
    big = [2, 4, 6, 8, 10, 12]
    assert not claw_exists(big, 4)
    s = VertexSet.from_members(big + [1, 3, 5], 4)
    w, case = base_case_solve_structured(s)
    assert case == 3
    assert isinstance(w, Claw) and check_witness(w, s)
    assert w.center in big  # the center sits in the larger half


def oracle_case4_fixtures():
    """One claw-resolving and one cycle-resolving (5,4) configuration,
    derived entirely with the naive oracles."""
    claw_config = cycle_config = None
    for five in combinations(EVEN_LABELS_Q4, 5):
        if classify_five(five, 4) != "path_p5":
            continue
        order = path_order_of_p5(five, 4)
        partners = {a ^ 1 for a in order[1:4]}
        for four in combinations(ODD_LABELS_Q4, 4):
            if partners & set(four):
                continue
            full = sorted(five + four)
            v2_claw = any(
                sum(1 for u in full if naive_adjacent(u, w, 4)) >= 3 for w in four
            )
            if v2_claw and claw_config is None:
                claw_config = full
            if not v2_claw and cycle_config is None:
                assert any(
                    induces_cycle([u for u in full if u != z], 4) for z in full
                )
                cycle_config = full
            if claw_config and cycle_config:
                return claw_config, cycle_config
    raise AssertionError("fixtures not found")


def test_structured_case_4_claw_and_cycle_outcomes():
    claw_config, cycle_config = oracle_case4_fixtures()

    s = VertexSet.from_members(claw_config, 4)
    w, case = base_case_solve_structured(s)
    assert case == 4
    assert isinstance(w, Claw) and check_witness(w, s)

    s = VertexSet.from_members(cycle_config, 4)
    w, case = base_case_solve_structured(s)
    assert case == 4
    assert isinstance(w, InducedCycle) and len(w.vertices) == 8
    assert check_witness(w, s)
    dropped = (set(cycle_config) - set(w.vertices)).pop()
    assert check_witness(w, s.remove(dropped))


def test_structured_case_4_inadmissible_choice_claw_at_path_internal():
    # a path-internal vertex with its partner across the split present is
    # itself a claw-center
    for five in combinations(EVEN_LABELS_Q4, 5):
        if classify_five(five, 4) != "path_p5":
            continue
        order = path_order_of_p5(five, 4)
        internal = order[1:4]
        partner = internal[0] ^ 1
        others = [v for v in ODD_LABELS_Q4 if v != partner]
        config = sorted(five + (partner,) + tuple(others[:3]))
        s = VertexSet.from_members(config, 4)
        w, case = base_case_solve_structured(s)
        assert case == 4
        assert isinstance(w, Claw) and check_witness(w, s)
        return
    raise AssertionError("no P5 placement found")


def test_claw_free_nine_subsets_leave_one_isolated_vertex_off_their_c8():
    # the lemma behind the single cycle search of resolve_five_four
    sets = 0
    for members in combinations(range(16), 9):
        s = VertexSet.from_members(members, 4)
        if find_claw(s) is not None:
            continue
        cycle = find_induced_cycle(s, 8)
        if cycle is None:
            continue
        sets += 1
        off = set(members) - set(cycle.vertices)
        assert len(off) == 1
        (z,) = off
        assert not any(naive_adjacent(z, v, 4) for v in members)
        assert find_induced_cycle(s, 8) == find_induced_cycle(s.remove(z), 8)
    # every one of them, by the theorem
    assert sets == 48


def test_structured_alarms_name_the_input_mask(monkeypatch):
    # exhaustive certification rules these out; with the claw-center scan
    # and the 8-cycle search patched to find nothing, each alarm must fire
    monkeypatch.setattr(witness, "claw_center", lambda *_: None)
    monkeypatch.setattr(witness, "find_induced_cycle", lambda *_: None)
    five_four = 0x55EA  # even half {6, 8, 10, 12, 14}, odd half {1, 3, 5, 7}
    assert resolve_five_four(VertexSet(4, five_four), VertexSet(4, five_four & 0xAAAA)) is None
    for mask, message in (
        (0x5557, "no claw-center in the larger half of a (8,1) split"),
        (0x555E, "no claw-center in the larger half of a (7,2) split"),
        (0x557A, "no claw-center in the larger half of a (6,3) split"),
        (five_four, "no claw-center and no cycle-leaving vertex in a (5,4) split"),
    ):
        with pytest.raises(TheoremViolationError) as err:
            base_case_solve_structured(VertexSet(4, mask))
        assert str(err.value) == f"{message} (dim=4, mask={mask:#x})"
        assert (err.value.dim, err.value.mask) == (4, mask)


def test_structured_rejects_wrong_cardinality_or_dim():
    with pytest.raises(ValueError):
        base_case_solve_structured(VertexSet(4, 0xFFFF))
    with pytest.raises(ValueError):
        base_case_solve_structured(VertexSet.from_members(list(range(9)), 5))


def test_structured_agrees_with_brute_force_on_random_nine_subsets():
    rng = random.Random(777)
    for _ in range(300):
        s = seeded_subset(rng, 4, 9)
        w1, case = base_case_solve_structured(s)
        assert case in (1, 2, 3, 4)
        assert check_witness(w1, s)
        assert check_witness(find_theorem_witness(s), s)


def test_structured_output_is_pinned_on_all_nine_subsets():
    # the seed commit's witnesses and cases, hashed in increasing-mask order
    digest = hashlib.sha256()
    case_counts = [0, 0, 0, 0]
    masks = [m for m in range(1 << 16) if m.bit_count() == 9]
    for mask in masks:
        w, case = base_case_solve_structured(VertexSet(4, mask))
        digest.update(f"{w!r} {case}\n".encode())
        case_counts[case - 1] += 1
    assert len(masks) == 11440
    assert case_counts == [16, 448, 3136, 7840]
    assert digest.hexdigest() == (
        "dd5bc9c688a6561406b6f34a1214292093409c2df676e581c38a6d22bddc8e2d"
    )


def test_deterministic_outputs():
    rng = random.Random(31337)
    for _ in range(20):
        s = seeded_subset(rng, 4, 9)
        assert base_case_solve_structured(s) == base_case_solve_structured(s)
        assert find_witness_inductive(s) == find_witness_inductive(s)
