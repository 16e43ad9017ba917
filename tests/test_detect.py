"""Claw / induced-cycle detection and the five-set classifier."""

import math
import random
from itertools import combinations, product

import pytest

from cubeclaw.detect import (
    Claw,
    FiveSetKind,
    InducedCycle,
    check_witness,
    claw_at,
    claw_center,
    classify_five_set,
    find_claw,
    find_induced_cycle,
    find_theorem_witness,
    witness_to_text,
)
from cubeclaw.hypercube import VertexSet, neighbor_masks
from oracles import (
    claw_exists,
    classify_five,
    degree_map,
    induced_cycle_exists,
    naive_adjacent,
    path_order_of_p5,
)

C6_SET = VertexSet.from_members([1, 2, 3, 4, 5, 6], 3)
EVEN_WEIGHT_Q4 = VertexSet.from_members(
    [v for v in range(16) if bin(v).count("1") % 2 == 0], 4
)


def random_set(rng, n, density=0.5):
    mask = 0
    for v in range(1 << n):
        if rng.random() < density:
            mask |= 1 << v
    return VertexSet(n, mask)


def test_induced_degree_examples():
    # in-set degree as the detectors read it: the neighbor mask and s
    nbr = neighbor_masks(3)
    for s, degrees in [
        (VertexSet(3, 0xFF), dict.fromkeys(range(8), 3)),
        (VertexSet.from_members([0], 3), {0: 0}),
        (C6_SET, dict.fromkeys(C6_SET.members(), 2)),
    ]:
        assert {v: (nbr[v] & s.mask).bit_count() for v in s} == degrees
        assert degree_map(s.members(), 3) == degrees


def test_find_claw_examples():
    assert find_claw(VertexSet(3, 0xFF)) == Claw(0, (1, 2, 4))
    assert find_claw(C6_SET) is None
    assert find_claw(VertexSet(3, 0)) is None


def test_find_claw_returned_witness_is_valid():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.choice((3, 4, 5))
        s = random_set(rng, n)
        claw = find_claw(s)
        if claw is not None:
            assert check_witness(claw, s)
            assert claw.leaves == tuple(sorted(claw.leaves))


def test_find_claw_agrees_with_naive_four_subset_search():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.choice((3, 4, 5))
        s = random_set(rng, n)
        assert (find_claw(s) is not None) == claw_exists(s.members(), n)


def label_neighbors(dim):
    """Each label's neighbors, ascending, read off the labels: each flips
    one of the dim bits."""
    return [sorted(v ^ 1 << i for i in range(dim)) for v in range(1 << dim)]


def check_claw_functions(mask, dim, nbrs):
    s = VertexSet(dim, mask)
    for among in (mask, mask & 0x5555_5555, mask & 0xAAAA_AAAA):
        # the least member of among with three in-set neighbors, and them
        members = (v for v in range(1 << dim) if among >> v & 1)
        hoods = ((v, [u for u in nbrs[v] if mask >> u & 1]) for v in members)
        center, hood = next(((v, hood) for v, hood in hoods if len(hood) >= 3), (None, None))
        assert claw_center(mask, among, dim) == center, (mask, among)
        if center is not None:
            assert claw_at(s, center) == Claw(center, tuple(hood[:3]))


def test_claw_center_and_claw_at_match_label_reference_exhaustively():
    # every mask of Q_3 and Q_4, scanning the whole set and each half of
    # the coordinate-1 split
    for dim in (3, 4):
        nbrs = label_neighbors(dim)
        for mask in range(1 << (1 << dim)):
            check_claw_functions(mask, dim, nbrs)


def test_claw_center_and_claw_at_match_label_reference_at_dim5():
    rng = random.Random(55)
    nbrs = label_neighbors(5)
    for _ in range(2000):
        check_claw_functions(random_set(rng, 5, rng.choice((0.2, 0.4, 0.6))).mask, 5, nbrs)


def test_claw_at_rejects_a_center_with_two_in_set_neighbors():
    with pytest.raises(ValueError):
        claw_at(C6_SET, 1)  # 1 has in-set neighbors 3 and 5 only


def test_find_induced_cycle_c6():
    cycle = find_induced_cycle(C6_SET, 6)
    assert cycle == InducedCycle((1, 3, 2, 6, 4, 5))
    assert check_witness(cycle, C6_SET)


def test_find_induced_cycle_absent_on_independent_set():
    assert find_induced_cycle(EVEN_WEIGHT_Q4, 8) is None


def test_find_induced_cycle_full_q4():
    cycle = find_induced_cycle(VertexSet(4, 0xFFFF), 8)
    assert cycle is not None
    assert check_witness(cycle, VertexSet(4, 0xFFFF))
    # deterministic
    assert find_induced_cycle(VertexSet(4, 0xFFFF), 8) == cycle


def test_find_induced_cycle_rejects_bad_lengths():
    with pytest.raises(ValueError):
        find_induced_cycle(C6_SET, 5)
    with pytest.raises(ValueError):
        find_induced_cycle(C6_SET, 2)
    with pytest.raises(ValueError):
        find_induced_cycle(C6_SET, 8)  # longer than the set


def test_cycle_normalization_and_parity():
    rng = random.Random(37)
    seen = 0
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        s = random_set(rng, n)
        k = rng.choice((4, 6, 8))
        if k > len(s):
            continue
        cycle = find_induced_cycle(s, k)
        if cycle is None:
            continue
        seen += 1
        vs = cycle.vertices
        assert len(vs) == k and len(vs) % 2 == 0
        assert vs[0] == min(vs)  # starts at the least label
        assert vs[1] < vs[-1]  # lexicographically smaller direction
        for i, v in enumerate(vs):  # weight parity alternates around the cycle
            assert bin(v).count("1") % 2 != bin(vs[(i + 1) % k]).count("1") % 2
        assert check_witness(cycle, s)
    assert seen > 20


def test_find_induced_cycle_agrees_with_oracle_on_small_sets():
    rng = random.Random(41)
    for _ in range(40):
        s = random_set(rng, 3, density=0.8)
        for k in (4, 6):
            if k > len(s):
                continue
            got = find_induced_cycle(s, k)
            expect = induced_cycle_exists(s.members(), 3, k)
            assert (got is not None) == expect


def test_find_theorem_witness_priorities_and_absence():
    half_plus = VertexSet.from_members([v for v in range(16) if v % 2 == 0] + [1], 4)
    w = find_theorem_witness(half_plus)
    assert isinstance(w, Claw)
    assert find_theorem_witness(EVEN_WEIGHT_Q4) is None  # the tight example
    assert find_theorem_witness(VertexSet(4, 0)) is None


def test_witness_monotone_under_supersets():
    rng = random.Random(53)
    for _ in range(100):
        s = random_set(rng, 4)
        w = find_theorem_witness(s)
        if w is None:
            continue
        extra = random_set(rng, 4, density=0.3)
        superset = VertexSet(4, s.mask | extra.mask)
        assert check_witness(w, superset)


def test_classify_five_set_matches_oracle_on_all_q3_subsets():
    kinds = {}
    for five in combinations(range(8), 5):
        s = VertexSet.from_members(five, 3)
        got = classify_five_set(s)
        expect = classify_five(five, 3)
        assert got.kind.value == expect
        kinds[expect] = kinds.get(expect, 0) + 1
        if got.kind is FiveSetKind.PATH_P5:
            order = path_order_of_p5(five, 3)
            assert got.endpoints == (order[0], order[4])
            assert got.internal == tuple(order[1:4])
            assert got.endpoints[0] < got.endpoints[1]
    # brute-forced census of the 56 five-subsets of Q_3
    assert kinds == {"has_degree3_vertex": 32, "path_p5": 24}


def check_classification(five, dim):
    got = classify_five_set(VertexSet.from_members(five, dim))
    expect = classify_five(five, dim)
    assert got.kind.value == expect, five
    if got.kind is FiveSetKind.PATH_P5:
        order = path_order_of_p5(five, dim)
        assert got.endpoints == (order[0], order[4])
        assert got.internal == tuple(order[1:4])
    else:
        assert got.endpoints is None and got.internal is None
    return expect


def test_classify_five_set_matches_oracle_on_all_q4_subsets():
    kinds = {}
    in_half = {}
    for five in combinations(range(16), 5):
        expect = check_classification(five, 4)
        kinds[expect] = kinds.get(expect, 0) + 1
        if len({v & 1 for v in five}) == 1:
            in_half[expect] = in_half.get(expect, 0) + 1
    # brute-forced census of the 4368 five-subsets of Q_4: the cube is
    # bipartite, so no five-set induces a cycle or an unlisted shape
    assert kinds == {
        "has_degree3_vertex": 720,
        "has_isolated_vertex": 2688,
        "disconnected": 576,
        "path_p5": 384,
    }
    # the (5,4) path lemma, for a five-vertex larger half on either side
    # of coordinate 1: no degree-3 vertex means an induced P5
    assert in_half == {"has_degree3_vertex": 64, "path_p5": 48}


def test_classify_five_set_matches_oracle_on_q5_sample():
    rng = random.Random(5)
    kinds = set()
    for trial in range(600):
        if trial % 2:
            five = rng.sample(range(32), 5)
        else:
            # grow from one vertex through in-set neighbors, so connected
            # shapes (paths, trees with a degree-3 vertex) are common
            five = [rng.randrange(32)]
            while len(five) < 5:
                v = rng.choice(five) ^ 1 << rng.randrange(5)
                if v not in five:
                    five.append(v)
        kinds.add(check_classification(sorted(five), 5))
    assert kinds == {"has_degree3_vertex", "has_isolated_vertex", "disconnected", "path_p5"}


def test_classify_five_set_examples():
    s = VertexSet.from_members([0, 4, 6, 2, 3], 3)
    assert classify_five_set(s).kind is FiveSetKind.HAS_DEGREE3_VERTEX
    evens = [v for v in range(16) if bin(v).count("1") % 2 == 0][:5]
    assert classify_five_set(VertexSet.from_members(evens, 4)).kind is (
        FiveSetKind.HAS_ISOLATED_VERTEX
    )
    disconnected = VertexSet.from_members([0, 1, 3, 12, 13], 4)
    assert classify_five_set(disconnected).kind is FiveSetKind.DISCONNECTED


def test_classify_five_set_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        classify_five_set(C6_SET)


def test_check_witness_accepts_and_rejects():
    q3 = VertexSet(3, 0xFF)
    assert check_witness(Claw(0, (1, 2, 4)), q3)
    assert not check_witness(Claw(0, (1, 2, 4)), VertexSet.from_members([0, 1], 3))
    cycle = find_induced_cycle(C6_SET, 6)
    assert check_witness(cycle, C6_SET)
    assert check_witness(cycle, q3)  # inducedness is ambient-level

    # malformed witnesses return False instead of raising
    assert not check_witness(Claw(0, (1, 1, 2)), q3)  # duplicate leaf
    assert not check_witness(Claw(0, (3, 5, 6)), q3)  # leaves not adjacent to center
    assert not check_witness(Claw(0, (1, 2)), q3)  # wrong arity
    assert not check_witness(InducedCycle((0, 1, 3, 2, 0, 1)), q3)  # repeats
    assert not check_witness(InducedCycle((0, 1, 3, 2, 6, 4)), q3)  # chord 0-2
    assert not check_witness(InducedCycle((0, 1, 3)), q3)  # odd length
    for bad in ([2], 2.0, None, "2"):  # checked before the set of vertices is built
        assert not check_witness(InducedCycle((0, 1, 3, bad)), q3)
        assert not check_witness(InducedCycle((bad, 0, 1, 3)), q3)
    assert not check_witness("claw", q3)  # not a witness at all
    assert not check_witness(Claw(0, (1, 2, 16)), VertexSet(4, 0xFFFF))  # out of range


def reference_claw_check(w, members, dim):
    """Label-level claw validation against a member collection: member
    labels, one differing bit per center-leaf pair and at least two per
    leaf pair."""
    if not isinstance(w.leaves, tuple) or len(w.leaves) != 3:
        return False
    vs = (w.center, *w.leaves)
    for v in vs:
        if not isinstance(v, int) or v not in members:
            return False
    if len(set(vs)) != 4:
        return False
    x, a, b, c = vs
    return all(naive_adjacent(x, leaf, dim) for leaf in (a, b, c)) and not any(
        naive_adjacent(u, v, dim) for u, v in combinations((a, b, c), 2)
    )


@pytest.mark.parametrize("mask", [0xFFFF, 0x5557])
def test_check_witness_claw_matches_label_reference(mask):
    s = VertexSet(4, mask)
    members = frozenset(s.members())
    labels = range(-1, 17)  # both out-of-range neighbours of 0..15 included
    accepted = 0
    for x in labels:
        for leaves in product(labels, repeat=3):
            w = Claw(x, leaves)
            ok = check_witness(w, s)
            assert ok is reference_claw_check(w, members, 4), w
            accepted += ok
    assert accepted == sum(
        6 * math.comb(d, 3) for d in degree_map(s.members(), 4).values()
    )  # every ordered leaf triple at every center

    # around the valid claw 0 | 1 2 4: a list, wrong arities, odd vertex types
    malformed = [Claw(0, [1, 2, 4]), Claw(0, (1, 2)), Claw(0, (1, 2, 4, 8)), Claw(0, ())]
    for bad in ("0", 0.0, 1.0, None, True, -1, 16):
        malformed += [Claw(bad, (1, 2, 4)), Claw(0, (bad, 2, 4)), Claw(0, (1, bad, 4))]
        malformed.append(Claw(0, (1, 2, bad)))
    for w in malformed:
        assert check_witness(w, s) is reference_claw_check(w, members, 4), w


def test_witness_text_forms():
    assert witness_to_text(Claw(0, (1, 2, 4)), 3) == "claw 000 100 010 001"
    cycle = InducedCycle((1, 3, 2, 6, 4, 5))
    assert witness_to_text(cycle, 3) == "cycle 100 110 010 011 001 101"
    with pytest.raises(ValueError):
        witness_to_text(object(), 3)
