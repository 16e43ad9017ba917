"""The linear-time bit layer: block compress/spread splits, byte-scan
members, buffer-built masks, the table-free witness validator, and
extraction at the advertised dimension cap."""

import json
import math
import random
import time
from itertools import combinations

import pytest

from cubeclaw import hypercube
from cubeclaw.cli import main
from cubeclaw.detect import Claw, InducedCycle, check_witness, find_theorem_witness
from cubeclaw.errors import SetParseError
from cubeclaw.hypercube import (
    DIM_CAP,
    VertexSet,
    embed,
    set_from_hex,
    split,
    vertex_from_text,
)
from cubeclaw.verify import _half_subsets, _subsets
from cubeclaw.witness import find_witness_inductive, required_size
from oracles import induces_cycle, induced_edges, naive_adjacent


def naive_split(s, coord):
    """Per-vertex model: route each member by its coordinate bit, then
    delete that bit from the label."""
    p = coord - 1
    sides = ([], [])
    for v in range(1 << s.dim):
        if (s.mask >> v) & 1:
            reduced = (v & ((1 << p) - 1)) | ((v >> (p + 1)) << p)
            sides[(v >> p) & 1].append(reduced)
    return sides


def naive_embed(members, coord, bit):
    p = coord - 1
    return sorted((v & ((1 << p) - 1)) | (bit << p) | ((v >> p) << (p + 1)) for v in members)


def sample_masks(rng, n):
    nverts = 1 << n
    return [0, (1 << nverts) - 1, rng.getrandbits(nverts), 1 << (nverts - 1)]


def test_split_embed_match_per_vertex_model():
    rng = random.Random(31)
    for n in range(2, 13):
        for mask in sample_masks(rng, n):
            s = VertexSet(n, mask)
            for coord in range(1, n + 1):
                side0, side1 = split(s, coord)
                assert (side0.members(), side1.members()) == naive_split(s, coord)
                for bit, side in ((0, side0), (1, side1)):
                    assert embed(side, coord, bit).members() == naive_embed(
                        side.members(), coord, bit
                    )
                assert embed(side0, coord, 0).mask | embed(side1, coord, 1).mask == s.mask


def test_members_and_from_members_round_trip():
    rng = random.Random(32)
    # masks of a partial byte, one byte, one machine word and many bytes
    for n in (1, 2, 5, 6, 7, 8, 11, 14):
        for mask in sample_masks(rng, n) + [rng.getrandbits(1 << n) & rng.getrandbits(1 << n)]:
            s = VertexSet(n, mask)
            expected = [v for v in range(1 << n) if (mask >> v) & 1]
            assert s.members() == expected
            assert list(s) == expected
            assert VertexSet.from_members(expected, n) == s
            shuffled = expected * 2
            rng.shuffle(shuffled)
            assert VertexSet.from_members(shuffled, n) == s


def test_from_members_rejects_bad_input():
    with pytest.raises(ValueError):
        VertexSet.from_members([1 << 10], 10)
    with pytest.raises(ValueError):
        VertexSet.from_members([-1], 3)
    with pytest.raises(ValueError):
        VertexSet.from_members([], DIM_CAP + 1)


def test_set_from_hex_wide_mask_diagnostics():
    n = 20
    full = VertexSet(n, (1 << (1 << n)) - 1)
    token = full.to_hex()
    assert set_from_hex(token, n) == full
    bad = token[:-1] + "g"
    with pytest.raises(SetParseError) as exc:
        set_from_hex(bad, n)
    assert exc.value.column == len(token)
    with pytest.raises(SetParseError) as exc:
        set_from_hex("0x" + "_" + token[1:], n)
    assert exc.value.column == 1


def oracle_claw(center, leaves, dim):
    want = {tuple(sorted((center, leaf))) for leaf in leaves}
    return set(induced_edges((center, *leaves), dim)) == want


def oracle_cycle(order, dim):
    k = len(order)
    return induces_cycle(order, dim) and all(
        naive_adjacent(order[i], order[(i + 1) % k], dim) for i in range(k)
    )


def q4_sets():
    rng = random.Random(33)
    ring = [0, 1, 3, 7, 15, 14, 12, 8]  # an induced 8-cycle of Q_4
    out = [VertexSet.from_members(ring + [5, 10], 4), VertexSet.from_members(ring, 4)]
    for size in (9, 10, 11):
        out.append(VertexSet.from_members(rng.sample(range(16), size), 4))
    return out


def test_check_witness_agrees_with_oracles_on_q4_candidates():
    rng = random.Random(34)
    valid_claws = valid_cycles = 0
    for s in q4_sets():
        members = s.members()
        for center in members:
            others = [v for v in members if v != center]
            for leaves in combinations(others, 3):
                ok = oracle_claw(center, leaves, 4)
                assert check_witness(Claw(center, leaves), s) == ok
                valid_claws += ok
        for sub in combinations(members, 8):
            shuffled = list(sub)
            rng.shuffle(shuffled)
            orders = [sub, tuple(shuffled)]
            if induces_cycle(sub, 4):
                walk = [sub[0]]
                while len(walk) < 8:
                    walk.append(
                        next(
                            v
                            for v in sub
                            if v not in walk and naive_adjacent(v, walk[-1], 4)
                        )
                    )
                orders.append(tuple(walk))
            for order in orders:
                ok = oracle_cycle(order, 4)
                assert check_witness(InducedCycle(order), s) == ok
                valid_cycles += ok
    assert valid_claws > 0 and valid_cycles > 0


def test_check_witness_rejects_malformed_at_high_dimension():
    n = 20
    s = VertexSet.from_members([0, 1, 2, 3, 4, 1 << 19], n)
    assert check_witness(Claw(0, (1, 2, 4)), s)
    assert check_witness(Claw(0, (1, 2, 1 << 19)), s)
    assert not check_witness(Claw(0, (1, 2, 8)), s)  # leaf not a member
    assert not check_witness(Claw(0, (1, 2, 1 << n)), s)  # out of range
    assert not check_witness(Claw(0, (1, 2, 3)), s)  # leaf not adjacent to the center
    assert not check_witness(Claw(0, (1, 2, "4")), s)  # not a label
    assert check_witness(InducedCycle((0, 1, 3, 2)), s)
    assert not check_witness(InducedCycle((0, 1, 5, 4)), s)  # 5 is not a member
    assert not check_witness(InducedCycle((0, 1, 2, 3)), s)  # 1-2 not adjacent


def seeded_dense_set(n, seed):
    """A seeded subset of exactly 2^(n-1) + 1 vertices, built in O(2^n)."""
    rng = random.Random(seed)
    buf = bytearray(rng.getrandbits(1 << n).to_bytes(1 << (n - 3), "little"))
    target = required_size(n)
    count = int.from_bytes(buf, "little").bit_count()
    while count != target:
        v = rng.randrange(1 << n)
        byte, bit = v >> 3, 1 << (v & 7)
        if count > target and buf[byte] & bit:
            buf[byte] ^= bit
            count -= 1
        elif count < target and not buf[byte] & bit:
            buf[byte] |= bit
            count += 1
    return VertexSet(n, int.from_bytes(buf, "little"))


def reference_descent(s):
    """The descent spelled out with the public bit layer: ``split`` on
    coordinate 1 at every level, keep the larger side (ties to side 0),
    solve Q_4 by brute force, then ``embed`` each witness vertex back up
    one level at a time."""
    steps = []
    current = s
    while current.dim > 4:
        sides = split(current, 1)
        chosen = 0 if len(sides[0]) >= len(sides[1]) else 1
        steps.append(
            {
                "dim": current.dim,
                "split_coord": 1,
                "chosen_side": chosen,
                "side_cardinalities": [len(sides[0]), len(sides[1])],
            }
        )
        current = sides[chosen]
    w = find_theorem_witness(current)
    for step in reversed(steps):
        d, bit = step["dim"] - 1, step["chosen_side"]
        up = lambda v: embed(VertexSet(d, 1 << v), 1, bit).members()[0]
        if isinstance(w, Claw):
            w = Claw(up(w.center), tuple(map(up, w.leaves)))
        else:
            w = InducedCycle(tuple(map(up, w.vertices)))
    return w, {"steps": steps, "base": "brute-force"}


def tied_set(n, base):
    """``base``, a Q_4 mask, times all of Q_(n-4) in the low coordinates:
    both sides of every split hold the same count."""
    block = (1 << (1 << (n - 4))) - 1
    return VertexSet(n, sum(block << (t << (n - 4)) for t in range(16) if base >> t & 1))


def test_descent_matches_the_split_and_embed_reference():
    cases = []
    for n in range(5, 17):
        cases += [seeded_dense_set(n, seed) for seed in (n, 100 + n, 200 + n)]
        tied_top = seeded_dense_set(n - 1, 300 + n)
        cases.append(VertexSet(n, embed(tied_top, 1, 0).mask | embed(tied_top, 1, 1).mask))
        cases.append(tied_set(n, 0x5557))
        cases.append(tied_set(n, 0xAAAB))
    ties = sides1 = 0
    for s in cases:
        w, trace = find_witness_inductive(s)
        ref_w, ref_trace = reference_descent(s)
        assert (w, trace.to_dict()) == (ref_w, ref_trace), s.dim
        assert check_witness(w, s)
        for step in ref_trace["steps"]:
            a, b = step["side_cardinalities"]
            ties += a == b
            sides1 += step["chosen_side"]
    assert ties > 100 and sides1 > 100  # both tie-breaks and side-1 steps were compared


def test_warm_descent_builds_no_block_mask(monkeypatch):
    monkeypatch.setattr(hypercube, "_block_masks", {})
    built = []
    build = hypercube._build_block_mask
    monkeypatch.setattr(
        hypercube,
        "_build_block_mask",
        lambda nbits, block: built.append((nbits, block)) or build(nbits, block),
    )
    s = seeded_dense_set(12, 12)
    first = find_witness_inductive(s)
    assert built  # the cold descent builds its masks
    built.clear()
    assert find_witness_inductive(s) == first
    assert built == []


def test_block_mask_cache_stops_at_its_width(monkeypatch):
    monkeypatch.setattr(hypercube, "_block_masks", {})
    find_witness_inductive(seeded_dense_set(20, 20))
    widths = {nbits for nbits, _ in hypercube._block_masks}
    assert max(widths) == hypercube._BLOCK_MASK_CACHE_BITS == 1 << 16
    assert len(hypercube._block_masks) == sum(range(5, 17))  # every split from Q_16 down


def test_orbit_and_canonical_form_work_on_the_mask(monkeypatch):
    rng = random.Random(41)
    cases = [VertexSet(n, rng.randrange(1 << (1 << n))) for n in range(1, 7)]
    expected = [(sorted(hypercube._orbit(s)), hypercube.canonical_form(s)) for s in cases]

    def no_members(self):
        raise AssertionError("a whole-set operation listed the members")

    monkeypatch.setattr(VertexSet, "members", no_members)
    for s, (orbit, canon) in zip(cases, expected):
        assert sorted(hypercube._orbit(s)) == orbit
        assert hypercube.canonical_form(s) == canon
    for n in range(1, 7):  # a single vertex maps to every vertex, n! times each
        assert sorted(hypercube._orbit(VertexSet(n, 1 << (n - 1)))) == sorted(
            1 << v for v in range(1 << n) for _ in range(math.factorial(n))
        )
        assert hypercube.canonical_form(VertexSet(n, 1 << (n - 1))) == VertexSet(n, 1)


def test_half_subsets_are_the_embedding():
    for size in range(9):
        for side in (0, 1):
            expected = [embed(VertexSet(3, p), 1, side).mask for p in _subsets(size, 8)]
            assert _half_subsets(size, side) == expected


def test_acceptance_extraction_at_dim_cap():
    n = DIM_CAP
    s = seeded_dense_set(n, 2024)
    assert len(s) == required_size(n)
    start = time.perf_counter()
    w, trace = find_witness_inductive(s)
    elapsed = time.perf_counter() - start
    assert check_witness(w, s)
    assert [st.dim for st in trace.steps] == list(range(n, 4, -1))
    size = len(s)
    for st in trace.steps:
        assert sum(st.side_cardinalities) == size
        size = st.side_cardinalities[st.chosen_side]
        assert size >= required_size(st.dim - 1)
    assert elapsed < 10.0, f"extraction at n = {n} took {elapsed:.1f} s"


def test_cli_witness_from_wide_hex_file(tmp_path, capsys):
    n = 20
    s = seeded_dense_set(n, 7)
    set_file = tmp_path / "set.hex"
    set_file.write_text(s.to_hex() + "\n")
    code = main(["witness", "--n", str(n), "--set-file", str(set_file), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    kind, *tokens = doc["witness"].split()
    vertices = [vertex_from_text(tok, n) for tok in tokens]
    w = Claw(vertices[0], tuple(vertices[1:])) if kind == "claw" else InducedCycle(tuple(vertices))
    assert check_witness(w, s)
    assert len(doc["trace"]["steps"]) == n - 4
