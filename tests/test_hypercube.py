"""Core cube representation: the neighbor table, vertex text forms, vertex
sets, splits and embeds, the automorphism orbit and canonical forms."""

import random

import pytest

from cubeclaw.errors import SetParseError
from cubeclaw.hypercube import (
    VertexSet,
    _orbit,
    canonical_form,
    check_vertex,
    embed,
    hex_width,
    neighbor_masks,
    set_from_hex,
    split,
    vertex_from_text,
    vertex_to_text,
)
from oracles import automorphic_image, induced_edges, naive_adjacent


def test_adjacent_examples():
    assert neighbor_masks(4)[0b0000] >> 0b0001 & 1
    assert not neighbor_masks(4)[0b0000] & 1
    assert not neighbor_masks(3)[0b000] >> 0b111 & 1  # antipodal pair


def test_check_vertex_rejects_bad_vertices():
    with pytest.raises(ValueError):
        check_vertex(8, 3)
    with pytest.raises(ValueError):
        check_vertex(-1, 3)
    with pytest.raises(ValueError):
        VertexSet(4, 0xFFFF).remove(16)
    with pytest.raises(ValueError):
        vertex_to_text(16, 4)
    with pytest.raises(ValueError):
        neighbor_masks(0)


def test_neighbors_examples():
    assert VertexSet(3, neighbor_masks(3)[0b000]).members() == [1, 2, 4]
    assert VertexSet(3, neighbor_masks(3)[0b111]).members() == [3, 5, 6]
    # label 10 = coordinates (0,1,0,1); flips give 11, 8, 14, 2
    assert VertexSet(4, neighbor_masks(4)[10]).members() == [2, 8, 11, 14]


def test_neighbors_against_oracle():
    rng = random.Random(101)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            v = rng.randrange(1 << n)
            got = VertexSet(n, neighbor_masks(n)[v]).members()
            expect = sorted(u for u in range(1 << n) if naive_adjacent(u, v, n))
            assert got == expect
            assert len(got) == n


def test_adjacency_symmetric_irreflexive_parity():
    nbr = neighbor_masks(4)
    for u in range(16):
        assert not nbr[u] >> u & 1
        for v in range(16):
            if nbr[u] >> v & 1:
                assert nbr[v] >> u & 1
                assert bin(u).count("1") % 2 != bin(v).count("1") % 2


def test_two_neighbors_of_a_vertex_are_never_adjacent():
    nbr = neighbor_masks(4)
    for v in range(16):
        hood = VertexSet(4, nbr[v]).members()
        for i, a in enumerate(hood):
            for b in hood[i + 1 :]:
                assert not nbr[a] >> b & 1
                assert bin(a ^ b).count("1") == 2


def test_coordinate_one_is_least_significant_bit():
    assert vertex_to_text(1, 4) == "1000"
    assert vertex_from_text("1000", 4) == 1
    assert vertex_to_text(8, 4) == "0001"


def test_vertex_text_round_trip():
    rng = random.Random(7)
    for n in (1, 2, 4, 7):
        for _ in range(30):
            v = rng.randrange(1 << n)
            assert vertex_from_text(vertex_to_text(v, n), n) == v


def test_vertex_text_rejects_garbage():
    with pytest.raises(SetParseError):
        vertex_from_text("01", 3)
    # int(..., 2) would take every token here but "015"; each is rejected
    # at its first bad character
    arabic_101 = "\u0661\u0660\u0661"
    for text, column in (("015", 3), ("1_0", 2), (" 01", 1), ("01 ", 3), (arabic_101, 1)):
        with pytest.raises(SetParseError) as exc:
            vertex_from_text(text, 3)
        assert exc.value.column == column, text
        assert exc.value.message.startswith(f"bad character {text[column - 1]!r}"), text


def test_vertexset_basics():
    s = VertexSet.from_members([3, 0, 5], 3)
    assert len(s) == 3
    assert s.members() == [0, 3, 5]
    assert 3 in s and 1 not in s and 8 not in s
    assert 3.0 not in s and 1.0 not in s and None not in s and "3" not in s
    assert s.remove(3).members() == [0, 5]
    assert s.remove(1) == s
    assert VertexSet(3, 0xFF).remove(0).members() == [1, 2, 3, 4, 5, 6, 7]


def test_vertexset_validation():
    with pytest.raises(ValueError):
        VertexSet(3, 1 << 8)
    with pytest.raises(ValueError):
        VertexSet(0, 0)
    with pytest.raises(ValueError):
        VertexSet(25, 0)
    with pytest.raises(ValueError):
        VertexSet.from_members([8], 3)
    # only an int is a dimension, mask or vertex: not a bool, not a float
    for dim, mask in ((True, 1), (3.0, 1), (3, True), (3, 1.0)):
        with pytest.raises(ValueError):
            VertexSet(dim, mask)
    for members, dim in (([True], 3), ([1.0], 3), ([1], True)):
        with pytest.raises(ValueError):
            VertexSet.from_members(members, dim)


def test_hex_text_forms():
    assert hex_width(4) == 4
    assert hex_width(3) == 2
    s = set_from_hex("00F0", 4)
    assert s.members() == [4, 5, 6, 7]
    assert s.to_hex() == "00F0"
    assert set_from_hex("0x00F0", 4) == s
    with pytest.raises(SetParseError):
        set_from_hex("F0", 4)  # wrong width
    with pytest.raises(SetParseError):
        set_from_hex("00G0", 4)  # bad digit


def test_split_full_cube():
    side0, side1 = split(VertexSet(4, 0xFFFF), 1)
    assert side0 == VertexSet(3, 0xFF)
    assert side1 == VertexSet(3, 0xFF)


def test_split_relabels_by_bit_deletion():
    # {0, 1, 15} on coordinate 1: coordinate-0 side {0} -> {0};
    # coordinate-1 side {1, 15} -> {0, 7}
    s = VertexSet.from_members([0, 1, 15], 4)
    side0, side1 = split(s, 1)
    assert side0.members() == [0]
    assert side1.members() == [0, 7]
    assert embed(side0, 1, 0).mask | embed(side1, 1, 1).mask == s.mask


def test_split_empty_and_errors():
    assert split(VertexSet(4, 0), 2) == (VertexSet(3, 0), VertexSet(3, 0))
    with pytest.raises(ValueError):
        split(VertexSet(4, 0), 0)
    with pytest.raises(ValueError):
        split(VertexSet(4, 0), 5)
    with pytest.raises(ValueError):
        split(VertexSet(1, 0), 1)
    for coord in (1.0, True):
        with pytest.raises(ValueError, match="coordinate"):
            split(VertexSet(4, 0), coord)


def test_embed_examples():
    assert embed(VertexSet.from_members([0, 1], 2), 1, 0).members() == [0, 2]
    assert embed(VertexSet(2, 0), 2, 1) == VertexSet(3, 0)
    # the full Q_3 into the coordinate-1 = 1 half of Q_4: the odd labels
    assert embed(VertexSet(3, 0xFF), 1, 1).mask == 0xAAAA
    with pytest.raises(ValueError):
        embed(VertexSet(3, 0), 5, 0)
    with pytest.raises(ValueError):
        embed(VertexSet(3, 0), 1, 2)
    for coord, bit in ((1.0, 0), (True, 0), (1, 1.0), (1, True)):
        with pytest.raises(ValueError):
            embed(VertexSet(3, 0), coord, bit)


def test_embed_inverts_split():
    s = VertexSet.from_members([0, 1], 2)
    for coord in (1, 2, 3):
        assert split(embed(s, coord, 0), coord) == (s, VertexSet(2, 0))
        assert split(embed(s, coord, 1), coord) == (VertexSet(2, 0), s)


def test_split_embed_round_trip_random():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.choice((2, 3, 4, 5, 6))
        mask = rng.randrange(1 << (1 << n))
        s = VertexSet(n, mask)
        for coord in range(1, n + 1):
            side0, side1 = split(s, coord)
            assert len(side0) + len(side1) == len(s)
            back0, back1 = embed(side0, coord, 0), embed(side1, coord, 1)
            assert back0.mask & back1.mask == 0
            assert back0.mask | back1.mask == s.mask


def test_embed_preserves_adjacency():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        u, v = rng.randrange(1 << n), rng.randrange(1 << n)
        coord, bit = rng.randint(1, n + 1), rng.randint(0, 1)
        [eu] = embed(VertexSet(n, 1 << u), coord, bit).members()
        [ev] = embed(VertexSet(n, 1 << v), coord, bit).members()
        assert naive_adjacent(u, v, n) == naive_adjacent(eu, ev, n + 1)


def test_automorphism_examples():
    # the orbit of one edge of Q_3 is all 12 edges
    edges = {1 << u | 1 << v for u, v in induced_edges(range(8), 3)}
    assert len(edges) == 12
    assert set(_orbit(VertexSet.from_members([0, 1], 3))) == edges


def test_automorphism_preserves_adjacency():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        u, v = rng.sample(range(1 << n), 2)
        for img in set(_orbit(VertexSet.from_members([u, v], n))):
            a, b = VertexSet(n, img).members()
            assert naive_adjacent(u, v, n) == naive_adjacent(a, b, n)


def test_automorphism_preserves_cardinality_and_edges():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.choice((3, 4))
        nbr = neighbor_masks(n)
        s = VertexSet(n, rng.randrange(1 << (1 << n)))
        edges = lambda mask: sum((nbr[x] & mask).bit_count() for x in VertexSet(n, mask))
        for img in set(_orbit(s)):
            assert img.bit_count() == len(s)
            assert edges(img) == edges(s.mask)


def test_canonical_form_examples():
    assert canonical_form(VertexSet(3, 0)) == VertexSet(3, 0)
    assert canonical_form(VertexSet.from_members([7], 3)).members() == [0]
    c6a = VertexSet(3, 0xFF).remove(0).remove(7)
    c6b = VertexSet(3, 0xFF).remove(1).remove(6)
    assert canonical_form(c6a) == canonical_form(c6b)


def test_canonical_form_idempotent_and_invariant():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.choice((2, 3, 4, 5))
        s = VertexSet(n, rng.randrange(1 << (1 << n)))
        canon = canonical_form(s)
        assert canonical_form(canon) == canon
        perm = list(range(n))
        rng.shuffle(perm)
        image = automorphic_image(s.members(), n, perm, rng.randrange(1 << n))
        assert canonical_form(VertexSet.from_members(image, n)) == canon


def test_canonical_form_rejects_large_dims():
    with pytest.raises(ValueError):
        canonical_form(VertexSet(7, 0))
