"""The half-cube cap of the extremal search, and orbit marking in the
symmetry-reduced theorem check."""

import math
from dataclasses import replace
from itertools import permutations

import pytest

import cubeclaw.verify as verify_mod
from cubeclaw.errors import TheoremViolationError
from cubeclaw.hypercube import VertexSet, _orbit, canonical_form
from cubeclaw.verify import (
    _run_chunk,
    _theorem_chunk,
    extremal_search,
    gosper_next,
    unrank_subset,
    verify_theorem_exhaustive,
)
from oracles import automorphic_image, claw_exists, induced_cycle_exists
from test_shared_helpers import InlinePool


def test_extremal_certificates_and_oracle_check():
    assert extremal_search(3, ("claw", "C6")).certificate.to_hex() == "3D"
    assert extremal_search(4).certificate.to_hex() == "07BC"
    r5 = extremal_search(5)
    assert (r5.max_size, r5.certificate.to_hex()) == (16, "0FF0F00F")
    members = r5.certificate.members()
    assert not claw_exists(members, 5)
    assert not induced_cycle_exists(members, 5, 8)
    # the exact search: nodes and prunes (claw degree, closed cycle, count
    # bound, half cap).  In Q_3 a closed C6 is allowed while C8 is forbidden.
    r3 = extremal_search(3)
    assert (r3.max_size, r3.certificate.to_hex()) == (6, "7E")
    kinds = ("claw_degree", "closed_cycle", "count_bound", "half_cap")
    for n, cycle, nodes, prunes in [
        (3, "C6", 139, (22, 4, 55, 0)),
        (3, "C8", 109, (16, 0, 44, 0)),
        (4, "C8", 9093, (2696, 124, 2981, 155)),
        (5, "C8", 2263, (768, 8, 4, 739)),
    ]:
        result = extremal_search(n, ("claw", cycle))
        assert result.nodes_explored == nodes
        assert result.metrics["prunes"] == dict(zip(kinds, prunes))


@pytest.mark.parametrize("n", [4, 5])
def test_half_cap_is_the_search_one_dimension_down(n):
    assert extremal_search(n).half_cap == extremal_search(n - 1).max_size


def test_half_cap_comes_from_the_recursion(monkeypatch):
    real = verify_mod._max_free

    def one_short(n, k):
        result = real(n, k)
        return replace(result, max_size=result.max_size - 1) if n == 4 else result

    monkeypatch.setattr(verify_mod, "_max_free", one_short)
    # two halves of at most 7 cannot beat the seed bound of 15, and the
    # search finds no certificate for it
    with pytest.raises(TheoremViolationError, match="size 15 under half cap 7"):
        extremal_search(5)


def test_half_cap_cuts_the_n5_search():
    result = extremal_search(5)
    assert result.nodes_explored < 100_000
    assert result.metrics["prunes"]["half_cap"] > 0
    assert extremal_search(2).half_cap is None


def test_orbit_is_every_automorphic_image():
    s = VertexSet.from_members([0, 1, 3, 6], 3)
    images = {
        sum(1 << v for v in automorphic_image(s.members(), 3, perm, flips))
        for perm in permutations(range(3))
        for flips in range(8)
    }
    assert len(_orbit(s)) == 48 and set(_orbit(s)) == images
    assert canonical_form(s).mask == min(images)


def test_symmetry_reduced_split_across_two_workers(monkeypatch):
    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    InlinePool.requested = []
    raw = verify_theorem_exhaustive(4, 9)
    reduced = verify_theorem_exhaustive(4, 9, workers=2, symmetry_reduced=True)
    assert InlinePool.requested == [2]
    assert reduced.deterministic_digest == raw.deterministic_digest
    assert reduced.details == {"distinct_classes": 56, "orbit_accounting_total": 11440}


def test_mid_orbit_chunk_keys_are_canonical_forms():
    start, stop = math.comb(16, 9) // 2, math.comb(16, 9) // 2 + 60
    _, passed, _, details = _run_chunk(_theorem_chunk, (9, True), start, stop)
    assert passed == stop - start
    mask = unrank_subset(start, 9, 16)
    expected = {}
    for _ in range(start, stop):
        canon = canonical_form(VertexSet(4, mask))
        expected[canon.to_hex()] = len(set(_orbit(canon)))
        mask = gosper_next(mask)
    # one pair per class the chunk meets, keyed by its canonical form
    assert len(details["class_orbits"]) == len(expected)
    assert dict(details["class_orbits"]) == expected


def test_orbit_accounting_catches_a_foreign_image(monkeypatch):
    # each class's orbit also names the nine-subset after its key, which
    # for most classes lies in another class
    real = verify_mod._orbit
    monkeypatch.setattr(
        verify_mod, "_orbit", lambda s: [*(orbit := real(s)), gosper_next(min(orbit))]
    )
    report = verify_theorem_exhaustive(4, 9, symmetry_reduced=True)
    assert report.details["distinct_classes"] == 56
    assert report.details["orbit_accounting_total"] != report.universe_size
