"""The half-cube cap and the join step of the extremal search, and orbit
marking in the symmetry-reduced theorem check."""

import math
import random
from collections import Counter
from itertools import permutations

import pytest

import cubeclaw.verify as verify_mod
from cubeclaw.errors import TheoremViolationError
from cubeclaw.hypercube import VertexSet, _orbit, canonical_form, neighbor_masks, set_from_hex
from cubeclaw.verify import (
    ExtremalResult,
    _join_cut,
    extremal_search,
    gosper_next,
    verify_theorem_exhaustive,
)
from oracles import automorphic_image, claw_exists, induced_cycle_exists, join_verdict


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


def test_search_trees_below_the_supported_range():
    # (4, 4) and (4, 6) are outside extremal_search's range; (5, 6) raises
    # best_size from 15 to 16, so include children re-test inherited bounds
    kinds = ("claw_degree", "closed_cycle", "count_bound", "half_cap")
    for n, k, size, cert, nodes, cap, prunes in [
        (4, 4, 9, "1EE6", 3918, 6, (1120, 21, 1152, 235)),
        (4, 6, 9, "1EE6", 659, 5, (186, 4, 14, 219)),
        (5, 6, 16, "0FF0F00F", 203127, 9, (80996, 144, 11358, 49635)),
    ]:
        result = verify_mod._max_free(n, k)
        assert (result.max_size, result.certificate.to_hex()) == (size, cert)
        assert (result.nodes_explored, result.half_cap) == (nodes, cap)
        assert result.metrics["prunes"] == dict(zip(kinds, prunes))


def test_half_cap_slack_test_equals_the_clamped_sum():
    # once total > best, min(side0, cap) + min(side1, cap) <= best holds
    # exactly when 2 * cap <= best or one side is at most best - cap
    for cap in range(17):
        for best in range(33):
            slack = best - cap
            for total in range(best + 1, 34):
                for side1 in range(total + 1):
                    side0 = total - side1
                    clamped = min(side0, cap) + min(side1, cap) <= best
                    assert clamped == (slack >= cap or side1 <= slack or side0 <= slack)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_half_cap_is_the_search_one_dimension_down(n):
    # each half of Q_1 is one vertex: the induction starts at f(0) = 1
    below = extremal_search(n - 1).max_size if n > 1 else 1
    assert extremal_search(n).half_cap == below


def test_half_cap_comes_from_the_recursion(monkeypatch):
    real = verify_mod._max_free

    def one_short(n, k):
        r = real(n, k)
        if n != 4:
            return r
        return ExtremalResult(
            r.dim, r.forbidden, r.max_size - 1, r.certificate, r.nodes_explored, r.half_cap, r.metrics
        )

    monkeypatch.setattr(verify_mod, "_max_free", one_short)
    # an empty table, so that the n = 4 cap is derived through one_short
    monkeypatch.setattr(verify_mod, "_MAXIMA", {})
    # two halves of at most 7 cannot beat the seed bound of 15, and the
    # search finds no certificate for it
    with pytest.raises(TheoremViolationError, match="size 15 under half cap 7"):
        extremal_search(5)


def test_each_maximum_is_searched_once_per_process(monkeypatch):
    # after extremal_search(4) the n = 5 search reads f(4) from the table:
    # one search where an empty table takes five, and the same result
    monkeypatch.setattr(verify_mod, "_MAXIMA", {})
    real = verify_mod._max_free
    searched = []

    def counted(n, k):
        searched.append(n)
        return real(n, k)

    monkeypatch.setattr(verify_mod, "_max_free", counted)
    extremal_search(4)
    assert searched == [4, 3, 2, 1]
    assert verify_mod._MAXIMA == {(1, 8): 2, (2, 8): 4, (3, 8): 6, (4, 8): 8}
    searched.clear()
    r5 = extremal_search(5)
    assert searched == [5]
    monkeypatch.setattr(verify_mod, "_MAXIMA", {})
    searched.clear()
    fresh = extremal_search(5)
    assert searched == [5, 4, 3, 2, 1]
    # equal in every field: max_size, certificate, nodes, half_cap, metrics
    assert fresh == r5


def test_a_failed_self_check_enters_no_maximum(monkeypatch):
    monkeypatch.setattr(verify_mod, "_MAXIMA", {})
    extremal_search(3)
    before = dict(verify_mod._MAXIMA)
    # the self-check finds a claw in every certificate, so the n = 4 search
    # raises and enters nothing; f(3) and below stay as they were
    claw = verify_mod.claw_at(VertexSet(4, 0x0017), 0)
    monkeypatch.setattr(verify_mod, "find_claw", lambda s: claw)
    with pytest.raises(TheoremViolationError, match="size 8 under half cap 6"):
        extremal_search(4)
    assert verify_mod._MAXIMA == before


def test_half_cap_cuts_the_n5_search():
    result = extremal_search(5)
    assert result.nodes_explored < 100_000
    assert result.metrics["prunes"]["half_cap"] > 0
    assert extremal_search(2).half_cap == 2


def test_join_cut_matches_the_oracle_on_every_free_set_of_q3():
    # every chosen set the contract allows (no claw, no induced C_k) and
    # every non-member: 816, 832 and 840 pairs, 24 of them closing a C4 and
    # 24 a C6; Q_3 has no induced C8
    nbr = neighbor_masks(3)
    for k, pairs, closed in ((4, 816, 24), (6, 832, 24), (8, 840, 0)):
        verdicts = Counter()
        for mask in range(256):
            members = [u for u in range(8) if mask >> u & 1]
            if claw_exists(members, 3) or induced_cycle_exists(members, 3, k):
                continue
            for v in range(8):
                if not mask >> v & 1:
                    cut = _join_cut(v, mask, nbr, 3, k)
                    assert cut == join_verdict(members, v, 3, k), (k, mask, v)
                    verdicts[cut] += 1
        assert (verdicts.total(), verdicts["closed_cycle"]) == (pairs, closed)


def test_join_cut_matches_the_oracle_on_grown_sets():
    # free sets of Q_4 (until no vertex can join) and Q_5 (to 12 members)
    # grown one joinable vertex at a time, mostly one touching the set so
    # that chosen paths form; at each step every non-member is tested
    closed = 0
    for n, k, trials, size in (
        (4, 4, 3, 16), (4, 6, 3, 16), (4, 8, 3, 16), (5, 4, 2, 12), (5, 6, 2, 12), (5, 8, 2, 12)
    ):
        rng = random.Random(f"join:{n}:{k}")
        nbr = neighbor_masks(n)
        for _ in range(trials):
            members, mask = [], 0
            while len(members) < size:
                joins = []
                for v in range(1 << n):
                    if not mask >> v & 1:
                        cut = _join_cut(v, mask, nbr, n, k)
                        assert cut == join_verdict(members, v, n, k), (n, k, members, v)
                        closed += cut == "closed_cycle"
                        if cut is None:
                            joins.append(v)
                if not joins:
                    break
                touching = [v for v in joins if nbr[v] & mask]
                v = rng.choice(touching if touching and rng.random() < 0.9 else joins)
                members.append(v)
                mask |= 1 << v
    assert closed > 0


def test_orbit_is_every_automorphic_image():
    # the multiset: every (perm, flips) pair gives one image, repeats kept
    rng = random.Random(23)
    for n in range(1, 6):
        full = (1 << (1 << n)) - 1
        for mask in (0, full, *(rng.randrange(full + 1) for _ in range(3 if n < 5 else 1))):
            s = VertexSet(n, mask)
            images = [
                sum(1 << v for v in automorphic_image(s.members(), n, perm, flips))
                for perm in permutations(range(n))
                for flips in range(1 << n)
            ]
            assert sorted(_orbit(s)) == sorted(images), (n, mask)
            assert canonical_form(s).mask == min(images)


def test_class_facts_are_keyed_by_canonical_forms():
    # one (key, orbit size) fact per class, keyed by its canonical form;
    # the orbits partition the nine-subsets
    stream = list(verify_mod._theorem_class_stream(9))
    assert [failure for failure, _ in stream] == [None] * math.comb(16, 9)
    facts = [fact for _, fact in stream if fact is not None]
    assert len(facts) == len({key for key, _ in facts}) == 56
    for key, orbit_size in facts:
        canon = canonical_form(set_from_hex(key, 4))
        assert canon.to_hex() == key
        assert orbit_size == len(set(_orbit(canon)))
    assert sum(orbit_size for _, orbit_size in facts) == math.comb(16, 9)


def test_symmetry_reduced_and_raw_runs_agree_on_failures(monkeypatch):
    # every subset in the class of 01FF loses its witness; the reduced run
    # names its counterexamples from the mask alone.  The raw run scans for
    # a claw center itself and calls find_theorem_witness only when it
    # finds none, so both detector entry points are patched.
    key = canonical_form(VertexSet(4, 0x1FF))
    bad = set(_orbit(key))
    real = verify_mod.find_theorem_witness
    monkeypatch.setattr(
        verify_mod, "find_theorem_witness", lambda s: None if s.mask in bad else real(s)
    )
    real_center = verify_mod.claw_center
    monkeypatch.setattr(
        verify_mod,
        "claw_center",
        lambda mask, among, dim: None if mask in bad else real_center(mask, among, dim),
    )
    raw = verify_theorem_exhaustive(4, 9)
    reduced = verify_theorem_exhaustive(4, 9, symmetry_reduced=True)
    assert raw.failed == reduced.failed == len(bad)
    assert raw.counterexamples == reduced.counterexamples
    assert len(raw.counterexamples) == verify_mod.COUNTEREXAMPLE_CAP
    assert raw.counterexamples[0] == "01FF"
    assert raw.deterministic_digest == reduced.deterministic_digest


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
