"""Exhaustive checks, case-claim reports, extremal search, random harness."""

import math
import random
from itertools import combinations

import pytest

from cubeclaw.detect import (
    Claw,
    check_witness,
    classify_five_set,
    find_claw,
    find_induced_cycle,
)
from cubeclaw.hypercube import VertexSet
from cubeclaw.verify import (
    extremal_search,
    gosper_next,
    _subsets,
    _trial_subset,
    random_agreement_test,
    unrank_subset,
    verify_case_claims,
    verify_proposition_exhaustive,
    verify_theorem_exhaustive,
)
from cubeclaw.witness import resolve_five_four
from oracles import binomial, claw_exists, induces_cycle, shuffle_prefix


def test_unranking_matches_gosper_enumeration():
    for universe, size in ((8, 3), (8, 6), (10, 5)):
        total = math.comb(universe, size)
        gosper = [unrank_subset(0, size, universe)]
        for index in range(total):
            assert unrank_subset(index, size, universe) == gosper[-1]
            gosper.append(gosper_next(gosper[-1]))
        a, b = total // 3, 2 * total // 3
        chunks = [list(_subsets(size, universe, lo, hi)) for lo, hi in ((0, a), (a, b), (b, total))]
        assert sum(chunks, []) == gosper[:total]
    assert unrank_subset(0, 9, 16) == (1 << 9) - 1
    assert unrank_subset(math.comb(16, 9) - 1, 9, 16) == 0b1111111110000000
    with pytest.raises(ValueError):
        unrank_subset(math.comb(8, 3), 3, 8)


def test_theorem_exhaustive_trivial_sizes():
    r = verify_theorem_exhaustive(4, 16)
    assert (r.universe_size, r.passed, r.failed) == (1, 1, 0)
    r = verify_theorem_exhaustive(4, 15)
    assert (r.universe_size, r.failed) == (16, 0)


def test_theorem_exhaustive_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_theorem_exhaustive(5, 17)
    with pytest.raises(ValueError):
        verify_theorem_exhaustive(4, 8)
    with pytest.raises(ValueError):
        verify_theorem_exhaustive(4, 9, workers=0)


def test_theorem_exhaustive_digest_stable_across_workers():
    base = verify_theorem_exhaustive(4, 9, workers=1)
    assert base.failed == 0
    par = verify_theorem_exhaustive(4, 9, workers=2)
    assert par.deterministic_digest == base.deterministic_digest
    assert (par.passed, par.failed) == (base.passed, base.failed)


def test_theorem_exhaustive_symmetry_reduced_cross_check():
    raw = verify_theorem_exhaustive(4, 14)
    reduced = verify_theorem_exhaustive(4, 14, symmetry_reduced=True)
    assert reduced.deterministic_digest == raw.deterministic_digest
    assert reduced.details["orbit_accounting_total"] == reduced.universe_size
    assert 1 <= reduced.details["distinct_classes"] < reduced.universe_size


def test_proposition_golden_classification():
    # golden values pinned from the first trusted run of
    # `cubeclaw verify-proposition --format json`, re-derived here against
    # the naive oracles
    report = verify_proposition_exhaustive()
    assert report.universe_size == binomial(8, 6) == 28
    assert report.failed == 0
    assert report.details["claw_only"] == 24
    assert report.details["claw_and_cycle"] == 0
    assert report.details["neither"] == 0
    assert report.details["cycle_only"] == 4
    antipodal_complements = sorted(
        VertexSet(3, 0xFF).remove(x).remove(7 - x).to_hex() for x in range(4)
    )
    assert sorted(report.details["cycle_only_masks"]) == antipodal_complements


def test_proposition_agrees_with_oracle_per_subset():
    for six in combinations(range(8), 6):
        s = VertexSet.from_members(six, 3)
        assert claw_exists(six, 3) == (find_claw(s) is not None)


def test_case_claims_golden_counts():
    c1, c2, c3, c4s, c4a, c4o = verify_case_claims("all")
    assert (c1.universe_size, c1.failed) == (8, 0)
    assert (c2.universe_size, c2.failed) == (8 * 28, 0)
    assert c2.details["subcube_only_failures"] == 0
    assert (c3.universe_size, c3.failed) == (28 * 56, 0)
    assert c3.details["subcube_only_failures"] == 224  # the four chordless halves x 56
    assert (c4s.universe_size, c4s.failed) == (56, 0)
    assert c4s.details["p5_placements"] == 24
    assert (c4a.universe_size, c4a.failed) == (24, 0)
    assert c4a.details["admissible_counts"] == [5] * 24
    assert (c4o.universe_size, c4o.failed) == (120, 0)
    assert c4o.details["per_placement_split"] == [[4, 1]] * 24
    assert c4o.details["all_split_4_to_1"] is True


def test_case_claims_single_case_and_validation():
    (only,) = verify_case_claims(1)
    assert only.check_name.startswith("case1")
    with pytest.raises(ValueError):
        verify_case_claims(5)


def test_case_claims_digests_stable_across_workers():
    seq = verify_case_claims("all", workers=1)
    par = verify_case_claims("all", workers=3)
    assert [r.deterministic_digest for r in seq] == [r.deterministic_digest for r in par]
    assert [r.details.get("per_placement_split") for r in seq] == [
        r.details.get("per_placement_split") for r in par
    ]


def test_case_four_outcomes_are_validated(monkeypatch):
    def invalid_claw(full, small):
        v = min(small.members())
        return Claw(v, (v, v, v)), None

    def cycle_keeps_z(full, small):
        w, z = resolve_five_four(full, small)
        return w, None if z is None else w.vertices[0]

    # a failed outcome counts in neither slot of the claw/cycle split
    for fake, failures, split in ((invalid_claw, 120, [0, 0]), (cycle_keeps_z, 24, [4, 0])):
        monkeypatch.setattr("cubeclaw.verify.resolve_five_four", fake)
        report = verify_case_claims(4)[2]
        assert (report.universe_size, report.failed) == (120, failures)
        assert len(report.counterexamples) == 16
        assert report.details["per_placement_split"] == [split] * 24
        assert report.details["all_split_4_to_1"] is False


def test_case_claims_classify_each_five_placement_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.mask)
        return classify_five_set(s)

    monkeypatch.setattr("cubeclaw.verify.classify_five_set", counting)
    verify_case_claims("all")
    assert len(calls) == len(set(calls)) == 56


def oracle_free_masks(n, size, cycle_len):
    """All structure-free size-subsets as masks, via the naive oracles."""
    out = []
    for sub in combinations(range(1 << n), size):
        if claw_exists(sub, n):
            continue
        has_cycle = any(
            induces_cycle(c, n) for c in combinations(sub, cycle_len)
        )
        if not has_cycle:
            mask = 0
            for v in sub:
                mask |= 1 << v
            out.append(mask)
    return out


def test_extremal_q3_claw_c6():
    result = extremal_search(3, ("claw", "C6"))
    assert result.max_size == 5
    assert len(result.certificate) == 5
    assert find_claw(result.certificate) is None
    assert result.nodes_explored > 0
    free = oracle_free_masks(3, 5, 6)
    assert result.certificate.mask == min(free)  # least mask among maxima
    assert not oracle_free_masks(3, 6, 6)


def test_extremal_q4_claw_c8():
    result = extremal_search(4)
    assert result.max_size == 8
    cert = result.certificate
    assert len(cert) == 8
    assert find_claw(cert) is None
    assert find_induced_cycle(cert, 8) is None
    free = oracle_free_masks(4, 8, 8)
    assert cert.mask == min(free)
    # determinism
    again = extremal_search(4)
    assert (again.max_size, again.certificate, again.nodes_explored) == (
        result.max_size,
        result.certificate,
        result.nodes_explored,
    )


def test_extremal_validation():
    with pytest.raises(ValueError):
        extremal_search(6)
    with pytest.raises(ValueError):
        extremal_search(4, ("claw", "C6"))
    with pytest.raises(ValueError):
        extremal_search(3, ("C6",))
    with pytest.raises(ValueError):
        extremal_search(3, ("claw", "C5"))
    with pytest.raises(ValueError):
        extremal_search(4, ("claw", "claw"))
    with pytest.raises(ValueError):
        extremal_search(4, ("claw", "C08"))


def test_random_agreement_smoke():
    report = random_agreement_test(4, 50, seed=1)
    assert (report.universe_size, report.failed) == (50, 0)
    assert "generator" in report.details
    again = random_agreement_test(4, 50, seed=1, workers=2)
    assert again.deterministic_digest == report.deterministic_digest
    different = random_agreement_test(4, 50, seed=2)
    assert different.deterministic_digest == report.deterministic_digest  # all pass


def test_trial_subset_is_the_full_shuffle_prefix():
    # every trial passes, so the digest cannot tell which sets were drawn;
    # this pins the early-stopped shuffle to Random.shuffle's prefix
    for n in range(4, 13):
        for seed in (0, 1, 7, 42):
            for index in range(30):
                expected = VertexSet.from_members(shuffle_prefix(n, seed, index), n)
                assert _trial_subset(n, seed, index) == expected, (n, seed, index)


def test_random_agreement_validation():
    with pytest.raises(ValueError):
        random_agreement_test(3, 10, 0)
    with pytest.raises(ValueError):
        random_agreement_test(13, 10, 0)
    with pytest.raises(ValueError):
        random_agreement_test(4, 0, 0)


def test_monotonicity_harness():
    rng = random.Random(606)
    for _ in range(200):
        labels = list(range(16))
        rng.shuffle(labels)
        s = VertexSet.from_members(labels[:9], 4)
        from cubeclaw.witness import find_witness_inductive

        w, _ = find_witness_inductive(s)
        extra = rng.sample(labels[9:], rng.randint(0, 7))
        superset = VertexSet.from_members([*s, *extra], 4)
        assert check_witness(w, superset)


def test_runner_failure_reporting():
    # synthetic check: indices divisible by 3 fail; exercises the
    # counterexample cap and first-failure ordering, which the real
    # checks never reach
    import cubeclaw.verify as verify_mod

    def flaky_chunk(params, start, stop):
        for index in range(start, stop):
            ok = index % 3 != 0
            yield ok, None if ok else f"{index:04X}", None

    report = verify_mod._run_check("flaky-check", flaky_chunk, (), 100, workers=1)
    assert report.universe_size == 100
    assert report.passed + report.failed == 100
    assert report.failed == 34
    assert len(report.counterexamples) == 16  # capped, count still exact
    assert report.counterexamples[0] == "0000"  # first failure in order
    assert report.counterexamples == [f"{3 * i:04X}" for i in range(16)]


def test_exhaustive_extremal_consistency():
    assert verify_theorem_exhaustive(4, 9).failed == 0
    result = extremal_search(4)
    assert result.max_size == 8
    even = VertexSet.from_members(
        [v for v in range(16) if bin(v).count("1") % 2 == 0], 4
    )
    assert find_claw(even) is None and find_induced_cycle(even, 8) is None
