"""The helpers each shared fact lives in, and the runner's robustness rules."""

import concurrent.futures
import random
from itertools import combinations

import pytest

import cubeclaw.verify as verify_mod
from cubeclaw.detect import (
    Claw,
    InducedCycle,
    _witness_mask,
    check_witness,
    claw_at,
    claw_center,
    find_theorem_witness,
)
from cubeclaw.errors import TheoremViolationError
from cubeclaw.hypercube import VertexSet, _iter_bits
from cubeclaw.verify import (
    random_agreement_test,
    verify_theorem_exhaustive,
)
from cubeclaw.witness import ExtractionTrace, SplitStep, resolve_five_four
from oracles import classify_five, induces_cycle, naive_adjacent, path_order_of_p5

EVEN_LABELS_Q4 = [v for v in range(16) if v % 2 == 0]
ODD_LABELS_Q4 = [v for v in range(16) if v % 2 == 1]


def test_iter_bits_matches_members_and_naive_scan():
    assert _iter_bits(0) == []
    rng = random.Random(4242)
    for n in range(1, 17):
        for _ in range(3):
            mask = rng.getrandbits(1 << n)
            naive = [v for v in range(1 << n) if (mask >> v) & 1]
            assert _iter_bits(mask) == naive
            assert VertexSet(n, mask).members() == naive


def test_claw_center_under_both_degree_readings():
    # (6,3) split whose larger half induces the chordless 6-cycle: no
    # center counting degrees inside the half, one counting the cross edge
    big = VertexSet.from_members([2, 4, 6, 8, 10, 12], 4).mask
    full = big | VertexSet.from_members([1, 3, 5], 4).mask
    assert claw_center(big, big, 4) is None
    center = claw_center(full, big, 4)
    assert center is not None and (big >> center) & 1


def five_four_pairs():
    """All path placements x admissible choices, from the naive oracles."""
    for five in combinations(EVEN_LABELS_Q4, 5):
        if classify_five(five, 4) != "path_p5":
            continue
        partners = {a ^ 1 for a in path_order_of_p5(five, 4)[1:4]}
        for four in combinations(ODD_LABELS_Q4, 4):
            if not partners & set(four):
                yield sorted(five + four), four


def test_resolve_five_four_on_all_placements():
    pairs = list(five_four_pairs())
    assert len(pairs) == 120
    for full, four in pairs:
        s = VertexSet.from_members(full, 4)
        resolved = resolve_five_four(s, VertexSet.from_members(four, 4))
        assert resolved is not None
        w, z = resolved
        if z is None:
            assert isinstance(w, Claw) and w.center in four
            assert check_witness(w, s)
        else:
            assert isinstance(w, InducedCycle) and len(w.vertices) == 8
            assert check_witness(w, s.remove(z))
            least = next(u for u in full if induces_cycle([x for x in full if x != u], 4))
            assert z == least


def test_random_agreement_records_exception_cause(monkeypatch):
    def boom(s):
        raise TheoremViolationError("injected", s.dim, s.mask)

    monkeypatch.setattr(verify_mod, "find_witness_inductive", boom)
    report = random_agreement_test(4, 3, seed=1, workers=1)
    assert report.failed == 3
    assert report.details["failure_causes"] == {"TheoremViolationError": 3}


def test_random_agreement_raises_other_exceptions(monkeypatch):
    def broken(s):
        raise TypeError("injected")

    monkeypatch.setattr(verify_mod, "find_witness_inductive", broken)
    with pytest.raises(TypeError, match="injected"):
        random_agreement_test(4, 3, seed=1, workers=1)


def test_random_agreement_records_invalid_witness(monkeypatch):
    def bogus(s):
        return Claw(0, (0, 0, 0)), ExtractionTrace((), "brute-force")

    monkeypatch.setattr(verify_mod, "find_witness_inductive", bogus)
    report = random_agreement_test(4, 2, seed=1, workers=1)
    assert report.failed == 2
    assert report.details["failure_causes"] == {"invalid_witness": 2}


def test_random_agreement_records_trace_bound_and_direct_search(monkeypatch):
    # a real witness with a trace whose side sizes do not add up fails the
    # bound; a good extraction at n = 5 still fails if direct search finds none
    real = verify_mod.find_witness_inductive

    def padded(s):
        w, trace = real(s)
        if s.mask & 1:  # vertex 0 drawn: count one vertex too many on side 0
            steps = []
            for st in trace.steps:
                a, b = st.side_cardinalities
                steps.append(SplitStep(st.dim, st.split_coord, st.chosen_side, (a + 1, b)))
            trace = ExtractionTrace(tuple(steps), trace.base)
        return w, trace

    monkeypatch.setattr(verify_mod, "find_witness_inductive", padded)
    monkeypatch.setattr(verify_mod, "find_theorem_witness", lambda s: None)
    drawn = [verify_mod._trial_subset(5, 1, i) for i in range(12)]
    bound = sum(s.mask & 1 for s in drawn)
    assert 0 < bound < 12
    report = random_agreement_test(5, 12, seed=1)
    assert report.details["failure_causes"] == {"trace_bound": bound, "direct_search": 12 - bound}
    assert report.failed == 12
    assert report.counterexamples == [s.to_hex() for s in drawn]


def test_random_agreement_passing_trials_add_no_cause():
    assert "failure_causes" not in random_agreement_test(5, 5, seed=3).details


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs the map in-process and records
    the process count it was asked for and the chunks of calls it was given."""

    requested: list = []
    chunks: list = []

    def __init__(self, max_workers):
        InlinePool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize):
        calls = list(zip(*iterables))
        for lo in range(0, len(calls), chunksize):
            InlinePool.chunks.append((lo, min(lo + chunksize, len(calls))))
        return [fn(*args) for args in calls]


@pytest.fixture
def inline_pool(monkeypatch):
    """Send every multi-worker random-test to a fake pool on 64 CPUs, so
    that the worker count alone bounds it."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)
    InlinePool.requested, InlinePool.chunks = [], []


@pytest.mark.usefixtures("inline_pool")
def test_pool_size_is_bounded_by_cpu_count(monkeypatch):
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    serial = random_agreement_test(4, 28, seed=1)
    wide = random_agreement_test(4, 28, seed=1, workers=11440)
    assert InlinePool.requested == [2]
    assert wide.worker_count == 2
    assert wide.deterministic_digest == serial.deterministic_digest

    # an unknown CPU count is one process: in-process, no pool
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
    InlinePool.requested = []
    none = random_agreement_test(4, 28, seed=1, workers=8)
    assert none.failed == 0 and none.worker_count == 1
    assert InlinePool.requested == []

    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)
    random_agreement_test(4, 28, seed=1, workers=3)
    assert InlinePool.requested == [3]


@pytest.mark.usefixtures("inline_pool")
def test_spans_are_bounded_by_the_universe():
    # far more workers than trials: one chunk, and one process, per trial
    serial = random_agreement_test(4, 28, seed=1)
    wide = random_agreement_test(4, 28, seed=1, workers=10**7)
    assert wide.deterministic_digest == serial.deterministic_digest
    assert wide.worker_count == 28
    assert InlinePool.chunks == [(i, i + 1) for i in range(28)]
    assert InlinePool.requested == [28]
    # an uneven split: chunks of ceil(5 / 4) = 2 trials fill 3 processes
    InlinePool.requested, InlinePool.chunks = [], []
    uneven = random_agreement_test(4, 5, seed=1, workers=4)
    assert InlinePool.chunks == [(0, 2), (2, 4), (4, 5)]
    assert InlinePool.requested == [3] and uneven.worker_count == 3


def _without_run_fields(report):
    return {k: v for k, v in report.to_dict().items() if k not in ("wall_time", "worker_count")}


@pytest.mark.usefixtures("inline_pool")
def test_every_report_is_worker_invariant():
    # random-test is the one check with a worker count: everything but the
    # run's own time and worker count is the same, details included
    serial = random_agreement_test(5, 40, seed=3, workers=1)
    split = random_agreement_test(5, 40, seed=3, workers=3)
    assert InlinePool.chunks == [(0, 14), (14, 28), (28, 40)]
    assert (serial.worker_count, split.worker_count) == (1, 3)
    assert _without_run_fields(split) == _without_run_fields(serial)


def test_a_real_two_process_pool_gives_the_serial_report(monkeypatch):
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 2)
    serial = random_agreement_test(5, 40, seed=3, workers=1)
    split = random_agreement_test(5, 40, seed=3, workers=2)
    assert split.worker_count == 2
    assert _without_run_fields(split) == _without_run_fields(serial)


def test_witness_mask_holds_exactly_the_witness_vertices():
    assert _witness_mask(Claw(0, (1, 2, 4))) == 0b10111
    assert _witness_mask(InducedCycle((0, 1, 3, 2))) == 0b1111


def test_claw_hoods_fix_their_center():
    # the theorem check keys its claws by a center's in-set neighbors: two
    # cube vertices share at most two neighbors, so each of the 16 x (4 + 1)
    # hoods of three or more names one center
    hoods = []
    for center in range(16):
        nbrs = [v for v in range(16) if naive_adjacent(center, v, 4)]
        for k in (3, 4):
            hoods += [sum(1 << v for v in leaves) for leaves in combinations(nbrs, k)]
    assert len(hoods) == len(set(hoods)) == 80


def _q4_subsets(size):
    return list(verify_mod._subsets(size, 16))


def _reject_least_claw(monkeypatch):
    """Patch the theorem check's validator to reject the least 9-subset's
    witness; return that claw."""
    bad = find_theorem_witness(VertexSet(4, 0x1FF))
    real = verify_mod.check_witness
    monkeypatch.setattr(verify_mod, "check_witness", lambda w, s: w != bad and real(w, s))
    return bad


def test_theorem_check_validates_each_subsets_own_witness(monkeypatch):
    # every subset whose detector witness is the rejected claw fails, and
    # no other subset does, whichever subset filled the claw memo
    bad = _reject_least_claw(monkeypatch)
    for size in range(9, 17):
        hits = [m for m in _q4_subsets(size) if find_theorem_witness(VertexSet(4, m)) == bad]
        report = verify_theorem_exhaustive(4, size)
        assert report.failed == len(hits)
        assert report.counterexamples == [VertexSet(4, m).to_hex() for m in hits[:16]]
    assert verify_theorem_exhaustive(4, 9).failed > 16


def test_theorem_check_tests_each_subset_for_the_claw(monkeypatch):
    # a claw with one leaf moved off the set is valid on its own vertices,
    # so only the per-subset membership test can fail it
    def leaf_swapped(s, center):
        claw = claw_at(s, center)
        off = [center ^ 1 << i for i in range(4) if center ^ 1 << i not in s]
        return Claw(center, (off[0], *claw.leaves[1:])) if off else claw

    monkeypatch.setattr(verify_mod, "claw_at", leaf_swapped)
    for size in range(9, 17):
        failing = []
        for m in _q4_subsets(size):
            s = VertexSet(4, m)
            center = claw_center(m, m, 4)
            if center is not None and not check_witness(leaf_swapped(s, center), s):
                failing.append(s.to_hex())
        report = verify_theorem_exhaustive(4, size)
        assert report.failed == len(failing)
        assert report.counterexamples == failing[:16]
        assert bool(failing) == (size < 16)


@pytest.mark.usefixtures("inline_pool")
def test_runner_keeps_enumeration_order_across_spans(monkeypatch):
    # trials fail by the mask they draw; the first chunk (0, 34) holds 13
    # failures, so the 16-entry cap is filled across a chunk boundary
    real = verify_mod.find_witness_inductive

    def every_third_mask(s):
        if s.mask % 3 == 0:
            raise TheoremViolationError("injected", s.dim, s.mask)
        return real(s)

    monkeypatch.setattr(verify_mod, "find_witness_inductive", every_third_mask)
    drawn = [verify_mod._trial_subset(5, 3, i).to_hex() for i in range(100)]
    failing = [label for label in drawn if int(label, 16) % 3 == 0]
    assert len(failing) == 30 and sum(int(label, 16) % 3 == 0 for label in drawn[:34]) == 13
    serial = random_agreement_test(5, 100, seed=3, workers=1)
    split = random_agreement_test(5, 100, seed=3, workers=3)
    assert InlinePool.chunks == [(0, 34), (34, 68), (68, 100)]
    assert split.counterexamples == serial.counterexamples == failing[:16]
    assert split.failed == serial.failed == 30
    assert split.details == serial.details


@pytest.mark.usefixtures("inline_pool")
def test_random_agreement_failures_keep_trial_order(monkeypatch):
    # trials fail by the mask they draw, with two different causes
    real = verify_mod.find_witness_inductive

    def patchy(s):
        if s.mask % 3 == 0:
            raise TheoremViolationError("injected", s.dim, s.mask)
        if s.mask % 3 == 1:
            return Claw(0, (0, 0, 0)), ExtractionTrace((), "brute-force")
        return real(s)

    monkeypatch.setattr(verify_mod, "find_witness_inductive", patchy)
    serial = random_agreement_test(5, 40, seed=3, workers=1)
    split = random_agreement_test(5, 40, seed=3, workers=3)
    causes = serial.details["failure_causes"]
    assert set(causes) == {"TheoremViolationError", "invalid_witness"}
    assert serial.failed == sum(causes.values()) > 16
    assert len(serial.counterexamples) == 16
    assert split.failed == serial.failed
    assert split.counterexamples == serial.counterexamples
    assert split.details["failure_causes"] == causes
