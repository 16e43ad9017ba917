"""Exhaustive certification, case-claim checking, and extremal search.

Every check enumerates a fixed universe of configurations in a canonical
order (subsets in increasing-membership-mask order, composite universes
in mixed-radix order over their parts) and folds the per-configuration
pass/fail stream into a report, whose fields ``_run_check`` sets.  Each
check runs one module-level generator, ``_<check>_stream``, that yields
``(failure, fact)`` per configuration: ``failure`` is the configuration's
hex label if it fails, else None, and ``fact`` is None or one value that
the check folds into its ``details`` dict in place.  A fact holds only
what its run decides; the check adds what its inputs fix.  The case
claims that are a yes/no per Q_4 mask all use ``_claim_stream``.

No Q_4 or Q_3 check enumerates more than C(16,9) = 11440 configurations,
in well under a process-pool start, so they take no worker count and run
in one process.  Only ``random_agreement_test``, whose trials grow with
2^n, takes ``workers``: it runs on min(workers, trials, os.cpu_count())
processes, mapping its trials in order in chunks of ceil(trials /
processes) trials, one per process, so its digest is the same for any
worker count.  A report's ``worker_count`` is the number of processes
that ran it.

The checks:

- ``verify_theorem_exhaustive``: every 9-vertex (or larger) subset of
  Q_4 contains a claw or an induced 8-cycle -- all C(16,9) = 11440 of
  them, the base case the inductive extractor stands on.  Per subset,
  ``_theorem_stream`` validates each claw once per set of its center's 3
  or 4 in-set neighbors, the memo's key (so a claw whose center has all
  four in some subsets is validated twice), as check_witness(w, s) holds
  iff check_witness(w, V(w)) does and s contains V(w); per automorphism
  class, with ``symmetry_reduced``, ``_theorem_class_stream`` marks orbits.
- ``verify_proposition_exhaustive``: every 6-vertex subset of Q_3
  contains a claw or an induced 6-cycle (28 configurations).
- ``verify_case_claims``: the delegated "direct verification" claims of
  the dimension-4 case analysis, split by the cardinalities of the two
  coordinate-1 halves: (8,1), (7,2), (6,3) and (5,4).  The (7,2)/(6,3)
  claw-center claims are checked under both degree readings (neighbors
  inside the half only, versus the whole set including the cross edge);
  the half-only reading demonstrably fails for the chordless-6-cycle
  halves, so the cross-edge reading is the operative one.  The (5,4)
  claims classify each of the 56 even-half five-sets once.  Each of the
  120 (5,4) outcomes of ``witness.resolve_five_four`` counts, as passed
  and in the claw/cycle split, only once ``check_witness`` validates it.
- ``extremal_search``: branch-and-bound proof that the density bound is
  tight -- the largest structure-free subset has exactly half the
  vertices (dimensions 4 and 5); in Q_3 it has 6 vertices with claw and
  C8 forbidden and 5 with claw and C6.  The search at n caps each half
  of a coordinate split at the maximum it finds at n - 1, the paper's
  induction from f(0) = 1 up, and a vertex joins a set only through
  ``_join_cut``; so the n = 5 maximum rests on the half cap f(4) = 8,
  itself derived by the same search once per process.
- ``random_agreement_test``: seeded random cross-validation of the
  inductive extractor against direct search.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from collections import Counter
from functools import lru_cache, partial
from typing import Optional, Union

from .detect import (
    FiveSetKind,
    _path_from,
    _witness_mask,
    check_witness,
    claw_at,
    claw_center,
    classify_five_set,
    find_claw,
    find_induced_cycle,
    find_theorem_witness,
)
from .errors import TheoremViolationError
from .hypercube import VertexSet, _block_mask, _orbit, _Record, _spread_blocks, neighbor_masks
from .witness import _EVEN_HALF_Q4, find_witness_inductive, required_size, resolve_five_four

COUNTEREXAMPLE_CAP = 16

# what fired in a Q_3 six-subset, indexed by 2 * has_claw + has_c6
_PROPOSITION_KINDS = ("neither", "cycle_only", "claw_only", "claw_and_cycle")

# Closed ranges (lo, hi) the checks accept, which the CLI help names too:
# Q_4 subset sizes, random-test dimensions and claw+C8 extremal dimensions.
_THEOREM_SIZES = (9, 16)
_RANDOM_DIMS = (4, 12)
_EXTREMAL_C8_DIMS = (1, 5)
# f(n) without claw and induced C_k, keyed by (n, k): each entry is written
# only once its search's certificate has checked out, and read as a half cap
_MAXIMA: dict[tuple[int, int], int] = {}

RANDOM_GENERATOR_NOTE = (
    "python random.Random (MT19937); trial i reseeded with the string "
    "'<seed>:<i>'; subset = first 2^(n-1)+1 labels of a full shuffle"
)


class VerificationReport(_Record):
    """One check's outcome; the check fills its ``details`` dict in place."""

    __slots__ = (
        "check_name", "universe_size", "passed", "failed", "counterexamples",
        "wall_time", "worker_count", "deterministic_digest", "details",
    )

    def __init__(
        self, check_name: str, universe_size: int, passed: int, failed: int,
        counterexamples: list[str], wall_time: float, worker_count: int,
        deterministic_digest: str, details: Optional[dict] = None,
    ):
        self._set(
            check_name, universe_size, passed, failed, counterexamples, wall_time,
            worker_count, deterministic_digest, {} if details is None else details,
        )

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


class ExtremalResult(_Record):
    """A search's maximum and certificate.  ``half_cap`` is f(n-1), the most a
    structure-free set can hold in one half of a coordinate split; 1 at n = 1,
    whose halves are single vertices.  ``metrics`` holds search counters, outside
    the pinned output: ``prunes`` counts the branches cut by each bound."""

    __slots__ = (
        "dim", "forbidden", "max_size", "certificate", "nodes_explored", "half_cap", "metrics"
    )

    def __init__(
        self, dim: int, forbidden: tuple[str, ...], max_size: int, certificate: VertexSet,
        nodes_explored: int, half_cap: int, metrics: Optional[dict] = None,
    ):
        metrics = {} if metrics is None else metrics
        self._set(dim, forbidden, max_size, certificate, nodes_explored, half_cap, metrics)

    def to_dict(self) -> dict:
        fields = dict(zip(self.__slots__, self._values()))
        return {**fields, "forbidden": list(self.forbidden), "certificate": self.certificate.to_hex()}


# ---------------------------------------------------------------------------
# subset enumeration: increasing-mask order, by byte pairs, and unranking
# ---------------------------------------------------------------------------


def gosper_next(mask: int) -> int:
    """Next same-popcount mask in increasing numeric order."""
    low = mask & -mask
    up = mask + low
    return up | (((mask ^ up) >> 2) // low)


def unrank_subset(index: int, size: int, universe: int) -> int:
    """The index-th ``size``-subset of [0, universe) in increasing-mask order."""
    if not 0 <= index < math.comb(universe, size):
        raise ValueError("subset index out of range")
    mask = 0
    r = index
    for i in range(size, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= r:
            c += 1
        mask |= 1 << c
        r -= math.comb(c, i)
    return mask


_BYTES_OF_WEIGHT = tuple(tuple(b for b in range(256) if b.bit_count() == w) for w in range(9))
"""The byte values of each popcount, increasing."""


def _subsets(size: int, universe: int):
    """The ``size``-subsets of [0, universe) in increasing-mask order: under
    each high part ``hi`` in increasing order, the bytes ``lo`` whose
    popcount is the rest of ``size``, in increasing order, as ``hi << 8 | lo``;
    below a byte's universe, only the bytes that fit."""
    for hi in range(1 << universe >> 8 or 1):
        rest = size - hi.bit_count()
        row = _BYTES_OF_WEIGHT[rest] if 0 <= rest <= 8 else ()
        base = hi << 8
        for lo in row if universe >= 8 else [lo for lo in row if not lo >> universe]:
            yield base | lo


def _half_subsets(size: int, side: int) -> list[int]:
    """The Q_4 masks of the ``size``-subsets of the coordinate-1 = ``side``
    half, in increasing-mask order."""
    return [_spread_blocks(p, 16, 1) << side for p in _subsets(size, 8)]


# ---------------------------------------------------------------------------
# checks: one generator per check (the theorem check's per mode), which
# yields (failure, fact) for each configuration of its universe, in order
# ---------------------------------------------------------------------------

def _theorem_stream(size):
    # claws: a center's in-set neighbors -> its claw's vertex mask if the
    # claw is valid on those vertices alone, else -1, which no mask covers
    nbr = neighbor_masks(4)
    claws = {}
    for mask in _subsets(size, 16):
        c = claw_center(mask, mask, 4)
        if c is None:
            s = VertexSet(4, mask)
            w = find_theorem_witness(s)
            ok = w is not None and check_witness(w, s)
        else:
            hood = nbr[c] & mask
            if hood not in claws:
                w = claw_at(VertexSet(4, mask), c)
                wmask = _witness_mask(w)
                claws[hood] = wmask if check_witness(w, VertexSet(4, wmask)) else -1
            # check_witness(w, s) iff valid on V(w), V(w) in s
            ok = claws[hood] & ~mask == 0
        yield None if ok else VertexSet(4, mask).to_hex(), None


def _theorem_class_stream(size):
    # seen: Q_4 mask -> 1 + its class's verdict, 0 until marked.  A
    # 64 KB table, where a dict of the 11440 nine-subsets takes over 1 MB.
    seen = bytearray(1 << 16)
    for mask in _subsets(size, 16):
        fact = None
        # orbit marking: the first subset of a class scans its orbit once
        # and marks each distinct image; the least image is the class key
        if not seen[mask]:
            images = set(_orbit(VertexSet(4, mask)))
            canon = VertexSet(4, min(images))
            w = find_theorem_witness(canon)
            verdict = w is not None and check_witness(w, canon)
            for img in images:
                seen[img] = 1 + verdict
            fact = (canon.to_hex(), len(images))
        yield None if seen[mask] == 2 else VertexSet(4, mask).to_hex(), fact


def _proposition_stream():
    for mask in _subsets(6, 8):
        s = VertexSet(3, mask)
        claw = find_claw(s) is not None
        cycle = find_induced_cycle(s, 6) is not None
        label = s.to_hex()
        yield None if claw or cycle else label, (_PROPOSITION_KINDS[2 * claw + cycle], label)


def _claim_stream(claims):
    """One case claim's stream, from lazy ``(mask, holds)`` pairs over Q_4."""
    for mask, holds in claims:
        yield None if holds else VertexSet(4, mask).to_hex(), None


def _case4_outcomes_stream(placements):
    for placement_idx, (big, choices) in enumerate(placements):
        for small in choices:
            full = VertexSet(4, big | small)
            w, z = resolve_five_four(full, VertexSet(4, small)) or (None, None)
            # a cycle induced in full minus z is induced in full as well
            if w is not None and check_witness(w, full if z is None else full.remove(z)):
                yield None, (placement_idx, 0 if z is None else 1)  # claw, cycle
            else:
                yield full.to_hex(), None


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple[int, ...]:
    """The labels ``0 .. 2^n - 1`` in order, the list each trial's shuffle
    starts from; a tuple, so no trial can change another's start."""
    return tuple(range(1 << n))


def _trial_subset(n: int, seed: int, index: int) -> VertexSet:
    """The subset random-agreement trial ``index`` draws: the first
    2^(n-1) + 1 labels of ``random.Random(f"{seed}:{index}").shuffle``
    over all 2^n labels.

    The shuffle starts from a list copy of the per-dimension ``_labels``
    tuple, built once per process.  Its top-down Fisher-Yates swaps stop
    when ``i`` reaches the prefix length: every later swap stays inside
    the prefix.  Each index is the draw ``Random.shuffle`` makes through
    ``_randbelow``: ``k = (i + 1).bit_length()`` bits, redrawn while the
    value exceeds ``i``.  ``k`` is n + 1 only for the first swap, at
    i = 2^n - 1, so that swap is made before the loop, which draws n bits;
    before it every label sits at its own position.  Position ``i`` is
    never read after its swap, so each swap only marks the label it moves
    there and moves ``labels[i]`` into position ``j``.

    The mask is parsed, with ``int(..., 2)``, from a reversed buffer of
    2^n bytes, one per label: ``b"1"`` for a prefix label, ``b"0"`` for
    every label past the prefix.  The labels are a permutation of
    ``range(2^n)``, so no member needs the range checks of
    ``VertexSet.from_members``.
    """
    getrandbits = random.Random(f"{seed}:{index}").getrandbits
    labels = list(_labels(n))
    bits = bytearray(b"1") * (1 << n)
    last = (1 << n) - 1
    j = getrandbits(n + 1)
    while j > last:
        j = getrandbits(n + 1)
    bits[j] = 48  # b"0": label j moves past the prefix
    labels[j] = last
    for i in range(last - 1, required_size(n) - 1, -1):
        j = getrandbits(n)
        while j > i:
            j = getrandbits(n)
        bits[labels[j]] = 48
        labels[j] = labels[i]
    return VertexSet(n, int(bits[::-1], 2))


def _random_trial(n, seed, index):
    """Trial ``index``'s ``(failure, cause)``: its subset's hex label and why
    the extraction failed, else ``(None, None)``."""
    s = _trial_subset(n, seed, index)
    try:
        w, trace = find_witness_inductive(s)
        sizes = [len(s)] + [st.side_cardinalities[st.chosen_side] for st in trace.steps]
        bound_ok = all(
            sum(st.side_cardinalities) == prev and chosen >= required_size(st.dim - 1)
            for st, prev, chosen in zip(trace.steps, sizes, sizes[1:])
        )
        if not check_witness(w, s):
            cause = "invalid_witness"
        elif not bound_ok:
            cause = "trace_bound"
        elif n <= 5 and find_theorem_witness(s) is None:
            cause = "direct_search"
        else:
            cause = None
    except TheoremViolationError as exc:
        cause = type(exc).__name__
    return None if cause is None else s.to_hex(), cause


# ---------------------------------------------------------------------------
# the runner, and random-test's process pool
# ---------------------------------------------------------------------------


def _random_agreement_stream(n, seed, trials, processes, chunk):
    """Each trial's ``(failure, cause)`` in trial order: through the built-in
    ``map``, loading no pool, for one process, else through the ``map`` of a
    pool of ``processes`` imported and started here, in chunks of ``chunk`` trials."""
    trial = partial(_random_trial, n, seed)
    if processes == 1:
        yield from map(trial, range(trials))
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=processes) as pool:
        yield from pool.map(trial, range(trials), chunksize=chunk)


def _run_check(name: str, stream, worker_count: int = 1) -> tuple[VerificationReport, list]:
    """The check's report (``details`` empty, for the check to fill) and its
    facts in order, from one fold of its ``(failure, fact)`` stream, timed as a whole."""
    t0 = time.perf_counter()
    outcomes = bytearray()
    counterexamples: list[str] = []
    facts: list = []
    for failure, fact in stream:
        outcomes.append(49 if failure is None else 48)  # b"1" / b"0"
        if failure is not None and len(counterexamples) < COUNTEREXAMPLE_CAP:
            counterexamples.append(failure)
        if fact is not None:
            facts.append(fact)
    passed = outcomes.count(b"1")
    report = VerificationReport(
        check_name=name,
        universe_size=len(outcomes),
        passed=passed,
        failed=len(outcomes) - passed,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - t0,
        worker_count=worker_count,
        deterministic_digest=hashlib.sha256(outcomes).hexdigest(),
    )
    return report, facts


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def verify_theorem_exhaustive(
    n: int = 4, size: int = 9, symmetry_reduced: bool = False
) -> VerificationReport:
    """Check every ``size``-subset of Q_4 for a claw or induced 8-cycle.

    Only n = 4 is supported (exhaustive subset enumeration beyond that is
    out of desk range) and size must be at least 9, the density bound.

    ``_theorem_stream`` passes subset s iff ``check_witness(w, s)`` holds
    for its ``find_theorem_witness`` witness w, that is, iff
    check_witness(w, V(w)) holds and s contains V(w): the validator tests
    membership, then label adjacency.  A claw, memoised by its center's
    in-set neighbors (two cube vertices share at most two), is built and
    validated once, so a subset with one costs a ``claw_center`` scan, a
    lookup and a subset test.

    With ``symmetry_reduced``, ``_theorem_class_stream`` evaluates the
    witness existence once per automorphism class and replays it across
    the orbit; the digest then doubles as a cross-check that existence is
    automorphism-invariant.  Classes are found by orbit marking (cf.
    McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): the
    first subset of a class has its at most 384 images generated once; the
    least image is the class key, searched once for a witness, and each
    distinct image is marked with 1 + that verdict.  The orbit sizes of the
    distinct keys sum to ``universe_size``, since the orbits partition the
    subsets, unless an orbit strays outside its class.
    """
    if type(n) is not int or n != 4:
        raise ValueError(f"exhaustive theorem check supports n=4 only, got {n}")
    lo, hi = _THEOREM_SIZES
    if not (type(size) is int and lo <= size <= hi):
        raise ValueError(f"size must be in {lo}..{hi}, got {size}")
    stream = _theorem_class_stream if symmetry_reduced else _theorem_stream
    report, facts = _run_check(f"theorem-exhaustive-n4-size{size}", stream(size))
    if symmetry_reduced:
        report.details["distinct_classes"] = len(facts)
        report.details["orbit_accounting_total"] = sum(orbit for _, orbit in facts)
    return report


def verify_proposition_exhaustive() -> VerificationReport:
    """Check all 28 six-vertex subsets of Q_3 for a claw or induced 6-cycle,
    classifying which condition fired for each."""
    report, facts = _run_check("proposition-exhaustive-q3-size6", _proposition_stream())
    kinds = Counter(kind for kind, _ in facts)
    report.details.update((kind, kinds[kind]) for kind in _PROPOSITION_KINDS)
    report.details["cycle_only_masks"] = [label for kind, label in facts if kind == "cycle_only"]
    return report


def verify_case_claims(case: Union[int, str] = "all") -> list[VerificationReport]:
    """Machine-check the delegated claims of the dimension-4 case analysis.

    One report per sub-claim.  ``case`` selects a single split -- 1 for
    (8,1), 2 for (7,2), 3 for (6,3), 4 for (5,4) -- or "all".
    """
    if case != "all" and not (type(case) is int and 1 <= case <= 4):
        raise ValueError(f"case must be 1..4 or 'all', got {case!r}")
    reports: list[VerificationReport] = []

    if case in (1, "all"):
        fulls = [_EVEN_HALF_Q4 | 1 << odd for odd in range(1, 16, 2)]
        evens = range(0, 16, 2)
        claims = ((f, all(claw_center(f, 1 << v, 4) is not None for v in evens)) for f in fulls)
        reports.append(_run_check("case1-full-half-claw-centers", _claim_stream(claims))[0])

    for split, big_size in ((2, 7), (3, 6)):
        if case in (split, "all"):
            bigs, smalls = _half_subsets(big_size, 0), _half_subsets(9 - big_size, 1)
            name = f"case{split}-split-{big_size}-{9 - big_size}-claw-center"
            claims = ((b | s, claw_center(b | s, b, 4) is not None) for b in bigs for s in smalls)
            r, _ = _run_check(name, _claim_stream(claims))
            # the half-only reading depends on the big half alone
            half_only = sum(claw_center(big, big, 4) is None for big in bigs)
            r.details["subcube_only_failures"] = half_only * len(smalls)
            reports.append(r)

    if case in (4, "all"):
        shapes = tuple((big, classify_five_set(VertexSet(4, big))) for big in _half_subsets(5, 0))
        # each P5 placement with its admissible choices: the odd-half
        # 4-sets avoiding the partner a ^ 1 of every path-internal a
        fours = _half_subsets(4, 1)
        placements = []
        for big, shape in shapes:
            if shape.kind is FiveSetKind.PATH_P5:
                partners = sum(1 << (a ^ 1) for a in shape.internal)
                placements.append((big, [small for small in fours if not small & partners]))

        name = "case4-max-degree-2-is-path"
        p5 = FiveSetKind.PATH_P5
        claims = ((m, (claw_center(m, m, 4) is None) == (sh.kind is p5)) for m, sh in shapes)
        r1, _ = _run_check(name, _claim_stream(claims))
        r1.details["p5_placements"] = len(placements)
        reports.append(r1)

        name = "case4-admissible-choice-count"
        r2, _ = _run_check(name, _claim_stream((big, len(c) == 5) for big, c in placements))
        r2.details["admissible_counts"] = [len(choices) for _, choices in placements]
        reports.append(r2)

        name = "case4-claw-or-cycle-outcomes"
        r3, facts = _run_check(name, _case4_outcomes_stream(placements))
        per_placement = [[0, 0] for _ in placements]  # [claws, cycles]
        for placement_idx, is_cycle in facts:
            per_placement[placement_idx][is_cycle] += 1
        r3.details["per_placement_split"] = per_placement
        r3.details["all_split_4_to_1"] = all(s == [4, 1] for s in per_placement)
        reports.append(r3)

    return reports


def random_agreement_test(n: int, trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """Cross-validate the inductive extractor on seeded random subsets.

    Each trial's subset is the first 2^(n-1) + 1 labels of a shuffle of
    all 2^n labels by its own deterministically derived generator;
    ``_trial_subset`` says how it is drawn.  The extracted witness must
    validate and the trace must satisfy the half-plus-one inequality at
    every level.  For n <= 5 existence is also cross-checked against
    direct search.

    The trials are mapped in order in chunks of ceil(trials / min(workers,
    trials, os.cpu_count())) trials, one per process: in this process for
    one chunk, else over a process pool; ``worker_count`` is the number of
    chunks.
    """
    lo, hi = _RANDOM_DIMS
    if not (type(n) is int and lo <= n <= hi):
        raise ValueError(f"random agreement test supports n in {lo}..{hi}, got {n}")
    if type(trials) is not int or trials < 1:
        raise ValueError("trials must be >= 1")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    asked = min(workers, trials, os.cpu_count() or 1)
    chunk = -(-trials // asked)  # ceil(trials / asked) trials a process
    processes = -(-trials // chunk)  # one per chunk, never more than asked
    name = f"random-agreement-n{n}-trials{trials}-seed{seed}"
    stream = _random_agreement_stream(n, seed, trials, processes, chunk)
    report, causes = _run_check(name, stream, processes)
    if causes:
        report.details["failure_causes"] = dict(Counter(causes))
    report.details.update(generator=RANDOM_GENERATOR_NOTE, seed=seed)
    return report


# ---------------------------------------------------------------------------
# extremal search: tightness of the half-the-vertices bound
# ---------------------------------------------------------------------------


def _parse_forbidden(forbidden) -> int:
    """k for the pair of "claw" and "C6" or "C8", in either order."""
    kinds = tuple(forbidden)
    for k in (6, 8):
        if kinds in (("claw", f"C{k}"), (f"C{k}", "claw")):
            return k
    raise ValueError(
        f"forbidden structures must be ('claw', 'C6') or ('claw', 'C8'), got {forbidden!r}"
    )


def extremal_search(n: int, forbidden=("claw", "C8")) -> ExtremalResult:
    """Exact maximum size of a subset with no claw and no induced C_k.

    Branch and bound over the vertices in mask-lexicographic order: the
    highest label is decided first and exclusion is tried before
    inclusion, so complete sets are reached in increasing-mask order and
    the first maximum found is the lexicographically least one.  A branch
    is cut when ``_join_cut`` finds that a vertex would reach in-set
    degree 3 (a claw) or close an induced C_k, when the undecided vertices
    cannot lift the current count past the best, or when the two halves
    of some coordinate split cannot.  Every cut is read off the mask of
    chosen vertices, so no node keeps state to undo.
    An include child inherits its parent's passed bounds unless a better set
    was found in between, and the half cap is one slack test per split.
    Before returning, the detectors confirm that the certificate has
    ``max_size`` members, no claw and no induced C_k, or
    ``TheoremViolationError`` is raised.

    The last cut is the paper's induction.  Each coordinate splits Q_n
    into two copies of Q_{n-1}, and a structure-free set meets each copy
    in a structure-free set, so neither half holds more than f(n-1), the
    maximum one dimension down.  That half cap is not a constant: it is
    derived by the same search at n - 1, recursively, down to f(0) = 1 at
    n = 1, whose halves are single vertices, and recorded as ``half_cap``.
    So the n = 5 maximum rests on f(4) = 8, itself found exhaustively
    under the cap f(3) = 6.  Each f(n - 1) is searched once per process
    and read from a table after that; every call still runs its own search
    at n and checks its own certificate.

    Supported ranges: n in 1..5 with C8 forbidden, n = 3 with C6 forbidden.
    """
    k = _parse_forbidden(forbidden)
    lo, hi = _EXTREMAL_C8_DIMS
    if k == 8 and not (type(n) is int and lo <= n <= hi):
        raise ValueError(f"claw+C8 search supports n in {lo}..{hi}, got {n}")
    if k == 6 and (type(n) is not int or n != 3):
        raise ValueError(f"claw+C6 search supports n = 3 only, got {n}")
    return _max_free(n, k)


def _join_cut(v: int, chosen: int, nbr, n: int, k: int) -> Optional[str]:
    """Why vertex v cannot join ``chosen``, a mask of Q_n with neighbor table
    ``nbr``: "claw_degree", "closed_cycle", or None.  The contract: every
    in-set degree of ``chosen`` is at most 2, it has no C_k component, and
    v's chosen neighbors are pairwise non-adjacent, as in any cube.  So v
    makes a claw iff it has three of them or one of them has two, and closes
    an induced C_k iff its two end one chosen path of k - 1 vertices."""
    hood = nbr[v] & chosen
    if not hood:
        return None
    degree = hood.bit_count()
    u1, u2 = (hood & -hood).bit_length() - 1, hood.bit_length() - 1  # its least and greatest
    if degree > 2 or (nbr[u1] & chosen).bit_count() == 2 or (nbr[u2] & chosen).bit_count() == 2:
        return "claw_degree"
    if degree == 2:
        path = _path_from(u1, chosen, n)
        if path[-1] == u2 and len(path) == k - 1:
            return "closed_cycle"
    return None


def _max_free(n: int, k: int) -> ExtremalResult:
    """The search behind ``extremal_search``, without its range checks,
    so that the half cap can recurse below the supported range to 1 at n = 1.
    The half cap f(n - 1) comes from ``_MAXIMA`` and is searched only on a
    miss; f(n) enters ``_MAXIMA`` once the certificate checks out."""
    # every maximum is at least 1, so a miss is the only falsy lookup
    half_cap = (_MAXIMA.get((n - 1, k)) or _max_free(n - 1, k).max_size) if n > 1 else 1

    nverts = 1 << n
    nbr = neighbor_masks(n)
    # halves[j]: the vertices with bit j set, one half of the split on bit j
    halves = [_block_mask(nverts, 1 << j) << (1 << j) for j in range(n)]

    # The even-weight half induces no edges at all, so it is free of both
    # structures; its size seeds the bound and guarantees a certificate.
    best_size = nverts // 2 - 1
    best_mask = 0
    nodes = 0
    cuts = dict.fromkeys(("claw_degree", "closed_cycle", "count_bound", "half_cap"), 0)

    def dfs(v: int, count: int, chosen: int, tested: int) -> None:
        # tested: the best_size under which an include child's parent passed the bounds, else -1
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if tested != best_size:
            total = count + v + 1
            if total <= best_size:
                cuts["count_bound"] += 1
                return
            if v >= 0:
                # avail: the chosen and the undecided vertices.  As total >
                # best_size, min(share, half_cap) over both halves sums past it
                # unless 2 * half_cap <= best_size or one share is at most slack.
                slack = best_size - half_cap
                if slack >= half_cap:
                    cuts["half_cap"] += 1
                    return
                avail = chosen | ((2 << v) - 1)
                for half in halves:
                    side1 = (avail & half).bit_count()
                    if side1 <= slack or total - side1 <= slack:
                        cuts["half_cap"] += 1
                        return
            tested = best_size
        if v < 0:
            best_size = count
            best_mask = chosen
            return

        dfs(v - 1, count, chosen, -1)
        cut = _join_cut(v, chosen, nbr, n, k)
        if cut:
            cuts[cut] += 1
            return
        dfs(v - 1, count + 1, chosen | (1 << v), tested)

    dfs(nverts - 1, 0, 0, -1)
    certificate = VertexSet(n, best_mask)
    if not (
        len(certificate) == best_size
        and find_claw(certificate) is None
        and (best_size < k or find_induced_cycle(certificate, k) is None)
    ):
        raise TheoremViolationError(
            f"no valid certificate of size {best_size} under half cap {half_cap}", n, best_mask
        )
    _MAXIMA[n, k] = best_size
    return ExtremalResult(
        dim=n,
        forbidden=("claw", f"C{k}"),
        max_size=best_size,
        certificate=certificate,
        nodes_explored=nodes,
        half_cap=half_cap,
        metrics={"prunes": cuts},
    )
