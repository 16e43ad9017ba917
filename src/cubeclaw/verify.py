"""Exhaustive certification, case-claim checking, and extremal search.

Every check enumerates a fixed universe of configurations in a canonical
order (subsets in increasing-membership-mask order, composite universes
in mixed-radix order over their parts) and folds the per-configuration
pass/fail stream into a report.  Work is split across workers by
contiguous ranges of the enumeration index and reassembled in order, so
the report's digest is bit-identical for any worker count.  Each check is
one module-level generator, ``_<check>_chunk(params, start, stop)``, that
yields ``(ok, counterexample, details)`` for each index in [start, stop);
the runner is handed the generator itself, which a process pool pickles
by name.  A chunk's details hold only what its run decides: a fact its
inputs already fix is set on the report by the check that builds them.

The checks:

- ``verify_theorem_exhaustive``: every 9-vertex (or larger) subset of
  Q_4 contains a claw or an induced 8-cycle -- all C(16,9) = 11440 of
  them, the base case the inductive extractor stands on.
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
  vertices (dimensions 4 and 5), resp. 5 vertices in Q_3.  The search at
  n caps each half of a coordinate split at the maximum it finds at
  n - 1, the paper's induction; so the n = 5 maximum rests on the
  half cap f(4) = 8, itself derived by the same search.
- ``random_agreement_test``: seeded random cross-validation of the
  inductive extractor against direct search.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from .detect import (
    FiveSetKind,
    _path_from,
    check_witness,
    claw_center,
    classify_five_set,
    find_claw,
    find_induced_cycle,
    find_theorem_witness,
)
from .errors import TheoremViolationError
from .hypercube import VertexSet, _block_mask, _iter_bits, _orbit, neighbor_masks
from .witness import (
    _EVEN_HALF_Q4,
    _EVEN_HALF_SPREAD,
    find_witness_inductive,
    required_size,
    resolve_five_four,
)

COUNTEREXAMPLE_CAP = 16

# Closed ranges (lo, hi) the checks accept, which the CLI help names too:
# Q_4 subset sizes, random-test dimensions, claw+C8 extremal dimensions,
# and the dimensions of ``witness --method bruteforce``, which builds the
# 4^n/8-byte ``neighbor_masks(n)`` table (2 MB at n = 12, 512 MB at 16).
_THEOREM_SIZES = (9, 16)
_RANDOM_DIMS = (4, 12)
_EXTREMAL_C8_DIMS = (1, 5)
_BRUTEFORCE_DIMS = (1, 12)

RANDOM_GENERATOR_NOTE = (
    "python random.Random (MT19937); trial i reseeded with the string "
    "'<seed>:<i>'; subset = first 2^(n-1)+1 labels of a full shuffle"
)


@dataclass
class VerificationReport:
    check_name: str
    universe_size: int
    passed: int
    failed: int
    counterexamples: list[str]
    wall_time: float
    worker_count: int
    deterministic_digest: str
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExtremalResult:
    dim: int
    forbidden: tuple[str, ...]
    max_size: int
    certificate: VertexSet
    nodes_explored: int
    half_cap: Optional[int] = None
    """f(n-1), the most a structure-free set can hold in one half of a
    coordinate split; None at n <= 2, where the search runs uncapped."""
    metrics: dict = field(default_factory=dict)
    """Search counters, outside the pinned output: ``prunes`` counts the
    branches cut by each bound."""

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "forbidden": list(self.forbidden),
            "max_size": self.max_size,
            "certificate": self.certificate.to_hex(),
            "nodes_explored": self.nodes_explored,
            "half_cap": self.half_cap,
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------------
# subset enumeration: increasing-mask order, with O(1) stepping and unranking
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


def _subsets(size: int, universe: int, start: int, stop: int):
    """The ``size``-subsets of [0, universe) with indices in [start, stop)
    of increasing-mask order: ``start`` is unranked once, then each next
    mask is one ``gosper_next`` step."""
    mask = unrank_subset(start, size, universe)
    for _ in range(start, stop):
        yield mask
        mask = gosper_next(mask)


def _half_subsets(size: int, side: int) -> list[int]:
    """The Q_4 masks of the ``size``-subsets of the coordinate-1 = ``side``
    half, in increasing-mask order."""
    return [_EVEN_HALF_SPREAD[p] << side for p in _subsets(size, 8, 0, math.comb(8, size))]


# ---------------------------------------------------------------------------
# checks: one module-level (so picklable) chunk generator per check, which
# yields (ok, counterexample, details) for each index in [start, stop)
# ---------------------------------------------------------------------------

def _theorem_chunk(params, start, stop):
    size, symmetry_reduced = params
    if symmetry_reduced:
        # seen: Q_4 mask -> 1 + its class's place in verdicts, 0 until
        # marked.  A 64 KB table, where a dict of the 11440 nine-subsets
        # takes over 1 MB; no size has more than 56 classes, and a 256th
        # would raise rather than wrap.
        seen = bytearray(1 << 16)
        verdicts = []
    for mask in _subsets(size, 16, start, stop):
        s = VertexSet(4, mask)
        details = None
        if symmetry_reduced:
            # orbit marking: the first subset of a class met in this chunk
            # scans its orbit once and marks every image; the least image
            # is the class key.  A chunk starting mid-orbit rescans it itself.
            if not seen[mask]:
                orbit = _orbit(s)
                canon = VertexSet(4, min(orbit))
                w = find_theorem_witness(canon)
                verdicts.append(w is not None and check_witness(w, canon))
                for img in orbit:
                    seen[img] = len(verdicts)
                details = {"class_orbits": [[canon.to_hex(), len(set(orbit))]]}
            ok = verdicts[seen[mask] - 1]
        else:
            w = find_theorem_witness(s)
            ok = w is not None and check_witness(w, s)
        yield ok, None if ok else s.to_hex(), details


def _proposition_chunk(params, start, stop):
    for mask in _subsets(6, 8, start, stop):
        s = VertexSet(3, mask)
        claw = find_claw(s) is not None
        cycle = find_induced_cycle(s, 6) is not None
        ok = claw or cycle
        key = (
            "claw_and_cycle"
            if claw and cycle
            else "claw_only"
            if claw
            else "cycle_only"
            if cycle
            else "neither"
        )
        details = {key: 1}
        if key == "cycle_only":
            details["cycle_only_masks"] = [s.to_hex()]
        yield ok, None if ok else s.to_hex(), details


def _case1_chunk(params, start, stop):
    for index in range(start, stop):
        full = _EVEN_HALF_Q4 | 1 << (2 * index + 1)
        ok = all(claw_center(full, 1 << v, 4) is not None for v in range(0, 16, 2))
        yield ok, None if ok else VertexSet(4, full).to_hex(), None


def _case23_chunk(params, start, stop):
    bigs, smalls = params
    for index in range(start, stop):
        i, j = divmod(index, len(smalls))
        big = bigs[i]
        full = big | smalls[j]
        ok = claw_center(full, big, 4) is not None
        yield ok, None if ok else VertexSet(4, full).to_hex(), None


def _case4_structure_chunk(params, start, stop):
    for mask, shape in params[0][start:stop]:
        ok = (claw_center(mask, mask, 4) is None) == (shape.kind is FiveSetKind.PATH_P5)
        yield ok, None if ok else VertexSet(4, mask).to_hex(), None


def _case4_admissible_chunk(params, start, stop):
    for big, choices in params[0][start:stop]:
        ok = len(choices) == 5
        yield ok, None if ok else VertexSet(4, big).to_hex(), None


def _case4_outcomes_chunk(params, start, stop):
    for placement_idx, big, small in params[0][start:stop]:
        full = VertexSet(4, big | small)
        w, z = resolve_five_four(full, VertexSet(4, small)) or (None, None)
        # a cycle induced in full minus z is induced in full as well
        if w is not None and check_witness(w, full if z is None else full.remove(z)):
            kind = "claw" if z is None else "cycle"
            yield True, None, {"outcome_kinds": [[placement_idx, kind]]}
        else:
            yield False, full.to_hex(), None


def _trial_subset(n: int, seed: int, index: int) -> VertexSet:
    """The subset random-agreement trial ``index`` draws: the first
    2^(n-1) + 1 labels of ``random.Random(f"{seed}:{index}").shuffle``
    over all 2^n labels.

    The shuffle's top-down Fisher-Yates swaps stop when ``i`` reaches
    the prefix length: every later swap stays inside the prefix.  Each
    index is the draw ``Random.shuffle`` makes through ``_randbelow``:
    ``k`` bits, redrawn while the value exceeds ``i``.

    The mask is parsed, with ``int(..., 2)``, from a reversed buffer of
    2^n bytes, one per label: ``b"1"`` for a prefix label, ``b"0"`` for
    every label past the prefix.  The labels are a permutation of
    ``range(2^n)``, so no member needs the range checks of
    ``VertexSet.from_members``.
    """
    getrandbits = random.Random(f"{seed}:{index}").getrandbits
    labels = list(range(1 << n))
    target = required_size(n)
    for i in range((1 << n) - 1, target - 1, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        labels[i], labels[j] = labels[j], labels[i]
    bits = bytearray(b"1") * (1 << n)
    for v in labels[target:]:
        bits[v] = 48  # b"0"
    return VertexSet(n, int(bits[::-1], 2))


def _random_agreement_chunk(params, start, stop):
    n, seed = params
    for index in range(start, stop):
        s = _trial_subset(n, seed, index)
        try:
            w, trace = find_witness_inductive(s)
            sizes = [len(s)] + [st.side_cardinalities[st.chosen_side] for st in trace.steps]
            bound_ok = all(
                sum(st.side_cardinalities) == prev and chosen >= (1 << (st.dim - 2)) + 1
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
        if cause is None:
            yield True, None, None
        else:
            yield False, s.to_hex(), {"failure_causes": {cause: 1}}


# ---------------------------------------------------------------------------
# deterministic partitioned runner
# ---------------------------------------------------------------------------


def _merge_details(acc: dict, extra: Optional[dict]) -> None:
    if not extra:
        return
    for key, val in extra.items():
        if isinstance(val, int):
            acc[key] = acc.get(key, 0) + val
        elif isinstance(val, list):
            acc.setdefault(key, []).extend(val)
        else:
            _merge_details(acc.setdefault(key, {}), val)


def _run_chunk(chunk, params: tuple, start: int, stop: int):
    outcomes = bytearray()
    counterexamples: list[str] = []
    details: dict = {}
    for ok, cex, extra in chunk(params, start, stop):
        outcomes.append(49 if ok else 48)  # b"1" / b"0"
        if not ok and cex is not None and len(counterexamples) < COUNTEREXAMPLE_CAP:
            counterexamples.append(cex)
        _merge_details(details, extra)
    return bytes(outcomes), outcomes.count(49), counterexamples, details


def _ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """``min(workers, total)`` contiguous nonempty spans covering [0, total)."""
    parts = min(workers, total)
    chunk, extra = divmod(total, parts)
    bounds = [i * chunk + min(i, extra) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_check(
    check_name: str, chunk, params: tuple, total: int, workers: int
) -> VerificationReport:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    if workers == 1 or total <= 1:
        chunks = [_run_chunk(chunk, params, 0, total)]
    else:
        spans = _ranges(total, workers)
        processes = min(len(spans), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                pool.submit(_run_chunk, chunk, params, lo, hi) for lo, hi in spans
            ]
            chunks = [f.result() for f in futures]
    stream = b"".join(c[0] for c in chunks)
    passed = sum(c[1] for c in chunks)
    counterexamples: list[str] = []
    details: dict = {}
    for c in chunks:
        counterexamples.extend(c[2][: COUNTEREXAMPLE_CAP - len(counterexamples)])
        _merge_details(details, c[3])
    return VerificationReport(
        check_name=check_name,
        universe_size=total,
        passed=passed,
        failed=total - passed,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - t0,
        worker_count=workers,
        deterministic_digest=hashlib.sha256(stream).hexdigest(),
        details=details,
    )


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def verify_theorem_exhaustive(
    n: int = 4, size: int = 9, workers: int = 1, symmetry_reduced: bool = False
) -> VerificationReport:
    """Check every ``size``-subset of Q_4 for a claw or induced 8-cycle.

    Only n = 4 is supported (exhaustive subset enumeration beyond that is
    out of desk range) and size must be at least 9, the density bound.
    With ``symmetry_reduced`` the witness existence is evaluated once per
    automorphism class and replayed across the orbit; the digest then
    doubles as a cross-check that existence is automorphism-invariant.
    Classes are found by orbit marking (cf. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998): the first subset of a
    class that a chunk meets has its at most 384 images generated once,
    and each is marked with the least image, the class key.  The orbit
    sizes of the distinct keys sum to ``universe_size``, since the orbits
    partition the subsets, unless an orbit strays outside its class.
    """
    if n != 4:
        raise ValueError(f"exhaustive theorem check supports n=4 only, got {n}")
    lo, hi = _THEOREM_SIZES
    if not lo <= size <= hi:
        raise ValueError(f"size must be in {lo}..{hi}, got {size}")
    total = math.comb(16, size)
    name = f"theorem-exhaustive-n4-size{size}"
    report = _run_check(name, _theorem_chunk, (size, symmetry_reduced), total, workers)
    if symmetry_reduced:
        # two chunks can meet the same class, so pairs are deduped by key
        orbit_sizes = dict(report.details.pop("class_orbits", []))
        report.details["distinct_classes"] = len(orbit_sizes)
        report.details["orbit_accounting_total"] = sum(orbit_sizes.values())
    return report


def verify_proposition_exhaustive(workers: int = 1) -> VerificationReport:
    """Check all 28 six-vertex subsets of Q_3 for a claw or induced 6-cycle,
    classifying which condition fired for each."""
    total = math.comb(8, 6)
    report = _run_check("proposition-exhaustive-q3-size6", _proposition_chunk, (), total, workers)
    for key in ("claw_and_cycle", "claw_only", "cycle_only", "neither"):
        report.details.setdefault(key, 0)
    report.details.setdefault("cycle_only_masks", [])
    return report


def verify_case_claims(case: Union[int, str] = "all", workers: int = 1) -> list[VerificationReport]:
    """Machine-check the delegated claims of the dimension-4 case analysis.

    One report per sub-claim.  ``case`` selects a single split -- 1 for
    (8,1), 2 for (7,2), 3 for (6,3), 4 for (5,4) -- or "all".
    """
    if case not in (1, 2, 3, 4, "all"):
        raise ValueError(f"case must be 1..4 or 'all', got {case!r}")
    reports: list[VerificationReport] = []

    if case in (1, "all"):
        reports.append(_run_check("case1-full-half-claw-centers", _case1_chunk, (), 8, workers))

    for split, big_size in ((2, 7), (3, 6)):
        if case in (split, "all"):
            bigs, smalls = _half_subsets(big_size, 0), _half_subsets(9 - big_size, 1)
            name = f"case{split}-split-{big_size}-{9 - big_size}-claw-center"
            r = _run_check(name, _case23_chunk, (bigs, smalls), len(bigs) * len(smalls), workers)
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
        r1 = _run_check(name, _case4_structure_chunk, (shapes,), len(shapes), workers)
        r1.details["p5_placements"] = len(placements)
        reports.append(r1)

        name = "case4-admissible-choice-count"
        r2 = _run_check(name, _case4_admissible_chunk, (placements,), len(placements), workers)
        r2.details["admissible_counts"] = [len(choices) for _, choices in placements]
        reports.append(r2)

        pairs = tuple(
            (idx, big, small) for idx, (big, choices) in enumerate(placements) for small in choices
        )
        name = "case4-claw-or-cycle-outcomes"
        r3 = _run_check(name, _case4_outcomes_chunk, (pairs,), len(pairs), workers)
        splits: dict[int, list[int]] = {}
        for placement_idx, kind in r3.details.pop("outcome_kinds", []):
            claws_cycles = splits.setdefault(placement_idx, [0, 0])
            claws_cycles[0 if kind == "claw" else 1] += 1
        per_placement = [splits.get(i, [0, 0]) for i in range(len(placements))]
        r3.details["per_placement_split"] = per_placement
        r3.details["all_split_4_to_1"] = all(s == [4, 1] for s in per_placement)
        reports.append(r3)

    return reports


def random_agreement_test(n: int, trials: int, seed: int, workers: int = 1) -> VerificationReport:
    """Cross-validate the inductive extractor on seeded random subsets.

    Each trial's subset is the first 2^(n-1) + 1 labels of a shuffle of
    all 2^n labels by its own deterministically derived generator
    (``_trial_subset``).  The shuffle's top-down Fisher-Yates swaps stop
    once the prefix is final: the swaps still to come would only reorder
    the prefix, so it holds the same labels as after a full
    ``Random.shuffle``, and a test pins that equality.  The prefix is
    turned into a mask through a byte buffer, with no per-member range
    check, since the labels are a permutation of ``range(2^n)``.  The
    extracted witness must validate and the trace must satisfy the
    half-plus-one inequality at every level.  For n <= 5 existence is
    also cross-checked against direct search.
    """
    lo, hi = _RANDOM_DIMS
    if not lo <= n <= hi:
        raise ValueError(f"random agreement test supports n in {lo}..{hi}, got {n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = _run_check(
        f"random-agreement-n{n}-trials{trials}-seed{seed}",
        _random_agreement_chunk,
        (n, seed),
        trials,
        workers,
    )
    report.details["generator"] = RANDOM_GENERATOR_NOTE
    report.details["seed"] = seed
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
    is cut when a vertex would reach in-set degree 3 (that is a claw),
    when the chosen vertices would close an induced C_k, when the
    undecided vertices cannot lift the current count past the best, or
    when the two halves of some coordinate split cannot.  Every cut is
    read off the mask of chosen vertices, so no node keeps state to undo.
    Before returning, the detectors confirm that the certificate has
    ``max_size`` members, no claw and no induced C_k, or
    ``TheoremViolationError`` is raised.

    The last cut is the paper's induction.  Each coordinate splits Q_n
    into two copies of Q_{n-1}, and a structure-free set meets each copy
    in a structure-free set, so neither half holds more than f(n-1), the
    maximum one dimension down.  That half cap is not a constant: it is
    derived by the same search at n - 1, recursively, down to an
    exhaustive search at n <= 2, and recorded as ``half_cap``.  So the
    n = 5 maximum rests on f(4) = 8, itself found exhaustively under the
    cap f(3) = 6.

    Supported ranges: n in 1..5 with C8 forbidden, n = 3 with C6 forbidden.
    """
    k = _parse_forbidden(forbidden)
    lo, hi = _EXTREMAL_C8_DIMS
    if k == 8 and not lo <= n <= hi:
        raise ValueError(f"claw+C8 search supports n in {lo}..{hi}, got {n}")
    if k == 6 and n != 3:
        raise ValueError(f"claw+C6 search supports n = 3 only, got {n}")
    return _max_free(n, k)


def _max_free(n: int, k: int) -> ExtremalResult:
    """The search behind ``extremal_search``, without its range checks,
    so that the half cap can recurse below the supported range."""
    half_cap = _max_free(n - 1, k).max_size if n > 2 else None

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

    def dfs(v: int, count: int, chosen: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if count + v + 1 <= best_size:
            cuts["count_bound"] += 1
            return
        if v < 0:
            best_size = count
            best_mask = chosen
            return
        if half_cap is not None:
            # avail: the chosen and the undecided vertices.  Each half of
            # the split on bit j can still end with at most
            # min(its share of avail, half_cap) vertices.
            avail = chosen | ((2 << v) - 1)
            for half in halves:
                side1 = (avail & half).bit_count()
                side0 = count + v + 1 - side1
                if (
                    (side0 if side0 < half_cap else half_cap)
                    + (side1 if side1 < half_cap else half_cap)
                    <= best_size
                ):
                    cuts["half_cap"] += 1
                    return

        dfs(v - 1, count, chosen)

        # v's chosen neighbors are pairwise non-adjacent: taking v makes a
        # claw if it has three, or if one of them already has two
        us = _iter_bits(nbr[v] & chosen)
        if len(us) > 2:
            cuts["claw_degree"] += 1
            return
        for u in us:
            if (nbr[u] & chosen).bit_count() == 2:
                cuts["claw_degree"] += 1
                return
        # joining the two ends u1 < u2 of one chosen path closes a cycle
        if len(us) == 2:
            path = _path_from(us[0], chosen, n)
            if path[-1] == us[1] and len(path) == k - 1:
                cuts["closed_cycle"] += 1
                return

        dfs(v - 1, count + 1, chosen | (1 << v))

    dfs(nverts - 1, 0, 0)
    certificate = VertexSet(n, best_mask)
    if not (
        len(certificate) == best_size
        and find_claw(certificate) is None
        and (best_size < k or find_induced_cycle(certificate, k) is None)
    ):
        raise TheoremViolationError(
            f"no valid certificate of size {best_size} under half cap {half_cap}", n, best_mask
        )
    return ExtremalResult(
        dim=n,
        forbidden=("claw", f"C{k}"),
        max_size=best_size,
        certificate=certificate,
        nodes_explored=nodes,
        half_cap=half_cap,
        metrics={"prunes": cuts},
    )
