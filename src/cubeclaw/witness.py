"""Constructive witness extraction for dense cube subsets.

Any subset of Q_n (n >= 4) holding more than half the vertices contains

  - four vertices inducing a claw, or
  - eight vertices inducing a cycle.

The production extractor recurses on the first coordinate: split the set
into the two Q_{n-1} halves, descend into a half that still holds more
than half of its subcube (the pigeonhole guarantees one does), and at
dimension 4 fall back on brute-force search, which exhaustive
certification (see :mod:`cubeclaw.verify`) has shown can never fail on
nine or more vertices.  Only the chosen half is ever built, and the
witness found downstairs is relabeled back up in one step.

A second, structured solver replays the dimension-4 case analysis
literally, dispatching on how the nine vertices fall across the two
subcube halves, each read as a coordinate-1 mask of Q_4 with no
split/embed round trip.  It exists for cross-checking the case analysis,
not as the production path, and is validated against brute force on all
11440 nine-vertex subsets.  Its last step, ``resolve_five_four``, is the one
implementation of the (5,4)-split resolution; :mod:`cubeclaw.verify`
checks the case claims through it.  Claw-centers are found and claws
built only by ``detect.claw_center`` and ``detect.claw_at``.
"""

from __future__ import annotations

from typing import Optional

from .detect import (
    Claw,
    InducedCycle,
    Witness,
    _witness_mask,
    claw_at,
    claw_center,
    find_induced_cycle,
    find_theorem_witness,
)
from .errors import InsufficientCardinalityError, TheoremViolationError
from .hypercube import VertexSet, _block_mask, _compress, _Record

# The coordinate-1 = 0 half of Q_4 as a Q_4 mask.
_EVEN_HALF_Q4 = 0x5555


class SplitStep(_Record):
    """One recursion level: which side was taken and how big each was."""

    __slots__ = ("dim", "split_coord", "chosen_side", "side_cardinalities")

    def __init__(
        self, dim: int, split_coord: int, chosen_side: int, side_cardinalities: tuple[int, int]
    ):
        self._set(dim, split_coord, chosen_side, side_cardinalities)


class ExtractionTrace(_Record):
    __slots__ = ("steps", "base")

    def __init__(self, steps: tuple[SplitStep, ...], base: str):
        self._set(steps, base)

    def to_dict(self) -> dict:
        steps = [dict(zip(st.__slots__, st._values())) for st in self.steps]
        for step in steps:
            step["side_cardinalities"] = list(step["side_cardinalities"])
        return {"steps": steps, "base": self.base}


def required_size(dim: int) -> int:
    """Smallest cardinality the extractor accepts: 2^(n-1) + 1."""
    return (1 << (dim - 1)) + 1


def _map_witness(w: Witness, mapper) -> Witness:
    vs = tuple(map(mapper, w.vertices))
    return Claw(vs[0], vs[1:]) if isinstance(w, Claw) else InducedCycle(vs)


def find_witness_inductive(s: VertexSet) -> tuple[Witness, ExtractionTrace]:
    """Extract a witness by recursive subcube descent.

    Requires dimension >= 4 and at least 2^(n-1) + 1 members.  Splits on
    coordinate 1 at every level, preferring the larger side (ties to
    side 0), and solves dimension 4 by brute force (``find_theorem_witness``),
    raising ``TheoremViolationError`` if it finds nothing.  The returned
    trace records the cardinalities at every level.

    Each level reads side 0's count as a popcount of the mask under the
    coordinate-1 = 0 block mask, takes side 1's as the rest, and
    compresses only the chosen side, through the same block compress as
    ``split``.  Every split deletes bit 0 of the label, so a base vertex
    v is the Q_n vertex ``v << L | sides`` after L levels, where bit i of
    ``sides`` is the side chosen at level i.
    """
    if s.dim < 4:
        raise ValueError(f"extraction requires dimension >= 4, got {s.dim}")
    need = required_size(s.dim)
    count = len(s)
    if count < need:
        raise InsufficientCardinalityError(need, count, s.dim)

    steps: list[SplitStep] = []
    mask, sides = s.mask, 0
    for dim in range(s.dim, 4, -1):
        nbits = 1 << dim
        side0 = (mask & _block_mask(nbits, 1)).bit_count()
        side1 = count - side0
        chosen = 0 if side0 >= side1 else 1
        steps.append(SplitStep(dim, 1, chosen, (side0, side1)))
        mask = _compress(mask >> chosen, nbits, 1)
        count = side1 if chosen else side0
        sides |= chosen << (s.dim - dim)

    w = find_theorem_witness(VertexSet(4, mask))
    if w is None:
        raise TheoremViolationError("no witness in a nine-or-more-vertex Q_4 subset", 4, mask)
    levels = len(steps)
    w = _map_witness(w, lambda v: v << levels | sides)
    return w, ExtractionTrace(tuple(steps), "brute-force")


def resolve_five_four(
    s: VertexSet, small: VertexSet
) -> Optional[tuple[Witness, Optional[int]]]:
    """Resolve a (5,4) configuration whose path-internal claws are ruled out.

    ``small`` is the four-vertex half of ``s``.  Returns ``(claw, None)``
    for the least member of ``small`` with three neighbors in ``s``;
    failing that, ``(cycle, z)`` for the induced 8-cycle of ``s`` and the
    one member z off it; failing both, None.  With no claw-center in
    either half no member has three neighbors in ``s``, so z has none on
    the cycle, and no other induced 8-cycle of ``s`` runs through z.
    """
    center = claw_center(s.mask, small.mask, s.dim)
    if center is not None:
        return claw_at(s, center), None
    cycle = find_induced_cycle(s, 8)
    if cycle is None:
        return None
    off_cycle = s.mask & ~_witness_mask(cycle)
    return cycle, off_cycle.bit_length() - 1


def base_case_solve_structured(s: VertexSet) -> tuple[Witness, int]:
    """Witness for a nine-vertex Q_4 subset by explicit case dispatch.

    Reads the two coordinate-1 halves as Q_4 masks (no split/embed round
    trip) and orders them so the larger comes first; the case number is
    determined by the cardinality split: (8,1) -> 1, (7,2) -> 2,
    (6,3) -> 3, (5,4) -> 4.

    Cases 1-3 find a claw-center inside the larger half, counting
    degrees in the whole set (the cross edge into the smaller half
    counts; for the (6,3) split this is essential, since the larger half
    may induce a chordless 6-cycle with all subcube degrees 2).

    Case 4: the larger half either has a subcube degree-3 vertex (done)
    or induces a five-vertex path.  That path lemma is not re-derived per
    call: ``verify-cases`` certifies it (``case4-max-degree-2-is-path``),
    and the test suite's census of the five-subsets inside either half
    pins it.  Then the claw-center scan of cases 1-3 runs over the
    larger half: a path endpoint has at most two neighbors in the set,
    so the center it finds is the least path-internal vertex with a
    neighbor across the split.  Failing that, the smaller half is
    scanned for a claw-center; failing that too, one search finds the
    induced 8-cycle through all but one member.
    """
    if s.dim != 4:
        raise ValueError(f"structured solver works in dimension 4, got {s.dim}")
    if s.mask.bit_count() != 9:
        raise ValueError(f"structured solver requires exactly 9 vertices, got {len(s)}")

    # nine members: one half holds five or more, so one popcount decides
    big = s.mask & _EVEN_HALF_Q4
    size = big.bit_count()
    if size < 5:
        big, size = s.mask ^ big, 9 - size
    case = 9 - size

    if case == 4:
        center = claw_center(big, big, 4)
        if center is not None:
            return claw_at(VertexSet(4, big), center), case

    center = claw_center(s.mask, big, 4)
    if center is not None:
        return claw_at(s, center), case
    if case != 4:
        raise TheoremViolationError(
            f"no claw-center in the larger half of a ({size},{9 - size}) split",
            s.dim,
            s.mask,
        )

    resolved = resolve_five_four(s, VertexSet(4, s.mask ^ big))
    if resolved is None:
        raise TheoremViolationError(
            "no claw-center and no cycle-leaving vertex in a (5,4) split", s.dim, s.mask
        )
    return resolved[0], case
