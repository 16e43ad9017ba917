"""Detection of induced claws, induced cycles, and five-vertex path shapes.

A claw (K_{1,3}) inside a cube vertex set hinges on one structural fact:
two distinct neighbors of a vertex differ in exactly two bits, so they
are never adjacent to each other.  Hence an induced claw exists iff some
member has at least three in-set neighbors (a "claw-center"), and claw
detection is a single degree scan.  That scan is ``claw_center``, and
``claw_at`` builds the claw at a center; ``find_claw``, the structured
solver and the case-claim checks all go through these two.
``classify_five_set`` needs no search: in the bipartite cube, the count
of degree-1 vertices tells a five-vertex path from a disconnected set.
``_path_from`` is the one path walk, shared with the extremal search.

Induced-cycle search is a depth-first path extension with chord pruning:
a partial path is abandoned as soon as its tip is adjacent to any path
vertex other than its predecessor (or, when closing, the start).  At the
scales this package targets (dimension <= 6, cycle length <= 8) the
inducedness constraint prunes hard enough that nothing cleverer is
needed.

All searches break ties by vertex label, so equal inputs always produce
identical witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .hypercube import VertexSet, _iter_bits, neighbor_masks, vertex_to_text


@dataclass(frozen=True)
class Claw:
    """Four vertices inducing K_{1,3}: a center adjacent to three
    pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, int, int]


@dataclass(frozen=True)
class InducedCycle:
    """k vertices whose induced subgraph is exactly the cycle C_k,
    listed in cyclic order."""

    vertices: tuple[int, ...]


Witness = Union[Claw, InducedCycle]


class FiveSetKind(Enum):
    HAS_DEGREE3_VERTEX = "has_degree3_vertex"
    HAS_ISOLATED_VERTEX = "has_isolated_vertex"
    DISCONNECTED = "disconnected"
    PATH_P5 = "path_p5"


@dataclass(frozen=True)
class PathClassification:
    """Shape of the subgraph induced by a five-vertex set.

    For PATH_P5 the path runs endpoints[0] - internal[0] - internal[1] -
    internal[2] - endpoints[1], with endpoints[0] < endpoints[1].
    """

    kind: FiveSetKind
    endpoints: Optional[tuple[int, int]] = None
    internal: Optional[tuple[int, int, int]] = None


def claw_center(mask: int, among: int, dim: int) -> Optional[int]:
    """Least member of ``among`` with three or more neighbors in ``mask``;
    the walk up ``among`` stops at it.  Both are membership masks of Q_dim."""
    nbr = neighbor_masks(dim)
    while among:
        low = among & -among
        v = low.bit_length() - 1
        if (nbr[v] & mask).bit_count() >= 3:
            return v
        among ^= low
    return None


def claw_at(s: VertexSet, center: int) -> Claw:
    """The claw at ``center`` whose leaves are its three least-labeled
    in-set neighbors.  ``center`` must have at least three of them, or
    ``ValueError`` is raised."""
    hood = neighbor_masks(s.dim)[center] & s.mask
    a = (hood & -hood).bit_length() - 1
    hood &= hood - 1
    b = (hood & -hood).bit_length() - 1
    hood &= hood - 1
    c = (hood & -hood).bit_length() - 1
    if c < 0:
        raise ValueError(f"vertex {center} has fewer than three in-set neighbors")
    return Claw(center, (a, b, c))


def find_claw(s: VertexSet) -> Optional[Claw]:
    """First claw by label order: least-labeled center with three or more
    in-set neighbors, leaves its three least-labeled in-set neighbors."""
    v = claw_center(s.mask, s.mask, s.dim)
    return None if v is None else claw_at(s, v)


def find_induced_cycle(s: VertexSet, k: int) -> Optional[InducedCycle]:
    """First induced k-cycle in deterministic order, or None.

    The returned cycle starts at its least-labeled vertex and runs in the
    direction whose second vertex is smaller.  k must be even (the cube
    is bipartite) and within [4, |s|].
    """
    if k % 2 != 0:
        raise ValueError(f"cycle length must be even, got {k}")
    if k < 4 or k > len(s):
        raise ValueError(f"cycle length {k} out of range [4, {len(s)}]")
    nbr = neighbor_masks(s.dim)
    mask = s.mask

    def dfs(start: int, path: list[int], path_mask: int, allowed: int):
        last = path[-1]
        if len(path) == k - 1:
            want = (1 << last) | (1 << start)
            for u in _iter_bits(nbr[last] & nbr[start] & allowed & ~path_mask):
                if nbr[u] & path_mask == want:
                    return path + [u]
            return None
        last_bit = 1 << last
        for u in _iter_bits(nbr[last] & allowed & ~path_mask):
            if nbr[u] & path_mask == last_bit:
                found = dfs(start, path + [u], path_mask | (1 << u), allowed)
                if found:
                    return found
        return None

    for start in s.members():
        allowed = mask & ~((2 << start) - 1)
        if (allowed | (1 << start)).bit_count() < k:
            break
        found = dfs(start, [start], 1 << start, allowed)
        if found:
            return InducedCycle(tuple(found))
    return None


def find_theorem_witness(s: VertexSet) -> Optional[Witness]:
    """A claw if one exists, else an induced 8-cycle, else None."""
    claw = find_claw(s)
    if claw is not None:
        return claw
    if len(s) >= 8:
        return find_induced_cycle(s, 8)
    return None


def classify_five_set(s: VertexSet) -> PathClassification:
    """Exact structural classification of a five-vertex set.

    Q_n is bipartite, so five vertices whose in-set degrees are all 1 or
    2 induce no cycle: there is no odd cycle, and beside a C_4 the fifth
    vertex is isolated or gives a cycle vertex degree 3.  They induce P5,
    with two degree-1 vertices, or P3 + P2, with four, so the degree-1
    count settles connectivity with no search.
    """
    if len(s) != 5:
        raise ValueError(f"classification requires exactly 5 vertices, got {len(s)}")
    nbr = neighbor_masks(s.dim)
    members = s.members()
    degrees = [(nbr[v] & s.mask).bit_count() for v in members]

    if max(degrees) >= 3:
        return PathClassification(FiveSetKind.HAS_DEGREE3_VERTEX)
    if min(degrees) == 0:
        return PathClassification(FiveSetKind.HAS_ISOLATED_VERTEX)
    if degrees.count(1) != 2:
        return PathClassification(FiveSetKind.DISCONNECTED)
    order = _path_from(members[degrees.index(1)], s.mask, s.dim)
    return PathClassification(
        FiveSetKind.PATH_P5,
        endpoints=(order[0], order[4]),
        internal=(order[1], order[2], order[3]),
    )


def _path_from(end: int, mask: int, dim: int) -> list[int]:
    """The vertices of the path that ``mask`` induces from its endpoint
    ``end``, in order.  Every vertex on that path must have at most two
    neighbors in ``mask``, and ``end`` at most one."""
    nbr = neighbor_masks(dim)
    path = [end]
    step = nbr[end] & mask
    while step:
        prev_bit = 1 << path[-1]
        path.append(step.bit_length() - 1)
        step = nbr[path[-1]] & mask & ~prev_bit
    return path


def check_witness(w: Witness, s: VertexSet) -> bool:
    """Independent validation of a witness against a set.

    True iff every structural invariant holds: membership, the claw's
    center-leaf adjacencies and leaf independence, or the cycle's
    consecutive adjacencies with no chords.  Adjacency is read off the
    labels (exactly one differing bit), so no neighbor table is built;
    the cost is one shift of the 2^n-bit mask per membership test.
    Malformed witnesses return False rather than raising.
    """
    nverts = 1 << s.dim

    if isinstance(w, Claw):
        # inline tests, no helper calls: every theorem-check subset lands here
        if not isinstance(w.leaves, tuple) or len(w.leaves) != 3:
            return False
        x, (a, b, c) = w.center, w.leaves
        mask = s.mask
        return (
            isinstance(x, int) and isinstance(a, int) and isinstance(b, int) and isinstance(c, int)
            and 0 <= x < nverts and 0 <= a < nverts and 0 <= b < nverts and 0 <= c < nverts
            and mask >> x & 1 == mask >> a & 1 == mask >> b & 1 == mask >> c & 1 == 1
            and len({x, a, b, c}) == 4
            and (x ^ a).bit_count() == (x ^ b).bit_count() == (x ^ c).bit_count() == 1
            and (a ^ b).bit_count() != 1 and (a ^ c).bit_count() != 1 and (b ^ c).bit_count() != 1
        )

    def ok_vertex(v) -> bool:
        return isinstance(v, int) and 0 <= v < nverts and v in s

    def adjacent(u: int, v: int) -> bool:
        return (u ^ v).bit_count() == 1

    if isinstance(w, InducedCycle):
        vs = w.vertices
        if not isinstance(vs, tuple) or len(vs) < 4 or len(vs) % 2 != 0:
            return False
        # vertex checks first: a malformed vertex may be unhashable
        if not all(ok_vertex(v) for v in vs) or len(set(vs)) != len(vs):
            return False
        k = len(vs)
        # adjacent exactly when consecutive modulo k
        return all(
            adjacent(vs[i], vs[j]) == (j - i in (1, k - 1))
            for i in range(k)
            for j in range(i + 1, k)
        )

    return False


def witness_to_text(w: Witness, dim: int) -> str:
    """Render a witness in its line format:
    ``claw <center> <leaf> <leaf> <leaf>`` or ``cycle <v1> ... <vk>``."""
    if isinstance(w, Claw):
        parts = ["claw", vertex_to_text(w.center, dim)]
        parts += [vertex_to_text(leaf, dim) for leaf in w.leaves]
        return " ".join(parts)
    if isinstance(w, InducedCycle):
        return "cycle " + " ".join(vertex_to_text(v, dim) for v in w.vertices)
    raise ValueError(f"not a witness: {w!r}")
