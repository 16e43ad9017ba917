"""Detection of induced claws, induced cycles, and five-vertex path shapes.

A claw (K_{1,3}) inside a cube vertex set hinges on one structural fact:
two distinct neighbors of a vertex differ in exactly two bits, so they
are never adjacent to each other.  Hence an induced claw exists iff some
member has at least three in-set neighbors (a "claw-center"), and claw
detection is a single degree scan.  That scan is ``claw_center``, and
``claw_at`` builds the claw at a center; ``find_claw``, the structured
solver, the case-claim and theorem checks all go through these two.
In dimensions 1-4 the scan reads two byte tables and the builder a table
of the 80 claws of Q_4; from dimension 5 the scan walks its candidates.
``classify_five_set`` needs no search: in the bipartite cube, the count
of degree-1 vertices tells a five-vertex path from a disconnected set.
``_path_from`` is the one path walk, shared with ``verify._join_cut``.

Induced-cycle search is a depth-first path extension with chord pruning:
a partial path is abandoned as soon as its tip is adjacent to any path
vertex other than its predecessor (or, when closing, the start).  At the
scales the detectors run at (dimension <= 12, the neighbor table's
``NEIGHBOR_TABLE_DIM_CAP``; cycle length <= 8) the inducedness constraint
prunes hard enough that nothing cleverer is needed.

Every witness exposes ``vertices``: a claw's center then its leaves, or
a cycle's vertices in cyclic order.  ``check_witness`` reads both kinds
through that tuple along one path: shape, then membership and
distinctness, then one adjacency rule.

All searches break ties by vertex label, so equal inputs always produce
identical witnesses.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Optional, Union

from .hypercube import VertexSet, _iter_bits, _Record, _setattr, neighbor_masks, vertex_to_text


class Claw(_Record):
    """Four vertices inducing K_{1,3}: a center adjacent to three
    pairwise non-adjacent leaves."""

    __slots__ = ("center", "leaves")

    def __init__(self, center: int, leaves: tuple[int, int, int]):
        _setattr(self, "center", center)
        _setattr(self, "leaves", leaves)

    def __repr__(self) -> str:
        return f"Claw(center={self.center!r}, leaves={self.leaves!r})"

    @property
    def vertices(self) -> tuple[int, ...]:
        """The center, then the leaves."""
        return (self.center, *self.leaves)


class InducedCycle(_Record):
    """k vertices whose induced subgraph is exactly the cycle C_k,
    listed in cyclic order."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        _setattr(self, "vertices", vertices)


Witness = Union[Claw, InducedCycle]


class FiveSetKind(Enum):
    HAS_DEGREE3_VERTEX = "has_degree3_vertex"
    HAS_ISOLATED_VERTEX = "has_isolated_vertex"
    DISCONNECTED = "disconnected"
    PATH_P5 = "path_p5"


class PathClassification(_Record):
    """Shape of the subgraph induced by a five-vertex set.

    For PATH_P5 the path runs endpoints[0] - internal[0] - internal[1] -
    internal[2] - endpoints[1], with endpoints[0] < endpoints[1].
    """

    __slots__ = ("kind", "endpoints", "internal")

    def __init__(
        self, kind: FiveSetKind, endpoints: Optional[tuple[int, int]] = None,
        internal: Optional[tuple[int, int, int]] = None,
    ):
        self._set(kind, endpoints, internal)


@lru_cache(maxsize=None)
def _q4_tables() -> tuple[tuple[int, ...], tuple[int, ...], dict[int, Claw]]:
    """For each byte b read as a Q_3 mask, the vertices with three and with
    exactly two neighbors in b, counted bit-sliced over all 256 bytes at
    once (Warren, *Hacker's Delight*, ch. 5); then the 80 claws of Q_4 by
    hood (a center's four neighbors, or any three).  Built on first use."""
    b = int.from_bytes(bytes(range(256)), "little")
    ones = (1 << 2048) // 255  # 0x0101...01: one per byte
    x, y, z = ((b & m * ones) << s | b >> s & m * ones for s, m in ((1, 0x55), (2, 0x33), (4, 15)))
    carry, total = x & y | z & (x ^ y), x ^ y ^ z  # a full adder of the three
    three, two = (tuple(c.to_bytes(256, "little")) for c in (carry & total, carry & ~total))
    claws = {}
    for c in range(16):
        hood = sorted(c ^ 1 << i for i in range(4))
        full = sum(1 << u for u in hood)
        for u in hood:  # the last claw, without the greatest, is also the four's
            claws[full ^ 1 << u] = claws[full] = Claw(c, tuple(v for v in hood if v != u))
    return three, two, claws


def claw_center(mask: int, among: int, dim: int) -> Optional[int]:
    """Least member of ``among`` with three or more neighbors in ``mask``,
    both membership masks of Q_dim.  Dimensions 1-4 read ``_q4_tables``: v
    of one byte has its fourth neighbor at bit v of the other.  From
    dimension 5 the walk up ``among`` stops at the first center."""
    if isinstance(dim, int) and 1 <= dim <= 4:
        three, two, _ = _q4_tables()
        lo, hi = mask & 255, mask >> 8
        centers = (three[lo] | two[lo] & hi | (three[hi] | two[hi] & lo) << 8) & among
        return (centers & -centers).bit_length() - 1 if centers else None
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
    in-set neighbors.  ``center`` must be a vertex of Q_n with at least
    three of them, or ``ValueError`` is raised.  Up to dimension 4 those
    neighbors key the claw in ``_q4_tables``: two cube vertices share at
    most two of them."""
    if not 0 <= center < 1 << s.dim:
        raise ValueError(f"invalid vertex {center!r} for dimension {s.dim}")
    hood = neighbor_masks(s.dim)[center] & s.mask
    if s.dim <= 4:
        claw = _q4_tables()[2].get(hood)
        if claw is not None:
            return claw  # else fewer than three: the picks below raise
    a = (hood & -hood).bit_length() - 1
    hood &= hood - 1
    b = (hood & -hood).bit_length() - 1
    hood &= hood - 1
    c = (hood & -hood).bit_length() - 1
    if c < 0:
        raise ValueError(f"vertex {center} has fewer than three in-set neighbors")
    return Claw(center, (a, b, c))


def _witness_mask(w: Witness) -> int:
    """The membership mask of a claw's or cycle's vertices."""
    return sum(1 << v for v in set(w.vertices))


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

    One path for both kinds, read through ``w.vertices``.  The shape comes
    first: a tuple of vertices, three leaves for a claw, an even length of
    at least 4 for a cycle.  Then each vertex must be an ``int`` label of
    Q_n and a member of ``s``, checked before any set of them is built,
    and the vertices must be distinct.  Last comes one adjacency rule: a
    claw's first vertex is adjacent to each other one and no other pair
    is; a cycle's vertices are adjacent exactly when consecutive modulo
    k.  Adjacency is read off the labels (exactly one differing bit), so
    no neighbor table is built; the cost is one shift of the 2^n-bit mask
    per membership test.  Malformed witnesses return False rather than
    raising.
    """
    if isinstance(w, Claw):
        if not (isinstance(w.leaves, tuple) and len(w.leaves) == 3):
            return False
    elif not (
        isinstance(w, InducedCycle)
        and isinstance(w.vertices, tuple)
        and len(w.vertices) >= 4
        and len(w.vertices) % 2 == 0
    ):
        return False
    vs = w.vertices
    nverts, mask, k = 1 << s.dim, s.mask, len(vs)
    # vertex checks first: a malformed vertex may be unhashable
    for v in vs:
        if not (isinstance(v, int) and 0 <= v < nverts and mask >> v & 1):
            return False
    if len(set(vs)) != k:
        return False
    claw = isinstance(w, Claw)
    for i in range(k):
        for j in range(i + 1, k):
            if ((vs[i] ^ vs[j]).bit_count() == 1) != (i == 0 if claw else j - i in (1, k - 1)):
                return False
    return True


def witness_to_text(w: Witness, dim: int) -> str:
    """Render a witness in its line format:
    ``claw <center> <leaf> <leaf> <leaf>`` or ``cycle <v1> ... <vk>``."""
    if not isinstance(w, (Claw, InducedCycle)):
        raise ValueError(f"not a witness: {w!r}")
    kind = "claw" if isinstance(w, Claw) else "cycle"
    return " ".join([kind, *(vertex_to_text(v, dim) for v in w.vertices)])
