"""Bitmask model of the n-dimensional cube graph Q_n.

Vertices are integer labels in [0, 2^n); two vertices are adjacent when
their labels differ in exactly one bit.  Coordinate i (1-indexed) of a
vertex is bit (i - 1) of its label, so coordinate 1 is the least
significant bit.  The text form of a vertex is the n-character binary
string listing coordinate 1 first: label 1 in Q_4 prints as "1000".

Vertex sets are stored as 2^n-bit membership masks (bit v set iff vertex
v is a member), which makes subset enumeration, degree counting and
subcube splitting cheap bit arithmetic.  Splitting on a coordinate
relabels each half into Q_{n-1} by deleting that coordinate's bit;
``embed`` is the exact inverse.

An operation on a whole mask costs at most about n passes over its 2^n
bits, never one pass per member.  Splitting on coordinate p + 1
is a masked-shift block compress (Warren, *Hacker's Delight* §7-4): the
mask is a run of 2^p-bit blocks alternating between the two halves, and
n - p - 1 shift-or-and folds pack one half's blocks together; ``embed``
runs the same folds in reverse (a block spread).  Membership masks are
built through a byte buffer and read back through a byte table.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .errors import SetParseError

DIM_CAP = 24
"""Largest supported dimension; keeps 2^n-bit masks desk-scale."""

CANONICAL_DIM_CAP = 6
"""Largest dimension for exact canonical forms (2^n * n! orbit scans)."""


def check_dim(dim: int) -> int:
    if not isinstance(dim, int) or dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension must be an integer in [1, {DIM_CAP}], got {dim!r}")
    return dim


def check_vertex(v: int, dim: int) -> int:
    if not isinstance(v, int) or v < 0 or v >> dim:
        raise ValueError(f"invalid vertex {v!r} for dimension {dim}")
    return v


def adjacent(u: int, v: int, dim: int) -> bool:
    """True iff u and v differ in exactly one coordinate."""
    check_vertex(u, check_dim(dim))
    check_vertex(v, dim)
    return (u ^ v).bit_count() == 1


def neighbors(v: int, dim: int) -> list[int]:
    """The n neighbors of v, ascending by label."""
    check_vertex(v, check_dim(dim))
    return sorted(v ^ (1 << i) for i in range(dim))


@lru_cache(maxsize=None)
def neighbor_masks(dim: int) -> tuple[int, ...]:
    """For each vertex, the membership mask of its n neighbors."""
    check_dim(dim)
    out = []
    for v in range(1 << dim):
        m = 0
        for i in range(dim):
            m |= 1 << (v ^ (1 << i))
        out.append(m)
    return tuple(out)


def coordinates(v: int, dim: int) -> tuple[int, ...]:
    """Coordinate tuple of v, coordinate 1 first."""
    check_vertex(v, check_dim(dim))
    return tuple((v >> i) & 1 for i in range(dim))


def from_coordinates(coords: tuple[int, ...] | list[int]) -> int:
    """Inverse of :func:`coordinates`."""
    label = 0
    for i, bit in enumerate(coords):
        if bit not in (0, 1):
            raise ValueError(f"coordinate {i + 1} must be 0 or 1, got {bit!r}")
        label |= bit << i
    return label


def vertex_to_text(v: int, dim: int) -> str:
    """Binary text form, coordinate 1 leftmost."""
    check_vertex(v, check_dim(dim))
    return "".join("1" if (v >> i) & 1 else "0" for i in range(dim))


def vertex_from_text(text: str, dim: int) -> int:
    """Parse the binary text form of a vertex.  Rejects wrong lengths."""
    check_dim(dim)
    if len(text) != dim:
        raise SetParseError(
            f"vertex string {text!r} has length {len(text)}, expected {dim}"
        )
    label = 0
    for i, ch in enumerate(text):
        if ch == "1":
            label |= 1 << i
        elif ch != "0":
            raise SetParseError(
                f"bad character {ch!r} in vertex string {text!r}", column=i + 1
            )
    return label


def _iter_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending.

    The package's one set-bit list (Warren, *Hacker's Delight* §2-1).  It
    returns a list rather than a generator because the extremal search
    calls it millions of times on masks of at most three bits, where
    generator overhead dominates.  ``detect.claw_center`` (an early-exit
    walk) and ``detect.claw_at`` (three ``x & (x - 1)`` picks) peel bits
    inline: they stop after a few bits, so a full list would cost more.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_BYTE_BITS = tuple(tuple(_iter_bits(b)) for b in range(256))
"""Set-bit positions of every byte value."""


def _permute_label(v: int, perm: tuple[int, ...]) -> int:
    """The label whose bit i is bit ``perm[i]`` of ``v``."""
    y = 0
    for i, src in enumerate(perm):
        y |= ((v >> src) & 1) << i
    return y


def hex_width(dim: int) -> int:
    """Number of hex digits in the 2^n-bit mask text form."""
    return ((1 << dim) + 3) // 4


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset of V(Q_n): a dimension plus a membership mask."""

    dim: int
    mask: int

    def __post_init__(self):
        check_dim(self.dim)
        if not isinstance(self.mask, int) or self.mask < 0 or self.mask >> (1 << self.dim):
            raise ValueError(
                f"mask {self.mask!r} has bits outside [0, 2^{self.dim})"
            )

    @classmethod
    def from_members(cls, members, dim: int) -> "VertexSet":
        buf = bytearray(((1 << check_dim(dim)) + 7) // 8)
        for v in members:
            if not isinstance(v, int) or v < 0 or v >> dim:
                check_vertex(v, dim)  # raises; the test is inline to save a call per member
            buf[v >> 3] |= 1 << (v & 7)
        return cls(dim, int.from_bytes(buf, "little"))

    @classmethod
    def empty(cls, dim: int) -> "VertexSet":
        return cls(dim, 0)

    @classmethod
    def full(cls, dim: int) -> "VertexSet":
        check_dim(dim)
        return cls(dim, (1 << (1 << dim)) - 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < (1 << self.dim) and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def members(self) -> list[int]:
        """Member labels, ascending."""
        mask = self.mask
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]

    def add(self, v: int) -> "VertexSet":
        check_vertex(v, self.dim)
        return VertexSet(self.dim, self.mask | (1 << v))

    def remove(self, v: int) -> "VertexSet":
        check_vertex(v, self.dim)
        return VertexSet(self.dim, self.mask & ~(1 << v))

    def union(self, other: "VertexSet") -> "VertexSet":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return VertexSet(self.dim, self.mask | other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.dim, self.mask ^ ((1 << (1 << self.dim)) - 1))

    def to_hex(self) -> str:
        """Fixed-width uppercase hex mask, most significant digit first."""
        return format(self.mask, f"0{hex_width(self.dim)}X")

    def to_lines(self) -> str:
        """One vertex text form per line, ascending by label."""
        return "\n".join(vertex_to_text(v, self.dim) for v in self.members())

    def __repr__(self) -> str:
        return f"VertexSet(dim={self.dim}, mask=0x{self.to_hex()})"


_NON_HEX_DIGIT = re.compile("[^0-9a-fA-F]")


def set_from_hex(text: str, dim: int) -> VertexSet:
    """Parse a hex mask token of exactly ``hex_width(dim)`` digits."""
    check_dim(dim)
    token = text.strip()
    if token.lower().startswith("0x"):
        token = token[2:]
    width = hex_width(dim)
    if len(token) != width:
        raise SetParseError(
            f"hex mask {text.strip()!r} has {len(token)} digits, expected {width} for dimension {dim}"
        )
    bad = _NON_HEX_DIGIT.search(token)
    if bad is not None:
        raise SetParseError(f"bad hex digit {bad.group()!r} in mask", column=bad.start() + 1)
    return VertexSet(dim, int(token, 16))


_BLOCK_MASK_CACHE_BITS = 1 << 16
"""Widest mask ``_block_mask`` keeps.  Every mask up to 2^16 bits wide
stays cached once built, about 260 KB for all of them, so a descent from
dimension 16 or less builds no mask twice.  Wider masks are built on
each call: caching those too would hold about 117 MB at dimension 24."""

_block_masks: dict[tuple[int, int], int] = {}


def _build_block_mask(nbits: int, block: int) -> int:
    """The ``nbits``-bit mask whose ``block``-bit blocks are alternately
    all ones and all zeros, ones first.  Both are powers of two and
    ``2 * block <= nbits``."""
    mask = (1 << block) - 1
    width = 2 * block
    while width < nbits:
        mask |= mask << width
        width *= 2
    return mask


def _block_mask(nbits: int, block: int) -> int:
    """``_build_block_mask(nbits, block)``, cached up to
    ``_BLOCK_MASK_CACHE_BITS`` bits."""
    mask = _block_masks.get((nbits, block))
    if mask is None:
        mask = _build_block_mask(nbits, block)
        if nbits <= _BLOCK_MASK_CACHE_BITS:
            _block_masks[nbits, block] = mask
    return mask


def _compress(mask: int, nbits: int, block: int) -> int:
    """Pack the even-numbered ``block``-bit blocks of an ``nbits``-bit
    mask, in order, into its low ``nbits / 2`` bits."""
    x = mask & _block_mask(nbits, block)
    while 2 * block < nbits:
        x = (x | x >> block) & _block_mask(nbits, 2 * block)
        block *= 2
    return x


def _spread_blocks(mask: int, nbits: int, block: int) -> int:
    """Inverse of ``_compress``: deal the ``block``-bit blocks of an
    ``nbits / 2``-bit mask onto the even-numbered blocks of ``nbits``."""
    width = nbits // 2
    while width > block:
        width //= 2
        mask = (mask | mask << width) & _block_mask(nbits, width)
    return mask


def split(s: VertexSet, coord: int) -> tuple[VertexSet, VertexSet]:
    """Partition by one coordinate into two relabeled Q_{n-1} subsets.

    Side 0 holds the members whose coordinate is 0, side 1 those whose
    coordinate is 1; each is relabeled into Q_{n-1} by deleting the split
    coordinate's bit.  ``embed`` reverses the relabeling exactly.
    """
    if s.dim < 2:
        raise ValueError("splitting requires dimension >= 2")
    if not 1 <= coord <= s.dim:
        raise ValueError(f"coordinate {coord} out of range [1, {s.dim}]")
    nbits = 1 << s.dim
    block = 1 << (coord - 1)
    d = s.dim - 1
    return (
        VertexSet(d, _compress(s.mask, nbits, block)),
        VertexSet(d, _compress(s.mask >> block, nbits, block)),
    )


def embed(s: VertexSet, coord: int, bit: int) -> VertexSet:
    """Inject a Q_{n-1} subset into Q_n, fixing one coordinate to ``bit``."""
    dim = check_dim(s.dim + 1)
    if not 1 <= coord <= dim:
        raise ValueError(f"coordinate {coord} out of range [1, {dim}]")
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    block = 1 << (coord - 1)
    return VertexSet(dim, _spread_blocks(s.mask, 1 << dim, block) << (bit * block))


def embed_vertex(v: int, coord: int, bit: int) -> int:
    """Relabel one Q_{n-1} vertex into Q_n (same convention as ``embed``)."""
    p = coord - 1
    return (v & ((1 << p) - 1)) | (bit << p) | ((v >> p) << (p + 1))


@dataclass(frozen=True)
class Automorphism:
    """A cube automorphism: permute coordinates, then complement some.

    ``perm[i]`` is the 0-indexed source coordinate feeding output
    coordinate i, i.e. bit i of the image equals bit perm[i] of the
    argument; ``flips`` is then XORed onto the permuted label.  These
    maps form the full automorphism group of Q_n (order 2^n * n!).
    """

    perm: tuple[int, ...]
    flips: int

    def __post_init__(self):
        n = len(self.perm)
        check_dim(n)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm!r} is not a permutation of 0..{n - 1}")
        if not isinstance(self.flips, int) or self.flips < 0 or self.flips >> n:
            raise ValueError(f"flips {self.flips!r} out of range for dimension {n}")

    @property
    def dim(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, dim: int) -> "Automorphism":
        return cls(tuple(range(check_dim(dim))), 0)

    def apply_to_vertex(self, v: int) -> int:
        check_vertex(v, self.dim)
        return _permute_label(v, self.perm) ^ self.flips


def random_automorphism(dim: int, rng: random.Random) -> Automorphism:
    """Uniform random element of the automorphism group of Q_n."""
    perm = list(range(check_dim(dim)))
    rng.shuffle(perm)
    return Automorphism(tuple(perm), rng.randrange(1 << dim))


def apply_automorphism(s: VertexSet, a: Automorphism) -> VertexSet:
    """Image of a vertex set under an automorphism."""
    if a.dim != s.dim:
        raise ValueError(f"automorphism dimension {a.dim} != set dimension {s.dim}")
    return VertexSet.from_members((a.apply_to_vertex(v) for v in s.members()), s.dim)


@lru_cache(maxsize=None)
def _perm_label_tables(dim: int) -> tuple[tuple[int, ...], ...]:
    # one label-permutation table per coordinate permutation
    return tuple(
        tuple(_permute_label(v, perm) for v in range(1 << dim))
        for perm in permutations(range(dim))
    )


def _orbit(s: VertexSet) -> list[int]:
    """Masks of all 2^n * n! automorphic images of ``s``, with repeats.

    The package's one orbit scan: ``canonical_form`` takes its least
    element, and the symmetry-reduced theorem check marks every element
    as seen so that each class is scanned once.
    """
    members = s.members()
    nverts = 1 << s.dim
    images = []
    for table in _perm_label_tables(s.dim):
        permuted = [table[v] for v in members]
        for c in range(nverts):
            img = 0
            for y in permuted:
                img |= 1 << (y ^ c)
            images.append(img)
    return images


def canonical_form(s: VertexSet) -> VertexSet:
    """Lexicographically least mask over the full automorphism orbit.

    Exact scan over all 2^n * n! automorphic images; idempotent, and equal
    for any two sets related by an automorphism.  Rejects dim > 6, where
    the orbit scan stops being desk-scale.
    """
    if s.dim > CANONICAL_DIM_CAP:
        raise ValueError(
            f"exact canonical form supports dimension <= {CANONICAL_DIM_CAP}, got {s.dim}"
        )
    return VertexSet(s.dim, min(_orbit(s)))
