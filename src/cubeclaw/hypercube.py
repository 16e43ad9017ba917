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

import math
import re
import sys
from functools import lru_cache
from typing import Iterator

from .errors import SetParseError

DIM_CAP = 24
"""Largest supported dimension; keeps 2^n-bit masks desk-scale."""

CANONICAL_DIM_CAP = 6
"""Largest dimension for exact canonical forms (2^n * n! orbit scans)."""


def check_dim(dim: int) -> int:
    if type(dim) is not int or dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension must be an integer in [1, {DIM_CAP}], got {dim!r}")
    return dim


def check_vertex(v: int, dim: int) -> int:
    if type(v) is not int or v < 0 or v >> dim:
        raise ValueError(f"invalid vertex {v!r} for dimension {dim}")
    return v


NEIGHBOR_TABLE_DIM_CAP = 12
"""Largest dimension ``neighbor_masks`` builds: 4^n/8 bytes, 2 MB at n = 12."""


@lru_cache(maxsize=None)
def neighbor_masks(dim: int) -> tuple[int, ...]:
    """For each vertex, the membership mask of its n neighbors."""
    if check_dim(dim) > NEIGHBOR_TABLE_DIM_CAP:
        raise ValueError(f"neighbor table supports dimension <= {NEIGHBOR_TABLE_DIM_CAP}, got {dim}")
    out = []
    for v in range(1 << dim):
        m = 0
        for i in range(dim):
            m |= 1 << (v ^ (1 << i))
        out.append(m)
    return tuple(out)


def vertex_to_text(v: int, dim: int) -> str:
    """Binary text form, coordinate 1 leftmost."""
    check_vertex(v, check_dim(dim))
    return "".join("1" if (v >> i) & 1 else "0" for i in range(dim))


def vertex_from_text(text: str, dim: int) -> int:
    """Parse the binary text form of a vertex: exactly ``dim`` characters
    0 or 1.  Rejects wrong lengths, and names the first bad character's
    column; the characters are checked before ``int``, which would also
    take "_", surrounding whitespace and non-ASCII digits."""
    check_dim(dim)
    if len(text) != dim:
        raise SetParseError(
            f"vertex string {text!r} has length {len(text)}, expected {dim}"
            f" (or pass a single {hex_width(dim)}-digit hex mask)"
        )
    if text.strip("01"):
        col = len(text) - len(text.lstrip("01"))
        raise SetParseError(
            f"bad character {text[col]!r} in vertex string {text!r}", column=col + 1
        )
    return int(text[::-1], 2)  # coordinate 1, the leftmost, is bit 0


def _iter_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending.

    The package's one set-bit list (Warren, *Hacker's Delight* §2-1), for
    the path walk of ``detect.find_induced_cycle`` and the import-time
    table ``_BYTE_BITS``.
    ``detect.claw_center`` (an early-exit walk) and ``detect.claw_at``
    (three ``x & (x - 1)`` picks) from dimension 5, tables below it, and
    the extremal search's include test ``verify._join_cut`` (lowest and
    highest bit) peel bits inline: they need only a few bits.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_BYTE_BITS = tuple(tuple(_iter_bits(b)) for b in range(256))
"""Set-bit positions of every byte value."""


def hex_width(dim: int) -> int:
    """Number of hex digits in the 2^n-bit mask text form."""
    return ((1 << dim) + 3) // 4


_setattr = object.__setattr__


class _Record:
    """Compares (only within its class), hashes, prints and pickles by its ``__slots__``
    fields, which ``__init__`` takes in order and sets by ``_setattr``; refuses assignment."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # through __init__: the default restore assigns each slot
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class VertexSet(_Record):
    """An immutable subset of V(Q_n): a dimension plus a membership mask."""

    __slots__ = ("dim", "mask")

    def __init__(self, dim: int, mask: int):
        if type(dim) is not int or dim < 1 or dim > DIM_CAP:
            check_dim(dim)  # raises; the test is inline to save a call per set
        if type(mask) is not int or mask < 0 or mask >> (1 << dim):
            raise ValueError(f"mask {mask!r} has bits outside [0, 2^{dim})")
        _setattr(self, "dim", dim)
        _setattr(self, "mask", mask)

    @classmethod
    def from_members(cls, members, dim: int) -> "VertexSet":
        buf = bytearray(((1 << check_dim(dim)) + 7) // 8)
        for v in members:
            if type(v) is not int or v < 0 or v >> dim:
                check_vertex(v, dim)  # raises; the test is inline to save a call per member
            buf[v >> 3] |= 1 << (v & 7)
        return cls(dim, int.from_bytes(buf, "little"))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        """Whether ``v`` is a member; False for anything but an ``int``
        label, as ``detect.check_witness`` reads a vertex."""
        return isinstance(v, int) and 0 <= v < (1 << self.dim) and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def members(self) -> list[int]:
        """Member labels, ascending."""
        mask = self.mask
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]

    def remove(self, v: int) -> "VertexSet":
        check_vertex(v, self.dim)
        return VertexSet(self.dim, self.mask & ~(1 << v))

    def to_hex(self) -> str:
        """Fixed-width uppercase hex mask, most significant digit first."""
        return format(self.mask, f"0{hex_width(self.dim)}X")

    def __repr__(self) -> str:
        return f"VertexSet(dim={self.dim}, mask=0x{self.to_hex()})"


_NON_HEX_DIGIT = re.compile("[^0-9a-fA-F]")


def _hex_start(token: str) -> int:
    """Where a stripped hex mask token's digits start: after an optional 0x."""
    return 2 if token[:2] in ("0x", "0X") else 0


def _hex_shaped(token: str, dim: int) -> bool:
    """Whether a stripped token has a hex mask's shape: exactly
    ``hex_width(dim)`` characters, digits or not, after an optional 0x."""
    return len(token) - _hex_start(token) == hex_width(dim)


def set_from_hex(text: str, dim: int) -> VertexSet:
    """Parse a hex mask token of exactly ``hex_width(dim)`` digits.  The
    token is read in place, since ``int`` takes the 0x prefix itself."""
    check_dim(dim)
    token = text.strip()
    start = _hex_start(token)
    if not _hex_shaped(token, dim):
        raise SetParseError(
            f"hex mask {token!r} has {len(token) - start} digits,"
            f" expected {hex_width(dim)} for dimension {dim}"
        )
    bad = _NON_HEX_DIGIT.search(token, start)
    if bad is not None:
        raise SetParseError(f"bad hex digit {bad.group()!r} in mask", column=bad.start() - start + 1)
    mask = int(token, 16)
    if mask >> (1 << dim):  # only Q_1's one digit has more bits than the cube has vertices
        raise SetParseError(f"hex digit {token[start]!r} has bits outside Q_{dim}", column=1)
    return VertexSet(dim, mask)


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
    if type(coord) is not int or not 1 <= coord <= s.dim:
        raise ValueError(f"coordinate {coord!r} out of range [1, {s.dim}]")
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
    if type(coord) is not int or not 1 <= coord <= dim:
        raise ValueError(f"coordinate {coord!r} out of range [1, {dim}]")
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    block = 1 << (coord - 1)
    return VertexSet(dim, _spread_blocks(s.mask, 1 << dim, block) << (bit * block))


@lru_cache(maxsize=None)
def _orbit_stages(dim: int) -> tuple[int, int, str, tuple[tuple[int, int], ...]]:
    """``_orbit``'s replicate constant, byte length, slot format and (shift,
    select) stages.  Slot k + 2^n * r complements flip set k after the
    permutation with insertion-sort code r, in mixed radix with digit r_i in
    0..i for i = 1..n-1: comparator j of step i, which swaps coordinates
    i - j and i - j + 1, applies iff r_i >= j.  A select repeats byte
    strings: ``stride`` slots a digit value, ``radix`` values a period."""
    nverts = 1 << dim
    nbytes = max(nverts, 8) // 8
    nslots = math.factorial(dim) << dim
    low = [_build_block_mask(nverts, 1 << t) for t in range(dim)]

    def stage(shift, select, stride, radix, j):
        on, off = select.to_bytes(nbytes, "little") * stride, bytes(nbytes * stride)
        period = off * j + on * (radix - j)
        return shift, int.from_bytes(period * (nslots // (stride * radix)), "little")

    stages, stride = [], nverts
    for i in range(1, dim):
        for p in range(i - 1, -1, -1):  # comparator j = i - p
            stages.append(stage(1 << p, (low[p] << (1 << p)) & low[p + 1], stride, i + 1, i - p))
        stride *= i + 1
    stages += [stage(1 << t, low[t], 1 << t, 2, 1) for t in range(dim)]
    replicate = int.from_bytes((1).to_bytes(nbytes, "little") * nslots, "little")
    return replicate, nbytes * nslots, "BHIQ"[nbytes.bit_length() - 1], tuple(stages)


def _orbit(s: VertexSet) -> list[int]:
    """Masks of all 2^n * n! automorphic images of ``s``, with repeats.

    A cube automorphism permutes the coordinates, then complements some
    of them, so it permutes the mask's bits.  One multiplication copies
    the mask into one ``max(2^n, 8)``-bit slot per automorphism of a single
    int, and a fixed network of delta swaps (Knuth, *TAOCP* 4A §7.1.3)
    runs on the whole word: the n(n-1)/2 adjacent transpositions of the
    bubble-sort network, of which any permutation is a subword, then the n
    complements, each selected only in the slots that apply it.  The slots
    are read back through a native-order ``memoryview``.  The package's
    one orbit scan: ``canonical_form`` takes its least element, and the
    symmetry-reduced theorem check marks each distinct one as seen so that
    each class is scanned once.
    """
    replicate, length, slot, stages = _orbit_stages(s.dim)
    x = s.mask * replicate
    for shift, select in stages:
        t = (x ^ x >> shift) & select
        x ^= t | t << shift
    return memoryview(x.to_bytes(length, sys.byteorder)).cast(slot).tolist()


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
