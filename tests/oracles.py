"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive and avoids the library's bitmask
paths: adjacency via string comparison, subgraph checks via
itertools.combinations, connectivity via BFS over dict adjacency.  These
stay the ground truth the fast implementations are checked against.
``parse_lines`` is the set parser read one line at a time, the reference
for the parser's whole-piece path; it restates the binary-vertex and
hex-mask rules rather than calling the library's readers.
"""

from __future__ import annotations

import random
from itertools import combinations

from cubeclaw.errors import SetParseError
from cubeclaw.hypercube import VertexSet, hex_width


def bits(v: int, dim: int) -> str:
    return format(v, f"0{dim}b")


def naive_adjacent(u: int, v: int, dim: int) -> bool:
    a, b = bits(u, dim), bits(v, dim)
    return sum(1 for x, y in zip(a, b) if x != y) == 1


def automorphic_image(members, dim: int, perm, flips: int) -> list[int]:
    """Image of the members under the cube automorphism whose string
    position i reads position ``perm[i]`` of ``bits(v)``, then flips the
    positions where ``bits(flips)`` has a 1."""
    flip = bits(flips, dim)
    return [
        int("".join("1" if bits(v, dim)[p] != f else "0" for p, f in zip(perm, flip)), 2)
        for v in members
    ]


def induced_edges(members, dim: int) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(sorted(members), 2) if naive_adjacent(u, v, dim)]


def degree_map(members, dim: int) -> dict[int, int]:
    deg = {v: 0 for v in members}
    for u, v in induced_edges(members, dim):
        deg[u] += 1
        deg[v] += 1
    return deg


def is_connected(members, dim: int) -> bool:
    members = list(members)
    if not members:
        return True
    adj = {v: set() for v in members}
    for u, v in induced_edges(members, dim):
        adj[u].add(v)
        adj[v].add(u)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(members)


def claw_exists(members, dim: int) -> bool:
    """Any induced K_{1,3}: a centre and three of its in-set neighbours,
    no two of them adjacent."""
    members = list(members)
    for centre in members:
        hood = [v for v in members if naive_adjacent(centre, v, dim)]
        for trio in combinations(hood, 3):
            if not any(naive_adjacent(u, v, dim) for u, v in combinations(trio, 2)):
                return True
    return False


def induces_cycle(members, dim: int) -> bool:
    """True iff the members induce exactly one simple cycle through all."""
    members = list(members)
    deg = degree_map(members, dim)
    return (
        len(members) >= 3
        and all(d == 2 for d in deg.values())
        and is_connected(members, dim)
    )


def induced_cycle_exists(members, dim: int, k: int) -> bool:
    return any(induces_cycle(sub, dim) for sub in combinations(sorted(members), k))


def join_verdict(members, v: int, dim: int, k: int):
    """Why v cannot join ``members``, a set with no claw and no induced
    C_k: "claw_degree" if the union has a claw, else "closed_cycle" if v
    and some k - 1 members induce a C_k, else None."""
    members = list(members)
    if claw_exists([*members, v], dim):
        return "claw_degree"
    if any(induces_cycle([*sub, v], dim) for sub in combinations(members, k - 1)):
        return "closed_cycle"
    return None


def classify_five(members, dim: int) -> str:
    deg = degree_map(members, dim)
    if max(deg.values()) >= 3:
        return "has_degree3_vertex"
    if min(deg.values()) == 0:
        return "has_isolated_vertex"
    if not is_connected(members, dim):
        return "disconnected"
    if all(d == 2 for d in deg.values()):
        return "induced_cycle"
    if sorted(deg.values()) == [1, 1, 2, 2, 2]:
        return "path_p5"
    return "other"


def path_order_of_p5(members, dim: int) -> list[int]:
    """Vertices of an induced P5 in path order, smaller endpoint first."""
    deg = degree_map(members, dim)
    ends = sorted(v for v, d in deg.items() if d == 1)
    adj = {v: [] for v in members}
    for u, v in induced_edges(members, dim):
        adj[u].append(v)
        adj[v].append(u)
    order = [ends[0]]
    prev = None
    while len(order) < len(members):
        cur = order[-1]
        nxt = [w for w in adj[cur] if w != prev]
        prev = cur
        order.append(nxt[0])
    return order


def binomial(n: int, k: int) -> int:
    """Pascal-triangle binomial, independent of math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def shuffle_prefix(n: int, seed: int, index: int) -> list[int]:
    """Random-agreement trial ``index``'s draw as first specified: a full
    ``Random.shuffle`` of the 2^n labels, then its first 2^(n-1) + 1."""
    labels = list(range(2**n))
    random.Random(f"{seed}:{index}").shuffle(labels)
    return labels[: 2 ** (n - 1) + 1]


def parse_lines(text: str, n: int):
    """Reference for ``cli.parse_set``: the whole text's ``splitlines()``
    read one line at a time, with the parser's diagnostics and the same
    precedence (a bad line beats a duplicate; a lone token of hex-mask
    width is read as a mask)."""
    buf = bytearray(((1 << n) + 7) // 8)
    entries = 0
    bad = duplicate = None
    for lineno, line in enumerate(text.splitlines(), 1):
        tok = line.strip()
        if not tok:
            continue
        entries += 1
        if bad is not None:
            break
        if len(tok) == n and not tok.strip("01"):
            v = int(tok[::-1], 2)
            bit = 1 << (v & 7)
            if buf[v >> 3] & bit and duplicate is None:
                duplicate = (lineno, tok)
            buf[v >> 3] |= bit
        else:
            bad = (lineno, tok)
    if not entries:
        raise SetParseError("empty input where a vertex set is required")
    if bad is None:
        if duplicate is not None:
            raise SetParseError(f"duplicate vertex {duplicate[1]!r}", line=duplicate[0])
        return VertexSet(n, int.from_bytes(buf, "little"))
    lineno, tok = bad
    if entries == 1:
        digits = tok[2:] if tok.lower().startswith("0x") else tok
        if len(digits) == hex_width(n):
            # a mask: hex digits only, and no bit past the cube's 2^n
            # vertices, which only Q_1's one digit can hold
            for col, ch in enumerate(digits, 1):
                if ch not in "0123456789abcdefABCDEF":
                    raise SetParseError(f"bad hex digit {ch!r} in mask", line=lineno, column=col)
            mask = int(digits, 16)
            if mask >= 2 ** (2**n):
                raise SetParseError(
                    f"hex digit {digits[0]!r} has bits outside Q_{n}", line=lineno, column=1
                )
            return VertexSet(n, mask)
    if len(tok) != n:
        raise SetParseError(
            f"vertex string {tok!r} has length {len(tok)}, expected {n}"
            f" (or pass a single {hex_width(n)}-digit hex mask)",
            line=lineno,
        )
    col = len(tok) - len(tok.lstrip("01"))
    raise SetParseError(
        f"bad character {tok[col]!r} in vertex string {tok!r}", line=lineno, column=col + 1
    )
