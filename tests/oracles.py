"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive and avoids the library's bitmask
paths: adjacency via string comparison, subgraph checks via
itertools.combinations, connectivity via BFS over dict adjacency.  These
stay the ground truth the fast implementations are checked against.
"""

from __future__ import annotations

import random
from itertools import combinations


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
    """Any 4-subset inducing K_{1,3}: 3 edges, one degree-3 vertex."""
    members = list(members)
    for four in combinations(members, 4):
        edges = induced_edges(four, dim)
        if len(edges) != 3:
            continue
        deg = degree_map(four, dim)
        if sorted(deg.values()) == [1, 1, 1, 3]:
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
