"""Independent model of the outputs the benchmark checks.

Nothing here imports ``cubeclaw``.  Sets are plain Python sets of vertex
labels and adjacency is a Hamming-distance test, so the model shares no
code (and no ``neighbor_masks`` table) with the program under test.

- ``dense_labels``: the seeded input sets of the ``extract`` workload.
- ``expected_witness_doc``: the ``witness --format json`` document the
  seed commit prints for such a set: descent on coordinate 1 to
  dimension 4, then the least claw-center (or the first induced 8-cycle)
  by label order, relabeled back up.
- ``witness_problems``: validates a witness line against a set from the
  membership bits and pairwise Hamming distances alone.
"""

from __future__ import annotations

import hashlib
import random


def dense_labels(seed: int, n: int) -> list[int]:
    """The first 2^(n-1) + 1 labels of a shuffle seeded by (seed, n)."""
    labels = list(range(1 << n))
    random.Random(f"perfbench:{seed}:{n}").shuffle(labels)
    return labels[: (1 << (n - 1)) + 1]


def mask_of(labels) -> int:
    buf = bytearray(max(labels, default=0) // 8 + 1)
    for v in labels:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def hex_text(labels, n: int) -> str:
    width = ((1 << n) + 3) // 4
    return format(mask_of(labels), f"0{width}X")


def vertex_text(v: int, n: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def vertex_from_text(text: str) -> int:
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def lines_text(labels, n: int) -> str:
    return "\n".join(vertex_text(v, n) for v in sorted(labels))


def _adjacent(u: int, v: int) -> bool:
    return (u ^ v).bit_count() == 1


def _first_claw(members: list[int]):
    for v in members:
        hood = [u for u in members if _adjacent(u, v)]
        if len(hood) >= 3:
            return [v] + hood[:3]
    return None


def _first_induced_cycle(members: list[int], k: int):
    """Same search order as the program: least start, ascending extension."""

    def dfs(start, path, allowed):
        last = path[-1]
        on_path = set(path)
        for u in sorted(allowed - on_path):
            if not _adjacent(u, last):
                continue
            touching = {w for w in path if _adjacent(u, w)}
            if len(path) == k - 1:
                if _adjacent(u, start) and touching == {last, start}:
                    return path + [u]
            elif touching == {last}:
                found = dfs(start, path + [u], allowed)
                if found:
                    return found
        return None

    for start in members:
        allowed = {v for v in members if v > start}
        if len(allowed) + 1 < k:
            break
        found = dfs(start, [start], allowed)
        if found:
            return found
    return None


def expected_extraction(labels, n: int):
    """(witness kind, labels in Q_n, trace steps) of the inductive extractor."""
    current = set(labels)
    steps = []
    for dim in range(n, 4, -1):
        side0 = {v >> 1 for v in current if not v & 1}
        side1 = {v >> 1 for v in current if v & 1}
        chosen = 0 if len(side0) >= len(side1) else 1
        steps.append((dim, chosen, len(side0), len(side1)))
        current = side0 if chosen == 0 else side1
    base = sorted(current)
    witness = _first_claw(base)
    kind = "claw"
    if witness is None:
        witness = _first_induced_cycle(base, 8)
        kind = "cycle"
    if witness is None:
        raise ValueError("reference found no witness at the base case")
    for _dim, chosen, _a, _b in reversed(steps):
        witness = [(v << 1) | chosen for v in witness]
    return kind, witness, steps


def expected_witness_doc(labels, n: int) -> dict:
    """The projected ``witness --format json`` document (see ``project``)."""
    kind, witness, steps = expected_extraction(labels, n)
    return {
        "witness": " ".join([kind] + [vertex_text(v, n) for v in witness]),
        "method": "inductive",
        "set": hex_text(labels, n),
        "trace": {
            "steps": [
                {
                    "dim": dim,
                    "split_coord": 1,
                    "chosen_side": chosen,
                    "side_cardinalities": [a, b],
                }
                for dim, chosen, a, b in steps
            ],
            "base": "brute-force",
        },
    }


def witness_problems(line: str, mask: int, n: int) -> list[str]:
    """Reasons a witness line is not a claw or induced cycle inside the set."""
    kind, *tokens = line.split() or [""]
    if any(len(tok) != n or set(tok) - {"0", "1"} for tok in tokens):
        return [f"malformed vertex in {line!r}"]
    vs = [vertex_from_text(tok) for tok in tokens]
    problems = []
    if len(set(vs)) != len(vs):
        problems.append("repeated vertex")
    problems += [f"vertex {v} not in set" for v in vs if not (mask >> v) & 1]
    if kind == "claw":
        if len(vs) != 4:
            return problems + ["claw needs 4 vertices"]
        center, *leaves = vs
        if not all(_adjacent(center, leaf) for leaf in leaves):
            problems.append("leaf not adjacent to center")
        if any(_adjacent(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1 :]):
            problems.append("adjacent leaves")
    elif kind == "cycle":
        k = len(vs)
        if k < 4 or k % 2:
            return problems + [f"bad cycle length {k}"]
        for i in range(k):
            for j in range(i + 1, k):
                ring = j - i in (1, k - 1)
                if _adjacent(vs[i], vs[j]) != ring:
                    problems.append(f"{'missing edge' if ring else 'chord'} {i}-{j}")
    else:
        problems.append(f"unknown witness kind {kind!r}")
    return problems


def trace_problems(trace: dict, size: int) -> list[str]:
    """The half-plus-one inequality and the cardinality sums at each level."""
    problems = []
    prev = size
    for st in trace["steps"]:
        a, b = st["side_cardinalities"]
        chosen = (a, b)[st["chosen_side"]]
        if a + b != prev:
            problems.append(f"dim {st['dim']}: sides sum to {a + b}, not {prev}")
        if chosen < (1 << (st["dim"] - 2)) + 1:
            problems.append(f"dim {st['dim']}: chosen side below half plus one")
        prev = chosen
    return problems


def passing_digest(count: int) -> str:
    """Report digest of ``count`` configurations that all passed."""
    return hashlib.sha256(b"1" * count).hexdigest()
