"""Command-line entry point.

Subcommands map one-to-one onto the library operations:

  verify-theorem      exhaustive witness check over Q_4 subsets
  verify-proposition  exhaustive check over six-vertex Q_3 subsets
  verify-cases        machine-check the dimension-4 case-analysis claims
  witness             extract a witness from a given vertex set
  extremal            maximum structure-free subset by branch and bound
  random-test         seeded random cross-validation of the extractor

Exit status: 0 when every requested check passes (or a witness is
produced), 1 when a check fails or no witness exists, 2 on usage or
parse errors.

Set input formats: one vertex per line as an n-character binary string
(coordinate 1 first, so label 1 in Q_4 is "1000"), or a single
hexadecimal mask of exactly ceil(2^n / 4) digits where bit v represents
vertex v (the mask for {0, 1} in Q_4 is 0003).  When every line of a
file parses as a binary vertex string the binary reading wins; a lone
4-digit token of 0s and 1s in Q_4 is therefore read as one vertex, not
as a mask.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from typing import Optional

from .detect import check_witness, find_theorem_witness, witness_to_text
from .errors import SetParseError, TheoremViolationError
from .hypercube import NEIGHBOR_TABLE_DIM_CAP, VertexSet, _hex_shaped, check_dim
from .hypercube import set_from_hex, vertex_from_text
from .verify import (
    _EXTREMAL_C8_DIMS,
    _RANDOM_DIMS,
    _THEOREM_SIZES,
    VerificationReport,
    extremal_search,
    random_agreement_test,
    verify_case_claims,
    verify_proposition_exhaustive,
    verify_theorem_exhaustive,
)
from .witness import base_case_solve_structured, find_witness_inductive


_LINE_BLOCK = 1 << 16
"""Characters of input read at a time and cut into whole lines by ``_pieces``."""

_DIGITS = bytes.maketrans(b"01", b"\0\1")
"""Maps the binary digit characters to the bit values 0 and 1."""

_ONE_HOT = bytes(1 << (b & 7) for b in range(256))
"""Maps v & 7 to vertex v's bit within its mask byte."""

_UINT32 = next(code for code in "IL" if memoryview(bytes(8)).cast(code).itemsize == 4)
"""The ``memoryview`` format of native 4-byte unsigned integers."""


def _pieces(blocks):
    """The concatenated text blocks as pieces of whole lines.

    Each block is cut just after its last newline and the rest is
    carried into the next piece; text after the last newline is the
    last piece.  splitlines always breaks after a "\n" (a "\r\n" pair
    stays on one side), so the pieces' lines concatenate to
    ``"".join(blocks).splitlines()``.
    """
    carry = ""
    for block in blocks:
        cut = block.rfind("\n") + 1
        if not cut:
            carry += block
            continue
        yield carry + block[:cut]
        carry = block[cut:]
    if carry:
        yield carry


def parse_set(text: str, n: int) -> VertexSet:
    """Parse a vertex set from text: binary lines or a single hex mask.

    Rejects wrong-length strings, bad digits, duplicate vertices and
    empty input, each with its own diagnostic (with line/column where
    applicable).
    """
    step = _LINE_BLOCK
    return _parse_blocks((text[i : i + step] for i in range(0, len(text), step)), n)


def _parse_blocks(blocks, n: int) -> VertexSet:
    """``parse_set`` over text given as consecutive blocks.

    The text is read one piece of whole lines at a time, and each
    vertex's bit is set as its line is read, so beside one piece only
    the 2^n-bit mask is held, not the text or a list of lines.  A piece
    of lines that are each exactly n binary digits and a "\n" is parsed
    whole by ``_set_piece``, up to a repeated vertex.  Every other piece,
    and the rest of a piece from its repeated vertex on, is read line by
    line through ``vertex_from_text`` with running line numbers, so each
    diagnostic names the same line.
    """
    check_dim(n)
    buf = bytearray(((1 << n) + 7) // 8)
    clean = f"(?:[01]{{{n}}}\n)+"  # the only gate: _set_piece itself checks nothing
    lineno = entries = 0  # lines and non-blank lines read
    duplicate = held = None  # the first repeated vertex; a first line that may be a lone mask
    for piece in _pieces(blocks):
        # piece[n] is tested first so that a hex mask never compiles the pattern
        if held is None and piece[n : n + 1] == "\n" and re.fullmatch(clean, piece):
            count = _set_piece(piece, n, buf)
            lineno += count
            entries += count
            piece = piece[count * (n + 1) :]  # from a repeated vertex on, if any
        for lineno, line in enumerate(piece.splitlines(), lineno + 1):
            tok = line.strip()
            if not tok:
                continue
            if held is not None:
                _located(vertex_from_text, *held, n)  # raises: beside a second line it is no mask
            entries += 1
            # at n = 1 or 4 a mask has a vertex's length: the vertex reading wins
            if entries == 1 and _hex_shaped(tok, n) and (len(tok) != n or tok.strip("01")):
                held = (lineno, tok)
                continue
            v = _located(vertex_from_text, lineno, tok, n)
            bit = 1 << (v & 7)
            if buf[v >> 3] & bit and duplicate is None:
                duplicate = (lineno, tok)
            buf[v >> 3] |= bit
    if not entries:
        raise SetParseError("empty input where a vertex set is required")
    if held is not None:
        return _located(set_from_hex, *held, n)
    if duplicate is not None:
        lineno, tok = duplicate
        raise SetParseError(f"duplicate vertex {tok!r}", line=lineno)
    return VertexSet(n, int.from_bytes(buf, "little"))


def _located(parse, lineno: int, tok: str, n: int):
    """``parse(tok, n)``, its diagnostic placed at line ``lineno``."""
    try:
        return parse(tok, n)
    except SetParseError as exc:
        raise SetParseError(exc.message, line=lineno, column=exc.column) from None


def _set_piece(piece: str, n: int, buf: bytearray) -> int:
    """Set the bit of each vertex of a piece of n-digit binary lines, each
    ending in "\n", up to the first line whose vertex is already set, and
    return how many lines were set: all of them if no vertex repeats.

    Vertex v's bit is bit v & 7 of mask byte v >> 3.  Coordinates 1..3 of
    a line, its first three digits, are v & 7, and coordinates 4..n are
    v >> 3.  Each coordinate's digits, one per line, are a strided slice
    of the piece, so every line's byte index and bit come from a few
    operations per coordinate, not per line.
    """
    count = len(piece) // (n + 1)
    digits = piece.encode().translate(_DIGITS)

    def lane(first: int, stop: int) -> bytes:
        """Per line, one byte of coordinates first + 1 .. stop, low bit first."""
        return sum(
            int.from_bytes(digits[c :: n + 1], "little") << (c - first)
            for c in range(first, min(stop, n))
        ).to_bytes(count, "little")

    bits = lane(0, 3).translate(_ONE_HOT)
    index = bytearray(4 * count)  # v >> 3 < 2^21 as a native 4-byte integer
    for byte, first in enumerate(range(3, n, 8)):
        index[byte if sys.byteorder == "little" else 3 - byte :: 4] = lane(first, first + 8)
    index = memoryview(index).cast(_UINT32)
    pairs = zip(index, bits)
    for i, bit in pairs:
        b = buf[i]
        if b & bit:
            return count - 1 - sum(1 for _ in pairs)  # the lines before this one
        buf[i] = b | bit
    return count


def _load_set(args: argparse.Namespace) -> VertexSet:
    if args.hex_mask is not None:
        return set_from_hex(args.hex_mask, args.n)
    if args.set_file is not None:
        # universal-newline reads never end between the "\r" and "\n" of a pair
        try:
            with open(args.set_file, "r", encoding="utf-8") as fh:
                return _parse_blocks(iter(lambda: fh.read(_LINE_BLOCK), ""), args.n)
        except (OSError, UnicodeDecodeError) as exc:
            raise SetParseError(f"cannot read set file {args.set_file!r}: {exc}") from None
    if args.vertices is not None:
        return parse_set("\n".join(args.vertices.replace(",", " ").split()), args.n)
    raise SetParseError("no vertex set given: use --hex, --set-file or --vertices")


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _report_table(reports: list[VerificationReport]) -> str:
    lines = [
        f"{'check':<34} {'universe':>9} {'passed':>9} {'failed':>7} {'time(s)':>8}  digest"
    ]
    for r in reports:
        lines.append(
            f"{r.check_name:<34} {r.universe_size:>9} {r.passed:>9} {r.failed:>7}"
            f" {r.wall_time:>8.3f}  {r.deterministic_digest[:16]}"
        )
        if r.counterexamples:
            lines.append(f"  counterexamples: {', '.join(r.counterexamples)}")
        if r.details:
            lines.append(f"  details: {json.dumps(r.details, sort_keys=True)}")
    return "\n".join(lines)


def _emit(args: argparse.Namespace, document: dict, table: str) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(table)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write report file {args.output!r}: {exc}") from None


def _finish_reports(args: argparse.Namespace, reports: list[VerificationReport]) -> int:
    document = {"reports": [r.to_dict() for r in reports]}
    _emit(args, document, _report_table(reports))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit status."""
    # random-test's process count; verify-theorem accepts and ignores it
    if "workers" in args and args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")

    if args.command == "verify-theorem":
        report = verify_theorem_exhaustive(args.n, args.size, args.symmetry_reduced)
        return _finish_reports(args, [report])

    if args.command == "verify-proposition":
        return _finish_reports(args, [verify_proposition_exhaustive()])

    if args.command == "verify-cases":
        case = args.case if args.case == "all" else int(args.case)
        return _finish_reports(args, verify_case_claims(case))

    if args.command == "witness":
        hi = NEIGHBOR_TABLE_DIM_CAP
        if args.method == "bruteforce" and not 1 <= args.n <= hi:
            raise ValueError(f"--method bruteforce supports n in 1..{hi}, got {args.n}")
        s = _load_set(args)
        document: dict = {"method": args.method, "set": s.to_hex(), "witness": None}
        case = None
        trace = None
        if args.method == "inductive":
            w, trace = find_witness_inductive(s)
        elif args.method == "structured":
            w, case = base_case_solve_structured(s)
        else:
            w = find_theorem_witness(s)
            if w is None:
                absent = "no witness: the set contains neither a claw nor an induced 8-cycle"
                _emit(args, document, absent)
                return 1
        if not check_witness(w, s):
            raise TheoremViolationError("extracted witness failed validation", s.dim, s.mask)
        text = document["witness"] = witness_to_text(w, s.dim)
        lines = [text]
        if case is not None:
            document["case"] = case
            lines.append(f"case {case}")
        if trace is not None:
            document["trace"] = trace.to_dict()
            for st in trace.steps:
                lines.append(
                    f"dim {st.dim}: split coordinate {st.split_coord},"
                    f" side sizes {st.side_cardinalities}, chose side {st.chosen_side}"
                )
            lines.append(f"base case: {trace.base}")
        _emit(args, document, "\n".join(lines))
        return 0

    if args.command == "extremal":
        forbidden = ("claw", f"C{args.cycle}")
        result = extremal_search(args.n, forbidden)
        document = {"extremal": result.to_dict()}
        table = (
            f"max structure-free size in Q_{result.dim} avoiding {'/'.join(result.forbidden)}:"
            f" {result.max_size}\ncertificate (hex mask): {result.certificate.to_hex()}\n"
            f"half cap: f({result.dim - 1}) = {result.half_cap}\n"
            f"nodes explored: {result.nodes_explored}"
        )
        _emit(args, document, table)
        return 0

    if args.command == "random-test":
        report = random_agreement_test(args.n, args.trials, args.seed, args.workers)
        return _finish_reports(args, [report])

    raise ValueError(f"unknown command {args.command!r}")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the six subcommands."""
    parser = argparse.ArgumentParser(
        prog="cubeclaw",
        description=(
            "Verify and constructively realize the half-plus-one density bound: any"
            " subset of more than half the vertices of Q_n (n >= 4) contains four"
            " vertices inducing a claw or eight inducing a cycle."
        ),
        epilog=(
            "Conventions: vertex text form lists coordinate 1 first and coordinate 1"
            " is the least significant label bit, so in Q_4 the label-1 vertex prints"
            ' as "1000"; hex masks have bit v for vertex v, most significant digit'
            " first, so vertices {4,5,6,7} of Q_4 are 00F0."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, workers_help=None):
        if workers_help is not None:
            sp.add_argument("--workers", type=int, default=1, help=workers_help)
        sp.add_argument("--output", help="write the JSON report document to this path")
        sp.add_argument(
            "--format", choices=("table", "json"), default="table", help="stdout format"
        )

    sp = sub.add_parser("verify-theorem", help="exhaustive subset check in Q_4")
    sp.add_argument("--n", type=int, default=4, help="cube dimension (only 4 supported)")
    sp.add_argument("--size", type=int, default=9, help="subset size, %d..%d" % _THEOREM_SIZES)
    sp.add_argument(
        "--symmetry-reduced",
        action="store_true",
        help="evaluate one representative per automorphism class (cross-check mode)",
    )
    common(sp, workers_help="accepted and ignored: the check always runs in one process")

    sp = sub.add_parser("verify-proposition", help="exhaustive six-subset check in Q_3")
    common(sp)

    sp = sub.add_parser("verify-cases", help="machine-check the case-analysis claims")
    cases = ("1", "2", "3", "4", "all")
    sp.add_argument("--case", default="all", choices=cases, help="one split, or all (default)")
    common(sp)

    sp = sub.add_parser("witness", help="extract a claw or cycle witness from a set")
    sp.add_argument("--n", type=int, required=True, help="cube dimension")
    src = sp.add_mutually_exclusive_group()
    src.add_argument("--hex", dest="hex_mask", help="set as a hex mask")
    src.add_argument("--set-file", help="file of binary vertex lines or one hex mask")
    src.add_argument("--vertices", help="inline comma/space-separated binary vertices")
    sp.add_argument(
        "--method",
        choices=("inductive", "bruteforce", "structured"),
        default="inductive",
        help=(
            "inductive descent (default), direct search (n in 1..%d),"
            " or case dispatch" % NEIGHBOR_TABLE_DIM_CAP
        ),
    )
    common(sp)

    sp = sub.add_parser("extremal", help="largest structure-free subset")
    n_help = "cube dimension, %d..%d (3 with --cycle 6)" % _EXTREMAL_C8_DIMS
    sp.add_argument("--n", type=int, required=True, help=n_help)
    sp.add_argument(
        "--cycle", type=int, default=8, choices=(6, 8), help="forbidden cycle length"
    )
    common(sp)

    sp = sub.add_parser("random-test", help="seeded random extractor validation")
    sp.add_argument("--n", type=int, required=True, help="cube dimension, %d..%d" % _RANDOM_DIMS)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, workers_help="processes to run on (default 1), at most one per CPU and per trial")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser: built on the first call in a process, not at
    import, and reused by every later call; parsing keeps no state in it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run(args)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION (this is a bug, please report): {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # SetParseError and InsufficientCardinalityError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
