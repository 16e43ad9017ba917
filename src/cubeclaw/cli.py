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
import sys
from typing import Optional

from .detect import check_witness, find_theorem_witness, witness_to_text
from .errors import InsufficientCardinalityError, SetParseError, TheoremViolationError
from .hypercube import VertexSet, check_dim, hex_width, set_from_hex
from .verify import (
    _BRUTEFORCE_DIMS,
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
"""Characters of input read and split into lines at a time by ``_lines``."""


def _lines(blocks):
    """The lines of the concatenated text blocks exactly as
    ``"".join(blocks).splitlines()`` gives them, without joining them.

    Each block is split just after its last newline and the rest is
    carried into the next block.  splitlines always breaks after a
    "\n" (a "\r\n" pair stays on one side), so the pieces' lines
    concatenate to the whole text's.
    """
    carry = ""
    for block in blocks:
        cut = block.rfind("\n") + 1
        if not cut:
            carry += block
            continue
        yield from (carry + block[:cut]).splitlines()
        carry = block[cut:]
    yield from carry.splitlines()


def parse_set(text: str, n: int) -> VertexSet:
    """Parse a vertex set from text: binary lines or a single hex mask.

    Rejects wrong-length strings, bad characters, duplicate vertices and
    empty input, each with its own diagnostic (with line/column where
    applicable).
    """
    step = _LINE_BLOCK
    return _parse_blocks((text[i : i + step] for i in range(0, len(text), step)), n)


def _parse_blocks(blocks, n: int) -> VertexSet:
    """``parse_set`` over text given as consecutive blocks.

    Binary lines are read in one pass that sets each vertex's bit as its
    line is read, so beside one block (or one line, if longer) only the
    2^n-bit mask is held, not the text or a list of lines.
    """
    check_dim(n)
    buf = bytearray(((1 << n) + 7) // 8)
    entries = 0  # non-blank lines read
    bad = None  # the first line that is not a binary vertex string
    duplicate = None  # the first line repeating an earlier vertex
    for lineno, line in enumerate(_lines(blocks), 1):
        tok = line.strip()
        if not tok:
            continue
        entries += 1
        if bad is not None:
            break  # a second line beside a non-binary one: not a lone hex mask
        if len(tok) == n and not tok.strip("01"):
            v = int(tok[::-1], 2)  # coordinate 1, the leftmost, is bit 0
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
            lineno, tok = duplicate
            raise SetParseError(f"duplicate vertex {tok!r}", line=lineno)
        return VertexSet(n, int.from_bytes(buf, "little"))

    lineno, tok = bad
    if entries == 1:
        stripped = tok[2:] if tok.lower().startswith("0x") else tok
        if len(stripped) == hex_width(n):
            try:
                return set_from_hex(tok, n)
            except SetParseError as exc:
                raise SetParseError(exc.message, line=lineno, column=exc.column) from None

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


def _load_set(args: argparse.Namespace) -> VertexSet:
    if args.hex_mask:
        return set_from_hex(args.hex_mask, args.n)
    if args.set_file:
        # universal-newline reads never end between the "\r" and "\n" of a pair
        try:
            with open(args.set_file, "r", encoding="utf-8") as fh:
                return _parse_blocks(iter(lambda: fh.read(_LINE_BLOCK), ""), args.n)
        except OSError as exc:
            raise SetParseError(f"cannot read set file {args.set_file!r}: {exc}") from None
    if args.vertices:
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
    if args.command == "verify-theorem":
        report = verify_theorem_exhaustive(args.n, args.size, args.workers, args.symmetry_reduced)
        return _finish_reports(args, [report])

    if args.command == "verify-proposition":
        return _finish_reports(args, [verify_proposition_exhaustive(args.workers)])

    if args.command == "verify-cases":
        case = args.case if args.case == "all" else int(args.case)
        return _finish_reports(args, verify_case_claims(case, args.workers))

    if args.command == "witness":
        lo, hi = _BRUTEFORCE_DIMS
        if args.method == "bruteforce" and not lo <= args.n <= hi:
            raise ValueError(f"--method bruteforce supports n in {lo}..{hi}, got {args.n}")
        s = _load_set(args)
        case = None
        trace = None
        if args.method == "inductive":
            w, trace = find_witness_inductive(s)
        elif args.method == "structured":
            w, case = base_case_solve_structured(s)
        else:
            w = find_theorem_witness(s)
            if w is None:
                print("no witness: the set contains neither a claw nor an induced 8-cycle")
                return 1
        if not check_witness(w, s):
            raise TheoremViolationError("extracted witness failed validation", s.dim, s.mask)
        text = witness_to_text(w, s.dim)
        document: dict = {"witness": text, "method": args.method, "set": s.to_hex()}
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
        cap = (
            "none (n <= 2, uncapped search)"
            if result.half_cap is None
            else f"f({result.dim - 1}) = {result.half_cap}"
        )
        table = (
            f"max structure-free size in Q_{result.dim} avoiding {'/'.join(result.forbidden)}:"
            f" {result.max_size}\ncertificate (hex mask): {result.certificate.to_hex()}\n"
            f"half cap: {cap}\nnodes explored: {result.nodes_explored}"
        )
        _emit(args, document, table)
        return 0

    if args.command == "random-test":
        report = random_agreement_test(args.n, args.trials, args.seed, args.workers)
        return _finish_reports(args, [report])

    raise ValueError(f"unknown command {args.command!r}")


def build_parser() -> argparse.ArgumentParser:
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

    def common(sp, workers=True):
        if workers:
            sp.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
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
    common(sp)

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
            "inductive descent (default), direct search (n in %d..%d),"
            " or case dispatch" % _BRUTEFORCE_DIMS
        ),
    )
    common(sp, workers=False)

    sp = sub.add_parser("extremal", help="largest structure-free subset")
    n_help = "cube dimension, %d..%d (3 with --cycle 6)" % _EXTREMAL_C8_DIMS
    sp.add_argument("--n", type=int, required=True, help=n_help)
    sp.add_argument(
        "--cycle", type=int, default=8, choices=(6, 8), help="forbidden cycle length"
    )
    common(sp, workers=False)

    sp = sub.add_parser("random-test", help="seeded random extractor validation")
    sp.add_argument("--n", type=int, required=True, help="cube dimension, %d..%d" % _RANDOM_DIMS)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION (this is a bug, please report): {exc}", file=sys.stderr)
        return 1
    except (SetParseError, InsufficientCardinalityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
