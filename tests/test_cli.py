"""Command-line surface: set parsing, dispatch, exit codes, output files."""

import argparse
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import cubeclaw
from cubeclaw import cli, verify
from cubeclaw.cli import build_parser, main, parse_set, run
from cubeclaw.detect import Claw, InducedCycle, check_witness
from cubeclaw.errors import SetParseError
from cubeclaw.hypercube import VertexSet, hex_width, vertex_from_text, vertex_to_text
from cubeclaw.witness import ExtractionTrace
from oracles import parse_lines


def parse_witness_line(line, n):
    kind, *tokens = line.split()
    vertices = [vertex_from_text(tok, n) for tok in tokens]
    if kind == "claw":
        return Claw(vertices[0], tuple(vertices[1:]))
    assert kind == "cycle"
    return InducedCycle(tuple(vertices))


def test_parse_set_binary_lines():
    s = parse_set("000\n111\n", 3)
    assert s.members() == [0, 7]


def test_parse_set_hex_token():
    assert parse_set("00F0", 4).members() == [4, 5, 6, 7]
    assert parse_set("7E", 3).members() == [1, 2, 3, 4, 5, 6]
    assert parse_set("0x7E", 3).members() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(SetParseError, match=r"^bad hex digit 'G' in mask \(line 2, column 2\)$"):
        parse_set("\n 0G\n", 3)


def test_q1_hex_digit_holds_only_two_vertices(capsys):
    # a Q_1 mask's one digit has 4 bits but Q_1 has 2 vertices
    message = "hex digit 'B' has bits outside Q_1"
    for text in ("B", "0xB"):
        with pytest.raises(SetParseError, match=rf"^{message} \(line 1, column 1\)$"):
            parse_set(text, 1)
    assert parse_set("3", 1).members() == [0, 1]
    code, _, err = run_cli(capsys, "witness", "--n", "1", "--hex", "B")
    assert code == 2
    assert err == f"error: {message}\n"


def test_parse_set_binary_wins_ties_in_q4():
    # a lone 4-char token of 0/1 is a vertex, not a mask; the 0x prefix
    # forces the mask reading
    assert parse_set("0101", 4).members() == [vertex_from_text("0101", 4)]
    assert parse_set("0x0101", 4).members() == [0, 8]


def test_parse_set_round_trips():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.choice((2, 3, 4, 5))
        s = VertexSet(n, rng.randrange(1 << (1 << n)))
        if len(s):
            assert parse_set("\n".join(vertex_to_text(v, n) for v in s), n) == s
        assert parse_set("0x" + s.to_hex(), n) == s


def test_parse_set_distinct_diagnostics():
    with pytest.raises(SetParseError, match="empty input"):
        parse_set("   \n", 3)
    with pytest.raises(SetParseError, match="duplicate vertex.*line 3"):
        parse_set("000\n111\n000\n", 3)
    with pytest.raises(SetParseError, match="length"):
        parse_set("0102", 3)
    with pytest.raises(SetParseError, match="bad character.*line 1, column 3"):
        parse_set("012", 3)
    with pytest.raises(SetParseError, match="length.*line 2"):
        parse_set("000\n01\n", 3)
    with pytest.raises(SetParseError, match="hex"):
        parse_set("0xZZ", 3)


def test_parse_set_long_input_keeps_first_diagnostic():
    # ~108 KB of CRLF lines: more than one block of the line reader
    n = 16
    s = VertexSet.from_members(random.Random(9).sample(range(1 << n), 6000), n)
    lines = [vertex_to_text(v, n) for v in s]
    assert parse_set("\r\n".join(lines), n) == s
    with pytest.raises(SetParseError, match=r"duplicate vertex.*\(line 5001\)$"):
        dups = lines[:5000] + [lines[17]] + lines[5000:5500] + [lines[18]] + lines[5500:]
        parse_set("\r\n".join(dups), n)
    bad = lines[:4000] + ["0" * (n - 1)] + lines[4000:4500] + ["2" * n] + lines[4500:]
    with pytest.raises(SetParseError, match=r"length 15.*\(line 4001\)$"):
        parse_set("\r\n".join(bad), n)


def _parse_outcome(parse):
    try:
        return ("set", parse().mask)
    except SetParseError as exc:
        return ("error", exc.message, exc.line, exc.column)


def test_set_file_is_read_in_blocks(tmp_path, monkeypatch):
    # a file read one block at a time, and text sliced into blocks, parse
    # exactly as the whole text does: same set, or same message/line/column
    n = 5
    labels = random.Random(11).sample(range(1 << n), 20)
    lines = [vertex_to_text(v, n) for v in labels]
    hex_mask = VertexSet.from_members(range(17), n).to_hex()
    bad_lines = lines[:11] + ["", "0111"] + lines[11:]  # the blank line follows a "\n"
    bodies = {
        "lines": lines,
        "blank lines": lines[:5] + ["", "  "] + lines[5:] + [""],
        "duplicates": lines[:9] + [lines[2]] + lines[9:] + [lines[4]],
        "bad line": lines[:12] + ["01021"] + lines[12:] + ["0111"],
        "short line": lines[:3] + ["0101"] + lines[3:],
        "hex mask": [hex_mask],
        "hex mask padded": ["", "  0x" + hex_mask + " ", ""],
        "bad hex": [hex_mask[:5] + "G" + hex_mask[6:]],
        "mixed endings": [
            "".join(a + b for a, b in zip(bad_lines, ["\n", "\x0c", "\r\n", "\x0b", "\r"] * 5))
        ],
    }
    members = ("set", VertexSet.from_members(labels, n).mask)
    for ending in ("\n", "\r\n", "\r", "\x0b", "\x0c"):
        for name, body in bodies.items():
            for tail in ("", ending):
                raw = ending.join(body) + tail
                path = tmp_path / "set.txt"
                path.write_bytes(raw.encode())
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                whole = _parse_outcome(lambda: parse_set(text, n))
                raw_whole = _parse_outcome(lambda: parse_set(raw, n))
                if name in ("lines", "blank lines"):
                    assert whole == raw_whole == members
                argv = ["witness", "--n", str(n), "--set-file", str(path)]
                args = build_parser().parse_args(argv)
                for block in (1, 2, 3, 7):
                    monkeypatch.setattr(cli, "_LINE_BLOCK", block)
                    case = (name, repr(ending), repr(tail), block)
                    assert _parse_outcome(lambda: cli._load_set(args)) == whole, case
                    assert _parse_outcome(lambda: parse_set(text, n)) == whole, case
                    assert _parse_outcome(lambda: parse_set(raw, n)) == raw_whole, case
                monkeypatch.undo()



def _clean_lines(n, count, seed):
    labels = random.Random(seed).sample(range(1 << n), min(count, 1 << n))
    return labels, [vertex_to_text(v, n) for v in labels]


def test_lone_hex_mask_file_peak(tmp_path):
    # beside the text and the 2^n-bit mask the reader keeps no copy of the
    # token: no discarded vertex error quoting it, no re-cased or sliced copy
    n = 20
    s = VertexSet(n, random.Random(5).getrandbits(1 << n))
    path = tmp_path / "mask.txt"
    path.write_text(s.to_hex() + "\n")
    args = build_parser().parse_args(["witness", "--n", str(n), "--set-file", str(path)])
    tracemalloc.start()
    try:
        assert cli._load_set(args) == s
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size


def test_clean_lines_take_the_block_path(tmp_path, monkeypatch):
    # a piece of "\n"-ended n-digit lines never reaches the per-line reader
    n = 16
    labels, lines = _clean_lines(n, 12000, 21)  # 204 K characters: four blocks
    text = "\n".join(lines) + "\n"
    path = tmp_path / "set.txt"
    path.write_text(text)
    args = build_parser().parse_args(["witness", "--n", str(n), "--set-file", str(path)])

    def per_line(*_):
        raise AssertionError("clean piece read line by line")

    monkeypatch.setattr(cli, "vertex_from_text", per_line)
    expected = VertexSet.from_members(labels, n)
    assert parse_set(text, n) == expected
    assert cli._load_set(args) == expected


def test_block_path_matches_per_line_reader(tmp_path, monkeypatch):
    # "\n"-only input, more than one block at n = 16, 17 and 24, read from
    # a file and from text in blocks of 64 K and 211 characters: the set, or
    # the message/line/column, of the per-line reference parser
    for n, count in ((1, 2), (8, 200), (9, 400), (16, 4000), (17, 3700), (24, 2650)):
        labels, lines = _clean_lines(n, count, n)
        k = len(lines) // 2
        under = "0_" + "1" * (n - 2) if n > 1 else "_"
        cases = {
            "clean": "\n".join(lines) + "\n",
            "no final newline": "\n".join(lines),
            "duplicate in a block": "\n".join(lines[:k] + [lines[k - 1]] + lines[k:]) + "\n",
            "two duplicates in one block": "\n".join(
                lines[:k] + [lines[k - 1]] + lines[k : k + 2] + [lines[0]] + lines[k + 2 :]
            )
            + "\n",
            "duplicate across blocks": "\n".join(lines + [lines[0]]) + "\n",
            "bad line in a later block": "\n".join(lines[:-1] + ["2" * n] + lines[-1:]) + "\n",
            "underscore": "\n".join(lines[:k] + [under] + lines[k:]) + "\n",
            "trailing spaces": "\n".join(lines[:k] + [lines[k] + "  "] + lines[k + 1 :]) + "\n",
            "blank line": "\n".join(lines[:k] + [""] + lines[k:]) + "\n",
            "bad and duplicate": "\n".join(lines + [lines[1], n * "3"]) + "\n",
        }
        members = ("set", VertexSet.from_members(labels, n).mask)
        for name, text in cases.items():
            expected = _parse_outcome(lambda: parse_lines(text, n))
            if name in ("clean", "no final newline", "trailing spaces", "blank line"):
                assert expected == members, (n, name)
            elif name.startswith(("duplicate", "two duplicates")):
                assert expected[1].startswith("duplicate vertex"), (n, name)
            elif name == "underscore":
                column = under.index("_") + 1
                assert expected[1].startswith("bad character '_'") and expected[3] == column, n
            path = tmp_path / "set.txt"
            path.write_text(text)
            args = build_parser().parse_args(["witness", "--n", str(n), "--set-file", str(path)])
            assert _parse_outcome(lambda: cli._load_set(args)) == expected, (n, name)
            assert _parse_outcome(lambda: parse_set(text, n)) == expected, (n, name)
            monkeypatch.setattr(cli, "_LINE_BLOCK", 211)
            assert _parse_outcome(lambda: parse_set(text, n)) == expected, (n, name, 211)
            monkeypatch.undo()


# every break str.splitlines knows
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# characters no vertex or mask digit may be: non-ASCII digits that int()
# would read, an underscore it would skip, inner whitespace, other letters
_BAD_CHARS = "2G_x \t\xa0\u0661\u0967\uff11\xb9"


def _fuzz_case(rng):
    """A seeded input for the set reader: n, and text of random binary
    lines or one hex token, with bad characters, blank lines and repeats."""
    n = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9, 12))
    if rng.random() < 0.3:
        digits = rng.choice(("0123456789ABCDEF", "0123456789abcdefABCDEF"))
        token = "".join(rng.choice(digits) for _ in range(hex_width(n)))
        lines = [rng.choice(("", "0x", "0X")) + token]
    else:
        lines = ["".join(rng.choice("01") for _ in range(n)) for _ in range(rng.randint(0, 24))]
        if lines and rng.random() < 0.2:
            lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):  # inserted or in place of one
        if lines:
            i = rng.randrange(len(lines))
            col = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:col] + rng.choice(_BAD_CHARS) + lines[i][col + rng.randint(0, 1) :]
    for _ in range(rng.choice((0, 0, 1, 2))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", " ", "\t ")))
    breaks = rng.choice((_BREAKS[:1], rng.sample(_BREAKS, 1), _BREAKS))
    ends = [rng.choice(breaks) for _ in lines]
    if ends and rng.random() < 0.5:
        ends[-1] = ""
    return n, "".join(line + end for line, end in zip(lines, ends))


def test_set_reader_fuzz_matches_per_line_reader(tmp_path, monkeypatch):
    # 2,000 seeded inputs, parsed in blocks of 64 K, 7 and 1 characters and
    # every 40th also from a file: the set, or the message/line/column, of
    # the per-line reference parser
    rng = random.Random(15)
    path = tmp_path / "set.txt"
    kinds = Counter()
    for i in range(2000):
        n, text = _fuzz_case(rng)
        expected = _parse_outcome(lambda: parse_lines(text, n))
        kinds[expected[0]] += 1
        for block in (1 << 16, 7, 1):
            monkeypatch.setattr(cli, "_LINE_BLOCK", block)
            assert _parse_outcome(lambda: parse_set(text, n)) == expected, (n, text, block)
        if i % 40 == 0:
            path.write_bytes(text.encode())
            args = build_parser().parse_args(["witness", "--n", str(n), "--set-file", str(path)])
            assert _parse_outcome(lambda: cli._load_set(args)) == expected, (n, text)
    assert min(kinds["set"], kinds["error"]) > 500


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--n", "4", "--size", "15")
    assert code == 0
    assert "theorem-exhaustive-n4-size15" in out


def test_cli_verify_theorem_json(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--size", "9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["universe_size"] == 11440
    assert doc["reports"][0]["failed"] == 0


def test_cli_verify_theorem_runs_in_one_process_at_any_workers(capsys):
    docs = []
    for workers in ("1", "2"):
        argv = ("verify-theorem", "--n", "4", "--size", "9", "--workers", workers)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report.pop("worker_count") == 1
        report.pop("wall_time")
        docs.append(report)
    assert docs[1] == docs[0]


def test_cli_verify_proposition(capsys):
    code, out, _ = run_cli(capsys, "verify-proposition", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["passed"] == 28


def test_cli_verify_cases(capsys):
    code, out, _ = run_cli(capsys, "verify-cases", "--case", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"][0]["universe_size"] == 8


def test_cli_witness_structured_case1(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--n", "4", "--hex", "5557", "--method", "structured"
    )
    assert code == 0
    lines = out.strip().splitlines()
    w = parse_witness_line(lines[0], 4)
    assert check_witness(w, VertexSet(4, 0x5557))
    assert lines[1] == "case 1"


def test_cli_witness_inductive_prints_trace(capsys):
    evens = VertexSet.from_members(
        [v for v in range(32) if bin(v).count("1") % 2 == 0] + [1], 5
    )
    code, out, _ = run_cli(capsys, "witness", "--n", "5", "--hex", evens.to_hex())
    assert code == 0
    lines = out.strip().splitlines()
    w = parse_witness_line(lines[0], 5)
    assert check_witness(w, evens)
    assert any("split coordinate 1" in line for line in lines)
    assert lines[-1] == "base case: brute-force"


def test_cli_witness_failing_validation_is_a_theorem_violation(capsys, monkeypatch):
    # leaves 3, 5 and 6 are no neighbours of center 0
    bogus = Claw(0, (3, 5, 6)), ExtractionTrace((), "brute-force")
    monkeypatch.setattr(cli, "find_witness_inductive", lambda s: bogus)
    code, out, err = run_cli(capsys, "witness", "--n", "4", "--hex", "FFFF")
    assert (code, out) == (1, "")
    assert err.startswith(
        "THEOREM VIOLATION (this is a bug, please report): extracted witness failed validation"
    )


def test_cli_failing_report_table_lists_its_counterexamples(capsys, monkeypatch):
    # with no 6-cycle found, the six-subsets that only hold one fail
    _, out, _ = run_cli(capsys, "verify-proposition", "--format", "json")
    cycle_only = json.loads(out)["reports"][0]["details"]["cycle_only_masks"]
    monkeypatch.setattr(verify, "find_induced_cycle", lambda s, k: None)
    code, out, _ = run_cli(capsys, "verify-proposition")
    assert code == 1 and cycle_only
    assert f"  counterexamples: {', '.join(cycle_only)}" in out.splitlines()


def test_cli_witness_insufficient_cardinality(capsys):
    code, _, err = run_cli(capsys, "witness", "--n", "4", "--hex", "00FF")
    assert code == 2
    assert "at least 9" in err


def test_cli_witness_bruteforce_absence(capsys):
    even = VertexSet.from_members(
        [v for v in range(16) if bin(v).count("1") % 2 == 0], 4
    )
    code, out, _ = run_cli(
        capsys, "witness", "--n", "4", "--hex", even.to_hex(), "--method", "bruteforce"
    )
    assert code == 1
    assert "no witness" in out



@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-theorem", "--size", "15"], 0),
        (["verify-proposition"], 0),
        (["verify-cases", "--case", "1"], 0),
        (["witness", "--n", "4", "--hex", "01FF"], 0),
        (["extremal", "--n", "3"], 0),
        (["random-test", "--n", "4", "--trials", "3"], 0),
        (["witness", "--n", "4", "--hex", "0055", "--method", "bruteforce"], 1),
    ],
    ids=[
        "verify-theorem",
        "verify-proposition",
        "verify-cases",
        "witness",
        "extremal",
        "random-test",
        "witness-absent",
    ],
)
def test_cli_json_is_one_document_and_the_output_file(tmp_path, capsys, argv, code):
    report_file = tmp_path / "out.json"
    status, out, _ = run_cli(capsys, *argv, "--format", "json", "--output", str(report_file))
    assert status == code
    doc = json.loads(out)  # raises unless stdout is exactly one document
    assert report_file.read_text() == out
    if code:
        assert doc == {"method": "bruteforce", "set": "0055", "witness": None}

def test_cli_witness_bruteforce_dimension_cap(capsys):
    s = VertexSet.from_members(range(1 << 12), 13)
    code, _, err = run_cli(
        capsys, "witness", "--n", "13", "--hex", s.to_hex(), "--method", "bruteforce"
    )
    assert code == 2
    assert "bruteforce supports n in 1..12, got 13" in err
    with pytest.raises(SystemExit):
        main(["witness", "--help"])
    assert "direct search (n in 1..12)" in " ".join(capsys.readouterr().out.split())
    s = VertexSet.from_members(range((1 << 11) + 1), 12)
    code, out, _ = run_cli(
        capsys, "witness", "--n", "12", "--hex", s.to_hex(), "--method", "bruteforce"
    )
    assert code == 0
    assert out.startswith("claw ")


def test_cli_witness_from_file_and_output(tmp_path, capsys):
    set_file = tmp_path / "set.txt"
    set_file.write_text("".join(vertex_to_text(v, 4) + "\n" for v in VertexSet(4, 0x5557)))
    report_file = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--n",
        "4",
        "--set-file",
        str(set_file),
        "--method",
        "structured",
        "--output",
        str(report_file),
    )
    assert code == 0
    doc = json.loads(report_file.read_text())
    assert doc["case"] == 1
    assert doc["witness"].startswith("claw ")


def test_cli_witness_inline_vertices(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--n",
        "4",
        "--vertices",
        "0000,1000,0100,0010,0001,1100,1010,1001,0110",
        "--method",
        "bruteforce",
    )
    assert code == 0
    w = parse_witness_line(out.strip().splitlines()[0], 4)
    members = [vertex_from_text(t, 4) for t in
               "0000 1000 0100 0010 0001 1100 1010 1001 0110".split()]
    assert check_witness(w, VertexSet.from_members(members, 4))


def test_cli_bad_set_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("000\n0x2\n")
    code, _, err = run_cli(capsys, "witness", "--n", "3", "--set-file", str(bad))
    assert code == 2
    assert "line 2" in err


def test_cli_missing_set_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "witness", "--n", "3", "--set-file", str(tmp_path / "nope"))
    assert code == 2
    assert "cannot read" in err


def test_cli_empty_flag_is_a_given_set(capsys):
    # an empty --hex or --vertices is parsed, not taken for a missing flag
    code, _, err = run_cli(capsys, "witness", "--n", "4")
    assert code == 2
    assert err == "error: no vertex set given: use --hex, --set-file or --vertices\n"
    code, _, err = run_cli(capsys, "witness", "--n", "4", "--hex", "")
    assert code == 2
    assert err == "error: hex mask '' has 0 digits, expected 4 for dimension 4\n"
    code, _, err = run_cli(capsys, "witness", "--n", "4", "--vertices", "")
    assert code == 2
    assert err == "error: empty input where a vertex set is required\n"


def test_cli_non_utf8_set_file(tmp_path, capsys):
    path = tmp_path / "set.bin"
    path.write_bytes(b"\xff1000\n0100\n")
    code, _, err = run_cli(capsys, "witness", "--n", "4", "--set-file", str(path))
    assert code == 2
    assert err.startswith(f"error: cannot read set file {str(path)!r}: 'utf-8' codec")


def test_cli_unwritable_output_file(tmp_path, capsys):
    report_file = tmp_path / "missing" / "r.json"
    code, _, err = run_cli(capsys, "verify-proposition", "--output", str(report_file))
    assert code == 2
    assert err.startswith("error: cannot write report file")
    assert not report_file.exists()


def test_cli_extremal(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "3", "--cycle", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["extremal"]["max_size"] == 5
    cert = VertexSet(3, int(doc["extremal"]["certificate"], 16))
    assert len(cert) == 5


def test_cli_extremal_invalid_combination(capsys):
    code, _, err = run_cli(capsys, "extremal", "--n", "4", "--cycle", "6")
    assert code == 2
    assert "error" in err


def test_cli_random_test(capsys):
    code, out, _ = run_cli(
        capsys, "random-test", "--n", "4", "--trials", "25", "--seed", "5", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["failed"] == 0


def test_cli_random_test_out_of_range(capsys):
    code, _, err = run_cli(capsys, "random-test", "--n", "3")
    assert code == 2


def test_cli_case_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-cases", "--case", "abc"])
    assert exc.value.code == 2
    assert "{1,2,3,4,all}" in capsys.readouterr().err
    args = build_parser().parse_args(["verify-cases", "--case", "3"])
    assert args.case == "3"


@pytest.mark.parametrize(
    "argv, bad, span",
    [
        (["verify-theorem", "--size"], "17", "9..16"),
        (["extremal", "--n"], "6", "1..5"),
        (["random-test", "--n"], "13", "4..12"),
    ],
)
def test_cli_help_and_library_name_the_same_range(capsys, argv, bad, span):
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert span in capsys.readouterr().out
    code, _, err = run_cli(capsys, *argv, bad)
    assert code == 2
    assert f"{span}, got {bad}" in err


def test_cli_workers_validation(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "--workers", "0")
    assert code == 2
    assert "workers must be >= 1, got 0" in err


def test_cli_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_workers_only_on_the_check_commands(capsys):
    # only random-test uses it; verify-theorem keeps it for callers that pass it
    for argv in (
        ["witness", "--n", "4", "--hex", "01FF"],
        ["extremal", "--n", "3"],
        ["verify-proposition"],
        ["verify-cases"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        run(argparse.Namespace(command="bogus"))


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for argv in (
            ["verify-theorem", "--size", "16"],
            ["verify-proposition"],
            ["verify-cases", "--case", "1"],
            ["witness", "--n", "4", "--hex", "5557", "--method", "structured"],
            ["extremal", "--n", "1"],
            ["random-test", "--n", "4", "--trials", "1"],
        ):
            assert main(argv) == 0
        for argv, code in ((["extremal"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_reused_parser_keeps_no_state_between_calls():
    # each command with non-default flags, then with none
    declares_workers = {"random-test", "verify-theorem"}
    for argv in (
        ["random-test", "--n", "4", "--workers", "2"],
        ["random-test", "--n", "4"],
        ["verify-theorem", "--symmetry-reduced", "--workers", "2"],
        ["verify-theorem"],
        ["witness", "--n", "4", "--method", "structured", "--output", "p"],
        ["witness", "--n", "4"],
        ["extremal", "--n", "3", "--cycle", "6"],
        ["extremal", "--n", "3"],
        ["verify-cases", "--case", "3"],
        ["verify-cases"],
    ):
        reused = vars(cli._parser().parse_args(argv))
        assert reused == vars(build_parser().parse_args(argv))
        # run reads "workers" in args
        assert ("workers" in reused) == (argv[0] in declares_workers)


POOL_MODULES_LOADED = """
import contextlib, io, json, sys
pool = ("multiprocessing", "concurrent.futures.process")
import cubeclaw.cli
loaded = [[m for m in pool if m in sys.modules]]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cubeclaw.cli.main(["verify-cases", "--format", "json"])
loaded.append([m for m in pool if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    argv = ["random-test", "--n", "12", "--trials", "300", "--workers", "1"]
    code += cubeclaw.cli.main(argv)
loaded.append([m for m in pool if m in sys.modules])
print(json.dumps([code, len(json.loads(out.getvalue())["reports"]), loaded]))
"""


def fresh_interpreter_output(*argv):
    """The JSON that a fresh interpreter, run on ``argv``, prints."""
    src = os.path.dirname(os.path.dirname(cubeclaw.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_import_and_a_short_check_load_no_process_pool():
    # one fresh interpreter: the Q_4 checks never start a pool, and
    # random-test starts one only for two processes or more
    assert fresh_interpreter_output("-c", POOL_MODULES_LOADED) == [0, 6, [[], [], []]]


DATACLASS_MODULES_LOADED = """
import contextlib, io, json, sys
slow = ("dataclasses", "inspect")
import cubeclaw.cli
loaded = [[m for m in slow if m in sys.modules]]
lazy = (cubeclaw.cli._parser, cubeclaw.detect._q4_tables)
built = [[f.cache_info().currsize for f in lazy]]
with contextlib.redirect_stdout(io.StringIO()):
    code = cubeclaw.cli.main(["verify-cases"])
loaded.append([m for m in slow if m in sys.modules])
built.append([f.cache_info().currsize for f in lazy])
print(json.dumps([code, loaded, built]))
"""


def test_cli_import_and_a_short_check_load_no_dataclasses_or_inspect():
    # the value types are hand-written slotted classes, so a CLI run pays
    # for neither module at start-up; -S keeps site hooks from loading them.
    # The parser and the Q_4 claw tables are built by the first main call
    # that needs them, not by the import.
    expected = [0, [[], []], [[0, 0], [1, 1]]]
    assert fresh_interpreter_output("-S", "-c", DATACLASS_MODULES_LOADED) == expected
