"""Command-line surface: set parsing, dispatch, exit codes, output files."""

import argparse
import json
import random

import pytest

from cubeclaw import cli
from cubeclaw.cli import build_parser, main, parse_set, run
from cubeclaw.detect import Claw, InducedCycle, check_witness
from cubeclaw.errors import SetParseError
from cubeclaw.hypercube import VertexSet, vertex_from_text, vertex_to_text


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
    code, _, err = run_cli(capsys, "verify-proposition", "--workers", "0")
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
    for argv in (["witness", "--n", "4", "--hex", "01FF"], ["extremal", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        run(argparse.Namespace(command="bogus"))
