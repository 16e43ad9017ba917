"""Every pinned CLI output, run in process and compared with tests/golden/cli.txt.

Each transcript entry is a ``$ cubeclaw ...`` argv line, the command's
stdout, each stderr line after ``2> ``, and an ``[exit N]`` line; blank
lines separate entries.  Masked are the table's time(s) column and the
JSON keys wall_time and metrics, the search counters outside the pinned
output.  Running this file,

    PYTHONPATH=src python tests/test_transcript.py

reruns each argv line of the transcript and rewrites it, so an intended
output change shows as a diff of tests/golden/cli.txt.  To pin another
run, add its ``$ cubeclaw ...`` line and run the file.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from cubeclaw import cli
from cubeclaw.detect import check_witness
from oracles import parse_witness_line

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"
PROMPT = "$ cubeclaw "
STATUS = re.compile(r"\[exit \d+\]\n?")
# a report row's time(s) column, before the 16-digit digest
TIME = re.compile(r" +\d+\.\d{3}(?=  [0-9a-f]{16}$)", re.M)
MASKED = ("wall_time", "metrics")
COMMANDS = (
    "verify-theorem", "verify-proposition", "verify-cases", "witness", "extremal", "random-test"
)


def argv_lines(text):
    """The argv of each ``$ cubeclaw`` line of a transcript."""
    lines = text.splitlines()
    return [tuple(shlex.split(line[len(PROMPT) :])) for line in lines if line.startswith(PROMPT)]


def read_entries(text):
    """The transcript's entries in order, each as (argv, its text from the
    argv line through the status line); raises ValueError on text outside
    an entry, an entry with no status line, a repeated argv or a
    truncated last entry."""
    entries, argv, start = [], None, 0
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(PROMPT):
            if argv is not None:
                raise ValueError(f"line {i + 1}: {shlex.join(argv)!r} has no status line")
            argv, start = argv_lines(line)[0], i
            if any(argv == seen for seen, _ in entries):
                raise ValueError(f"line {i + 1}: duplicate argv {shlex.join(argv)!r}")
        elif argv is None:
            if line.strip():
                raise ValueError(f"line {i + 1}: text outside an entry: {line!r}")
        elif STATUS.fullmatch(line):
            entries.append((argv, "".join(lines[start : i + 1])))
            argv = None
    if argv is not None:
        raise ValueError(f"truncated last entry {shlex.join(argv)!r}")
    return entries


def run(argv):
    """``cli.main(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def mask(argv, out):
    if "json" not in argv:
        return TIME.sub("    *.***", out)
    if out != json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n":
        return out  # not the pinned layout: shown unmasked
    doc = json.loads(out, object_hook=lambda d: {k: "*" if k in MASKED else d[k] for k in d})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render(argv, status, out, err):
    """The transcript entry of one run."""
    err = "".join(f"2> {line}\n" for line in err.splitlines())
    return f"{PROMPT}{shlex.join(argv)}\n{mask(argv, out)}{err}[exit {status}]\n"


def test_transcript_matches_the_cli():
    text = GOLDEN.read_text(encoding="utf-8")
    entries = read_entries(text)
    for argv, entry in entries:
        status, out, err = run(argv)
        assert render(argv, status, out, err) == entry
        if argv[0] == "witness" and status == 0:
            # the printed witness is a claw or induced cycle of the input set
            args = cli._parser().parse_args(list(argv))
            line = json.loads(out)["witness"] if "json" in argv else out.splitlines()[0]
            assert check_witness(parse_witness_line(line, args.n), cli._load_set(args)), argv
    assert len(entries) == len(argv_lines(text))
    # each command in table form and in --format json
    assert {(argv[0], "json" in argv) for argv, _ in entries} == {
        (command, json_format) for command in COMMANDS for json_format in (False, True)
    }


def test_reader_refuses_a_malformed_transcript():
    text = GOLDEN.read_text(encoding="utf-8")
    first = read_entries(text)[0][1]
    for bad, message in (
        (STATUS.sub("", text, count=1), "has no status line"),
        ("total: 1\n" + text, "text outside an entry"),
        (text + "\n" + first, "duplicate argv"),
        (text[: text.rindex("[exit")], "truncated last entry"),
    ):
        with pytest.raises(ValueError, match=message):
            read_entries(bad)


if __name__ == "__main__":
    argvs = argv_lines(GOLDEN.read_text(encoding="utf-8"))
    text = "\n".join(render(argv, *run(argv)) for argv in argvs)
    read_entries(text)  # refuses a repeated argv or an output that hides a status line
    GOLDEN.write_text(text, encoding="utf-8")
