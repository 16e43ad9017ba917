"""Every command line the benchmark runs still parses.

``perfbench/jobs.py`` builds the argv of each ``cli`` job.  An option those
jobs pass that the parser no longer declares would make the benchmark's
runs exit 2 on argparse's usage error.  ``test_traced_names.py`` checks the
functions the benchmark's per-layer metrics name.
"""

import importlib
from pathlib import Path

import pytest

from cubeclaw.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    jobs = importlib.import_module("jobs")
    # the sets' content enters no argv: one vertex keeps the files small
    monkeypatch.setattr(jobs, "dense_labels", lambda seed, n: [0])
    extract, _ = jobs.extract_jobs(0, str(tmp_path))  # writes its input files there
    argvs = [
        job["argv"]
        for job in jobs.certify_jobs() + jobs.search_jobs() + extract
        if job["kind"] == "cli"
    ]
    assert {argv[0] for argv in argvs} == {
        "verify-theorem",
        "verify-proposition",
        "verify-cases",
        "witness",
        "extremal",
        "random-test",
    }
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark's command line does not parse: {argv}")
