"""Job lists of the three workloads and the projection their outputs are
compared under.

A job is a dict with an ``id``, a ``kind`` and its arguments:

- ``cli``: ``cubeclaw.cli.main(argv)`` with stdout captured; ``--format
  json`` is always passed so the document can be compared field by field.
- ``structured``: ``base_case_solve_structured`` over all C(16, 9) = 11440
  nine-subsets of Q_4 (there is no CLI command for the whole sweep).
- ``extract``: ``find_witness_inductive`` on the set in a hex file; used at
  n = 18, where the CLI's ``check_witness`` would build a 2^18 x 2^18-bit
  neighbor table (~8 GB).
"""

from __future__ import annotations

import os

from reference import dense_labels, hex_text, lines_text

WORKERS = 2  # never above the 2 CPUs the benchmark is sized for

EXTRACT_CLI_DIMS = (12, 14, 16)
EXTRACT_LIBRARY_DIM = 18
RANDOM_TEST = ("12", "200")  # n, trials


def _cli(job_id: str, *argv) -> dict:
    return {"id": job_id, "kind": "cli", "argv": [*map(str, argv), "--format", "json"]}


def certify_jobs() -> list[dict]:
    jobs = [_cli(f"theorem-s{s}", "verify-theorem", "--n", 4, "--size", s) for s in range(9, 17)]
    jobs += [
        _cli("proposition", "verify-proposition"),
        _cli("cases", "verify-cases", "--case", "all"),
        _cli("theorem-s9-w2", "verify-theorem", "--n", 4, "--size", 9, "--workers", WORKERS),
        {"id": "structured", "kind": "structured"},
    ]
    return jobs


def search_jobs() -> list[dict]:
    return [
        _cli("extremal-n3-c6", "extremal", "--n", 3, "--cycle", 6),
        _cli("extremal-n4", "extremal", "--n", 4),
        _cli("extremal-n5", "extremal", "--n", 5),
        _cli("theorem-s9-sym", "verify-theorem", "--n", 4, "--size", 9, "--symmetry-reduced"),
    ]


def extract_jobs(seed: int, workdir: str) -> tuple[list[dict], dict[str, tuple[int, list[int]]]]:
    """Write the seeded input files; return the jobs and each job's set."""
    jobs = []
    sets = {}
    for n in EXTRACT_CLI_DIMS:
        labels = dense_labels(seed, n)
        for fmt, text in (("hex", hex_text(labels, n)), ("lines", lines_text(labels, n))):
            path = os.path.join(workdir, f"set-n{n}.{fmt}")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
            job_id = f"witness-n{n}-{fmt}"
            jobs.append(_cli(job_id, "witness", "--n", n, "--set-file", path))
            sets[job_id] = (n, labels)
    n = EXTRACT_LIBRARY_DIM
    labels = dense_labels(seed, n)
    path = os.path.join(workdir, f"set-n{n}.hex")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(hex_text(labels, n) + "\n")
    jobs.append({"id": f"extract-n{n}", "kind": "extract", "path": path, "n": n})
    sets[f"extract-n{n}"] = (n, labels)
    jobs.append(random_test_job(seed))
    return jobs, sets


def random_test_job(seed: int) -> dict:
    n, trials = RANDOM_TEST
    return _cli("random-test", "random-test", "--n", n, "--trials", trials, "--seed", seed)


REPORT_FIELDS = (
    "check_name",
    "universe_size",
    "passed",
    "failed",
    "counterexamples",
    "deterministic_digest",
    "details",
)
WITNESS_FIELDS = ("witness", "method", "set", "trace", "case")
EXTREMAL_FIELDS = ("dim", "forbidden", "max_size", "certificate")


def project(output):
    """The part of a job's output that must equal the seed commit's.

    Drops timings (``wall_time``), the worker count, the extremal node
    count and any key the program may add later, such as a ``metrics``
    block; keeps digests, details, witnesses, traces and certificates.
    """
    if not isinstance(output, dict):
        return output
    if "reports" in output:
        return {"reports": [{k: r.get(k) for k in REPORT_FIELDS} for r in output["reports"]]}
    if "extremal" in output:
        return {"extremal": {k: output["extremal"].get(k) for k in EXTREMAL_FIELDS}}
    if "witness" in output:
        return {k: output[k] for k in WITNESS_FIELDS if k in output}
    return output
