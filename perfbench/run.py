"""End-to-end and per-layer benchmark of cubeclaw (standard library only).

    python3 perfbench/run.py --workload certify|extract|search \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs the workload's job list
(``jobs.py``) in a fresh interpreter (``passrun.py``), because a CLI user
pays the lazily built ``lru_cache`` tables on every invocation.  Passes run
back to back, one at a time (a closed loop with one client), until
``--seconds`` have elapsed; every end-to-end metric is the median over the
passes of the run:

- ``setup_s``: interpreter start to ``import cubeclaw.cli`` finished,
  also sampled by extra import-only processes;
- ``wall_s``: the pass's job list, without set-up;
- ``cpu_s``: user + sys time of the job list, the pass process plus its
  ``--workers`` pool children;
- ``peak_rss_mb``: peak RSS of the pass process plus that of its largest
  child.

The three times are calibrated to a reference host speed (``passrun.py``
explains how): on a shared virtual machine the speed can swing by 1.8x
within seconds, far more than the bounds a change is judged by.  The
measured (raw) medians are printed in the summary and kept in the record.

Each pass process runs under an address-space limit (``RLIMIT_AS`` on the
pass process only), so a memory blow-up is a counted failure instead of a
machine-wide shortage.

Every job's output is compared with the seed commit's (``golden.json``
for the seed-independent jobs; ``reference.py`` for the seeded
``extract`` inputs), and every witness is validated independently.  A job
fails on a non-zero exit code, an exception, or a differing output;
``failed`` / ``attempted`` count jobs over all passes of the run.

With ``--trace 1`` the run alternates untraced and traced passes (at least
one and two); the traced passes wrap the package's public functions
(``tracer.py``) and report per-layer counts and times.  The counts of all
traced passes must agree exactly, and ``tracing_overhead`` is the median
traced ``wall_s`` over the median untraced one, both calibrated.  Spans of
the first traced pass are written to ``perfbench/out/``.

The last line of stdout is the JSON result; the lines before it are a
readable summary.  A fuller record (metadata, per-job times, every layer
metric) goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402
import reference  # noqa: E402
from passrun import SpeedProbe  # noqa: E402

ADDRESS_SPACE_LIMIT = 3 << 30  # bytes, per pass process
SETUP_PROBES = 40  # import-only processes per run, on top of one per pass
RUN_DEADLINE = 170  # seconds after start; the whole run must end within 180
PASS_TIMEOUT = 150  # seconds
MIN_TRACED_PASSES = 2

# Layer metrics that must repeat exactly across traced passes, besides
# every ``.calls`` counter.
DETERMINISTIC = {
    "verify.extremal.nodes",
    "witness.descent_levels",
    "detect.claw_hit_ratio",
    "hypercube.neighbor_masks.bytes",
    "spans",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "extract", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cubeclaw", "cli.py")):
        print(f"error: no cubeclaw sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        job_list, expected, sets = build_jobs(args.workload, args.seed, workdir)
        result = measure(args, job_list, expected, sets)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a metric no pass could measure (every pass crashed) is null, and the
    # run is not correct
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"]), "unit": m["unit"]} for m in listed
    }
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **{k: v for k, v in result.items() if k != "summary"},
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in result["summary"]:
        print(line)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# jobs and their expected outputs
# ---------------------------------------------------------------------------


def build_jobs(workload: str, seed: int, workdir: str):
    """Job list, expected projected output per job, and the extract sets."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    sets = {}
    if workload == "certify":
        job_list = joblib.certify_jobs()
    elif workload == "search":
        job_list = joblib.search_jobs()
    else:
        job_list, sets = joblib.extract_jobs(seed, workdir)
    expected = {}
    for job in job_list:
        jid = job["id"]
        if jid in sets:
            n, labels = sets[jid]
            doc = reference.expected_witness_doc(labels, n)
            if job["kind"] == "extract":
                doc = {"witness": doc["witness"], "trace": doc["trace"]}
            expected[jid] = doc
        elif jid == "random-test":
            expected[jid] = random_test_expectation(golden["random-test"], seed)
        else:
            expected[jid] = golden[jid]
    return job_list, expected, sets


def random_test_expectation(template: dict, seed: int) -> dict:
    """The seed-0 document with the seed substituted: all trials pass, so
    the digest depends only on the trial count."""
    report = dict(template["reports"][0])
    report["check_name"] = report["check_name"].rsplit("seed", 1)[0] + f"seed{seed}"
    report["details"] = {**report["details"], "seed": seed}
    report["deterministic_digest"] = reference.passing_digest(report["universe_size"])
    return {"reports": [report]}


def job_problems(job: dict, res: dict, expected, sets) -> list[str]:
    problems = []
    if res["error"] is not None or res["rc"] != 0:
        return [f"rc={res['rc']} error={res['error']}"]
    got = joblib.project(res["output"])
    if got != expected:
        problems.append("output differs from the seed commit's")
    if job["id"] in sets:
        out = res["output"]
        n, labels = sets[job["id"]]
        try:
            problems += reference.witness_problems(out["witness"], reference.mask_of(labels), n)
            problems += reference.trace_problems(out["trace"], len(labels))
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"malformed witness or trace: {exc!r}")
    return problems


def _digest(output):
    try:
        return output["reports"][0]["deterministic_digest"]
    except (KeyError, IndexError, TypeError):
        return None


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def spawn_pass(config: dict, timeout: float) -> dict:
    """Run passrun.py once; on a crash or timeout return the error instead."""
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "passrun.py"), ROOT]
    # the host's speed just before the spawn; the pass adds a burst taken
    # just after its import, so the two bracket the set-up it times
    probe = SpeedProbe()
    probe.burst()
    config = dict(config, spawn_probe=probe.samples)
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        cmd + [repr(spawned_at), json.dumps(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=_limit_address_space,
        start_new_session=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"pass exceeded {timeout:.0f} s and was killed"}
    finally:
        # reap anything the pass left in its process group (pool workers)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = err.decode(errors="replace").strip().splitlines()[-3:]
    return {"crash": f"pass exited {proc.returncode}: {' | '.join(tail)}"}


def measure(args, job_list, expected, sets) -> dict:
    def remaining() -> float:
        return min(PASS_TIMEOUT, START + RUN_DEADLINE - time.perf_counter())

    setups = []

    def probe_setups(count: int) -> None:
        for _ in range(count):
            probe = spawn_pass({"probe": True}, remaining())
            if "crash" in probe:
                raise SystemExit(f"error: cubeclaw does not import: {probe['crash']}")
            setups.append((probe["setup_s"], probe["setup_cal_s"]))

    # half before the passes and half after, so that the set-up samples
    # span the run as the passes do
    probe_setups(SETUP_PROBES // 2)

    base = {"jobs": job_list, "trace": False}
    plain, traced = [], []
    measure_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - measure_start
        if elapsed >= args.seconds and plain and len(traced) >= args.trace * MIN_TRACED_PASSES:
            break
        # trace mode repeats plain, traced, traced
        want_trace = bool(args.trace) and (len(plain) + len(traced)) % 3 != 0
        config = dict(base, trace=want_trace)
        if want_trace and not traced:
            config["spans"] = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.bin")
        res = spawn_pass(config, remaining())
        (traced if want_trace else plain).append(res)
        if "crash" in res:
            break
    probe_setups(SETUP_PROBES - SETUP_PROBES // 2)

    return summarize(args, job_list, expected, sets, setups, plain, traced)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return round(100 * rank / n), sorted(values)[rank - 1]


def summarize(args, job_list, expected, sets, setups, plain, traced) -> dict:
    attempted = failed = 0
    failures: list[str] = []
    job_times: dict[str, list[float]] = {job["id"]: [] for job in job_list}
    job_cal_times: dict[str, list[float]] = {job["id"]: [] for job in job_list}
    for k, res in enumerate(plain + traced):
        if "crash" in res:
            attempted += len(job_list)
            failed += len(job_list)
            failures.append(f"pass {k}: {res['crash']}")
            continue
        setups.append((res["setup_s"], res["setup_cal_s"]))
        by_id = {r["id"]: r for r in res["jobs"]}
        for job in job_list:
            r = by_id[job["id"]]
            attempted += 1
            problems = job_problems(job, r, expected[job["id"]], sets)
            if job["id"] == "theorem-s9-w2" and not problems:
                if _digest(r["output"]) != _digest(by_id["theorem-s9"]["output"]):
                    problems.append("workers=2 digest differs from workers=1")
            if problems:
                failed += 1
                failures.append(f"pass {k} job {job['id']}: {'; '.join(problems)}")
            job_times[job["id"]].append(r["wall_s"])
            job_cal_times[job["id"]].append(r["wall_cal_s"])

    ok_plain = [p for p in plain if "crash" not in p]
    ok_traced = [p for p in traced if "crash" not in p]
    samples = {"setup_s": [cal for _, cal in setups], "raw_setup_s": [raw for raw, _ in setups]}
    if ok_plain:
        for name in ("wall_s", "cpu_s"):
            samples[name] = [p[name.replace("_s", "_cal_s")] for p in ok_plain]
            samples[f"raw_{name}"] = [p[name] for p in ok_plain]
        samples["peak_rss_mb"] = [
            (p["rss_self_kb"] + p["rss_children_kb"]) / 1024 for p in ok_plain
        ]
    metrics: dict[str, float] = {name: statistics.median(v) for name, v in samples.items()}
    if ok_plain:
        metrics["peak_rss_self_mb"] = statistics.median(p["rss_self_kb"] / 1024 for p in ok_plain)
        metrics["peak_rss_children_mb"] = statistics.median(
            p["rss_children_kb"] / 1024 for p in ok_plain
        )
    metrics["fail_ratio"] = failed / attempted if attempted else 1.0

    disagreements = []
    if ok_traced:
        layers = {}
        for key in ok_traced[0]["layers"]:
            values = [t["layers"].get(key) for t in ok_traced]
            if key.endswith(".calls") or key in DETERMINISTIC:
                if len(set(values)) != 1:
                    disagreements.append(f"traced passes disagree on {key}: {values}")
                layers[key] = values[0]
            else:
                layers[key] = statistics.median(values)
        traced_wall = statistics.median(t["wall_cal_s"] for t in ok_traced)
        if ok_plain:
            layers["tracing_overhead"] = traced_wall / metrics["wall_s"]
        layers["traced_wall_s"] = traced_wall
        metrics.update(layers)

    summary = [f"workload {args.workload}, seed {args.seed}: {len(plain)} plain and {len(traced)} traced passes"]
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    for name, unit in units.items():
        if name in samples:
            vals = samples[name]
            t = tail(vals)
            tail_text = f", p{t[0]} {t[1]:.4f}" if t else ", no percentile with 10 samples beyond it"
            raw = samples.get(f"raw_{name}")
            raw_text = f"; raw median {statistics.median(raw):.4f} {unit}" if raw else ""
            summary.append(
                f"  {name:<12} median {statistics.median(vals):.4f} {unit}{tail_text} (n={len(vals)}){raw_text}"
            )
    summary.append("  (setup_s, wall_s and cpu_s are calibrated to the reference host speed)")
    summary.append(f"  {'fail_ratio':<12} {metrics['fail_ratio']:.4f} ({failed}/{attempted} jobs)")
    if "tracing_overhead" in metrics:
        summary.append(f"  tracing_overhead {metrics['tracing_overhead']:.3f} (traced / plain wall_s)")
    summary += [f"  FAILED {f}" for f in failures[:20]]
    summary += [f"  NONDETERMINISTIC {d}" for d in disagreements]

    return {
        "correct": failed == 0 and not disagreements,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "job_wall_s": {jid: statistics.median(v) if v else None for jid, v in job_times.items()},
        "job_wall_cal_s": {
            jid: statistics.median(v) if v else None for jid, v in job_cal_times.items()
        },
        "failures": failures + disagreements,
        "summary": summary,
    }


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
