"""One pass of a workload's job list in a fresh interpreter.

Invoked by ``run.py`` as ``python -E -s passrun.py <root> <spawned_at> <config json>``.
``spawned_at`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared across processes on Linux), so
``setup_s`` spans interpreter start-up plus ``import cubeclaw.cli``.
Nothing but ``sys`` and ``time`` is imported before that import finishes.

Prints one JSON line: setup time, per-job exit code / error / output /
wall and CPU time, pass wall and CPU time, peak RSS (self and children),
and, when tracing, the per-layer metrics.

Every time is reported twice: as measured, and calibrated.  On a virtual
machine that shares its cores, other tenants' load can swing the speed by
1.8x within seconds, which moves every measured time alike.  A ``SpeedProbe``
times a fixed pure-Python loop, owned by the benchmark and independent of
the program, on a 50 ms interval timer while each job runs and in bursts
around it; a job's calibrated time is its measured time scaled by
``REFERENCE_PROBE_S`` over the mean probe time during the job, i.e. what
the job would take were the probe loop running at its reference speed.
Set-up time is calibrated by a burst the parent takes right before the
spawn and one taken right after the import.
"""

import sys
import time


def main() -> None:
    root, spawned_at, config_text = sys.argv[1:4]
    sys.path.insert(0, root + "/src")
    import cubeclaw.cli

    setup_s = time.perf_counter() - float(spawned_at)
    probe = SpeedProbe()
    probe.burst()

    import json

    config = json.loads(config_text)
    probe.samples += config["spawn_probe"]
    result = {"setup_s": setup_s, "setup_cal_s": setup_s * probe.scale(0)}
    if not config.get("probe"):
        result.update(run_pass(cubeclaw.cli, config, probe))
    sys.stdout.write(json.dumps(result) + "\n")


def run_pass(cli, config: dict, probe: "SpeedProbe") -> dict:
    import resource

    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    probe.start()
    for index, job in enumerate(config["jobs"]):
        if tracer is not None:
            tracer.job = index
        probe.burst()
        first = len(probe.samples) - SpeedProbe.BURST
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        res = run_job(cli, job)
        res["cpu_s"] = cpu_since(own, children)
        probe.burst()
        scale = probe.scale(first)
        res["wall_cal_s"] = res["wall_s"] * scale
        res["cpu_cal_s"] = res["cpu_s"] * scale
        jobs.append(res)
    probe.stop()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {"jobs": jobs, "rss_self_kb": own.ru_maxrss, "rss_children_kb": children.ru_maxrss}
    for key in ("wall_s", "cpu_s", "wall_cal_s", "cpu_cal_s"):
        result[key] = sum(res[key] for res in jobs)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if config.get("spans"):
            tracer.write_spans(config["spans"], [job["id"] for job in config["jobs"]])
    return result


def cpu_since(own, children) -> float:
    """User + sys seconds of this process and its reaped children since the
    two ``getrusage`` snapshots."""
    import resource

    now_own = resource.getrusage(resource.RUSAGE_SELF)
    now_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        now_own.ru_utime
        + now_own.ru_stime
        - own.ru_utime
        - own.ru_stime
        + now_children.ru_utime
        + now_children.ru_stime
        - children.ru_utime
        - children.ru_stime
    )


class SpeedProbe:
    """Samples the host's current speed as the thread CPU time of a fixed
    loop.  Thread CPU time leaves out the time this process waits for the
    CPU or for the GIL, so the probe tracks the host, not this process's
    own scheduling (the ``--workers`` job runs three processes on two
    CPUs)."""

    INTERVAL = 0.05  # seconds between timer samples
    BURST = 5  # samples taken back to back before and after each job
    REFERENCE_PROBE_S = 150e-6  # the loop on an idle core of an Intel Xeon VM

    def __init__(self):
        self.samples: list[float] = []
        # reused, so that the loop allocates no object the cyclic garbage
        # collector counts and never triggers (and times) a collection
        self.table: dict[int, int] = {}

    def sample(self, *_) -> None:
        table = self.table
        start = time.thread_time()
        acc = 0
        for i in range(1500):
            acc += (i * i) & 255
            table[i & 63] = acc
        self.samples.append(time.thread_time() - start)

    def burst(self) -> None:
        for _ in range(self.BURST):
            self.sample()

    def start(self) -> None:
        import signal

        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, first: int) -> float:
        """Reference over mean probe time from sample ``first`` on."""
        window = self.samples[first:]
        return self.REFERENCE_PROBE_S * len(window) / sum(window)


def run_job(cli, job: dict) -> dict:
    import contextlib
    import io
    import json

    out = io.StringIO()
    err = io.StringIO()
    rc = 0
    error = None
    output = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                rc = cli.main(job["argv"])
            elif job["kind"] == "structured":
                output = structured_sweep()
            else:
                output = library_extract(job["path"], job["n"])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    if job["kind"] == "cli":
        try:
            output = json.loads(out.getvalue()) if rc == 0 else out.getvalue()
        except ValueError:
            output = out.getvalue()
    if error is None and rc != 0:
        error = err.getvalue()[-500:] or f"exit code {rc}"
    return {"id": job["id"], "rc": rc, "error": error, "output": output, "wall_s": wall_s}


def structured_sweep() -> dict:
    """The structured solver on every nine-subset of Q_4, in mask order."""
    import hashlib

    from cubeclaw import witness
    from cubeclaw.hypercube import VertexSet

    digest = hashlib.sha256()
    case_counts = [0, 0, 0, 0]
    mask = (1 << 9) - 1
    count = 0
    while mask < 1 << 16:
        w, case = witness.base_case_solve_structured(VertexSet(4, mask))
        digest.update(f"{w!r} {case}\n".encode())
        case_counts[case - 1] += 1
        count += 1
        low = mask & -mask
        up = mask + low
        mask = up | (((mask ^ up) >> 2) // low)
    return {"subsets": count, "case_counts": case_counts, "digest": digest.hexdigest()}


def library_extract(path: str, n: int) -> dict:
    from cubeclaw import detect, witness
    from cubeclaw.hypercube import VertexSet

    with open(path, encoding="ascii") as fh:
        s = VertexSet(n, int(fh.read(), 16))
    w, trace = witness.find_witness_inductive(s)
    return {"witness": detect.witness_to_text(w, n), "trace": trace.to_dict()}


if __name__ == "__main__":
    main()
