"""Write ``golden.json``: the projected outputs of the seed-independent jobs.

    python3 perfbench/capture_golden.py

Run once, on the commit whose outputs every later commit must reproduce.
It runs one untraced pass of the ``certify`` and ``search`` job lists and
the ``random-test`` job at seed 0 (``run.py`` substitutes the run's seed
into that template), and refuses to write anything if a job failed.
"""

import json
import os
import sys

import run
from jobs import certify_jobs, project, random_test_job, search_jobs


def main() -> int:
    golden = {}
    for job_list in (certify_jobs(), search_jobs(), [random_test_job(0)]):
        res = run.spawn_pass({"jobs": job_list, "trace": False}, run.PASS_TIMEOUT)
        if "crash" in res:
            print(res["crash"], file=sys.stderr)
            return 1
        for r in res["jobs"]:
            if r["error"] is not None or r["rc"] != 0:
                print(f"{r['id']}: rc={r['rc']} {r['error']}", file=sys.stderr)
                return 1
            golden[r["id"]] = project(r["output"])
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
