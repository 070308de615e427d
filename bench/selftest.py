"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

For each workload, one traced cycle (an untraced pass and a traced replay
pass) over seed 0's jobs must pass every check.  The same jobs with one
job's recorded stdout digest and another job's recorded exit code corrupted
must then report exactly those two jobs as failed.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def gate_holds(workload: str) -> bool:
    work = run.ROOT / ".bench_work" / f"selftest-{workload}"
    try:
        run.prepare(workload, 0, work)
        clean = run.run_worker(work, 0, 1)
        path = work / "jobs.json"
        data = json.loads(path.read_text())
        bad_digest, bad_exit = data["jobs"][0], data["jobs"][1]
        bad_digest["expect"]["digest"] = "0" * len(bad_digest["expect"]["digest"])
        bad_exit["expect"]["exit"] += 1
        path.write_text(json.dumps(data))
        corrupted = run.run_worker(work, 0, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    want = {bad_digest["id"], bad_exit["id"]}
    ok = not clean["failures"] and set(corrupted["failures"]) == want
    print(f"{workload}: {len(clean['failures'])} failures when clean; "
          f"corrupted {sorted(want)}, reported {sorted(corrupted['failures'])}: "
          f"{'ok' if ok else 'FAILED'}")
    for job_id, reason in clean["failures"].items():
        print(f"  {job_id}: {reason}")
    return ok


if __name__ == "__main__":
    results = [gate_holds(w) for w in ("reduce", "check")]
    sys.exit(0 if all(results) else 1)
