"""Record the exit code and stdout digest of every pool entry.

    python3 bench/record.py [reduce|check ...]

Writes ``expected/<workload>.json``.  The recorded values define correct
output for the benchmark, so run this only at a commit whose CLI output is
the reference; every later commit must reproduce them byte for byte.
Entries that fail an independent check are reported and not recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
from checks import checked_semantic  # noqa: E402
from worker import run_cli  # noqa: E402


def record(workload: str) -> int:
    work = BENCH.parent / ".bench_work" / f"record-{workload}"
    expected, bad = {}, 0
    home = os.getcwd()
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # job argv names its files relative to the work directory
    try:
        for variants in gen.pool_variants(workload):
            jobs, files = gen.build(workload, variants)
            todo = [job for job in jobs if job.id not in expected]
            gen.write(work, workload, todo, files, {})
            for job in todo:
                code, out, _, error = run_cli(job.argv)
                record = {"id": job.id, "kind": job.kind, "argv": job.argv, "check": job.check}
                reason = error or checked_semantic(record, code, out)
                if reason:
                    print(f"{job.id}: {reason}", file=sys.stderr)
                    bad += 1
                else:
                    expected[job.id] = [code, gen.digest(out)]
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    gen.EXPECTED_DIR.mkdir(exist_ok=True)
    path = gen.EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(dict(sorted(expected.items())), indent=0) + "\n")
    print(f"{workload}: {len(expected)} entries recorded, {bad} failed")
    return bad


if __name__ == "__main__":
    names = sys.argv[1:] or list(gen.WORKLOADS)
    sys.exit(1 if sum(record(w) for w in names) else 0)
