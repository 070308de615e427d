"""Benchmark entry point.

    python3 bench/run.py --workload reduce|check --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the seed's inputs under
``.bench_work/``, measures set-up time in fresh interpreters, runs the
workload process (``worker.py``) for about ``S`` seconds, and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer metrics
with ``--trace 1``).  Details (per-job times, failures, the tail percentile
used, input histograms, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: fresh interpreters that only import the package, besides the worker itself
SETUP_PROBES = 10
#: the whole run, set-up included, must end within this many seconds
RUN_LIMIT_S = 170
PROBE = ("import time; t = time.thread_time(); import tangles, tangles.cli; "
         "t = time.thread_time() - t; import speed; "
         "print(speed.scaled(t, [speed.ref_time() for _ in range(11)]))")


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten of n samples above it, and
    the 1-based rank of the sample at that percentile."""
    pct = math.floor(100 * (1 - 10 / n))
    return pct, max(1, math.ceil(pct * n / 100))


def setup_times(env) -> list[float]:
    """CPU time to import the package in fresh interpreters, scaled to
    nominal machine speed (``speed.py``); the first import compiles the
    bytecode cache and is not counted."""
    out = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            out.append(float(proc.stdout))
    return out


def end_to_end(result, probes) -> tuple[dict, dict]:
    per_job = sorted(result["job_s"])
    jobs, passes = len(per_job), result["passes"]
    pct, rank = tail_rank(jobs)
    failed = len(result["failures"]) * passes
    metrics = {
        "setup_s": statistics.median(probes + [result["setup_s"]]),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[rank - 1],
        "jobs_per_s": jobs / sum(per_job),
        "ok_frac": 1 - failed / (jobs * passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    info = {"jobs": jobs, "passes": passes, "tail_percentile": pct,
            "failed_frac": failed / (jobs * passes)}
    return metrics, info


def prepare(workload: str, seed: int, work: Path) -> list:
    """Generate the seed's inputs into ``work``; returns the jobs."""
    sys.path.insert(0, str(SRC))
    import gen

    jobs, files = gen.jobs_for_seed(workload, seed)
    gen.write(work, workload, jobs, files, gen.load_expected(workload))
    return jobs


def run_worker(work: Path, seconds: float, trace: int, spans: Path | None = None,
               timeout: float = RUN_LIMIT_S) -> dict:
    """Run the workload process on ``work`` and return its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--spans", str(spans)] if spans else []
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("reduce", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "tangles" / "__init__.py").is_file():
        print(f"error: no tangles sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tag = f"{args.workload}-{args.seed}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        jobs = prepare(args.workload, args.seed, work)
        shutil.copy(work / "inputs.json", out_dir / f"inputs-{tag}.json")
        probe_path = os.pathsep.join((str(SRC), str(BENCH)))
        probes = [] if args.trace else setup_times(dict(os.environ, PYTHONPATH=probe_path))
        result = run_worker(work, args.seconds, args.trace, out_dir / f"spans-{tag}.json",
                            RUN_LIMIT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = len(result["job_s"]) * result["passes"]
    failed = len(result["failures"]) * result["passes"]
    if args.trace:
        values, info = result["layers"], {}
    else:
        values, info = end_to_end(result, probes)
    info |= {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "failures": result["failures"], "job_ids": [job.id for job in jobs],
             "untraced_job_s": result["untraced"], "cpu_s": result["cpu"],
             "ref_s": result["refs"]}
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(info | {"metrics": values}))
    for job_id, reason in result["failures"].items():
        print(f"FAILED {job_id}: {reason}")
    if not args.trace:
        print(f"{info['jobs']} jobs x {info['passes']} passes; job_tail_s is the "
              f"p{info['tail_percentile']} of the jobs' scaled latencies")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
