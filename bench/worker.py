"""The workload process: runs one generated job list in a closed loop.

Usage: ``worker.py WORKDIR --seconds S --trace 0|1 --spans PATH``, with
``tangles`` importable (``run.py`` sets ``PYTHONPATH``).  One client sends
the next job only after the previous one ends.  Each job is a ``tangles``
subcommand called in-process through ``tangles.cli.main(argv)`` with stdout
captured.  Whole passes over the job list repeat while another pass still
fits in the time budget; at least one pass always runs.  With ``--trace 1``
every untraced pass is followed by a traced replay pass (``replay.py``).
Untraced passes also time the reference kernel of ``speed.py`` before the
first job and after each job, to scale job times to nominal machine speed.

Prints one JSON object: the measurements of the untraced passes, the
per-job check failures and, with tracing, the per-layer metrics.
"""

import time

_start = time.thread_time()
import tangles  # noqa: E402
import tangles.cli  # noqa: E402

SETUP_S = time.thread_time() - _start

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

from checks import check  # noqa: E402
from gen import digest  # noqa: E402
from replay import Tracer, job_counts, replay, self_times  # noqa: E402
from speed import ref_time, scaled  # noqa: E402

#: span name -> per-layer metric holding its summed self time
LAYER_TIMES = {
    "formula.parse": "formula.parse_s",
    "formula.print": "formula.print_s",
    "formula.closure": "formula.closure_s",
    "translate.translate": "translate.translate_s",
    "kripke.load": "kripke.load_s",
    "kripke.relation_properties": "kripke.relation_properties_s",
    "kripke.path_components": "kripke.path_components_s",
    "kripke.local_connectedness": "kripke.local_connectedness_s",
    "kripke.cluster_decomposition": "kripke.cluster_decomposition_s",
    "kripke.eval": "kripke.eval_s",
    "topo.load": "topo.load_s",
    "topo.eval": "topo.eval_s",
    "filtration.filtrate": "filtration.filtrate_s",
    "filtration.untangle": "filtration.untangle_s",
    "filtration.verify": "filtration.verify_s",
    "logics.validate": "logics.validate_s",
    "logics.sat": "logics.sat_s",
    "cli.output": "cli.output_s",
}


def run_cli(argv):
    """One untraced job: exit code, stdout, seconds, and the error if it raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tangles.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed, error


def run_traced(tracer, index, argv):
    """One traced replay of job ``index``, returned like :func:`run_cli`."""
    start = perf_counter()
    try:
        code, out = replay(tracer, index, argv)
        error = None
    except Exception as exc:  # same boundary as run_cli
        code, out, error = None, "", f"{type(exc).__name__}: {exc}"
    return code, out, perf_counter() - start, error


class Run:
    """Passes over one job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.untraced, self.traced, self.tracers = [], [], []
        #: per untraced pass, each job's CPU time, and the reference
        #: kernel's time before the first job and after each job
        self.cpu, self.refs = [], []
        self.outputs, self.failures, self.counts = {}, {}, {}

    def untraced_pass(self) -> None:
        times, cpu_times, refs = [], [], [ref_time()]
        for i, job in enumerate(self.jobs):
            cpu = thread_time()
            code, out, dt, error = run_cli(job["argv"])
            cpu_times.append(thread_time() - cpu)
            times.append(dt)
            refs.append(ref_time())
            first = self.outputs.setdefault(i, (code, out))
            if error:
                self.failures.setdefault(i, error)
            elif (code, out) != first:
                self.failures.setdefault(i, "output differs between passes")
        self.untraced.append(times)
        self.cpu.append(cpu_times)
        self.refs.append(refs)

    def traced_pass(self) -> None:
        tracer, times = Tracer(), []
        for i, job in enumerate(self.jobs):
            code, out, dt, error = run_traced(tracer, i, job["argv"])
            times.append(dt)
            # the kernel evicts some of a job's cached data; run it here too,
            # so that traced and untraced jobs start from the same state
            ref_time()
            expect = job["expect"]
            if error or (code, digest(out)) != (expect["exit"], expect["digest"]):
                self.failures.setdefault(i, error or "traced replay output differs from the recorded one")
            if not self.tracers:
                for key, value in job_counts(tracer.facts).items():
                    self.counts[key] = self.counts.get(key, 0) + value
        self.traced.append(times)
        self.tracers.append(tracer)

    def job_times(self, traced=False) -> list[float]:
        """Each job's fastest repetition, unscaled (for the trace metrics,
        whose traced and untraced passes run side by side)."""
        passes = self.traced if traced else self.untraced
        return [min(p[i] for p in passes) for i in range(len(self.jobs))]

    def scaled_job_times(self) -> list[float]:
        """Each job's latency: the mean of the faster half of its untraced
        repetitions.  A repetition is the job thread's CPU time, scaled to
        nominal machine speed (``speed.py``) by the median of the six kernel
        times before it and the six after.  The faster half comes from the
        stretches that other tenants disturbed least, where the scaling is
        most accurate."""
        out = []
        for i in range(len(self.jobs)):
            reps = sorted(scaled(times[i], refs[max(0, i - 5):i + 7])
                          for times, refs in zip(self.cpu, self.refs))
            fast = reps[:max(1, len(reps) // 2)]
            out.append(sum(fast) / len(fast))
        return out


def measure(jobs, seconds, trace) -> Run:
    """Run passes (each followed by a traced pass when tracing) until the
    next would overrun ``seconds``; at least one always runs."""
    run = Run(jobs)
    start = perf_counter()
    while True:
        cycle = perf_counter()
        run.untraced_pass()
        if trace:
            run.traced_pass()
        if perf_counter() - start + (perf_counter() - cycle) > seconds:
            return run


def trace_metrics(run: Run) -> dict:
    """Per-layer metrics over one traced pass; each time is the least over
    the traced passes."""
    rows, covered = [], []
    for tracer in run.tracers:
        selfs = self_times(tracer.spans)
        rows.append({metric: selfs.get(name, 0.0) for name, metric in LAYER_TIMES.items()})
        # per job, the time inside the spans directly under its root span
        inside = [0.0] * len(run.jobs)
        for name, start, end, parent, job in tracer.spans:
            if parent >= 0 and tracer.spans[parent][0] == "cli.job":
                inside[job] += end - start
        covered.append(inside)
    out = {key: min(row[key] for row in rows) for key in rows[0]}
    least_covered = [min(c[i] for c in covered) for i in range(len(run.jobs))]
    out["cli.self_s"] = sum(run.job_times()) - sum(least_covered)
    c, counts = run.tracers[0].counts, run.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out |= {
        "formula.parse_chars_per_s": ratio(c["formula.chars"], out["formula.parse_s"]),
        "formula.tree_nodes": counts["formula.tree_nodes"],
        "formula.distinct_nodes": counts["formula.distinct_nodes"],
        "kripke.worlds": c["kripke.worlds"],
        "kripke.pairs": c["kripke.pairs"],
        "topo.opens": c["topo.opens"],
        "filtration.quotient_ratio": ratio(c["filtration.quotient_worlds"],
                                           c["filtration.source_worlds"]),
        "filtration.verify_checked": c["filtration.verify_checked"],
        "logics.valuations_checked": c["logics.valuations_checked"],
        "logics.valuations_per_s": ratio(c["logics.valuations_checked"], out["logics.validate_s"]),
        "logics.refuted_frac": ratio(c["logics.refuted"], c["logics.validate_jobs"]),
        "logics.frames_enumerated": counts.get("logics.frames_enumerated", 0),
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "trace.overhead_frac": ratio(sum(run.job_times(traced=True)), sum(run.job_times())) - 1,
    }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args(argv)
    setup_s = scaled(SETUP_S, [ref_time() for _ in range(11)])
    os.chdir(args.workdir)
    with open("jobs.json", encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    run = measure(jobs, args.seconds, bool(args.trace))
    # read before the checks, which load models of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for i, job in enumerate(jobs):
        if i not in run.failures:
            reason = check(job, *run.outputs[i])
            if reason:
                run.failures[i] = reason
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": len(run.untraced),
        "job_s": run.scaled_job_times(),
        "untraced": run.untraced,
        "cpu": run.cpu,
        "refs": run.refs,
        "failures": {jobs[i]["id"]: reason for i, reason in sorted(run.failures.items())},
    }
    if args.trace:
        result["layers"] = trace_metrics(run)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"jobs": [j["id"] for j in jobs],
                           "passes": [t.spans for t in run.tracers]}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
