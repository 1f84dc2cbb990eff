"""equizeta benchmark: seeded CLI job mixes, timed end to end or traced.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in; nothing needs installing.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Spans of a traced run go to ``.bench_out/``.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
SETUP_PROBES = 11  # host-speed probes on each side of a set-up process
WORKLOADS = ("closed_form", "series_compare", "oracle_cohomology")


def _import_program():
    """Put the checkout's ``src`` first on the path and import equizeta from it."""
    src = ROOT / "src"
    if not (src / "equizeta" / "__init__.py").is_file():
        raise SystemExit(f"error: no equizeta sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import equizeta

    if Path(equizeta.__file__).resolve().parent != src / "equizeta":
        raise SystemExit(f"error: imported equizeta from {equizeta.__file__}, not {src}")


def _setup(workload, seed, workdir):
    """Everything before the first job can be timed."""
    _import_program()
    import jobs

    joblist = jobs.generate(workload, seed)
    return joblist, jobs.materialize(joblist, workdir)


def _measure_setup(workload, seed):
    """Median time from spawning a fresh workload process to its 'ready',
    scaled by the host speed probed just before and after each spawn."""
    import harness

    def probes():
        return [harness.probe() for _ in range(SETUP_PROBES)]

    samples = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed), "--setup-only"]
        before = probes()
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed ({proc.returncode})")
        samples.append(seconds * harness.host_scale(before + probes()))
    return statistics.median(samples)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


@dataclass
class Passes:
    walls: list  # wall time of each pass
    scaled: list  # per job, its host-scaled time in each pass
    raw: list  # per job, its wall time in each pass
    stdout_bytes: list  # stdout bytes of each pass
    failures: list  # (job index, reason) over all passes

    @property
    def attempted(self):
        return len(self.walls) * len(self.scaled)

    @staticmethod
    def median_ms(per_job):
        """Each job's median over the passes, in ms."""
        return [statistics.median(times) * 1e3 for times in per_job]


def _passes(argvs, scorer, budget, tracer=None):
    """Whole passes over the job list until ``budget`` seconds of them have run.

    Outputs are scored after each pass and then dropped, so memory does not
    grow with the number of passes.  Before each pass the surviving objects
    (modules, job lists, reference caches) are frozen out of the collector,
    so a collection during a job scans only that job's objects, as it would
    in a fresh equizeta process.
    """
    import harness

    done = Passes([], [[] for _ in argvs], [[] for _ in argvs], [], [])
    while not done.walls or sum(done.walls) < budget:
        gc.collect()
        gc.freeze()
        wall, results = harness.run_pass(argvs, tracer)
        done.walls.append(wall)
        for times, t in zip(done.scaled, harness.scaled_seconds(results)):
            times.append(t)
        for times, r in zip(done.raw, results):
            times.append(r.seconds)
        done.stdout_bytes.append(sum(len(r.stdout.encode()) for r in results))
        done.failures.extend(scorer.failures(results))
    return done


def _report_failures(failures, jobs):
    for index, reason in failures[:20]:
        print(f"FAILED {' '.join(jobs[index].argv)}: {reason}", file=sys.stderr)


def _job_stats(job_ms):
    return statistics.median(job_ms), statistics.quantiles(job_ms, n=10)[8]


def _end_to_end(argvs, scorer, seconds, setup_s):
    """Timings use each job's median host-scaled time over the run's passes.

    The unscaled wall-time figures come back alongside, for the record.
    """
    done = _passes(argvs, scorer, seconds)
    job_ms = done.median_ms(done.scaled)
    correct_share = 1 - len(done.failures) / done.attempted
    p50, p90 = _job_stats(job_ms)
    metrics = {
        "jobs_per_s": (correct_share * len(job_ms) / sum(job_ms) * 1e3, "jobs/s"),
        "job_ms.p50": (p50, "ms"),
        "job_ms.p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    wall_ms = done.median_ms(done.raw)
    wall_p50, wall_p90 = _job_stats(wall_ms)
    wall = {
        "passes": len(done.walls),
        "jobs_per_s": correct_share * len(wall_ms) / sum(wall_ms) * 1e3,
        "job_ms.p50": wall_p50,
        "job_ms.p90": wall_p90,
        "host_scale": statistics.median(s / r for s, r in zip(job_ms, wall_ms)),
    }
    return metrics, done.attempted, done.failures, wall


def _per_layer(argvs, scorer, seconds, spans_path):
    import tracing

    plain = _passes(argvs, scorer, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _passes(argvs, scorer, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    attempted = plain.attempted + traced.attempted
    values = tracer.layer_metrics(len(traced.walls))
    values["cli.output_bytes"] = statistics.mean(traced.stdout_bytes)
    values["trace.overhead_ratio"] = (
        sum(traced.median_ms(traced.scaled)) / sum(plain.median_ms(plain.scaled))
    )
    values["failed_frac"] = len(failures) / attempted
    tracer.write_spans(spans_path)
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    return metrics, attempted, failures, {"passes": len(plain.walls) + len(traced.walls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            _setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        joblist, argvs = _setup(args.workload, args.seed, workdir)
        setup_s = None if args.trace else _measure_setup(args.workload, args.seed)
        import harness

        scorer = harness.Scorer(joblist.jobs, harness.references())
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.csv"
            metrics, attempted, failures, wall = _per_layer(
                argvs, scorer, args.seconds, spans_path)
        else:
            metrics, attempted, failures, wall = _end_to_end(
                argvs, scorer, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report_failures(failures, joblist.jobs)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(joblist.jobs),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "trace": args.trace,
        "wall": wall,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
