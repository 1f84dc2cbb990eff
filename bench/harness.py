"""Runs jobs through ``equizeta.cli.main`` in-process and scores them.

One client, closed loop, no threads: each job starts when the previous one
has returned.  ``cli.main`` is looked up on its module at every call, so the
traced run's wrapper is the one that runs.  After every job a short probe
measures how fast the host runs right now (see ``probe``).
"""

from __future__ import annotations

import hashlib
import io
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from equizeta import cli

import checks


@dataclass(frozen=True)
class JobResult:
    code: object
    stdout: str
    stderr: str
    seconds: float
    probe_seconds: float  # the probe run right after this job


def call_cli(argv):
    """Exit code, stdout and stderr of one ``equizeta`` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash is a wrong outcome, not a benchmark error
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


# Host-speed scaling.  A shared host runs the same code up to twice as fast
# at one minute as at the next, for stretches longer than a run, and other
# tenants set the pace, not this program.  The probe is a fixed piece of
# interpreter work that calls no equizeta code: Fraction arithmetic and dict
# and str operations, like the program's own.  A job's scaled time is its
# wall time times PROBE_REF_S over the median time of the probes run next to
# it, that is, its time on a host where the probe takes PROBE_REF_S.
PROBE_REF_S = 0.5e-3
PROBE_NEIGHBOURS = 5  # probes on each side of a job that set its host speed


def probe():
    """Wall time of the fixed probe work."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i * i + 1, 2 * i + 3)
        seen[str(i)] = total.numerator % 97
    return perf_counter() - start


def host_scale(probe_seconds):
    """PROBE_REF_S over the median of ``probe_seconds``."""
    return PROBE_REF_S / statistics.median(probe_seconds)


def scaled_seconds(results):
    """Each job's wall time scaled by the host speed around it."""
    probes = [r.probe_seconds for r in results]
    k = PROBE_NEIGHBOURS
    return [
        r.seconds * host_scale(probes[max(0, i - k): i + k + 1])
        for i, r in enumerate(results)
    ]


def run_pass(argvs, tracer=None):
    """Run every job once, each followed by a probe; the pass's wall time and
    each job's result."""
    results = []
    start = perf_counter()
    for argv in argvs:
        if tracer is not None:
            tracer.job += 1
        t0 = perf_counter()
        code, out, err = call_cli(argv)
        seconds = perf_counter() - t0
        results.append(JobResult(code, out, err, seconds, probe()))
    return perf_counter() - start, results


class Scorer:
    """Verifies results; an output already verified for a job is accepted again."""

    def __init__(self, jobs, refs):
        self.jobs = jobs
        self.refs = refs
        self.verified = {}

    def failures(self, results):
        """(job index, reason) for every wrong result."""
        out = []
        for i, (job, r) in enumerate(zip(self.jobs, results)):
            key = hashlib.sha256(f"{r.code}\0{r.stdout}\0{r.stderr}".encode()).digest()
            if self.verified.get(i) == key:
                continue
            reason = checks.verify(job, r.code, r.stdout, r.stderr, self.refs)
            if reason is None:
                self.verified[i] = key
            else:
                out.append((i, reason))
        return out


def references():
    return checks.References(call_cli, checks.load_pins())
