#!/usr/bin/env python3
"""Benchmark for the penner package.

    python3 bench/run.py --workload recipe-max --seed 1 --seconds 18 --trace 0

Runs from one process and one thread as a closed loop with a single client:
each job starts when the previous one has returned.  The package is imported
from ``src/`` next to this directory.  Set-up (a cold import of the package
and its dependencies, timed in a fresh interpreter, then the catalog build,
input generation and one warm-up job in this process) is repeated and its
median reported.  The benchmark imports its own oracles, sympy and mpmath
only after the set-ups, so they do not warm the package's import.  The
timed phase runs whole cycles of seeded jobs (see ``workloads``) until
``--seconds`` of reference-speed job time have been measured.  Every answer
is then checked by the independent oracles in ``oracles``, outside the timed
region.

On a shared machine the speed of pure-Python work drifts by up to a quarter
within a minute.  So a fixed reference kernel is timed off the clock about
every quarter second of job time, and each job's wall time is divided by
the kernel's mean slowdown against ``REFERENCE_S`` over the samples taken
within one job length (at least a quarter second) of job time before and
after the job.  The timings in the metrics are these
reference-speed seconds; the raw wall times are printed and recorded too.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the timed phase runs untraced for half the time; then one
more set-up and the same jobs run again with spans around each layer
(``tracer``), and the last line holds the per-layer metrics, as means per
traced job.  Input files live in a fresh directory under ``bench/results/``
that is removed at exit.  Job lists, per-job outcomes, the environment and,
when tracing, the spans are written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
# A percentile is reported only with at least ten jobs beyond it.
P90_MIN_JOBS = 100
# Median time of reference_kernel on the machine the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11.7), and how much job time may pass
# between two samples of it.
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.25

# Times ``import penner`` in a fresh interpreter; argv[1] is the src directory.
COLD_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import penner
elapsed = time.perf_counter() - start
assert penner.__file__.startswith(sys.argv[1]), penner.__file__
print(elapsed)
"""

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from tracer import SETUP, Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    cycles: Callable
    warmup: Callable
    run: Callable
    verdict: str  # name of the checking function in ``oracles``
    prepare: Optional[Callable] = None


WORKLOADS = {
    "recipe-max": Workload(wl.recipe_cycles, wl.recipe_warmup, wl.run_recipe_job,
                           "verdict_recipe"),
    "degree-cli": Workload(wl.degree_cycles, wl.degree_warmup, wl.run_degree_job,
                           "verdict_degree", prepare=wl.write_omega_files),
    "limit-boundary": Workload(wl.limit_cycles, wl.limit_warmup, wl.run_limit_job,
                               "verdict_limit"),
}


@dataclass
class Record:
    job: dict
    seconds: float
    output: object
    error: Optional[str]
    problems: List[str] = field(default_factory=list)
    at: float = 0.0  # job time of the phase when the job started
    slowdown: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


def reference_kernel():
    """Fixed pure-Python work of the kinds the package does: Fraction sums
    and big-integer products."""
    third, total = Fraction(1, 3), 0
    for i in range(1, 1500):
        total += Fraction(i, i + 1) * third
    big = 3 ** 3000
    for _ in range(100):
        big = (big * 7919) // 13
    return total, big


def slowdown() -> float:
    """The reference kernel's time over ``REFERENCE_S``, with the garbage
    collector off so the program's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - start) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


class Cycles:
    """The seeded cycles of a workload, generated on first use and kept so
    a traced replay sees the same jobs; job ids count from 0."""

    def __init__(self, workload: Workload, ctx: wl.Context, seed: int):
        self.workload, self.ctx = workload, ctx
        self.source = workload.cycles(random.Random(seed), ctx.rows)
        self.generated: List[list] = []
        self.next_id = 0

    def __getitem__(self, index: int) -> list:
        while len(self.generated) <= index:
            cycle = next(self.source)
            for job in cycle:
                job["id"] = self.next_id
                self.next_id += 1
            if self.workload.prepare is not None:
                self.workload.prepare(cycle, self.ctx.rows, self.ctx.workdir)
            self.generated.append(cycle)
        return self.generated[index]


def import_package():
    """A fresh import of ``penner`` from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "penner" or k.startswith("penner.")]:
        del sys.modules[key]
    pk = importlib.import_module("penner")
    if not os.path.abspath(pk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"penner imported from {pk.__file__}, not from {SRC}")
    return pk


def cold_import_s() -> float:
    """Seconds a fresh interpreter takes to import ``penner`` from this
    checkout, its dependencies included."""
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT, SRC], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def setup(workload: Workload, seed: int, workdir: str,
          tracer: Optional[Tracer] = None):
    """A fresh import of ``penner`` in this process, off the clock (the cold
    import is timed by ``cold_import_s``), then the timed catalog build,
    input generation into ``workdir`` and warm-up job, traced when a tracer
    is given.  Returns the context, the cycles and the timed seconds."""
    pk = import_package()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    entries = {cid: pk.catalog.catalog_get(cid) for cid in pk.catalog.catalog_ids()}
    ctx = wl.Context(
        pk=pk,
        rows={cid: [list(row) for row in e.omega.entries] for cid, e in entries.items()},
        omegas={cid: e.omega for cid, e in entries.items()},
        workdir=workdir,
    )
    cycles = Cycles(workload, ctx, seed)
    cycles[0]
    warmup = workload.warmup(ctx.rows)
    if workload.prepare is not None:
        workload.prepare([warmup], ctx.rows, ctx.workdir)
    workload.run(ctx, warmup)
    return ctx, cycles, time.perf_counter() - start


def timed_phase(workload: Workload, ctx, cycles: Cycles, seconds: float,
                count: Optional[int] = None, tracer: Optional[Tracer] = None):
    """Run whole cycles until ``seconds`` of reference-speed job time (or
    ``count`` cycles).

    Generating a cycle, writing its input files and sampling the reference
    kernel happen off the clock; should that ever outweigh the jobs, the
    loop also stops after twice ``seconds`` of wall time.  Returns the
    records, the cycle count and the kernel samples as (job time, slowdown).
    """
    records: List[Record] = []
    busy = since = 0.0
    done = 0
    began = time.perf_counter()
    samples = [(0.0, slowdown())]

    def more() -> bool:
        if count is not None:
            return done < count
        ref_busy = busy / statistics.fmean(v for _t, v in samples)
        return ref_busy < seconds and time.perf_counter() - began < 2 * seconds

    while more():
        for job in cycles[done]:
            if tracer is not None:
                tracer.job = job["id"]
            start = time.perf_counter()
            try:
                out, error = workload.run(ctx, job), None
            except Exception as exc:  # noqa: BLE001 - a failed job, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            records.append(Record(job, elapsed, out, error, at=busy))
            busy += elapsed
            since += elapsed
            if since >= SAMPLE_EVERY_S:
                samples.append((busy, slowdown()))
                since = 0.0
        done += 1
    if samples[-1][0] < busy:
        samples.append((busy, slowdown()))
    for rec in records:
        pad = max(SAMPLE_EVERY_S, rec.seconds)
        near = [v for t, v in samples if rec.at - pad <= t <= rec.at + rec.seconds + pad]
        rec.slowdown = statistics.fmean(near)
    return records, done, samples


def check(workload: Workload, ctx, records: List[Record]) -> dict:
    """Run the oracles on every answer; returns check name -> [passed, failed]."""
    import oracles

    verdict = getattr(oracles, workload.verdict)
    verdicts: dict = {}
    for rec in records:
        omega = wl.job_omega(rec.job, ctx.rows)
        if rec.error is not None:
            verdicts.setdefault("answered", [0, 0])[1] += 1
            if oracles.is_pf_certified(omega, rec.job["gamma"]):
                rec.error += " (the product is certified Perron-Frobenius)"
            continue
        verdicts.setdefault("answered", [0, 0])[0] += 1
        try:
            found = verdict(rec.job, rec.output, omega)
        except Exception as exc:  # noqa: BLE001 - an unreadable answer is wrong
            found = {"readable": [f"oracle could not read the answer: {exc!r}"]}
        for name, problems in found.items():
            verdicts.setdefault(name, [0, 0])[bool(problems)] += 1
            rec.problems += [f"{name}: {p}" for p in problems]
    return verdicts


def environment() -> dict:
    import mpmath
    import sympy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def harrell_davis(values: List[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile: a Beta-weighted mean
    of all order statistics.  Job sizes come in clusters, and a single order
    statistic jumps between runs when it sits in a gap between two."""
    import mpmath

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True))
           for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def summary(records: List[Record]) -> dict:
    """Counts and timings of one phase, in reference-speed and raw seconds."""
    failed = sum(1 for r in records if r.error is not None or r.problems)
    out = {"jobs": len(records), "failed": failed,
           "failed_ratio": failed / len(records)}
    for suffix, times in (("", [r.ref_seconds for r in records]),
                          ("_raw", [r.seconds for r in records])):
        out["jobs_per_s" + suffix] = (len(records) - failed) / sum(times)
        out["job_p50_s" + suffix] = harrell_davis(times, 0.5)
        out["job_p90_s" + suffix] = (harrell_davis(times, 0.9)
                                     if len(times) >= P90_MIN_JOBS else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "penner", "__init__.py")):
        print(f"error: no penner package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RESULTS, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=RESULTS)
    try:
        return measure(args, WORKLOADS[args.workload], inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def measure(args, workload: Workload, inputs: str) -> int:
    """Set up, run, check and report; input files go under ``inputs``."""
    setups, setups_raw, imports_raw = [], [], []
    for i in range(SETUP_REPEATS):
        before = slowdown()
        imports_raw.append(cold_import_s())
        ctx, cycles, rest = setup(workload, args.seed, os.path.join(inputs, str(i)))
        setups_raw.append(imports_raw[-1] + rest)
        setups.append(setups_raw[-1] / ((before + slowdown()) / 2))

    seconds = args.seconds / 2 if args.trace else args.seconds
    records, count, samples = timed_phase(workload, ctx, cycles, seconds)
    phases, kernel_samples = [records], [samples]
    tracer = None
    if args.trace:
        tracer = Tracer()
        before = slowdown()
        try:
            ctx, traced_cycles, _ = setup(workload, args.seed,
                                          os.path.join(inputs, "traced"), tracer)
            setup_slowdown = (before + slowdown()) / 2
            traced, _, samples = timed_phase(workload, ctx, traced_cycles, seconds,
                                             count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        kernel_samples.append(samples)
    rss = peak_rss_mb()

    all_records = [r for recs in phases for r in recs]
    verdicts = check(workload, ctx, all_records)
    stats = [summary(recs) for recs in phases]
    correct = all(not r.problems for r in all_records)
    failed = sum(s["failed"] for s in stats)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (stats[0]["jobs_per_s"], "1/s"),
        "job_p50_s": (stats[0]["job_p50_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if tracer is not None:
        metrics = tracer.metrics({SETUP: setup_slowdown,
                                  **{r.job["id"]: r.slowdown for r in phases[1]}})
        metrics["trace.overhead_jobs_per_s"] = (
            stats[1]["jobs_per_s"] - stats[0]["jobs_per_s"], "1/s")

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"penner benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("set-up runs, reference-speed (raw; raw cold import) s: " + ", ".join(
        f"{a:.3f} ({b:.3f}; {c:.3f})"
        for a, b, c in zip(setups, setups_raw, imports_raw)))
    for label, s, recs in zip(("untraced", "traced"), stats, phases):
        print(f"{label}: {s['jobs']} jobs, failed {s['failed']}, failed_ratio "
              f"{s['failed_ratio']:.4f}, mean slowdown "
              f"{statistics.fmean(r.slowdown for r in recs):.3f}")
        for suffix, kind in (("", "reference-speed"), ("_raw", "raw wall-clock")):
            p90 = s["job_p90_s" + suffix]
            p90 = (f"{p90:.4f} s" if p90 is not None
                   else f"n/a (needs {P90_MIN_JOBS} jobs)")
            print(f"  {kind}: jobs_per_s {s['jobs_per_s' + suffix]:.4f} 1/s, "
                  f"job_p50_s {s['job_p50_s' + suffix]:.4f} s, job_p90_s {p90}, "
                  f"over {s['jobs']} jobs")
    print("oracles: " + ", ".join(f"{name} {ok} passed / {bad} failed"
                                  for name, (ok, bad) in sorted(verdicts.items())))
    for rec in all_records:
        if rec.error is not None or rec.problems:
            print(f"job {rec.job['id']} failed: {rec.error or '; '.join(rec.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")

    record = {
        "args": vars(args),
        "environment": env,
        "setup_s": setups,
        "setup_raw_s": setups_raw,
        "setup_cold_import_raw_s": imports_raw,
        "phases": stats,
        "verdicts": verdicts,
        "jobs": [job for cycle in cycles.generated for job in cycle],
        "kernel_samples": kernel_samples,
        "records": [{"id": r.job["id"], "at": r.at, "seconds": r.seconds,
                     "slowdown": r.slowdown, "error": r.error,
                     "problems": r.problems} for r in all_records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"{tag}-spans.jsonl"))

    print(json.dumps({
        "correct": correct,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
