"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sp-presented --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; latfact is imported from ./src.  One
process runs one workload as a closed loop with a single client: a job
starts when the previous one has ended and been checked.  The job list
(one pass) comes from the seed; the run repeats whole passes until the
time is used, so every run measures the same mix.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untimed pass
and then traced passes, and prints the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Details (failed jobs, report digest, layer table) go to the lines
before it and to benchmark/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MODULES = ("cli", "core", "errors", "factor", "finite", "idealsys", "instances",
           "props", "represent", "usc")

import tracer as layer_tracer  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def import_latfact():
    """Import latfact from the checkout afresh, dropping any earlier import,
    so every set-up pays the whole import."""
    for name in [m for m in sys.modules if m == "latfact" or m.startswith("latfact.")]:
        del sys.modules[name]
    package = importlib.import_module("latfact")
    if Path(package.__file__).resolve().parent != SRC / "latfact":
        raise ImportError(f"latfact came from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"latfact.{m}") for m in MODULES})


def set_up(workload, seed, limit):
    """Import latfact and generate the inputs, SETUP_REPEATS times; the last
    set-up is the one the run uses."""
    samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # start each set-up from the same heap, not the last one's garbage
        started = time.perf_counter()
        lf = import_latfact()
        jobs = workloads.build(workload, seed, lf)
        if limit:
            jobs = workloads.smallest(jobs, limit)
        samples.append(time.perf_counter() - started)
    return lf, jobs, samples


class Loop:
    """The closed loop over the job list, with the correctness gate."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.first_reports: dict = {}  # job index -> report hash from the first pass
        self.passes = 0

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the summed job latency."""
        busy = 0.0
        for index, job in enumerate(self.jobs):
            job_id = f"{self.passes}.{index}"
            started = time.perf_counter()
            try:
                outcome = tracer.run_job(job_id, job.run) if tracer else job.run()
                problem = None
            except Exception as exc:  # a job that raises is a failed job, not a crash
                outcome, problem = None, f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            latency = time.perf_counter() - started
            busy += latency
            self.latencies.append(latency)
            if problem is None:
                problem = self._check(index, job, outcome)
            if problem is not None:
                self.failures.append({"job": job_id, "key": job.key, "detail": problem})
        self.passes += 1
        return busy

    def _check(self, index, job, outcome):
        try:
            problem = job.check(outcome)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        report = job.report(outcome)
        if problem is None and report is not None:
            digest = hashlib.sha256(report.encode()).hexdigest()
            first = self.first_reports.setdefault(index, digest)
            if first != digest:
                problem = "report differs from the one of the first pass"
        return problem

    def digest(self):
        """Hash of the first pass's CLI reports, in job order; None when the
        workload runs no CLI jobs."""
        if not self.first_reports:
            return None
        h = hashlib.sha256()
        for index in sorted(self.first_reports):
            h.update(f"{self.jobs[index].key}\n{self.first_reports[index]}\n".encode())
        return h.hexdigest()

    def until(self, seconds, started, tracer=None):
        """Whole passes until the time since started is used (at least one):
        stop when another pass would end further from the deadline than
        stopping now.  Returns the passes, their summed job latency and
        their wall time."""
        passes = 0
        busy = 0.0
        phase = time.perf_counter()
        while True:
            busy += self.run_pass(tracer)
            passes += 1
            now = time.perf_counter()
            per_pass = (now - phase) / passes
            if now - started >= seconds - per_pass / 2:
                return passes, busy, now - phase


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it,
    that percentile, and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def check_digest(workload, seed, jobs, digest, problems):
    """Compare with the digest an earlier run of the same seed and job list
    recorded in this checkout; record it if there is none."""
    if digest is None:
        return
    fingerprint = hashlib.sha256("\n".join(j.key for j in jobs).encode()).hexdigest()[:12]
    path = OUT / f"digest-{workload}-seed{seed}-{fingerprint}.txt"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            problems.append(f"determinism: reports hash {digest}, an earlier run "
                            f"of this seed and job list hashed {recorded} ({path.name})")
    else:
        path.write_text(digest + "\n")


def end_to_end(loop, setup_samples, passes, wall):
    lat, pct, count = tail(loop.latencies)
    attempted = len(loop.latencies)
    values = {
        "jobs_per_s": attempted / wall,
        "job_p50_s": statistics.median(loop.latencies),
        "job_tail_s": lat,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - len(loop.failures)) / attempted,
    }
    lines = [
        f"  jobs_per_s   {values['jobs_per_s']:.4f} 1/s ({attempted} jobs, "
        f"{passes} passes, {wall:.2f} s)",
        f"  job_p50_s    {values['job_p50_s']:.4f} s",
        f"  job_tail_s   {lat:.4f} s (p{pct:.1f} of {count} jobs)",
        f"  setup_s      {values['setup_s']:.4f} s (median of {len(setup_samples)} set-ups)",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
        f"  fail_ratio   {len(loop.failures) / attempted:.4f} "
        f"({len(loop.failures)} of {attempted} jobs)",
    ]
    extra = {"tail_percentile": pct, "tail_samples": count, "setup_samples": setup_samples,
             "passes": passes, "wall_s": wall,
             "fail_ratio": len(loop.failures) / attempted}
    return values, lines, extra


def per_layer(tracer, traced_passes, traced_busy, untimed_busy):
    table = tracer.layer_table()
    total = sum(s for s, _ in table.values())
    values = {}
    lines = [f"  {'layer':32} {'self_s':>9} {'share':>7} {'calls/pass':>12}"]
    for layer, (own, calls) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        share = 100.0 * own / total if total else 0.0
        values[f"{layer}.self_pct"] = (share, "%")
        values[f"{layer}.calls"] = (calls / traced_passes, "count")
        lines.append(f"  {layer:32} {own:9.4f} {share:6.2f}% {calls / traced_passes:12.1f}")
    counts = tracer.counts
    for key in layer_tracer.COUNTED:
        values[f"{key}.calls"] = (counts[key] / traced_passes, "count")
        lines.append(f"  {key:32} {'(counted)':>9} {'':>7} {counts[key] / traced_passes:12.1f}")
    attempts = counts["factor.radical_factor.attempts"]
    values["usc.add.calls"] = (counts["usc.add"] / traced_passes, "count")
    values["core.window.elements"] = (counts["core.window.elements"] / traced_passes, "count")
    values["factor.radical_factor.ok_ratio"] = (
        counts["factor.radical_factor.ok"] / attempts if attempts else 1.0, "ratio")
    covered = 100.0 - values[f"{layer_tracer.JOB}.self_pct"][0]
    values["trace.covered_pct"] = (covered, "%")
    values["trace.wall_s"] = (traced_busy / traced_passes, "s")
    values["trace.overhead_ratio"] = (traced_busy / traced_passes / untimed_busy, "ratio")
    lines += [
        f"  named layers cover {covered:.2f}% of the traced job time "
        f"({total:.3f} s over {traced_passes} passes; the rest is the benchmark's own "
        f"job code)",
        f"  usc.add calls/pass {values['usc.add.calls'][0]:.1f}; window elements/pass "
        f"{values['core.window.elements'][0]:.1f}; radical_factor ok_ratio "
        f"{values['factor.radical_factor.ok_ratio'][0]:.4f}",
        f"  trace.overhead_ratio {values['trace.overhead_ratio'][0]:.3f} "
        f"(traced {traced_busy / traced_passes:.3f} s per pass, untimed {untimed_busy:.3f} s)",
    ]
    return values, lines, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="run only this many of the smallest jobs (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "latfact" / "__init__.py").is_file():
        print(f"error: no latfact sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        lf, jobs, setup_samples = set_up(args.workload, args.seed, args.jobs)
    except ImportError as exc:
        print(f"error: cannot import latfact: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    loop = Loop(jobs)
    header = (f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"{len(jobs)} jobs per pass, one client, closed loop")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_pass": [j.key for j in jobs]}

    problems: list[str] = []
    if args.trace:
        gc.collect()
        started = time.perf_counter()
        untimed_busy = loop.run_pass()
        tracer = layer_tracer.Tracer()
        tracer.install(vars(lf))
        leaks = tracer.unpatched()
        if leaks:
            tracer.uninstall()
            print(f"error: unpatched lookup sites {leaks}", file=sys.stderr)
            return 2
        try:
            passes, busy, _ = loop.until(args.seconds, started, tracer)
        finally:
            tracer.uninstall()
        values, lines, table = per_layer(tracer, passes, busy, untimed_busy)
        problems += [f"span tree: {p}" for p in layer_tracer.check_span_tree(tracer.spans)[:5]]
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "name", "start_ns", "end_ns", "parent", "job", "self_ns"],
             "spans": tracer.spans}))
        result["layers"] = {k: {"self_s": s, "calls": c} for k, (s, c) in table.items()}
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    else:
        gc.collect()
        started = time.perf_counter()
        passes, _, wall = loop.until(args.seconds, started)
        values, lines, extra = end_to_end(loop, setup_samples, passes, wall)
        result.update(extra)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    digest = loop.digest()
    check_digest(args.workload, args.seed, jobs, digest, problems)
    attempted = len(loop.latencies)
    failed = len(loop.failures)
    result.update({"digest": digest, "failures": loop.failures, "problems": problems,
                   "metrics": metrics})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(header)
    print("\n".join(lines))
    print(f"  report digest {digest or '(no CLI jobs)'}")
    if loop.failures:
        print("failed jobs:")
        for f in loop.failures:
            print(f"  {f['job']} {f['key']}: {f['detail']}")
    for problem in problems:
        print(f"run problem: {problem}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
