"""Benchmark of derivalg: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout that holds this
file, never from an installed copy; without it the run stops with exit
code 2.  ``--seed`` only draws the workload's inputs.

``--trace 0`` sets up several times and runs the closed loop (one
client), within about ``--seconds`` in all, and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of
jobs twice, plain and traced, and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, "perfbench-out")

from spans import Tracer, counter_totals, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (metric, unit, span name, statistic) in the order they are printed
LAYER_METRICS = (
    ("varieties.relation_rows.calls", "count", "varieties.relation_rows", "calls"),
    ("varieties.relation_rows.self_s", "s", "varieties.relation_rows", "self_s"),
    ("varieties.relation_rows.rows", "count", "varieties.relation_rows.rows", "counter"),
    ("rowreduce.RowReducer.rules.calls", "count", "rowreduce.RowReducer.rules", "calls"),
    ("rowreduce.RowReducer.rules.self_s", "s", "rowreduce.RowReducer.rules", "self_s"),
    (
        "rowreduce.RowReducer.rules.nonzeros",
        "count",
        "rowreduce.RowReducer.rules.nonzeros",
        "counter",
    ),
    ("rowreduce.RowReducer.add.calls", "count", "rowreduce.RowReducer.add", "calls"),
    ("rowreduce.RowReducer.add.self_s", "s", "rowreduce.RowReducer.add", "self_s"),
    ("rowreduce.RowReducer.add.useful_ratio", "ratio", "rowreduce.RowReducer.add", "useful"),
    ("varieties.QuotientSpace.reduce.calls", "count", "varieties.QuotientSpace.reduce", "calls"),
    ("varieties.QuotientSpace.reduce.self_s", "s", "varieties.QuotientSpace.reduce", "self_s"),
    ("rowreduce.RowReducer.reduce.calls", "count", "rowreduce.RowReducer.reduce", "calls"),
    ("rowreduce.RowReducer.reduce.self_s", "s", "rowreduce.RowReducer.reduce", "self_s"),
    ("envfox.env_is_zero.calls", "count", "envfox.env_is_zero", "calls"),
    ("envfox.env_is_zero.self_s", "s", "envfox.env_is_zero", "self_s"),
    ("envfox.mat_is_nilpotent.self_s", "s", "envfox.mat_is_nilpotent", "self_s"),
    ("envfox.jacobian.self_s", "s", "envfox.jacobian", "self_s"),
    ("envfox.JacobianMatrix.matmul.self_s", "s", "envfox.JacobianMatrix.matmul", "self_s"),
    ("deriv.apply.calls", "count", "deriv.apply", "calls"),
    ("deriv.apply.self_s", "s", "deriv.apply", "self_s"),
    ("deriv.lsym_mul.calls", "count", "deriv.lsym_mul", "calls"),
    ("deriv.lsym_mul.self_s", "s", "deriv.lsym_mul", "self_s"),
    ("genpos.span_check.self_s", "s", "genpos.span_check", "self_s"),
    ("structconst.check_identity.self_s", "s", "structconst.check_identity", "self_s"),
    ("structconst.evaluate.calls", "count", "structconst.evaluate", "calls"),
    ("structconst.evaluate.self_s", "s", "structconst.evaluate", "self_s"),
    ("freealg.enumerate_reduced.calls", "count", "freealg.enumerate_reduced", "calls"),
    ("freealg.enumerate_reduced.self_s", "s", "freealg.enumerate_reduced", "self_s"),
    ("sexpr.parse.calls", "count", "sexpr.parse", "calls"),
    ("sexpr.parse.self_s", "s", "sexpr.parse", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)


def use_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "derivalg", "__init__.py")):
        sys.stderr.write(f"perfbench: no derivalg package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics, so that on
    a few long jobs it is not simply the slowest one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def setup_child(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, from before the
    package import to the first job's inputs being ready."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Outputs:
    """Outputs of a run.  The first output of each distinct job is kept
    for its check; a repeat is compared with it at once and dropped, so
    memory does not grow with the number of jobs."""

    def __init__(self, w, state) -> None:
        self.w = w
        self.state = state
        self.runs = 0
        self.first: dict[int, tuple[int, int, object]] = {}  # job -> run, index, output
        self.problems: dict[int, list[str]] = {}  # run -> problems

    def add(self, i: int, out, error) -> None:
        run = self.runs
        self.runs += 1
        key = id(self.w.job(self.state, i))
        if error is not None:
            self.problems[run] = [f"job {i}: {error}"]
        elif key not in self.first:
            self.first[key] = (run, i, out)
        elif out != self.first[key][2]:
            self.problems[run] = [f"job {i}: output differs from its first run"]

    def check(self) -> tuple[int, list[str]]:
        """Check every kept output by the workload's second route; returns
        the number of failed job runs and their problems."""
        for run, i, out in self.first.values():
            issues = self.w.check(self.state, self.w.job(self.state, i), out)
            if issues:
                self.problems[run] = [f"job {i}: {p}" for p in issues]
        return len(self.problems), [p for run in sorted(self.problems) for p in self.problems[run]]


def run_jobs(w, state, indices, outputs: Outputs, tracer=None) -> list[float]:
    """Run the given jobs back to back; returns the wall seconds of each."""
    times = []
    for i in indices:
        job = w.job(state, i)
        if tracer is not None:
            tracer.job = i
        start = perf_counter()
        try:
            out, error = w.run(state, job, tracer), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        outputs.add(i, out, error)
    return times


def timed_run(w, seed: int, seconds: float) -> dict:
    """Set-up samples, then the closed loop, within about ``seconds`` in
    all: a job starts only if a job of the mean length so far would end
    in time, so the loop is not stretched by a last long job."""
    start = perf_counter()
    deadline = start + seconds
    state = w.setup(seed)
    setups = [perf_counter() - start]
    setups += [setup_child(w.name, seed) for _ in range(w.setup_samples - 1)]

    outputs = Outputs(w, state)
    times: list[float] = []
    loop_start = perf_counter()
    while not times or perf_counter() + sum(times) / len(times) <= deadline:
        times += run_jobs(w, state, [len(times)], outputs)
    wall = perf_counter() - loop_start

    failed, problems = outputs.check()
    rss = peak_rss_mb(resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN)
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (p90(times), "s"),
        "jobs_per_s": (len(times) / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"{w.name} seed {seed}: {len(times)} jobs in {wall:.2f} s, closed loop, one client",
        f"failed_share {failed}/{len(times)} = {failed / len(times)}",
        f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}",
    ]
    return {
        "attempted": len(times),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "lines": lines,
    }


def traced_run(w, seed: int) -> dict:
    tracer = Tracer()
    if w.in_process:
        tracer.job = "setup"
        tracer.install()
    try:
        state = w.setup(seed)
    finally:
        tracer.uninstall()

    jobs = range(w.traced_jobs)
    outputs = Outputs(w, state)
    plain_wall = sum(run_jobs(w, state, jobs, outputs))
    if w.in_process:
        tracer.install()
    try:
        traced_wall = sum(run_jobs(w, state, jobs, outputs, tracer))
    finally:
        tracer.uninstall()

    failed, problems = outputs.check()

    totals = layer_totals(tracer.spans)
    counters = counter_totals(tracer.counts)
    metrics = {}
    for metric, unit, name, stat in LAYER_METRICS:
        calls, self_s = totals.get(name, (0, 0.0))
        if stat == "calls":
            value = calls
        elif stat == "self_s":
            value = self_s
        elif stat == "useful":
            value = counters.get(name + ".useful", 0) / calls if calls else 0.0
        else:
            value = counters.get(name, 0)
        metrics[metric] = (value, unit)
    metrics["trace.overhead_s"] = ((traced_wall - plain_wall) / len(jobs), "s")

    job_ids = set(jobs)
    in_jobs = layer_totals(tracer.spans, job_ids)
    lines = [
        f"{w.name} seed {seed}: traced set-up plus {len(jobs)} jobs; "
        f"per-layer values are totals over both",
        f"failed_share {failed}/{2 * len(jobs)} = {failed / (2 * len(jobs))}",
        f"job wall: plain {plain_wall:.4f} s, traced {traced_wall:.4f} s",
    ]
    build = sum(
        in_jobs.get(n, (0, 0.0))[1]
        for n in (
            "varieties.relation_rows",
            "rowreduce.RowReducer.rules",
            "rowreduce.RowReducer.add",
        )
    )
    lines.append(
        f"in jobs: relation_rows+rules+add self time {build:.4f} s "
        f"= {build / traced_wall:.3f} of traced job wall"
    )
    job_counts = counter_totals(tracer.counts, job_ids)
    lines.append(
        "in jobs: relation_rows calls {}, add calls {}, rules built {} of {} calls".format(
            in_jobs.get("varieties.relation_rows", (0, 0.0))[0],
            in_jobs.get("rowreduce.RowReducer.add", (0, 0.0))[0],
            job_counts.get("rowreduce.RowReducer.rules.built", 0),
            in_jobs.get("rowreduce.RowReducer.rules", (0, 0.0))[0],
        )
    )
    if tracer.missing:
        lines.append(f"not present in this derivalg: {', '.join(tracer.missing)}")

    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{w.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return {
        "attempted": 2 * len(jobs),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that subprocess.run kills and waits for
    # the child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    use_checkout()
    w = WORKLOADS[args.workload]()
    if args.setup_only:
        start = perf_counter()
        w.setup(args.seed)
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    if args.trace:
        report = traced_run(w, args.seed)
    else:
        report = timed_run(w, args.seed, args.seconds)
    for line in report["lines"]:
        print(line)
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name} = {value} {unit}")
    for p in report["problems"][:20]:
        print(f"CHECK FAILED {p}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
