"""One workload in one process: set up, warm up, time, check, report.

Started by run.py, never by hand. Prints one JSON object as its last
line of standard output. With ``--mode setup`` it stops after the warm-up
and reports only its set-up time.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
# each run completes at least this many operations, so that ten or more
# latencies lie beyond the 90th percentile
MIN_OPS = 100


class OpError(NamedTuple):
    """An operation that raised: its index in the run and the exception."""

    index: int
    error: str


def measure(wl, rounds, seconds, tracer=None):
    """Run whole rounds until both the time and the operation floor are met.

    Latencies are CPU time of this (single) thread, user plus system. On
    a shared virtual machine the wall clock also counts time the host
    gives to other guests: one operation in ten lost more than 12% of its
    wall time that way, and the 90th percentile of wall latencies spread
    by 18-20% over ten runs.

    With a tracer, every other round runs traced, so that slow drifts in
    the machine's speed fall on traced and untraced rounds alike. The
    tracer is installed only while a traced round's operations run, so
    making the round arguments is never traced. An operation that raises
    is recorded as an ``OpError`` and the run goes on. Returns
    per-operation CPU latencies and results, whether each operation ran
    traced, and the CPU and wall time of the whole loop.
    """
    cpu, results, traced = [], [], []
    on = False
    start, start_cpu = time.perf_counter(), time.thread_time()
    while True:
        args = next(rounds)
        on = tracer is not None and not on
        if on:
            tracer.install()
        for arg in args:
            c0 = time.thread_time()
            try:
                if on:
                    out = tracer.span(tracing.OP_SPAN, lambda: wl.op(arg))
                else:
                    out = wl.op(arg)
            except Exception as exc:  # a program fault is a failed operation
                out = OpError(len(results), repr(exc))
            cpu.append(time.thread_time() - c0)
            results.append(out)
            traced.append(on)
        if on:
            tracer.uninstall()
        if len(cpu) >= MIN_OPS and time.perf_counter() - start >= seconds:
            return {
                "cpu": cpu, "results": results, "traced": traced,
                "cpu_s": time.thread_time() - start_cpu,
                "wall_s": time.perf_counter() - start,
            }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{time.time_ns()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        rounds = wl.rounds()
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        report = {"setup_s": setup_s}
        tracer = tracing.Tracer() if args.trace else None
        run = measure(wl, rounds, args.seconds, tracer)
        if tracer is None:
            report.update(cpu=run["cpu"], cpu_s=run["cpu_s"])
        else:
            report["trace"] = trace_report(tracer, run)
            trace_dir = ROOT / ".perfbench" / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(
                trace_dir / f"{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "traced_ops": sum(run["traced"])},
            )
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        errors = [r for r in run["results"] if isinstance(r, OpError)]
        done = [r for r in run["results"] if not isinstance(r, OpError)]
        wrong, notes = wl.check(done) if done else (0, [])
        notes = [f"operation {e.index} raised {e.error}" for e in errors[:5]] + (
            [f"{len(errors) - 5} more operations raised"] if len(errors) > 5 else []
        ) + notes
        report.update(attempted=len(run["results"]), wrong=wrong,
                      failed=wrong + len(errors), notes=notes)
        print(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_report(tracer, run):
    """Per-operation layer metrics of the traced rounds, and the overhead.

    Span times are wall-clock. The overhead compares operations per CPU
    second (the sum of CPU latencies) in traced and untraced rounds.
    """
    traced = run["traced"]
    ops = sum(traced)
    busy = {on: sum(x for x, t in zip(run["cpu"], traced) if t == on)
            for on in (False, True)}
    plain_rate = (len(traced) - ops) / busy[False]
    traced_rate = ops / busy[True]
    self_s = tracer.self_times()
    metrics = {m: (1e3 * self_s.get(m, 0.0) / ops, "ms/op")
               for m in tracing.SPAN_METRICS}
    for m in tracing.COUNT_METRICS:
        metrics[m] = (tracer.counts.get(m, 0) / ops, tracing.COUNT_UNITS[m])
    for m in tracing.PER_SEED_METRICS:
        seeds = len(tracer.seeds[m])
        metrics[m] = (tracer.counts[m] / seeds if seeds else 0.0, "builds/seed")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - plain_rate, "op/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (plain_rate - traced_rate) / plain_rate, "%"
    )
    metrics["trace.spans"] = (len(tracer.spans) / ops, "count/op")
    metrics["host.wall_over_cpu"] = (run["wall_s"] / run["cpu_s"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


if __name__ == "__main__":
    main()
