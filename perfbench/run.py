#!/usr/bin/env python3
"""Run one workload of the siegelsums benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run repeats rounds of seeded operations (see workloads.py) until S
seconds have passed, one operation after another in this process: a
closed loop with a single client.  Every output is checked against the
stored references after its round, outside the timed region.  Every
reported time is scaled to a reference host speed (hostspeed.py).

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 each round runs twice, untraced and then traced
on the same inputs, and the last line holds the per-layer metrics.  The
line before it records the host and library versions.  The spans of the
first traced round are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = [("solve_s", "s"), ("op_s_p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input generation,
    each scaled by the host speed the interpreter measured right after."""
    from perfbench.hostspeed import REF_CALIB_S

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        elapsed, calib = map(float, res.stdout.split()[-2:])
        times.append(elapsed * REF_CALIB_S / calib)
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload, checks them and tallies failures."""

    def __init__(self, wl, refs, threads):
        from perfbench import workloads
        from siegelsums import acceptance

        self.wl = wl
        self.refs = refs
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self._run_op = workloads.run_op
        self._check = workloads.check
        self._clear = acceptance.clear_all_caches

    def round(self, ops, tracer=None, threads=None) -> list[float]:
        """Per-op wall seconds.  A raising op counts as failed."""
        threads = self.threads if threads is None else threads
        if not self.wl.cold_per_op:
            self._clear()
        times, outs = [], []
        for i, op in enumerate(ops):
            if self.wl.cold_per_op:
                self._clear()
            out = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self._run_op(op, threads)
                else:
                    with tracer.operation(i, op[0]):
                        out = self._run_op(op, threads)
            except Exception as exc:  # a failed operation is data, not a crash
                print(f"perfbench: {op[0]} failed: {exc!r}", file=sys.stderr)
            times.append(time.perf_counter() - t0)
            outs.append(out)
        for op, out in zip(ops, outs):
            self.attempted += 1
            if out is None or not self._check(op, out, self.refs):
                self.failed += 1
        return times


def run_plain(runner, seed, seconds, speed):
    """The median over the run's rounds of a round's wall time, and of a
    round's median operation time, each scaled by the host speed around
    the round.

    Rounds of a workload cost the same or about the same.  A median is not
    biased by how many rounds fit in the run, where a minimum would read
    lower for a faster commit only because it draws more samples.
    """
    solve, p50 = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        times = runner.round(runner.wl.round(seed, index))
        scale = speed.factor()
        solve.append(sum(times) * scale)
        p50.append(statistics.median(times) * scale)
        index += 1
    return {"solve_s": statistics.median(solve),
            "op_s_p50": statistics.median(p50)}, index


def table_baselines(runner, ops, threads_max, speed):
    """One Kloosterman table, untraced, at threads=1 and at the CLI's
    thread count."""
    return {f"expsums.kloosterman_{name}_s":
            sum(runner.round(ops, threads=n)) * speed.factor()
            for name, n in (("serial", 1), ("threaded", threads_max))}


def write_spans(path, spans):
    OUT.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, **s.extra}))
            fh.write("\n")


def run_traced(runner, seed, seconds, tracing, library, threads_max, speed):
    """Per-layer metrics per round, averaged over the traced rounds.  Times
    are scaled by the host speed around the round's untraced and traced
    runs."""
    per_round = []
    start = time.perf_counter()
    baselines = {"expsums.kloosterman_serial_s": 0.0,
                 "expsums.kloosterman_threaded_s": 0.0}
    if runner.wl.name == "ksum-table":
        baselines = table_baselines(runner, runner.wl.round(seed, 0),
                                    threads_max, speed)
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        ops = runner.wl.round(seed, index)
        plain = runner.round(ops)
        tracer = tracing.Tracer()
        with tracer.installed(tracing.wrap_targets(*library)):
            traced = runner.round(ops, tracer)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = sum(traced) - sum(plain)
        scale = speed.factor()
        metrics = {name: value * scale if name.endswith("_s") else value
                   for name, value in metrics.items()}
        per_round.append(metrics)
        if index == 0:
            write_spans(OUT / f"spans-{runner.wl.name}-seed{seed}.jsonl.gz",
                        tracer.spans)
        index += 1
    metrics = {name: statistics.fmean(m[name] for m in per_round)
               for name in per_round[0]}
    return {**metrics, **baselines}, index


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "siegelsums" / "__init__.py").is_file():
        print(f"perfbench: no siegelsums sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy
    import scipy
    import siegelsums
    from siegelsums import expsums, petersson, sp4

    if Path(siegelsums.__file__).resolve().parent != SRC / "siegelsums":
        print(f"perfbench: imported {siegelsums.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from perfbench import tracing, workloads
    from perfbench.hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(wl, workloads.load_refs(), workloads.KSUM_THREADS)
    speed = HostSpeed()

    if args.trace:
        metrics, rounds = run_traced(runner, args.seed, args.seconds, tracing,
                                     (sp4, petersson, expsums),
                                     workloads.host_threads(), speed)
        units = dict(tracing.LAYER_METRICS)
    else:
        setup_s = measure_setup(wl.name, args.seed)
        metrics, rounds = run_plain(runner, args.seed, args.seconds, speed)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = dict(END_TO_END)

    print(json.dumps({"host": {
        "nproc": os.cpu_count(), "affinity": workloads.host_threads(),
        "ksum_threads": workloads.KSUM_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "workload": wl.name, "seed": args.seed,
        "rounds": rounds, "calib_s": statistics.median(speed.samples)}}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
