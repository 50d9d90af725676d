#!/usr/bin/env python3
"""Benchmark of the DA-SC simulator, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload synth_default --seed 7 --seconds 30 --trace 0

The seed generates the workload's inputs, outside every timed region.  An
untimed first run of every approach checks each committed batch; then the
workload runs repeatedly until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics over the untraced runs: set-up time, run
time and allocator time summed over batches, each the median over the runs
of seconds at nominal host speed (every approach run is bracketed by runs
of the fixed :mod:`reference` workload and its times are divided by the
host slowness they measured, because the speed of a shared host drifts
over minutes by more than any change worth detecting); and the process's
peak resident memory over the generated inputs and the checked run.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the fastest traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts the allocator batches checked and ``failed`` the invalid ones.  The
exit code is 0 only when every check passed.

Run the benchmark's own tests with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "alloc_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="population scale factor (below 1 for smoke tests only)",
    )
    return parser.parse_args(argv)


def measure(inputs, workload, seed: int, seconds: float, trace: bool):
    """``(checked, peak_rss_mb, untraced, traced)`` of one benchmark run.

    The peak resident memory is read after the checked run and before the
    first reference run, whose own tables would otherwise set the peak.
    """
    from timing import run_iteration

    checked = run_iteration(inputs, workload, seed, check=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(run_iteration(inputs, workload, seed, calibrated=True))
        if trace:
            traced.append(run_iteration(inputs, workload, seed, traced=True))
        if time.perf_counter() - started >= seconds:
            return checked, peak_rss_mb, untraced, traced


def disagreements(iterations) -> List[str]:
    """Per approach, every run must produce the same score and digest."""
    from outputs import report_digest

    problems = []
    for runs in zip(*(it.runs for it in iterations)):
        seen = {(r.report.total_score, report_digest(r.report)) for r in runs}
        if len(seen) != 1:
            problems.append(f"{runs[0].approach}: runs disagree: {sorted(seen)}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from layers import MOVES, PER_LAYER, layer_metrics, self_time_table
    from outputs import report_digest
    from timing import alloc_samples, tail
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    began = time.perf_counter()
    inputs = workload.records(args.seed, args.scale)
    print(
        f"workload {workload.name} seed {args.seed}: {len(inputs)} x "
        f"({len(inputs[0].workers)} workers, {len(inputs[0].tasks)} tasks), approaches "
        f"{','.join(workload.approaches)}, batch interval {workload.batch_interval}; "
        f"inputs generated in {time.perf_counter() - began:.2f} s (not measured)"
    )
    checked, peak_rss_mb, untraced, traced = measure(
        inputs, workload, args.seed, args.seconds, bool(args.trace)
    )

    for stamp in sorted({json.dumps(r.stamp, sort_keys=True) for r in checked.runs}):
        print(f"paths: {stamp}")
    attempted = sum(r.check.attempted for r in checked.runs)
    failed = sum(r.check.invalid for r in checked.runs)
    problems = [p for r in checked.runs for p in r.check.problems]
    problems += disagreements([checked] + untraced + traced)
    for run in checked.runs:
        print(
            f"check {run.approach}: {run.check.attempted} batches checked, "
            f"{run.check.invalid} invalid; score {run.report.total_score} tasks, "
            f"digest {report_digest(run.report)}"
        )
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(
        f"invalid_batches {failed} of {attempted} attempted; score {checked.score} "
        f"tasks; {1 + len(untraced) + len(traced)} runs "
        f"{'agree' if not problems else 'DISAGREE'} on every approach's assignments"
    )
    print(f"runs: {len(untraced)} untraced" + (f", {len(traced)} traced" if traced else ""))
    samples = [alloc_samples(it) for it in untraced]
    tails = [tail(s) for s in samples]
    if len(samples[0]) >= 21:
        print(
            f"alloc_ms p50 {median([median(s) for s in samples]) * 1e3:.4f} ms, tail "
            f"p{tails[0][0]:.1f} {median([t[1] for t in tails]) * 1e3:.4f} ms "
            f"({len(samples[0])} non-empty batches per run, median over runs)"
        )

    if not args.trace:
        values: Dict[str, float] = {
            name: median([it.at_nominal_speed(name) for it in untraced])
            for name in ("setup_s", "run_s", "alloc_s")
        }
        values["peak_rss_mb"] = peak_rss_mb
        slowness = [r.slowness for it in untraced for r in it.runs]
        print(
            f"host slowness around the runs (1.0 = nominal): min {min(slowness):.3f}, "
            f"median {median(slowness):.3f}, max {max(slowness):.3f}"
        )
        for name, unit in END_TO_END.items():
            spread = ""
            if name != "peak_rss_mb":
                raw = [getattr(it, name) for it in untraced]
                spread = (
                    f" (median of {len(raw)} at nominal speed; as measured min "
                    f"{min(raw):.4f}, median {median(raw):.4f}, max {max(raw):.4f})"
                )
            print(f"{name} {values[name]:.6f} {unit}{spread}")
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        best = min(traced, key=lambda it: it.run_s)
        values, notes = layer_metrics(best)
        untraced_run_s = min(it.run_s for it in untraced)
        values["trace.overhead_s"] = best.run_s - untraced_run_s
        print(f"run_s best traced {best.run_s:.4f} s, best untraced {untraced_run_s:.4f} s")
        table = self_time_table(best)
        print("self time per span, fastest traced run:")
        for name, seconds in table:
            print(f"  {name:<28} {seconds:10.4f} s")
        print(
            f"  {'sum':<28} {sum(s for _, s in table):10.4f} s of traced run_s "
            f"{best.run_s:.4f} s"
        )
        for name, (unit, _) in PER_LAYER.items():
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{name} {values[name]:.6g} {unit}{note}")
        for layer, target in MOVES.items():
            print(f"layer {layer} should move: {target}")
        metrics = {n: {"value": values[n], "unit": u} for n, (u, _) in PER_LAYER.items()}

    correct = not problems and failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
