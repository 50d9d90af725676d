"""Command-line interface.

Examples::

    dasc list
    dasc run fig7 --scale 0.1 --seed 7
    dasc generate synthetic --out instance.json --workers 200 --tasks 300
    dasc solve instance.json --approach Greedy
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, List, Optional, TypeVar

from repro.algorithms.registry import APPROACH_NAMES, make_allocator
from repro.core.exceptions import DascError
from repro.datagen.meetup import MeetupLikeConfig, generate_meetup_like
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.report import format_sweep
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.io.serialize import load_instance, save_instance
from repro.simulation.platform import Platform, run_single_batch

T = TypeVar("T")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasc",
        description="Dependency-aware spatial crowdsourcing (ICDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and approaches")

    run = sub.add_parser("run", help="run one paper experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", type=float, default=None, help="population scale factor")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out", type=str, default=None, help="also write the table here")
    run.add_argument("--csv", type=str, default=None, help="export the raw points as CSV")
    run.add_argument("--plot", action="store_true", help="draw an ASCII chart of the scores")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep grid (1 = serial, -1 = all "
        "CPUs); results are bit-identical to serial",
    )
    _add_obs_arguments(run)
    _add_events_arguments(run)

    gen = sub.add_parser("generate", help="generate an instance JSON")
    gen.add_argument("family", choices=["synthetic", "meetup"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--workers", type=int, default=None)
    gen.add_argument("--tasks", type=int, default=None)
    gen.add_argument("--seed", type=int, default=7)
    _add_obs_arguments(gen)

    lint = sub.add_parser("lint", help="diagnose an instance JSON")
    lint.add_argument("instance")
    lint.add_argument("--verbose", action="store_true", help="print every finding")
    _add_obs_arguments(lint)

    solve = sub.add_parser("solve", help="allocate an instance JSON")
    solve.add_argument("instance")
    # argparse %-formats help strings; "Game-5%" needs its percent escaped.
    approaches = ", ".join(APPROACH_NAMES + ["DFS"]).replace("%", "%%")
    solve.add_argument("--approach", default="Greedy", help=f"one of {approaches}")
    solve.add_argument("--seed", type=int, default=7)
    solve.add_argument("--batch-interval", type=float, default=None, help="run the dynamic platform with this interval instead of a single batch")
    solve.add_argument(
        "--naive-game",
        action="store_true",
        help="run the game approaches with the naive full-rescan best-response "
        "loop instead of the dirty-set engine (bit-identical output, more work "
        "— for measuring the incremental engine's savings)",
    )
    solve.add_argument("--engine-stats", action="store_true", help="print the engine's counters after a platform run")
    solve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-shard solves of a --shards run "
        "(1 = serial, -1 = all CPUs)",
    )
    solve.add_argument(
        "--replay-check",
        action="store_true",
        help="after a platform run, replay the event journal back into a "
        "report and assert bit-identity (implies event recording)",
    )
    _add_shard_arguments(solve)
    _add_obs_arguments(solve)
    _add_events_arguments(solve)

    explain = sub.add_parser(
        "explain", help="query an events JSONL (why-not / why-assigned / funnel)"
    )
    explain.add_argument("events", help="events JSONL written by --events-out")
    explain.add_argument("--run", type=int, default=0, help="run index in the file")
    explain.add_argument(
        "--why-not",
        nargs=2,
        type=int,
        metavar=("WORKER", "TASK"),
        help="why this worker did not conduct this task",
    )
    explain.add_argument(
        "--task", type=int, default=None, metavar="TASK",
        help="how this task got its worker (why-assigned)",
    )
    explain.add_argument(
        "--funnel", type=int, default=None, metavar="BATCH",
        help="the pair-narrowing funnel for one batch",
    )
    explain.add_argument(
        "--replay",
        action="store_true",
        help="replay the journal into a report and print its summary",
    )

    report_cmd = sub.add_parser(
        "report", help="render a run report from events (+ trace/metrics) dumps"
    )
    report_cmd.add_argument("--events", required=True, help="events JSONL")
    report_cmd.add_argument("--trace", default=None, help="trace JSONL (optional)")
    report_cmd.add_argument("--metrics", default=None, help="metrics JSONL (optional)")
    report_cmd.add_argument("--run", type=int, default=0, help="run index in the file")
    report_cmd.add_argument(
        "--html", default=None, metavar="PATH",
        help="write a static HTML page instead of printing text",
    )

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.shard import SCHEMES as SHARD_SCHEMES

    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        metavar="N",
        help="split the plane into N spatial shards, each allocating its own "
        "workers before a border reconcile (platform runs only; 1 = "
        "unsharded; sharded reports may differ from the unsharded run's)",
    )
    parser.add_argument(
        "--shard-scheme",
        choices=SHARD_SCHEMES,
        default="grid",
        help="how to cut the plane: a uniform grid of the bounding box, or "
        "a density-balanced KD split of the population (default: grid)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print a per-phase latency table",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the span trace as JSONL (implies tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write counters/gauges/histograms as JSONL",
    )


def _add_events_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events-out",
        type=str,
        default=None,
        metavar="PATH",
        help="record the allocation flight recorder and write the event "
        "journal as JSONL (see `dasc explain` / `dasc report`)",
    )


def _cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {doc}")
    print("approaches:", ", ".join(APPROACH_NAMES + ["DFS"]))
    return 0


def _obs_tracer(args: argparse.Namespace):
    """A live tracer when any obs flag asks for one, else None."""
    if args.profile or args.trace_out:
        from repro.obs import Tracer

        return Tracer()
    return None


def _obs_journal(args: argparse.Namespace):
    """A live event journal when a flag asks for one, else None."""
    if getattr(args, "events_out", None) or getattr(args, "replay_check", False):
        from repro.obs import EventJournal

        return EventJournal()
    return None


def _obs_report(args: argparse.Namespace, tracer, *registries, journal=None) -> None:
    """Shared tail of ``run``/``solve``: latency table + JSONL exports."""
    if tracer is not None and args.profile:
        print("\nper-phase latency:")
        print(tracer.summary())
    if tracer is not None and args.trace_out:
        from repro.obs import write_trace_jsonl

        count = write_trace_jsonl(tracer, args.trace_out)
        print(f"wrote {count} spans -> {args.trace_out}")
    if args.metrics_out:
        from repro.obs import get_registry, write_metrics_jsonl

        targets = [r for r in registries if r is not None] + [get_registry()]
        count = write_metrics_jsonl(args.metrics_out, *targets)
        print(f"wrote {count} metrics -> {args.metrics_out}")
    if journal is not None and getattr(args, "events_out", None):
        from repro.obs import write_events_jsonl

        count = write_events_jsonl(journal, args.events_out)
        print(f"wrote {count} events -> {args.events_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed, "n_jobs": args.jobs}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    tracer = _obs_tracer(args)
    journal = _obs_journal(args)
    if journal is not None and args.jobs != 1:
        # Subprocess platforms cannot append to this process's journal.
        print("note: --events-out records only the serial path; forcing --jobs 1")
        kwargs["n_jobs"] = 1
    if tracer is not None or journal is not None:
        from repro.obs import set_journal, set_tracer

        # The per-figure runners do not take tracer/journal arguments;
        # install the process defaults so the harness and platforms
        # underneath pick them up.
        previous_tracer = set_tracer(tracer) if tracer is not None else None
        previous_journal = set_journal(journal) if journal is not None else None
        try:
            result = run_experiment(args.experiment, **kwargs)
        finally:
            if tracer is not None:
                set_tracer(previous_tracer)
            if journal is not None:
                set_journal(previous_journal)
    else:
        result = run_experiment(args.experiment, **kwargs)
    table = format_sweep(result)
    print(table)
    if args.plot:
        from repro.experiments.plot import ascii_chart

        print(ascii_chart(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table)
    if args.csv:
        from repro.experiments.export import save_sweep_csv

        save_sweep_csv(result, args.csv)
    _obs_report(args, tracer, journal=journal)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.obs.trace import NULL_TRACER

    tracer = _obs_tracer(args) or NULL_TRACER
    with tracer.span("generate.build") as span:
        if args.family == "synthetic":
            config = SyntheticConfig(seed=args.seed)
            if args.workers:
                config = replace(config, num_workers=args.workers)
            if args.tasks:
                config = replace(config, num_tasks=args.tasks)
            instance = generate_synthetic(config)
        else:
            config = MeetupLikeConfig(seed=args.seed)
            if args.workers:
                config = replace(config, num_workers=args.workers)
            if args.tasks:
                config = replace(config, num_tasks=args.tasks)
            instance = generate_meetup_like(config)
        if tracer.enabled:
            span.set("family", args.family)
            span.set("workers", len(instance.workers))
            span.set("tasks", len(instance.tasks))
    with tracer.span("generate.save"):
        save_instance(instance, args.out)
    print(f"wrote {instance.describe()} -> {args.out}")
    _obs_report(args, tracer if tracer.enabled else None)
    return 0


def _load_or_report(load: Callable[[str], T], path: str) -> Optional[T]:
    """``load(path)``, or None after printing why the file cannot be used."""
    try:
        return load(path)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}")
    except (DascError, ValueError) as exc:
        print(f"error: {path}: {exc}")
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.validation import lint_instance, lint_summary
    from repro.obs.trace import NULL_TRACER

    tracer = _obs_tracer(args) or NULL_TRACER
    with tracer.span("lint.load"):
        instance = _load_or_report(load_instance, args.instance)
    if instance is None:
        return 2
    with tracer.span("lint.check") as span:
        findings = lint_instance(instance)
        if tracer.enabled:
            span.set("findings", len(findings))
    print(instance.describe())
    print(lint_summary(findings))
    if args.verbose:
        for finding in findings:
            print(f"  [{finding.code}] {finding.detail}")
    _obs_report(args, tracer if tracer.enabled else None)
    return 0 if not findings else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_or_report(load_instance, args.instance)
    if instance is None:
        return 2
    allocator = make_allocator(
        args.approach, seed=args.seed, game_incremental=not args.naive_game
    )
    tracer = _obs_tracer(args)
    journal = _obs_journal(args)
    metrics_registry = None
    if args.shards > 1 and not args.batch_interval:
        print("error: --shards needs a platform run (--batch-interval)")
        return 2
    if args.batch_interval:
        platform = Platform(
            instance,
            allocator,
            batch_interval=args.batch_interval,
            tracer=tracer,
            n_jobs=args.jobs,
            journal=journal,
            shards=args.shards,
            shard_scheme=args.shard_scheme,
        )
        report = platform.run()
        metrics_registry = platform.metrics_registry
        print(report.summary())
        if args.replay_check:
            from repro.explain import validate_replay
            from repro.obs import events_records

            validate_replay(events_records(journal), report)
            print(f"replay check: OK ({len(journal)} events reproduce the report)")
        if args.engine_stats:
            print("engine counters:")
            for key, value in sorted(report.engine_stats.items()):
                print(f"  {key}: {value:.0f}")
    else:
        if args.replay_check:
            print("error: --replay-check needs a platform run (--batch-interval)")
            return 2
        if tracer is not None or journal is not None:
            from repro.obs import set_journal, set_tracer

            # Single-batch contexts are standalone; route the allocator's
            # span and events through the process defaults.
            previous_tracer = set_tracer(tracer) if tracer is not None else None
            previous_journal = set_journal(journal) if journal is not None else None
            try:
                outcome = run_single_batch(instance, allocator)
            finally:
                if tracer is not None:
                    set_tracer(previous_tracer)
                if journal is not None:
                    set_journal(previous_journal)
        else:
            outcome = run_single_batch(instance, allocator)
        print(
            f"{allocator.name}: score={outcome.score} "
            f"in {outcome.elapsed * 1000.0:.1f} ms"
        )
        for worker_id, task_id in outcome.assignment.pairs():
            print(f"  worker {worker_id} -> task {task_id}")
    _obs_report(args, tracer, metrics_registry, journal=journal)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.explain import ExplainIndex, replay_report
    from repro.obs import read_jsonl, validate_events_records

    records = _load_or_report(read_jsonl, args.events)
    if records is None:
        return 2
    try:
        validate_events_records(records)
        index = ExplainIndex(records, run=args.run)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    printed = False
    if args.why_not is not None:
        worker, task = args.why_not
        answer = index.why_not(worker, task)
        print(answer["verdict"])
        for event in answer["events"]:
            print(f"  {event}")
        printed = True
    if args.task is not None:
        answer = index.why_assigned(args.task)
        print(answer["verdict"])
        for event in answer["events"]:
            print(f"  {event}")
        printed = True
    if args.funnel is not None:
        funnel = index.funnel(args.funnel)
        print(f"batch {args.funnel} funnel:")
        for key in ("pairs", "skill", "reach", "deadline", "dependency",
                    "stale_deadline", "feasible", "matched"):
            print(f"  {key:>14s}: {funnel[key]}")
        printed = True
    if args.replay:
        report = replay_report(records, run=args.run)
        print("replayed:", report.summary())
        printed = True
    if not printed:
        summary = index.summary()
        print(
            f"{summary['allocator']}: {summary['workers']} workers, "
            f"{summary['tasks']} tasks, {len(summary['batches'])} batches"
        )
        print("events:", ", ".join(f"{k}={v}" for k, v in summary["events"].items()))
        if summary["reject_reasons"]:
            print(
                "reject reasons:",
                ", ".join(
                    f"{k}={v}" for k, v in sorted(summary["reject_reasons"].items())
                ),
            )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.explain import run_report_html, run_report_text
    from repro.obs import read_jsonl, validate_events_records

    events = _load_or_report(read_jsonl, args.events)
    if events is None:
        return 2
    try:
        validate_events_records(events)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    trace = read_jsonl(args.trace) if args.trace else None
    metrics = read_jsonl(args.metrics) if args.metrics else None
    if args.html:
        page = run_report_html(events, trace, metrics, run=args.run)
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        print(f"wrote run report -> {args.html}")
    else:
        print(run_report_text(events, trace, metrics, run=args.run), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
