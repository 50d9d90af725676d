"""Per-layer metrics from a traced iteration.

Layers are the repo's modules.  Times come from the spans the program
already records when a :class:`~repro.obs.trace.Tracer` is passed to
``Platform`` (``platform.*``, ``engine.*``, ``alloc.*``,
``alloc.game.round``) plus the benchmark's own ``matching.match_set``
timer; counts come from ``report.engine_stats``, the engine's
``aux_stats()`` and deltas of the process registry.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Dict, Iterable, List, Tuple

from timing import Iteration, alloc_samples, tail

#: name -> (unit, better).  The order is the print order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "simulation.snapshot_s": ("s", "lower"),
    "simulation.commit_s": ("s", "lower"),
    "simulation.batch_self_s": ("s", "lower"),
    "simulation.feasibility_self_s": ("s", "lower"),
    "simulation.match_self_s": ("s", "lower"),
    "simulation.batch_ms.p50": ("ms", "lower"),
    "simulation.batch_ms.tail": ("ms", "lower"),
    "simulation.alloc_ms.p50": ("ms", "lower"),
    "simulation.alloc_ms.tail": ("ms", "lower"),
    "simulation.batches": ("count", "lower"),
    "simulation.score": ("tasks", "higher"),
    "engine.incremental_s": ("s", "lower"),
    "engine.incremental_calls": ("count", "lower"),
    "engine.full_build_s": ("s", "lower"),
    "engine.pairs_checked": ("count", "lower"),
    "engine.pruned_by_index": ("count", "higher"),
    "engine.time_filtered": ("count", "lower"),
    "engine.rows_recomputed": ("count", "lower"),
    "engine.tasks_added": ("count", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "columnar.pairs": ("count", "higher"),
    "columnar.scalar_pair_evals": ("count", "lower"),
    "columnar.pair_share": ("ratio", "higher"),
    "algorithms.game.round_s": ("s", "lower"),
    "algorithms.game.rounds": ("count", "lower"),
    "algorithms.game.evaluations": ("count", "lower"),
    "algorithms.game.value_recomputes": ("count", "lower"),
    "algorithms.game.cache_hit_ratio": ("ratio", "higher"),
    "algorithms.game.skipped_workers": ("count", "higher"),
    "algorithms.game.kernel_sweeps": ("count", "higher"),
    "algorithms.game.scalar_evals": ("count", "lower"),
    "algorithms.greedy.self_s": ("s", "lower"),
    "algorithms.other_self_s": ("s", "lower"),
    "matching.match_set_s": ("s", "lower"),
    "matching.calls": ("count", "lower"),
    "matching.augment_rounds": ("count", "lower"),
    "matching.warm_starts": ("count", "higher"),
    "matching.warm_share": ("ratio", "higher"),
    "core.instance_s": ("s", "lower"),
    "core.depgraph_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

#: Layer -> the end-to-end metric and workload its metrics should move,
#: written down before any change is measured.  A metric belongs to the
#: longest layer name it starts with.
MOVES: Dict[str, str] = {
    "simulation": "run_s on meetup_six (fixed per-batch cost); almost nothing on "
    "synth_default or burst_game",
    "engine": "run_s on synth_default through incremental syncs and on burst_game "
    "through full builds; little on meetup_six",
    "columnar": "run_s on synth_default and burst_game; nothing on meetup_six",
    "algorithms.game": "alloc_s and run_s on burst_game; little on meetup_six; none "
    "on synth_default",
    "algorithms.greedy": "alloc_s on synth_default and meetup_six; none on burst_game",
    "algorithms.other_self_s": "alloc_s on meetup_six (Closest, Random, game set-up) "
    "and burst_game (game set-up and pruning)",
    "matching": "alloc_s on synth_default and meetup_six; none on burst_game",
    "core": "setup_s on every workload, most on synth_default",
    "trace": "nothing: tracing cost and span coverage, for reading the other layers",
}


def moves(name: str) -> str:
    """What ``name`` should move, from :data:`MOVES`."""
    layer = max((k for k in MOVES if name.startswith(k)), key=len)
    return MOVES[layer]


#: Ratio metric -> its base, printed with the base's value so no ratio is
#: read without it.
RATIO_BASES = {
    "engine.cache_hit_ratio": "engine_cache_hits + engine_cache_misses",
    "columnar.pair_share": "columnar.pairs + columnar.scalar_pair_evals",
    "algorithms.game.cache_hit_ratio": "algorithms.game.evaluations",
    "matching.warm_share": "matching.calls",
    "trace.coverage": "traced run_s",
}


def self_times(spans: Iterable) -> Dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration - covered[span.span_id]
    return dict(out)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def _percentiles(samples: List[float]) -> Tuple[float, float, str]:
    """``(p50, tail, tail label)``, times in ms.  With fewer than 21
    samples the order statistic with ten beyond it would sit at or below
    the median, so the tail falls back to the maximum."""
    if not samples:
        return 0.0, 0.0, "no samples"
    high = tail(samples) if len(samples) >= 21 else None
    if high is None:
        return median(samples) * 1e3, max(samples) * 1e3, f"max of {len(samples)}"
    return median(samples) * 1e3, high[1] * 1e3, f"p{high[0]:.1f} of {len(samples)}"


def layer_metrics(iteration: Iteration) -> Tuple[Dict[str, float], Dict[str, str]]:
    """``(metrics, notes)`` of one traced iteration: every per-layer metric
    but ``trace.overhead_s`` (it needs untraced runs too), and for each
    ratio its base and for each tail its percentile and sample count."""
    spans = list(iteration.tracer.finished)
    own = self_times(spans)
    # A plain dict, so a renamed counter fails loudly instead of reading 0.
    stats: Dict[str, float] = {}
    for run in iteration.runs:
        for key, value in list(run.report.engine_stats.items()) + list(run.aux_stats.items()):
            stats[key] = stats.get(key, 0.0) + value
    batch_spans = [
        s for s in spans
        if s.name == "platform.batch" and s.attrs and s.attrs.get("workers") and s.attrs.get("tasks")
    ]
    batch_p50, batch_tail, batch_label = _percentiles([s.duration for s in batch_spans])
    alloc_p50, alloc_tail, alloc_label = _percentiles(alloc_samples(iteration))
    greedy_self = own.get("alloc.Greedy", 0.0)
    other_self = sum(v for k, v in own.items() if k.startswith("alloc.")) - greedy_self
    other_self -= own.get("alloc.game.round", 0.0)
    cache_base = stats["engine_cache_hits"] + stats["engine_cache_misses"]
    pair_base = stats["engine_columnar_pairs"] + stats["engine_scalar_pair_evals"]
    roots = sum(s.duration for s in spans if s.parent_id is None)
    metrics = {
        "simulation.snapshot_s": own.get("platform.snapshot", 0.0),
        "simulation.commit_s": own.get("platform.commit", 0.0),
        "simulation.batch_self_s": own.get("platform.batch", 0.0),
        "simulation.feasibility_self_s": own.get("platform.feasibility", 0.0),
        "simulation.match_self_s": own.get("platform.match", 0.0),
        "simulation.batch_ms.p50": batch_p50,
        "simulation.batch_ms.tail": batch_tail,
        "simulation.alloc_ms.p50": alloc_p50,
        "simulation.alloc_ms.tail": alloc_tail,
        "simulation.batches": float(sum(r.report.num_batches for r in iteration.runs)),
        "simulation.score": float(iteration.score),
        "engine.incremental_s": own.get("engine.incremental_update", 0.0),
        "engine.incremental_calls": stats["engine_incremental_updates"],
        "engine.full_build_s": own.get("engine.full_build", 0.0),
        "engine.pairs_checked": stats["engine_pairs_checked"],
        "engine.pruned_by_index": stats["engine_pruned_by_index"],
        "engine.time_filtered": stats["engine_time_filtered"],
        "engine.rows_recomputed": stats["engine_worker_rows_recomputed"],
        "engine.tasks_added": stats["engine_tasks_added"],
        "engine.cache_hit_ratio": _ratio(stats["engine_cache_hits"], cache_base),
        "columnar.pairs": stats["engine_columnar_pairs"],
        "columnar.scalar_pair_evals": stats["engine_scalar_pair_evals"],
        "columnar.pair_share": _ratio(stats["engine_columnar_pairs"], pair_base),
        "algorithms.game.round_s": own.get("alloc.game.round", 0.0),
        "algorithms.game.rounds": stats["engine_game_rounds"],
        "algorithms.game.evaluations": stats["engine_game_evaluations"],
        "algorithms.game.value_recomputes": stats["engine_game_value_recomputes"],
        "algorithms.game.cache_hit_ratio": _ratio(
            stats["engine_game_cache_hits"], stats["engine_game_evaluations"]
        ),
        "algorithms.game.skipped_workers": stats["engine_game_skipped_workers"],
        "algorithms.game.kernel_sweeps": stats["engine_game_kernel_sweeps"],
        "algorithms.game.scalar_evals": stats["engine_game_scalar_evals"],
        "algorithms.greedy.self_s": greedy_self,
        "algorithms.other_self_s": other_self,
        "matching.match_set_s": own.get("matching.match_set", 0.0),
        "matching.calls": float(iteration.match_calls),
        "matching.augment_rounds": iteration.registry_deltas["matching_augment_rounds"],
        "matching.warm_starts": iteration.registry_deltas["matching_warm_starts"],
        "matching.warm_share": _ratio(
            iteration.registry_deltas["matching_warm_starts"], iteration.match_calls
        ),
        "core.instance_s": sum(r.instance_s for r in iteration.runs),
        "core.depgraph_s": sum(r.depgraph_s for r in iteration.runs),
        "trace.coverage": _ratio(roots, iteration.run_s),
    }
    bases = {
        "engine.cache_hit_ratio": cache_base,
        "columnar.pair_share": pair_base,
        "algorithms.game.cache_hit_ratio": stats["engine_game_evaluations"],
        "matching.warm_share": float(iteration.match_calls),
        "trace.coverage": iteration.run_s,
    }
    notes = {name: f"base {RATIO_BASES[name]} = {value:.6g}" for name, value in bases.items()}
    notes["simulation.batch_ms.tail"] = f"{batch_label} non-empty batches"
    notes["simulation.alloc_ms.tail"] = f"{alloc_label} non-empty batches"
    return metrics, notes


def self_time_table(iteration: Iteration) -> List[Tuple[str, float]]:
    """Self time per span name, largest first, for the accounting printout."""
    own = self_times(iteration.tracer.finished)
    return sorted(own.items(), key=lambda kv: -kv[1])
