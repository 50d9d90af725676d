"""Geo-sharded engine scale-out: settled-work, reconcile and quality gates.

Three pinned claims, all counter arithmetic (deterministic on 1-CPU hosts):

* **Settled-work ratio** — on an arrival-heavy 4-cluster workload the
  busiest shard settles at least ``MIN_SETTLED_RATIO`` times less
  feasibility work (``pairs_checked + time_filtered``) than the unsharded
  engine's total.  That is the scale-out headline: with one engine per
  core, wall-clock follows the *densest* shard, and a task arrival only
  links against its home shard's residents instead of every worker.
  Exactness precondition: the exact-mode sharded *report* (assignments,
  completion times, expirations) is identical to the unsharded run on
  this boundary-free workload.  Engine counters are expected to differ —
  the arrival-work saving is the measurement.
* **Reconcile overhead** — on a genuinely bordered workload the
  partitioned protocol's phase-2 reconcile examines fewer than
  ``MAX_RECONCILE_OVERHEAD`` of the pairs phase 1 settles.
* **Quality ratio** — the partitioned protocol's total score stays within
  ``MIN_QUALITY_RATIO`` of the unsharded solution on that same bordered
  workload.  (It can exceed 1.0: the post-merge dependency-retry pass
  re-offers tasks the single-pass unsharded allocator abandons after a
  dependency prune frees their worker.)

``check_perf_gate.py`` reruns the identical workloads as a CI gate.
"""

import time
from dataclasses import replace

import pytest

from repro.algorithms.baselines import ClosestBaseline
from repro.datagen.distributions import Range
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.simulation.platform import Platform

#: The unsharded engine must settle at least this many times more
#: feasibility work than the busiest shard on the 4-shard gate workload.
MIN_SETTLED_RATIO = 4.0

#: Phase-2 reconcile pairs must stay under this fraction of phase-1 work.
MAX_RECONCILE_OVERHEAD = 0.10

#: Partitioned total score over unsharded total score, same workload.
MIN_QUALITY_RATIO = 0.9

N_SHARDS = 4

SHARD_CONFIG = {
    "instance": "synthetic seed=3 scale=0.08 in 4 clusters (gap=10)",
    "allocator": "Closest",
    "batch_interval": 5.0,
    "shards": N_SHARDS,
    "scheme": "kd",
}

BORDERED_CONFIG = dict(
    SHARD_CONFIG,
    instance="synthetic seed=3 scale=0.12 wait=25-35 in 4 clusters (gap=1.25)",
)


def _clustered(base, gap):
    offsets = [((i % 2) * gap, (i // 2) * gap) for i in range(4)]

    def moved(entity):
        ox, oy = offsets[entity.id % 4]
        return (entity.location[0] + ox, entity.location[1] + oy)

    return replace(
        base,
        workers=[replace(w, location=moved(w)) for w in base.workers],
        tasks=[replace(t, location=moved(t)) for t in base.tasks],
    )


def make_shard_instance():
    """Four well-separated copies of the synthetic region, arrival-heavy.

    Task start times keep their natural stagger, so most feasibility work
    is *arrival* work — the regime where the unsharded engine links every
    new task against all workers while a shard links only its residents.
    A gap of 10 keeps every reach disc inside its cluster (boundary-free:
    exact mode matches the unsharded report).  Module-level so
    ``check_perf_gate.py`` reruns the identical workload.
    """
    return _clustered(generate_synthetic(SyntheticConfig(seed=3).scaled(0.08)), 10.0)


def make_bordered_instance():
    """Four long-wait clusters pulled within reach of each other.

    Worker/task locations span ``[0, 0.5]`` per cluster and the KD cut
    lands mid-gap, so a gap of 1.25 leaves the cut ~0.38 from each
    cluster's near edge — inside the ~0.4 reach radius for a thin ring of
    real border workers (and nobody else).  The stretched waiting times
    keep entities alive across batches so dependency chains actually span
    batches and shards.
    """
    base = generate_synthetic(
        replace(SyntheticConfig(seed=3), waiting_time=Range(25.0, 35.0)).scaled(0.12)
    )
    return _clustered(base, 1.25)


def run_shard_workload(instance, shards=1, mode="exact"):
    """One measured platform run; returns (platform, report, wall_ms)."""
    platform = Platform(
        instance,
        ClosestBaseline(),
        batch_interval=SHARD_CONFIG["batch_interval"],
        shards=shards,
        shard_scheme=SHARD_CONFIG["scheme"],
        shard_mode=mode,
    )
    started = time.perf_counter()
    report = platform.run()
    wall_ms = (time.perf_counter() - started) * 1000.0
    return platform, report, wall_ms


def settled_work(stats, prefix="engine_"):
    """Feasibility work actually performed: pair checks + deadline filters."""
    return stats[f"{prefix}pairs_checked"] + stats[f"{prefix}time_filtered"]


def per_shard_settled(platform):
    """The settled work of each shard engine of the last run, in shard order."""
    return [settled_work(shard.stats()) for shard in platform.last_engine.engines]


def _assert_reports_identical(sharded, unsharded):
    # Allocation outputs must match exactly; engine counters differ by
    # design (shards skip cross-cluster arrival work — the measurement).
    assert sharded.assignments == unsharded.assignments
    assert sharded.completion_times == unsharded.completion_times
    assert sharded.expired_tasks == unsharded.expired_tasks


@pytest.fixture(scope="module")
def shard_instance():
    return make_shard_instance()


@pytest.fixture(scope="module")
def bordered_instance():
    return make_bordered_instance()


def test_bench_shard_settled_ratio(benchmark, shard_instance, record_bench_json):
    """Exact-mode sharding: bit-identical reports, 4x less work per shard."""
    benchmark(
        lambda: run_shard_workload(shard_instance, shards=N_SHARDS)[1].total_score
    )
    platform, sharded_report, shard_ms = run_shard_workload(
        shard_instance, shards=N_SHARDS
    )
    _, flat_report, flat_ms = run_shard_workload(shard_instance)

    # Exactness precondition: the work saving must not come from divergence.
    _assert_reports_identical(sharded_report, flat_report)

    shard_loads = per_shard_settled(platform)
    flat_settled = settled_work(flat_report.engine_stats)
    ratio = flat_settled / max(max(shard_loads), 1)

    record_bench_json(
        "shard_platform_exact",
        dict(SHARD_CONFIG, min_settled_ratio=MIN_SETTLED_RATIO),
        shard_ms,
        dict(
            sharded_report.engine_stats,
            densest_shard_settled=max(shard_loads),
            settled_ratio=round(ratio, 3),
        ),
    )
    record_bench_json(
        "shard_platform_unsharded",
        dict(SHARD_CONFIG, shards=1),
        flat_ms,
        dict(flat_report.engine_stats, total_settled=flat_settled),
    )

    assert ratio >= MIN_SETTLED_RATIO, (
        f"settled-work ratio {ratio:.2f} < {MIN_SETTLED_RATIO} "
        f"(unsharded={flat_settled:.0f}, densest shard={max(shard_loads):.0f})"
    )


def test_bench_shard_reconcile_and_quality(bordered_instance, record_bench_json):
    """Partitioned mode: bounded reconcile work, bounded quality loss."""
    platform, part_report, part_ms = run_shard_workload(
        bordered_instance, shards=N_SHARDS, mode="partitioned"
    )
    _, flat_report, _ = run_shard_workload(bordered_instance)

    registry = platform.metrics_registry
    border = registry.counter("shard_border_workers").value
    reconcile_pairs = registry.counter("shard_reconcile_pairs").value
    phase1 = sum(per_shard_settled(platform))
    overhead = reconcile_pairs / max(phase1, 1)
    quality = part_report.total_score / max(flat_report.total_score, 1)

    record_bench_json(
        "shard_platform_partitioned",
        dict(
            BORDERED_CONFIG,
            max_reconcile_overhead=MAX_RECONCILE_OVERHEAD,
            min_quality_ratio=MIN_QUALITY_RATIO,
        ),
        part_ms,
        {
            "border_workers": border,
            "reconcile_pairs": reconcile_pairs,
            "reconcile_assigned": registry.counter("shard_reconcile_assigned").value,
            "dep_retry_assigned": registry.counter("shard_dep_retry_assigned").value,
            "phase1_settled": phase1,
            "reconcile_overhead": round(overhead, 4),
            "partitioned_score": part_report.total_score,
            "unsharded_score": flat_report.total_score,
            "quality_ratio": round(quality, 4),
        },
    )

    assert border > 0, "gate workload must actually have border workers"
    assert overhead < MAX_RECONCILE_OVERHEAD, (
        f"reconcile examined {reconcile_pairs:.0f} pairs = {overhead:.1%} of "
        f"phase-1's {phase1:.0f} (limit {MAX_RECONCILE_OVERHEAD:.0%})"
    )
    assert quality >= MIN_QUALITY_RATIO, (
        f"partitioned quality {quality:.3f} < {MIN_QUALITY_RATIO} "
        f"({part_report.total_score} vs {flat_report.total_score})"
    )
