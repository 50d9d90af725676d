"""Geo-sharded engine scale-out: spatial partitioning + per-shard engines.

* :mod:`repro.shard.partition` — half-open space tilings (uniform grid /
  density-balanced KD) with unique point containment and reach-disc
  overlap queries.
* :mod:`repro.shard.engine` — the :class:`ShardedEngine` coordinator: one
  incremental :class:`~repro.engine.engine.AllocationEngine` per shard
  and a two-phase protocol (per-shard allocators + border reconcile +
  cross-shard dependency retry) whose quality is measured and gated by
  ``benchmarks/bench_shard.py``.
"""

from repro.shard.engine import ShardedEngine
from repro.shard.partition import (
    SCHEMES,
    Box,
    SpatialPartition,
    grid_partition,
    kd_partition,
    make_partition,
)

__all__ = [
    "Box",
    "SCHEMES",
    "ShardedEngine",
    "SpatialPartition",
    "grid_partition",
    "kd_partition",
    "make_partition",
]
