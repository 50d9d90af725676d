"""Shared workload builders for the shard suite.

``clustered_instance`` drops the synthetic population into ``n_clusters``
well-separated copies of the Table-V region.  With the default ``gap`` the
clusters sit far beyond any worker's reach disc, so a 4-shard partition is
*boundary-free*: no disc crosses a shard boundary and the per-shard
subproblems are independent.  A small gap (``gap <= 1.0``) pushes clusters
within reach of each other and manufactures real border workers for the
reconcile tests.
"""

from dataclasses import replace

import pytest

from repro.datagen.synthetic import SyntheticConfig, generate_synthetic


def clustered_instance(n_clusters=4, factor=0.04, seed=5, gap=10.0):
    base = generate_synthetic(SyntheticConfig(seed=seed).scaled(factor))
    offsets = [((i % 2) * gap, (i // 2) * gap) for i in range(n_clusters)]

    def moved(entity):
        ox, oy = offsets[entity.id % n_clusters]
        return (entity.location[0] + ox, entity.location[1] + oy)

    workers = [replace(w, location=moved(w)) for w in base.workers]
    # Every task visible from batch 0 with its original deadline.
    tasks = [
        replace(t, location=moved(t), start=0.0, wait=t.start + t.wait)
        for t in base.tasks
    ]
    return replace(base, workers=workers, tasks=tasks)


@pytest.fixture(scope="package")
def boundary_free_instance():
    return clustered_instance(gap=10.0)


@pytest.fixture(scope="package")
def bordered_instance():
    return clustered_instance(gap=0.6)
