"""Contested workloads shared by the checked-run and journal suites.

``contested_clusters`` drops copies of the Table-V population into clusters
within reach of each other, so the first batches are fought over across
cluster edges; ``dependency_chain`` is a chain of tasks whose links sit in
two far-apart clusters and can only all be staffed in one batch.
"""

from dataclasses import replace

from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic


def contested_clusters(n_clusters=4, factor=0.04, seed=5, gap=0.6):
    """Copies of the Table-V population in clusters within reach of each other.

    Every task is visible from batch 0 with its original deadline, so the
    first batches are contested across cluster edges.
    """
    base = generate_synthetic(SyntheticConfig(seed=seed).scaled(factor))
    offsets = [((i % 2) * gap, (i // 2) * gap) for i in range(n_clusters)]

    def moved(entity):
        ox, oy = offsets[entity.id % n_clusters]
        return (entity.location[0] + ox, entity.location[1] + oy)

    workers = [replace(w, location=moved(w)) for w in base.workers]
    tasks = [
        replace(t, location=moved(t), start=0.0, wait=t.start + t.wait)
        for t in base.tasks
    ]
    return replace(base, workers=workers, tasks=tasks)


def dependency_chain(n_links=4):
    """A dependency chain whose links alternate between two far clusters.

    Task ``k`` lives in cluster ``k % 2`` and depends on every earlier
    link; each link has one worker of its own cluster within reach, so the
    whole chain is staffable in one batch only if every prerequisite is.
    """
    clusters = [(0.0, 0.0), (100.0, 0.0)]
    workers = []
    tasks = []
    for k in range(n_links):
        cx, cy = clusters[k % 2]
        workers.append(
            Worker(
                id=k,
                location=(cx, cy + k),
                start=0.0,
                wait=50.0,
                velocity=10.0,
                max_distance=5.0,
                skills=frozenset({0}),
            )
        )
        tasks.append(
            Task(
                id=k,
                location=(cx + 1.0, cy + k),
                start=0.0,
                wait=50.0,
                skill=0,
                dependencies=frozenset(range(k)),
            )
        )
    return ProblemInstance(workers, tasks, SkillUniverse(1), name="chain")


WORKLOADS = {"clustered": contested_clusters, "chain": dependency_chain}
