"""Round-trippable JSON encodings of the core model.

The schema is deliberately flat and explicit so instances can be produced or
consumed by other tooling (the format version is embedded for forward
compatibility).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from repro.core.assignment import Assignment
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.distance import DistanceMetric, get_metric

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _metric_name(metric: DistanceMetric) -> str:
    """The name :func:`get_metric` rebuilds ``metric`` from.

    Raises ValueError for a metric its name cannot rebuild (a road network,
    say): saving it would write a file that cannot be loaded.
    """
    try:
        rebuilt = type(get_metric(metric.name))
    except KeyError:
        rebuilt = None
    if rebuilt is not type(metric):
        raise ValueError(
            f"cannot save metric {metric.name!r} ({type(metric).__name__}): "
            "get_metric cannot rebuild it from its name"
        )
    return metric.name


def instance_to_dict(instance: ProblemInstance) -> Dict[str, Any]:
    """Encode an instance as a JSON-ready dictionary.

    Raises ValueError when the instance's metric cannot be rebuilt by name.
    """
    return {
        "format": FORMAT_VERSION,
        "name": instance.name,
        "metric": _metric_name(instance.metric),
        "skills": {"size": len(instance.skills), "names": instance.skills.names},
        "workers": [
            {
                "id": w.id,
                "location": list(w.location),
                "start": w.start,
                "wait": w.wait,
                "velocity": w.velocity,
                "max_distance": w.max_distance,
                "skills": sorted(w.skills),
            }
            for w in instance.workers
        ],
        "tasks": [
            {
                "id": t.id,
                "location": list(t.location),
                "start": t.start,
                "wait": t.wait,
                "skill": t.skill,
                "dependencies": sorted(t.dependencies),
                "duration": t.duration,
            }
            for t in instance.tasks
        ],
    }


def _worker_from_dict(entry: Dict[str, Any]) -> Worker:
    return Worker(
        id=entry["id"],
        location=tuple(entry["location"]),
        start=entry["start"],
        wait=entry["wait"],
        velocity=entry["velocity"],
        max_distance=entry["max_distance"],
        skills=frozenset(entry["skills"]),
    )


def _task_from_dict(entry: Dict[str, Any]) -> Task:
    return Task(
        id=entry["id"],
        location=tuple(entry["location"]),
        start=entry["start"],
        wait=entry["wait"],
        skill=entry["skill"],
        dependencies=frozenset(entry["dependencies"]),
        duration=entry.get("duration", 0.0),
    )


def _missing_key(where: str, exc: KeyError) -> ValueError:
    return ValueError(f"{where}: missing required key {exc.args[0]!r}")


def _decode_entries(
    kind: str, decode: Callable[[Dict[str, Any]], Any], entries: List[Dict[str, Any]]
) -> List[Any]:
    decoded = []
    for index, entry in enumerate(entries):
        try:
            decoded.append(decode(entry))
        except KeyError as exc:
            raise _missing_key(f"{kind}[{index}]", exc) from None
    return decoded


def instance_from_dict(data: Dict[str, Any]) -> ProblemInstance:
    """Decode an instance.

    Raises ValueError on a schema mismatch (a missing key names the entity
    index) or an unknown metric name, and
    :class:`~repro.core.exceptions.DascError` when the task dependencies
    reference unknown tasks or form a cycle.
    """
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format {version!r}")
    try:
        skills = SkillUniverse(size=data["skills"]["size"], names=data["skills"]["names"])
        worker_entries, task_entries = data["workers"], data["tasks"]
    except KeyError as exc:
        raise _missing_key("instance", exc) from None
    try:
        metric = get_metric(data.get("metric", "euclidean"))
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    instance = ProblemInstance(
        workers=_decode_entries("workers", _worker_from_dict, worker_entries),
        tasks=_decode_entries("tasks", _task_from_dict, task_entries),
        skills=skills,
        metric=metric,
        name=data.get("name", "instance"),
    )
    # Build (and cache) the DAG now, so a cycle fails the load rather than
    # the first allocator or lint pass that reads the graph.
    instance.dependency_graph
    return instance


def save_instance(instance: ProblemInstance, path: PathLike) -> None:
    """Write an instance to ``path`` as JSON."""
    Path(path).write_text(json.dumps(instance_to_dict(instance)), encoding="utf-8")


def load_instance(path: PathLike) -> ProblemInstance:
    """Read an instance previously written by :func:`save_instance`."""
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def assignment_to_dict(assignment: Assignment) -> Dict[str, Any]:
    """Encode an assignment as a JSON-ready dictionary."""
    return {
        "format": FORMAT_VERSION,
        "pairs": [[w, t] for w, t in assignment.pairs()],
    }


def assignment_from_dict(data: Dict[str, Any]) -> Assignment:
    """Decode an assignment written by :func:`assignment_to_dict`."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported assignment format {version!r}")
    return Assignment((int(w), int(t)) for w, t in data["pairs"])
