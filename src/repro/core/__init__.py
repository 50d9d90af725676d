"""Core DA-SC model: workers, tasks, constraints, dependencies, assignments.

This package is a faithful encoding of Section II of the paper:

* :class:`~repro.core.worker.Worker` — Definition 1 (heterogeneous workers);
* :class:`~repro.core.task.Task` — Definition 2 (dependency-aware tasks);
* :mod:`~repro.core.constraints` — the four constraints of Definition 3;
* :class:`~repro.core.dependency.DependencyGraph` — the task DAG, transitive
  closure and the associative task sets of Section III-A;
* :class:`~repro.core.assignment.Assignment` — a worker/task matching with
  validity checking and the ``Sum(M)`` objective (Equation 1);
* :class:`~repro.core.instance.ProblemInstance` — a full problem (workers +
  tasks + dependency graph + distance metric) with batch extraction.
"""

from repro.core.assignment import Assignment, AssignmentViolation
from repro.core.batch import Batch, iter_batches
from repro.core.constraints import (
    FeasibleRows,
    deadline_ok,
    latest_departure,
    pair_feasible,
    skill_ok,
    within_range,
)
from repro.core.dependency import CyclicDependencyError, DependencyGraph
from repro.core.exceptions import DascError, InvalidInstanceError
from repro.core.instance import ProblemInstance
from repro.core.skills import SkillUniverse
from repro.core.task import Task
from repro.core.validation import LintFinding, lint_instance, lint_summary
from repro.core.worker import Worker

__all__ = [
    "Assignment",
    "AssignmentViolation",
    "Batch",
    "CyclicDependencyError",
    "DascError",
    "DependencyGraph",
    "FeasibleRows",
    "InvalidInstanceError",
    "LintFinding",
    "ProblemInstance",
    "SkillUniverse",
    "Task",
    "Worker",
    "lint_instance",
    "lint_summary",
    "deadline_ok",
    "iter_batches",
    "latest_departure",
    "pair_feasible",
    "skill_ok",
    "within_range",
]
