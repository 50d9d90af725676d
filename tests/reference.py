"""Test-only reference paths for the one feasibility pipeline.

The library picks its feasibility path from inputs it can see (the metric
and whether numpy imports); these helpers let tests pin the other paths
against it without a switch in the library:

* :class:`ScalarEuclidean` / :class:`ScalarManhattan` — planar metrics that
  advertise no kernel code, so every build over them takes the scalar
  per-pair path;
* :class:`RebuildEngine` — the engine-off reference: a fresh
  :class:`~repro.core.constraints.FeasibilityChecker` per batch.  Platforms
  run inside :func:`without_engine` use it in place of the incremental
  engine;
* :func:`use_fallback_kernels` — select the columnar path but run its
  pure-python backend, as a host without numpy would if it took the
  kernels.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.engine.context import BatchContext
from repro.simulation import platform as platform_module
from repro.spatial.distance import EuclideanDistance, ManhattanDistance


class ScalarEuclidean(EuclideanDistance):
    """Euclidean distance that never selects the columnar kernels."""

    columnar_code = None


class ScalarManhattan(ManhattanDistance):
    """Manhattan distance that never selects the columnar kernels."""

    columnar_code = None


class RebuildEngine:
    """Engine stand-in that rebuilds feasibility from scratch every batch."""

    def __init__(self, instance, *, tracer=None, registry=None, journal=None):
        self.instance = instance
        self.tracer = tracer
        self.registry = registry
        self.journal = journal

    def begin_batch(self, workers, tasks, now, previously_assigned=frozenset()):
        return BatchContext.standalone(
            workers, tasks, self.instance, now, previously_assigned,
            tracer=self.tracer, journal=self.journal,
        )

    def stats(self):
        return {}


@contextlib.contextmanager
def without_engine():
    """Platforms run inside the block rebuild feasibility every batch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platform_module, "AllocationEngine", RebuildEngine)
        yield


def use_fallback_kernels(monkeypatch) -> None:
    """Keep the columnar path selected but run it on the pure-python backend."""
    import repro.columnar.kernels as kernels

    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "numpy_available", lambda: True)
