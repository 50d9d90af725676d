"""Engine layer: shared per-batch allocation state with incremental reuse.

An :class:`AllocationEngine` owned by the platform maintains the
feasible-pair graph *incrementally* across batches and exposes everything
a batch needs through a :class:`BatchContext`.  It is the library's one
builder of feasible pairs: a standalone context builds a one-shot engine.
"""

from repro.engine.context import BatchContext, ReadinessView
from repro.engine.counters import EngineCounters
from repro.engine.engine import AllocationEngine, BatchFeasibilityView

__all__ = [
    "AllocationEngine",
    "BatchContext",
    "BatchFeasibilityView",
    "EngineCounters",
    "ReadinessView",
]
