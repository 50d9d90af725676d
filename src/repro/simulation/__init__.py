"""Multi-batch spatial-crowdsourcing platform simulator.

The paper's platform "assigns workers to tasks batch-by-batch for every
constant time interval" (Section II-D).  :class:`~repro.simulation.platform.Platform`
implements that loop end-to-end: dynamic arrival and expiry of workers and
tasks, per-batch invocation of any :class:`~repro.algorithms.base.BatchAllocator`,
travel + service execution, workers re-entering the pool at their task's
location, and cross-batch dependency unlocking.
"""

from repro.simulation.platform import Platform, RejoinPolicy, run_single_batch
from repro.simulation.stats import BatchRecord, SimulationReport

__all__ = [
    "BatchRecord",
    "Platform",
    "RejoinPolicy",
    "SimulationReport",
    "run_single_batch",
]
