"""Columnar feasibility core: struct-of-arrays snapshots + vectorised kernels.

``repro.columnar`` turns a batch's worker/task populations into contiguous
columns (:class:`ColumnarBatch`) and evaluates the pair-feasibility
predicate over whole tiles at once with numpy, skill test first
(:func:`skill_candidates` / :func:`skill_candidates_dense`).  Decisions
and distances are bit-identical to the scalar :func:`repro.core.constraints.pair_feasible`
oracle; see :mod:`repro.columnar.kernels` for the exactness contract.

Full feasibility builds (the engine's, each shard engine's and a
standalone checker's) take the kernels exactly when numpy is importable
and the metric advertises a kernel code (:func:`columnar_code_for`);
there is no switch.  The engine's incremental syncs stay scalar.
"""

from repro.columnar.batch import ColumnarBatch, intern_skills
from repro.columnar.kernels import (
    CODES,
    REASON_DEADLINE,
    REASON_FEASIBLE,
    REASON_NAMES,
    REASON_REACH,
    REASON_SKILL,
    columnar_code_for,
    dense_pair_columns,
    numpy_available,
    rejection_reasons,
    skill_candidates,
    skill_candidates_dense,
    true_positions,
)

__all__ = [
    "CODES",
    "ColumnarBatch",
    "REASON_DEADLINE",
    "REASON_FEASIBLE",
    "REASON_NAMES",
    "REASON_REACH",
    "REASON_SKILL",
    "columnar_code_for",
    "dense_pair_columns",
    "intern_skills",
    "numpy_available",
    "rejection_reasons",
    "skill_candidates",
    "skill_candidates_dense",
    "true_positions",
]
