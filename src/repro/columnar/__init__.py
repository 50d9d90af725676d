"""Columnar feasibility core: struct-of-arrays snapshots + vectorised kernels.

``repro.columnar`` turns a batch's worker/task populations into contiguous
columns (:class:`ColumnarBatch`) and evaluates the pair-feasibility
predicate over whole tiles at once (:func:`feasible_pairs` /
:func:`feasible_dense`) with numpy.  Decisions and distances are
bit-identical to the scalar :func:`repro.core.constraints.pair_feasible`
oracle; see :mod:`repro.columnar.kernels` for the exactness contract.

Feasibility builds take the kernels exactly when numpy is importable and
the metric advertises a kernel code (:func:`columnar_code_for`); there is
no switch.

:class:`InterningCache` lets a long-lived caller (the engine) rebuild each
batch's snapshot without re-sorting the skill universe until it grows.
"""

from repro.columnar.batch import (
    ColumnarBatch,
    InterningCache,
    flatten_rows,
    intern_skills,
)
from repro.columnar.kernels import (
    CODES,
    REASON_DEADLINE,
    REASON_FEASIBLE,
    REASON_NAMES,
    REASON_REACH,
    REASON_SKILL,
    columnar_code_for,
    dense_pair_columns,
    feasible_dense,
    feasible_pairs,
    numpy_available,
    rejection_reasons,
    rejection_reasons_dense,
    skill_candidates,
    skill_candidates_dense,
    true_positions,
)

__all__ = [
    "CODES",
    "ColumnarBatch",
    "InterningCache",
    "REASON_DEADLINE",
    "REASON_FEASIBLE",
    "REASON_NAMES",
    "REASON_REACH",
    "REASON_SKILL",
    "columnar_code_for",
    "dense_pair_columns",
    "feasible_dense",
    "feasible_pairs",
    "flatten_rows",
    "intern_skills",
    "numpy_available",
    "rejection_reasons",
    "rejection_reasons_dense",
    "skill_candidates",
    "skill_candidates_dense",
    "true_positions",
]
