"""Instrumentation counters for the allocation engine's hot path.

:class:`EngineCounters` is a thin façade over ``repro.obs`` counters: each
named field delegates to a :class:`repro.obs.metrics.Counter` in a per-run
:class:`~repro.obs.metrics.MetricsRegistry`, so the same totals the engine
has always reported through ``as_dict`` (``engine_*`` keys, unchanged) are
also visible to the metrics exporters — Prometheus text, JSONL dumps —
without a second bookkeeping path.

The registry is **private to each instance** by default.  Engine stats are
per-run by contract (``SimulationReport.engine_stats`` must be reproducible
for a given seed), so sharing one registry between engines would silently
merge runs; callers who want the counters in a larger export pass their own
registry explicitly and own that trade-off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import Counter, MetricsRegistry

#: Field name -> help text, in report order.  ``as_dict`` key order follows
#: this tuple, so the flat dict is stable across runs and Python versions.
_COUNTER_FIELDS = (
    ("full_builds", "batches served by a from-scratch feasibility build"),
    ("incremental_updates", "batches served by diffing the previous graph"),
    (
        "worker_rows_recomputed",
        "candidate rows rebuilt because a worker was new or rejoined "
        "at a different position/window",
    ),
    ("tasks_added", "tasks linked into the graph after the first build"),
    ("tasks_removed", "tasks dropped (assigned or expired) from the graph"),
    (
        "pairs_checked",
        "pairs decided by the link loop, skill rejects counted by arithmetic",
    ),
    (
        "pruned_by_index",
        "always 0: there is no grid index (kept for the benchmark's "
        "per-layer split)",
    ),
    ("time_filtered", "cheap per-batch deadline re-checks of cached pairs"),
    (
        "cache_hits",
        "always 0: there is no distance cache (kept for the benchmark's "
        "per-layer split)",
    ),
    ("cache_misses", "always 0: there is no distance cache"),
    ("game_rounds", "best-response rounds run by DASC_Game"),
    ("game_evaluations", "candidate utilities evaluated in best response"),
    (
        "game_value_recomputes",
        "task values actually recomputed (utility-cache misses)",
    ),
    ("game_cache_hits", "task values served from the utility memo"),
    (
        "game_pruned",
        "candidates ruled out by an upper bound on their value, unwalked",
    ),
    (
        "game_skipped_workers",
        "worker evaluations skipped by the dirty-set scheduler",
    ),
)

FIELD_NAMES = tuple(name for name, _ in _COUNTER_FIELDS)

#: Telemetry kept OUT of ``as_dict``: the benchmark's per-layer split
#: reads these keys (via :meth:`EngineCounters.aux_dict`), but they are not
#: part of ``SimulationReport.engine_stats``.  They are still registered
#: (``engine_<name>``) in the obs registry.
_AUX_COUNTER_FIELDS = (
    (
        "columnar_pairs",
        "always 0: there are no columnar kernels (kept for the benchmark's "
        "per-layer split)",
    ),
    (
        "scalar_pair_evals",
        "always 0: pairs_checked counts every decided pair (kept for the "
        "benchmark's per-layer split)",
    ),
    (
        "game_kernel_sweeps",
        "vectorised best-response sweeps (always 0: best response runs "
        "scalar only; kept for the benchmark's per-layer split)",
    ),
    (
        "game_scalar_evals",
        "candidate utilities computed by interpreter-level per-candidate "
        "evaluation (equals game_evaluations)",
    ),
)

AUX_FIELD_NAMES = tuple(name for name, _ in _AUX_COUNTER_FIELDS)


class EngineCounters:
    """Cumulative counters over an engine's lifetime.

    Every field reads and writes an obs :class:`Counter` registered as
    ``engine_<field>`` in :attr:`registry`; ``counters.pairs_checked += 1``
    and ``registry.counter("engine_pairs_checked").inc()`` are the same
    operation.  Field semantics are documented on :data:`_COUNTER_FIELDS`.
    """

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters: Dict[str, Counter] = {
            name: self.registry.counter(f"engine_{name}", help=text)
            for name, text in _COUNTER_FIELDS + _AUX_COUNTER_FIELDS
        }

    def as_dict(self, prefix: str = "engine_") -> Dict[str, float]:
        """The counters as a flat float dict (stats-record friendly).

        Key order is fixed by :data:`_COUNTER_FIELDS`, so two snapshots can
        be compared or serialized without sorting first.  The auxiliary
        group (:data:`_AUX_COUNTER_FIELDS`) is excluded — see its
        docstring — read it via :meth:`aux_dict`.
        """
        counters = self._counters
        return {f"{prefix}{name}": float(counters[name].value) for name in FIELD_NAMES}

    def aux_dict(self, prefix: str = "engine_") -> Dict[str, float]:
        """The auxiliary telemetry as a flat float dict."""
        counters = self._counters
        return {
            f"{prefix}{name}": float(counters[name].value)
            for name in AUX_FIELD_NAMES
        }

    def add_game_work(
        self,
        rounds: int,
        evaluations: int,
        value_recomputes: int,
        cache_hits: int,
        pruned: int,
        skipped: int,
    ) -> None:
        """Bulk-add one game run's work totals (one call per allocation).

        Keeping the per-candidate increments on the
        :class:`~repro.algorithms.utility.GameState` ints and folding them
        in here once keeps the best-response hot loop free of façade
        overhead, per the engine's bulk-add convention.
        """
        counters = self._counters
        counters["game_rounds"].value += rounds
        counters["game_evaluations"].value += evaluations
        counters["game_value_recomputes"].value += value_recomputes
        counters["game_cache_hits"].value += cache_hits
        counters["game_pruned"].value += pruned
        counters["game_skipped_workers"].value += skipped
        counters["game_scalar_evals"].value += evaluations

    def delta_since(
        self, snapshot: Dict[str, float], prefix: str = "engine_"
    ) -> Dict[str, float]:
        """Per-batch view: current totals minus an ``as_dict`` snapshot.

        Keys that exist only in the snapshot (a counter renamed or removed
        between snapshot and now) are still surfaced — as the negated
        snapshot value — so a rename can never silently drop history from a
        delta.  Current-total keys come first, in ``as_dict`` order.
        """
        current = self.as_dict(prefix)
        delta = {key: current[key] - snapshot.get(key, 0.0) for key in current}
        for key, value in snapshot.items():
            if key not in delta:
                delta[key] = -value
        return delta

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={int(self._counters[name].value)}" for name in FIELD_NAMES)
        return f"EngineCounters({parts})"


def _counter_property(name: str) -> property:
    def _get(self: EngineCounters) -> float:
        return self._counters[name].value

    def _set(self: EngineCounters, value: float) -> None:
        self._counters[name].value = value

    return property(_get, _set)


for _name in FIELD_NAMES + AUX_FIELD_NAMES:
    setattr(EngineCounters, _name, _counter_property(_name))
del _name
