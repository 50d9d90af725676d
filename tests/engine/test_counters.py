"""EngineCounters façade tests: stable ordering, rename-safe deltas, obs."""

from repro.engine.counters import FIELD_NAMES, EngineCounters
from repro.obs.metrics import MetricsRegistry


class TestAsDict:
    def test_keys_unchanged_from_seed(self):
        expected = [
            "engine_full_builds",
            "engine_incremental_updates",
            "engine_worker_rows_recomputed",
            "engine_tasks_added",
            "engine_tasks_removed",
            "engine_pairs_checked",
            "engine_pruned_by_index",
            "engine_time_filtered",
            "engine_cache_hits",
            "engine_cache_misses",
            "engine_game_rounds",
            "engine_game_evaluations",
            "engine_game_value_recomputes",
            "engine_game_cache_hits",
            "engine_game_pruned",
            "engine_game_skipped_workers",
        ]
        assert list(EngineCounters().as_dict()) == expected

    def test_stable_order_regardless_of_write_order(self):
        forward = EngineCounters()
        backward = EngineCounters()
        for name in FIELD_NAMES:
            setattr(forward, name, 1)
        for name in reversed(FIELD_NAMES):
            setattr(backward, name, 1)
        assert list(forward.as_dict()) == list(backward.as_dict())

    def test_values_are_floats(self):
        counters = EngineCounters()
        counters.full_builds = 1  # int assignment, like the engine does
        assert all(isinstance(v, float) for v in counters.as_dict().values())


class TestDeltaSince:
    def test_simple_delta(self):
        counters = EngineCounters()
        counters.pairs_checked = 5
        snapshot = counters.as_dict()
        counters.pairs_checked += 3
        counters.cache_hits += 2
        delta = counters.delta_since(snapshot)
        assert delta["engine_pairs_checked"] == 3.0
        assert delta["engine_cache_hits"] == 2.0
        assert delta["engine_full_builds"] == 0.0

    def test_snapshot_only_keys_surface_negated(self):
        """Rename-safety: a key dropped between snapshot and now still shows."""
        counters = EngineCounters()
        snapshot = counters.as_dict()
        snapshot["engine_renamed_away"] = 7.0
        delta = counters.delta_since(snapshot)
        assert delta["engine_renamed_away"] == -7.0

    def test_current_keys_precede_snapshot_only_keys(self):
        counters = EngineCounters()
        snapshot = {"engine_legacy": 1.0}
        delta = counters.delta_since(snapshot)
        assert list(delta)[:-1] == list(counters.as_dict())
        assert list(delta)[-1] == "engine_legacy"


class TestObsFacade:
    def test_increments_visible_in_registry(self):
        registry = MetricsRegistry()
        counters = EngineCounters(registry)
        counters.pairs_checked += 4
        assert registry.counter("engine_pairs_checked").value == 4.0

    def test_registry_writes_visible_in_facade(self):
        registry = MetricsRegistry()
        counters = EngineCounters(registry)
        registry.counter("engine_cache_hits").inc(9)
        assert counters.cache_hits == 9.0

    def test_private_registries_are_independent(self):
        a = EngineCounters()
        b = EngineCounters()
        a.full_builds += 1
        assert b.full_builds == 0.0


class TestGameWork:
    def test_bulk_add_accumulates(self):
        counters = EngineCounters()
        counters.add_game_work(
            rounds=3, evaluations=100, value_recomputes=20, cache_hits=60,
            pruned=20, skipped=7,
        )
        counters.add_game_work(
            rounds=2, evaluations=50, value_recomputes=10, cache_hits=35,
            pruned=5, skipped=3,
        )
        assert counters.game_rounds == 5.0
        assert counters.game_evaluations == 150.0
        assert counters.game_value_recomputes == 30.0
        assert counters.game_cache_hits == 95.0
        assert counters.game_pruned == 25.0
        assert counters.game_skipped_workers == 10.0

    def test_visible_in_registry_and_delta(self):
        registry = MetricsRegistry()
        counters = EngineCounters(registry)
        snapshot = counters.as_dict()
        counters.add_game_work(
            rounds=1, evaluations=4, value_recomputes=1, cache_hits=2, pruned=1,
            skipped=0,
        )
        assert registry.counter("engine_game_evaluations").value == 4.0
        delta = counters.delta_since(snapshot)
        assert delta["engine_game_cache_hits"] == 2.0
        assert delta["engine_game_pruned"] == 1.0
