"""JSON persistence tests."""

import json

import pytest

from repro.core.assignment import Assignment
from repro.core.dependency import CyclicDependencyError
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.io.serialize import (
    assignment_from_dict,
    assignment_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.spatial.distance import EuclideanDistance, ManhattanDistance
from repro.spatial.region import BoundingBox
from repro.spatial.roadnet import RoadNetworkDistance, grid_road_network


class TestInstanceRoundTrip:
    def test_example1_round_trip(self, example1):
        data = instance_to_dict(example1)
        restored = instance_from_dict(data)
        assert restored.name == example1.name
        assert restored.worker_ids == example1.worker_ids
        assert restored.task_ids == example1.task_ids
        for wid in example1.worker_ids:
            assert restored.worker(wid) == example1.worker(wid)
        for tid in example1.task_ids:
            assert restored.task(tid) == example1.task(tid)
        assert restored.metric == example1.metric
        assert restored.skills.names == example1.skills.names

    def test_synthetic_round_trip_via_file(self, tmp_path):
        instance = generate_synthetic(
            SyntheticConfig(num_workers=20, num_tasks=20, skill_universe=5, seed=3)
        )
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        restored = load_instance(path)
        assert restored.workers == instance.workers
        assert restored.tasks == instance.tasks

    def test_json_is_plain(self, example1, tmp_path):
        path = tmp_path / "i.json"
        save_instance(example1, path)
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert len(data["workers"]) == 3

    def test_metric_preserved(self, example1):
        example1.metric = ManhattanDistance()
        restored = instance_from_dict(instance_to_dict(example1))
        assert restored.metric == ManhattanDistance()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported instance format"):
            instance_from_dict({"format": 99})

    def test_unknown_metric_rejected_at_load(self, example1):
        data = instance_to_dict(example1)
        data["metric"] = "roadnet"
        with pytest.raises(ValueError, match="^unknown distance metric 'roadnet'"):
            instance_from_dict(data)

    def test_road_network_metric_cannot_be_saved(self, example1, tmp_path):
        # A road network is not rebuilt from its name, so saving it would
        # write a file load_instance cannot read.
        example1.metric = RoadNetworkDistance(
            grid_road_network(BoundingBox(0.0, 0.0, 1.0, 1.0), 3, 3)
        )
        path = tmp_path / "roadnet.json"
        with pytest.raises(ValueError, match="cannot save metric 'roadnet'"):
            save_instance(example1, path)
        assert not path.exists()

    def test_renamed_metric_subclass_cannot_be_saved(self, example1):
        class Scaled(EuclideanDistance):
            def __call__(self, a, b):
                return 2.0 * super().__call__(a, b)

        example1.metric = Scaled()
        with pytest.raises(ValueError, match=r"cannot save metric 'euclidean' \(Scaled\)"):
            instance_to_dict(example1)

    def test_dependency_cycle_rejected_at_load(self, example1):
        data = instance_to_dict(example1)
        first, second = data["tasks"][0], data["tasks"][1]
        first["dependencies"] = [second["id"]]
        second["dependencies"] = [first["id"]]
        with pytest.raises(CyclicDependencyError, match="dependency cycle"):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "kind, index, key",
        [("workers", 1, "skills"), ("tasks", 2, "location"), ("tasks", 0, "id")],
    )
    def test_missing_entity_key_names_key_and_index(self, example1, kind, index, key):
        data = instance_to_dict(example1)
        del data[kind][index][key]
        with pytest.raises(
            ValueError, match=rf"^{kind}\[{index}\]: missing required key '{key}'$"
        ):
            instance_from_dict(data)

    def test_missing_top_level_key(self, example1):
        data = instance_to_dict(example1)
        del data["skills"]
        with pytest.raises(ValueError, match="^instance: missing required key 'skills'$"):
            instance_from_dict(data)

    def test_duration_default(self, example1):
        data = instance_to_dict(example1)
        for task in data["tasks"]:
            task.pop("duration")
        restored = instance_from_dict(data)
        assert all(t.duration == 0.0 for t in restored.tasks)


class TestAssignmentRoundTrip:
    def test_round_trip(self):
        assignment = Assignment([(1, 10), (2, 20)])
        restored = assignment_from_dict(assignment_to_dict(assignment))
        assert restored == assignment

    def test_empty(self):
        assert assignment_from_dict(assignment_to_dict(Assignment())).score == 0

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported assignment format"):
            assignment_from_dict({"format": 0, "pairs": []})
