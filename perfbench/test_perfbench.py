"""Smoke tests of the benchmark itself, on downscaled workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
from layers import MOVES, PER_LAYER, moves  # noqa: E402
from outputs import CapturedBatch, validate_run  # noqa: E402
from repro.core.assignment import Assignment  # noqa: E402
import reference  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from timing import run_approach, run_iteration, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Population scale per workload that keeps each smoke run well under a second.
SMOKE_SCALE = {"synth_default": 0.05, "burst_game": 0.2, "meetup_six": 0.1}
SEED = 7
HELD_OUT_SEED = 1234


def _run(capsys, workload: str, seed: int, trace: int):
    code = run.main(
        [
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", str(SMOKE_SCALE[workload]),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, result, lines = _run(capsys, workload, SEED, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = (
        run.END_TO_END if not trace else {n: unit for n, (unit, _) in PER_LAYER.items()}
    )
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_passes_the_checks(capsys, workload):
    code, result, _ = _run(capsys, workload, HELD_OUT_SEED, 0)
    assert code == 0 and result["correct"] is True and result["failed"] == 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_every_per_layer_metric_names_what_it_should_move():
    for name in PER_LAYER:
        assert moves(name) in MOVES.values()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_regenerates_identical_inputs(workload):
    spec = WORKLOADS[workload]
    scale = SMOKE_SCALE[workload]
    assert spec.records(SEED, scale) == spec.records(SEED, scale)
    assert spec.records(SEED, scale) != spec.records(SEED + 1, scale)


# -- the output check rejects corrupted assignments ---------------------------------


def _instance():
    return WORKLOADS["synth_default"].records(SEED, 0.05)[0].build_instance()


def _batch(instance, pairs, previously_assigned=frozenset()):
    return CapturedBatch(
        now=instance.earliest_start,
        previously_assigned=frozenset(previously_assigned),
        assignment=Assignment(pairs),
        workers={w.id: w for w in instance.workers},
        task_ids=frozenset(t.id for t in instance.tasks),
    )


def _check(instance, batch):
    from repro.simulation.stats import SimulationReport

    assigned = {t: w for w, t in batch.assignment.pairs()}
    report = SimulationReport(allocator="corrupted", assignments=assigned)
    return validate_run(instance, [batch], report)


def test_check_rejects_a_worker_lacking_the_skill():
    instance = _instance()
    task = next(t for t in instance.tasks if not t.dependencies)
    worker = next(w for w in instance.workers if task.skill not in w.skills)
    result = _check(instance, _batch(instance, [(worker.id, task.id)]))
    assert result.invalid == 1
    assert any(p.startswith("skill:") for p in result.problems)


def test_check_rejects_a_task_whose_dependency_is_unassigned():
    instance = _instance()
    task = next(t for t in instance.tasks if t.dependencies)
    worker = instance.workers[0]
    result = _check(instance, _batch(instance, [(worker.id, task.id)]))
    assert result.invalid == 1
    assert any(p.startswith("dependency:") for p in result.problems)


def test_check_accepts_a_real_run():
    spec = WORKLOADS["meetup_six"]
    records = spec.records(SEED, SMOKE_SCALE["meetup_six"])[0]
    checked = run_approach(records, spec, "Greedy", SEED, check=True)
    assert checked.check.ok and checked.check.attempted > 0


def test_times_are_divided_by_the_host_slowness_around_them():
    spec = WORKLOADS["meetup_six"]
    records = spec.records(SEED, SMOKE_SCALE["meetup_six"])
    iteration = run_iteration(records, spec, SEED, calibrated=True)
    assert all(r.slowness > 0 for r in iteration.runs)
    for run_ in iteration.runs:
        run_.slowness = 2.0
    assert iteration.at_nominal_speed("run_s") == pytest.approx(iteration.run_s / 2)
    assert iteration.at_nominal_speed("alloc_s") == pytest.approx(iteration.alloc_s / 2)
    assert reference.slowness(NOMINAL_S, 3 * NOMINAL_S) == pytest.approx(2.0)


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    assert tail(list(range(10))) is None
    percentile, value = tail(list(range(100)))
    assert value == 89 and percentile == 90.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meetup_six", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
