"""The library never imports numpy.

Feasibility has one scalar builder and best response one scalar path, so
nothing in ``repro`` needs numpy; importing it would cost every run its
resident memory.  A fresh interpreter runs a platform simulation and a
standalone single-batch solve, then checks ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_PROGRAM = """
import sys
from repro.algorithms.registry import make_allocator
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.simulation.platform import Platform, run_single_batch

instance = generate_synthetic(SyntheticConfig(seed=3).scaled(0.05))
report = Platform(instance, make_allocator("Greedy"), batch_interval=5.0).run()
outcome = run_single_batch(instance, make_allocator("Game", seed=1))
assert report.num_batches > 0 and outcome.assignment.score >= 0
print("numpy" in sys.modules)
"""


def test_platform_run_and_solve_never_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
