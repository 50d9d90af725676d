"""The CI solve smokes, run locally: each must assign something.

Every solve runs ``dasc`` in a fresh interpreter on the dense instance of
:mod:`tests.smoke`.  Two runs under different ``PYTHONHASHSEED`` values
must write byte-identical event journals: string hashes, and so the
iteration order of sets of strings, follow the hash seed, and a decision
that read such an order would show up as a journal difference.  A
``--replay-check`` solve must reproduce its report from its own events.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from tests.smoke import write_dense_instance

SRC = pathlib.Path(__file__).parent.parent / "src"


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    path = tmp_path_factory.mktemp("smoke") / "dense.json"
    write_dense_instance(path)
    return path


def solve(instance, *args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "solve", str(instance), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    score = re.search(r"score=(\d+)", result.stdout)
    assert score is not None, result.stdout
    assert int(score.group(1)) > 0, result.stdout
    return result.stdout


def test_journal_does_not_depend_on_the_hash_seed(dense, tmp_path):
    journals = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"events-{hash_seed}.jsonl"
        solve(dense, "--approach", "Game", "--batch-interval", "2",
              "--events-out", str(out), hash_seed=hash_seed)
        journals.append(out.read_bytes())
    assert journals[0] == journals[1]


def test_replay_check_reproduces_the_report(dense, tmp_path):
    stdout = solve(dense, "--approach", "Greedy", "--batch-interval", "2",
                   "--replay-check", "--events-out", str(tmp_path / "e.jsonl"))
    assert "replay check: OK" in stdout
