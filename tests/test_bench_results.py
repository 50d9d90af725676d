"""Every entry of ``benchmarks/results/BENCH_engine.json`` has a writer.

A bench records its entry under a literal name (``record_bench_json("name",
...)`` or ``record_bench_entry("name", ...)``).  An entry whose name no
``benchmarks/*.py`` file mentions is a frozen series: nothing re-measures
it, so it only ages.
"""

import json
import re
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_recorded_entry_is_written_by_a_bench_script():
    data = json.loads((_BENCHMARKS / "results" / "BENCH_engine.json").read_text())
    literals = set()
    for script in _BENCHMARKS.glob("*.py"):
        literals.update(re.findall(r"[\"'](\w+)[\"']", script.read_text()))
    names = [entry["name"] for entry in data["entries"]]
    assert names, "BENCH_engine.json holds no entries"
    orphans = [name for name in names if name not in literals]
    assert not orphans, f"entries no benchmarks/*.py writes: {orphans}"
