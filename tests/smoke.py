"""The dense instance the CLI solve smokes run on.

``python -m tests.smoke OUT.json`` writes it: the Table V synthetic
defaults with seed 3 at 0.08 scale (400 workers x 400 tasks) and waiting
times in [25, 35].  Greedy and Game each assign hundreds of tasks over 55
batches at ``--batch-interval 2``.  ``dasc generate synthetic`` keeps the
paper's 1,500-skill universe, which at smoke sizes assigns nothing, so a
smoke on its output would compare runs that never commit a pair.
"""

import sys
from dataclasses import replace

from repro.datagen.distributions import Range
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.io import save_instance


def write_dense_instance(path) -> None:
    config = replace(SyntheticConfig(seed=3), waiting_time=Range(25.0, 35.0))
    save_instance(generate_synthetic(config.scaled(0.08)), path)


if __name__ == "__main__":
    write_dense_instance(sys.argv[1])
