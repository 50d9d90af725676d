"""Import blocker: simulates a host without numpy.

Prepend this directory to ``PYTHONPATH`` (before any real site-packages
numpy) and every ``import numpy`` raises ``ImportError``: no feasibility
build selects the columnar kernels, so every build and sync runs the
scalar path.  Used by the CI ``no-numpy`` job::

    PYTHONPATH=tests/stubs/nonumpy:src python -m pytest tests/engine -q
"""

raise ImportError(
    "numpy deliberately blocked (tests/stubs/nonumpy): "
    "exercising the scalar feasibility path"
)
