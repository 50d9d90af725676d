"""Former home of the vectorised best-response sweeps.

``DASC_Game`` and the local-search polish run one scalar path only (see
DESIGN.md §17 for why the columnar sweeps were removed).  The module stays
for readers that stamp which game path a run took.
"""

from __future__ import annotations


def default_game_kernels() -> bool:
    """Whether best response runs vectorised sweeps: always ``False``."""
    return False
