"""Former home of the vectorised feasibility kernels (see DESIGN.md §26)."""

from __future__ import annotations

from importlib.util import find_spec


def numpy_available() -> bool:
    """Whether numpy is installed; the library never imports it."""
    return find_spec("numpy") is not None
