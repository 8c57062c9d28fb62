"""Counting the Gauss-Kronrod panels a computation takes, of both rules.

``numerics`` integrates with 15-point panels (``_gk15``) and starts each
doubling segment of a semi-infinite tail with one 21-point panel
(``_gk21``); a count that wraps one kernel alone misses the other's
panels.  The budget tests and ``tests/report_digests.py`` count through
``counting_panels``.  The file has no ``test_`` prefix, so pytest does
not collect it, and it imports no pytest, so the digest script runs on
every Python version.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Callable, Iterator

from fraceq import numerics

KERNELS = {"_gk15": 15, "_gk21": 21}  # kernel name: integrand evaluations per panel


@contextlib.contextmanager
def counting_panels(on_panel: Callable[[int], None] | None = None) -> Iterator[Counter]:
    """Count the panels taken inside the block as {points per panel: panels}.

    ``on_panel(points)``, when given, is also called at every panel.
    Both kernels are put back on leaving the block.
    """
    panels: Counter = Counter()
    kernels = {name: getattr(numerics, name) for name in KERNELS}

    def counted(kernel: Callable, points: int) -> Callable:
        def panel(f, a, b):
            panels[points] += 1
            if on_panel is not None:
                on_panel(points)
            return kernel(f, a, b)
        return panel

    for name, kernel in kernels.items():
        setattr(numerics, name, counted(kernel, KERNELS[name]))
    try:
        yield panels
    finally:
        for name, kernel in kernels.items():
            setattr(numerics, name, kernel)


def evaluations(panels: Counter) -> int:
    """The integrand evaluations of a ``counting_panels`` count."""
    return sum(points * count for points, count in panels.items())
