"""Ring distances on the Accelerator Fabric's rings.

The paper routes every packet dimension by dimension (local, then vertical,
then horizontal; Section V), each hop taking the shorter way around its
ring.  :func:`ring_distance` is that per-ring hop count and direction.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import RoutingError


def ring_distance(size: int, src: int, dst: int) -> Tuple[int, int]:
    """Shortest hop count and direction between two positions on a ring.

    Returns ``(hops, direction)`` with ``direction`` in ``{+1, -1}`` (ties go
    to +1).  ``hops`` is zero when ``src == dst``.
    """
    if size <= 0:
        raise RoutingError(f"ring size must be positive, got {size}")
    if not (0 <= src < size and 0 <= dst < size):
        raise RoutingError(f"positions ({src}, {dst}) outside ring of size {size}")
    forward = (dst - src) % size
    backward = (src - dst) % size
    if forward == 0:
        return 0, +1
    if forward <= backward:
        return forward, +1
    return backward, -1
