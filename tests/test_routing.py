"""Ring distances on the fabric's rings."""

import pytest

from repro.errors import RoutingError
from repro.network.routing import ring_distance


class TestRingDistance:
    @pytest.mark.parametrize(
        "size,src,dst,expected",
        [
            (4, 0, 1, (1, +1)),
            (4, 0, 3, (1, -1)),
            (4, 0, 2, (2, +1)),
            (4, 2, 2, (0, +1)),
            (8, 1, 6, (3, -1)),
        ],
    )
    def test_shortest_direction(self, size, src, dst, expected):
        assert ring_distance(size, src, dst) == expected

    def test_invalid_inputs(self):
        with pytest.raises(RoutingError):
            ring_distance(0, 0, 0)
        with pytest.raises(RoutingError):
            ring_distance(4, 0, 4)
