"""Order-preserving map."""

import pytest

from tokenlens.parallel import ordered_map


class TestOrderedMap:
    def test_sequential_path(self):
        assert ordered_map(lambda x: x * 2, [1, 2, 3], threads=1) == [2, 4, 6]

    def test_empty_items(self):
        assert ordered_map(lambda x: x, [], threads=4) == []

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError):
            ordered_map(boom, [1, 2], threads=2)
        with pytest.raises(ValueError):
            ordered_map(boom, [1, 2], threads=1)

