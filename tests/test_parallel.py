"""Order-preserving map and thread-count resolution."""

import pytest

from tokenlens.parallel import ordered_map, resolve_threads


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


class TestResolveThreads:
    def test_explicit_wins_over_env(self):
        assert resolve_threads(3, env={"TOKENLENS_THREADS": "8"}) == 3

    def test_env_fallback(self):
        assert resolve_threads(None, env={"TOKENLENS_THREADS": "8"}) == 8

    def test_default_is_one(self):
        assert resolve_threads(None, env={}) == 1
        assert resolve_threads(None, env={"TOKENLENS_THREADS": ""}) == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_threads(0)
        with pytest.raises(ValueError):
            resolve_threads(None, env={"TOKENLENS_THREADS": "zero"})
        with pytest.raises(ValueError):
            resolve_threads(None, env={"TOKENLENS_THREADS": "-2"})
