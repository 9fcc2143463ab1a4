"""Order-preserving map and thread-count resolution.

Work items run one after another in input order: the encoders are pure
Python, so threads would only contend for the GIL. --threads is still
resolved and validated for compatibility, but nothing depends on it.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


# threads is ignored: perfbench/spans.py rebinds ordered_map and passes it a third positional argument.
def ordered_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    return [fn(x) for x in items]


def resolve_threads(value: int | None, env: dict | None = None) -> int:
    """--threads wins; otherwise TOKENLENS_THREADS; otherwise 1."""
    import os

    if value is not None:
        if value < 1:
            raise ValueError("threads must be >= 1")
        return value
    environ = env if env is not None else os.environ
    raw = environ.get("TOKENLENS_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"TOKENLENS_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError("TOKENLENS_THREADS must be >= 1")
    return n
