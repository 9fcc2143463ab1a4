"""Order-preserving map.

Work items run one after another in input order: the encoders are pure
Python, so threads would only contend for the GIL. The CLI's --threads is
checked by its parser alone and reaches nothing here.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


# threads is ignored: perfbench/spans.py rebinds ordered_map and passes it a third positional argument.
def ordered_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    return [fn(x) for x in items]
