"""Ordered map over multistart starts.

Solves run on one thread; results come back in submission order, and the
reductions over them follow that order.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
