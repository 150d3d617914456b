"""Small shared helpers."""

from __future__ import annotations

import operator
from contextlib import nullcontext

import numpy as np

__all__ = ["as_rng", "single_thread_blas", "whole"]


def as_rng(seed_or_rng) -> np.random.Generator:
    """Normalize an int seed / SeedSequence / Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def whole(value, name: str, least: int) -> int:
    """``value`` as an ``int`` of at least ``least``; a bool, a float, a string or a smaller number is a ``ValueError``, never rounded."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


try:
    from threadpoolctl import threadpool_limits

    def single_thread_blas():
        """Pin BLAS to one thread for loops of small factorizations and matvecs.

        The tracking and prediction loops alternate sub-millisecond kernels
        (30x30 solves, ~10^3 matvecs) where multithreaded BLAS pools spend
        more time waking workers than computing; one thread is optimal there.
        """
        return threadpool_limits(limits=1)

except ImportError:  # pragma: no cover

    def single_thread_blas():
        return nullcontext()
