"""Uniform hyperrectangular quantization of the channel-state space.

The state lives in an axis-aligned box that is partitioned into a fixed
number of equal-width cells per axis.  Cells are numbered linearly with
axis 0 varying fastest, so the ordering is a pure function of the grid
specification.  All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "cell_index",
    "cell_center",
    "reconstruction_matrix",
]


@dataclass(frozen=True)
class GridSpec:
    """An axis-aligned box split into ``cells[m]`` uniform intervals per axis.

    Interior cell boundaries are half-open: a point exactly on a boundary
    belongs to the higher-index cell; the last cell along each axis is
    closed.  Points outside the box are clamped onto the nearest boundary
    cell when quantized.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        cells = tuple(int(v) for v in self.cells)
        if not (len(lower) == len(upper) == len(cells)) or not lower:
            raise ValueError("lower, upper and cells must share a nonzero length")
        for m, (lo, hi, n) in enumerate(zip(lower, upper, cells)):
            if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
                raise ValueError(f"axis {m}: bounds must be finite with lower < upper")
            if n < 1:
                raise ValueError(f"axis {m}: cell count must be >= 1, got {n}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cells", cells)

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def widths(self) -> np.ndarray:
        """Cell width per axis."""
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return (hi - lo) / np.asarray(self.cells)

    @property
    def strides(self) -> np.ndarray:
        """Linearization strides; axis 0 varies fastest."""
        return np.concatenate(([1], np.cumprod(self.cells[:-1]))).astype(np.int64)


def cell_index(grid: GridSpec, x) -> int | np.ndarray:
    """Linear index of the cell containing ``x``.

    ``x`` may be a single state vector of length ``grid.ndim`` or an array
    with the state on the last axis, in which case an index array of the
    leading shape is returned.  Components outside the box are clamped to
    the nearest boundary cell.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (grid.ndim,):
        raise ValueError(f"expected state of dimension {grid.ndim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite components")
    per_axis = x - np.asarray(grid.lower)
    per_axis /= grid.widths
    np.floor(per_axis, out=per_axis)
    np.clip(per_axis, 0, np.asarray(grid.cells) - 1, out=per_axis)  # before the cast: 1e19 has no int64
    lin = per_axis.astype(np.int64) @ grid.strides
    if x.ndim == 1:
        return int(lin)
    return lin


def cell_center(grid: GridSpec, l: int) -> np.ndarray:
    """Center of mass of cell ``l``."""
    if not 0 <= l < grid.n_cells:
        raise ValueError(f"cell index {l} out of range [0, {grid.n_cells})")
    per_axis = (l // grid.strides) % np.asarray(grid.cells)
    return np.asarray(grid.lower) + (per_axis + 0.5) * grid.widths


def reconstruction_matrix(grid: GridSpec) -> np.ndarray:
    """Matrix of cell centers, one column per cell in canonical order.

    Shape is ``(grid.ndim, grid.n_cells)``; column ``l`` equals
    ``cell_center(grid, l)``.
    """
    lin = np.arange(grid.n_cells, dtype=np.int64)
    per_axis = (lin[None, :] // grid.strides[:, None]) % np.asarray(grid.cells)[:, None]
    lo = np.asarray(grid.lower)[:, None]
    return lo + (per_axis + 0.5) * grid.widths[:, None]
