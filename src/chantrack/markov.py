"""Hidden-state dynamics and estimation of quantized transition matrices.

A :class:`StateDynamics` bundles a stationary transition mapping
``x_next = step(x, w)`` with white scalar driving noise and a fixed initial
state.  Two estimators turn such dynamics into a column-stochastic transition
matrix over the cells of a :class:`~chantrack.grid.GridSpec`:

* ``estimate_transition_markovian`` re-seeds the chain at every cell center
  and integrates the law of the quantized one-step image over the noise by a
  randomly shifted midpoint rule on the noise quantile (Cranley & Patterson,
  1976): column ``j`` counts the images of ``samples_per_cell`` stratified
  points ``(k + U_j) / M``.  It needs the transition mapping and the quantile.
* ``estimate_transition_marginal`` quantizes long Monte Carlo trajectories of
  the true state and counts cell-to-cell transitions (needs realizations
  only).  It draws noise, steps, quantizes and counts one block of
  ``QUANTIZE_BLOCK`` steps at a time, so its memory does not grow with the
  path length, and its result is bitwise that of drawing all noise at once
  and quantizing per step.

Both end in ``_chain``, which divides each column of the counts once by its
visits and patches a never-visited one uniform.  The Markovian shifts
``U_j`` come from one up-front draw of the caller's generator, and the
marginal paths from sub-streams spawned from it, so a parallel implementation
over cells or paths would reproduce the sequential result bit for bit.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtri

from .grid import GridSpec, cell_index, reconstruction_matrix
from .util import as_rng

__all__ = [
    "horizon_steps",
    "StateDynamics",
    "TransitionMatrix",
    "coupled_tanh_dynamics",
    "finite_chain_dynamics",
    "estimate_transition_markovian",
    "estimate_transition_marginal",
    "initial_belief",
    "one_hot_belief",
    "uniform_belief",
    "propagate_profile",
    "simulate_trajectory",
]

COLUMN_SUM_TOL = 1e-12
QUANTIZE_BLOCK = 1024  # time steps of the marginal estimator quantized per cell_index call


@dataclass(frozen=True)
class StateDynamics:
    """Stationary Markov dynamics ``x_next = step(x, w)`` with white scalar noise from a known initial state.

    ``step`` must be a pure function, deterministic given ``(x, w)`` and
    vectorized over leading axes: it receives states of shape ``(..., dim)``
    together with scalar noise draws of shape ``(...)`` and returns states of
    shape ``(..., dim)``, broadcasting one ``(1, dim)`` state against all its
    draws.  ``noise_sampler(rng, size)`` draws i.i.d. noise of that shape;
    split draws must equal one call (``m`` then ``k`` draws from a generator
    give the ``m + k`` values of one call), the condition under which the
    marginal estimator's result, drawn block by block, does not depend on
    ``QUANTIZE_BLOCK``.  ``noise_quantile(u)`` states the same law as its
    inverse CDF, elementwise over any array of ``u`` in ``[0, 1)`` (and at
    ``1.0``, which rounding can reach): the noise is distributed as
    ``noise_quantile(U)`` for ``U`` uniform on ``[0, 1)``, atoms included.  ``initial`` is the fixed state vector the
    chain starts from.
    """

    dim: int
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_sampler: Callable[[np.random.Generator, Union[int, tuple]], np.ndarray]
    noise_quantile: Callable[[np.ndarray], np.ndarray]
    initial: np.ndarray

    def initial_state(self) -> np.ndarray:
        return np.asarray(self.initial, dtype=float).copy()


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic cell transition matrix: ``matrix[i, j] = P(next=i | current=j)``.

    ``patched_columns`` counts the never-visited columns set uniform by the
    estimator, an integer in ``[0, n_cells]``.
    """

    matrix: np.ndarray
    mode: str
    patched_columns: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"transition matrix must be square with at least one cell, got shape {m.shape}")
        if self.mode not in ("markovian", "marginal"):
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        if not (m.min() >= 0.0 and m.max() <= 1.0):  # a NaN entry fails both; no (C, C) temporaries
            raise ValueError("transition entries must lie in [0, 1]")
        colsum_err = np.max(np.abs(m.sum(axis=0) - 1.0))
        if colsum_err > COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, max error {colsum_err:.3e}")
        if not (type(self.patched_columns) is int and 0 <= self.patched_columns <= len(m)):  # a bool is not a count
            raise ValueError(f"patched_columns must be an integer in [0, {len(m)}], got {self.patched_columns!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[0]


def coupled_tanh_dynamics(gamma: float = 1.6, initial=(2.0, 25.3)) -> StateDynamics:
    """Built-in two-dimensional benchmark dynamics.

    The first coordinate (the path-loss exponent) drifts slowly inside
    [0, 4]; the second (the shadowing power) oscillates rapidly inside
    [25, 25.6].  Both updates consume the *same* scalar noise draw per step,
    a standard normal hard-limited to [-1, 1], which couples the two
    coordinates strongly.
    """
    g = float(gamma)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (2,):
        raise ValueError(f"initial state must have 2 entries, got shape {initial.shape}")

    def step(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        x1 = x[..., 0]
        x2 = x[..., 1]
        n1 = np.tanh(g * (x1 - 2.0)) + w + 2.0
        n2 = 0.3 * np.abs(np.tanh(np.sin(g * x2 * w) + x2 * w) + w) + 25.0
        return np.stack([n1, n2], axis=-1)

    def noise(rng, size):
        return np.clip(rng.standard_normal(size), -1.0, 1.0)

    def quantile(u):
        return np.clip(ndtri(u), -1.0, 1.0)

    return StateDynamics(dim=2, step=step, noise_sampler=noise, noise_quantile=quantile, initial=initial)


def finite_chain_dynamics(points, matrix, initial_index: int = 0) -> StateDynamics:
    """A finite Markov chain embedded at the given state-space points.

    ``points`` has one chain state per row; ``matrix`` is the column-stochastic
    transition matrix between them.  ``step`` snaps its input to the nearest
    point, then jumps by inverting the column CDF at a uniform noise draw.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array with one state per row")
    p = np.asarray(matrix, dtype=float)
    if p.shape != (len(pts), len(pts)):
        raise ValueError("matrix shape must match the number of points")
    if not np.all(p >= 0.0):
        raise ValueError("matrix entries must be >= 0")
    if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-9:
        raise ValueError("matrix columns must sum to 1")
    if not 0 <= initial_index < len(pts):
        raise ValueError(f"initial_index {initial_index} outside [0, {len(pts)})")
    cdf_rows = np.cumsum(p, axis=0).T  # row j = CDF of the jump law out of state j

    def step(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        d2 = ((x[..., None, :] - pts) ** 2).sum(axis=-1)
        cur = np.argmin(d2, axis=-1)
        nxt = np.clip((cdf_rows[cur] < w[..., None]).sum(axis=-1), 0, len(pts) - 1)
        return pts[nxt]

    def noise(rng, size):
        return rng.random(size)

    def quantile(u):  # step already inverts the column CDF at a uniform
        return np.asarray(u, dtype=float)

    return StateDynamics(
        dim=pts.shape[1], step=step, noise_sampler=noise, noise_quantile=quantile, initial=pts[initial_index].copy()
    )


def _chain(counts: np.ndarray, mode: str) -> TransitionMatrix:
    """The chain of ``(next, current)`` counts: each column divided in place by its visits, or patched uniform."""
    visits = counts.sum(axis=0)
    unvisited = visits == 0
    patched = int(unvisited.sum())
    if patched:
        msg = f"{mode} estimation left {patched}/{len(counts)} cells unvisited; their columns were patched uniform"
        warnings.warn(msg, stacklevel=3)
        counts[:, unvisited] = 1.0
        visits[unvisited] = len(counts)
    counts /= visits
    return TransitionMatrix(counts, mode=mode, patched_columns=patched)


def estimate_transition_markovian(
    dyn: StateDynamics,
    grid: GridSpec,
    samples_per_cell: int = 2_000,
    rng=None,
) -> TransitionMatrix:
    """Estimate the transition matrix of the chain re-seeded at cell centers.

    Column ``j`` is the law of the quantized one-step image of cell center
    ``j``, integrated over the noise by the midpoint rule on its quantile with
    ``M = samples_per_cell`` points, shifted by one uniform ``U_j`` per cell:
    the images of ``noise_quantile((k + U_j) / M)``, ``k < M``, counted and
    divided by ``M``.  The shifts make the estimate unbiased; an interval of
    length ``l`` in ``u`` holds ``floor(l M)`` or ``ceil(l M)`` of the points,
    so an entry that ``r`` intervals of ``u`` map to is within ``r / M`` of
    the exact one.  The source state is always the reconstruction point itself.
    """
    m = _whole(samples_per_cell, "samples_per_cell", 1)
    centers = reconstruction_matrix(grid).T
    n = grid.n_cells
    shifts = as_rng(rng).random(n)
    k = np.arange(m)
    counts = np.empty((n, n))
    for j in range(n):
        w = dyn.noise_quantile((k + shifts[j]) / m)
        counts[:, j] = np.bincount(cell_index(grid, dyn.step(centers[j : j + 1], w)), minlength=n)
    return _chain(counts, "markovian")


def estimate_transition_marginal(
    dyn: StateDynamics,
    grid: GridSpec,
    n_paths: int = 100,
    path_length: int = 10_000,
    rng=None,
) -> TransitionMatrix:
    """Estimate the transition matrix of the quantized true-state trajectory.

    Simulates ``n_paths`` trajectories of ``path_length`` states from the
    initial state, quantizes them, and normalizes the cell-to-cell transition
    counts.  Columns of never-visited cells are patched with the uniform
    distribution; their count is stored on the result and reported as a warning.

    Each block of up to ``QUANTIZE_BLOCK`` steps draws its noise path by path
    into the columns of one time-major ``(steps, n_paths)`` buffer, which every
    block reuses, is quantized by one ``cell_index`` call and is counted.
    Memory is ``O(n_paths * QUANTIZE_BLOCK + n_cells**2)`` whatever ``path_length``.
    Under the :class:`StateDynamics` split contract the result is bitwise
    that of drawing each path's noise at once and quantizing every step alone.
    """
    if n_paths < 1 or path_length < 2:
        raise ValueError("need n_paths >= 1 and path_length >= 2")
    rng = as_rng(rng)
    subs = rng.spawn(n_paths)
    counts = np.zeros((grid.n_cells, grid.n_cells))
    steps = min(QUANTIZE_BLOCK, path_length - 1)
    block = np.empty((steps + 1, n_paths, dyn.dim))  # row 0: the state the block steps from
    block[0] = dyn.initial_state()
    noise = np.empty((steps, n_paths))  # time-major: step k reads the contiguous row k
    for start in range(0, path_length - 1, steps):
        m = min(steps, path_length - 1 - start)
        for p, sub in enumerate(subs):
            noise[:m, p] = dyn.noise_sampler(sub, m)
        for k in range(m):
            block[k + 1] = dyn.step(block[k], noise[k])
        idx = cell_index(grid, block[: m + 1])
        np.add.at(counts, (idx[1:].ravel(), idx[:-1].ravel()), 1.0)
        block[0] = block[m]
    return _chain(counts, "marginal")


def one_hot_belief(n_cells: int, l: int) -> np.ndarray:
    b = np.zeros(n_cells)
    b[l] = 1.0
    return b


def uniform_belief(n_cells: int) -> np.ndarray:
    return np.full(n_cells, 1.0 / n_cells)


def initial_belief(dyn: StateDynamics, grid: GridSpec) -> np.ndarray:
    """The one-hot belief on the cell of the initial state of the dynamics."""
    return one_hot_belief(grid.n_cells, cell_index(grid, dyn.initial_state()))


def _whole(value, name: str, least: int) -> int:
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


def horizon_steps(rho) -> int:
    """The forecast horizon ``rho`` as a step count; a bool, a float, a string or a negative is a ``ValueError``, never rounded."""
    return _whole(rho, "rho", 0)


def propagate_profile(profile, matrix: np.ndarray, rho: int) -> np.ndarray:
    """``profile @ P^rho``: per-cell values (one column per cell) pushed ``rho`` steps through the chain ``P``.

    Computed as ``rho`` row products, never forming ``P^rho``; ``rho = 0``
    returns the profile itself.  Each product is an ``einsum``, which runs
    single-threaded: for a few rows against a ``(C, C)`` matrix a threaded
    BLAS GEMM spends more time waking its workers than multiplying.
    """
    out = np.asarray(profile, dtype=float)
    for _ in range(horizon_steps(rho)):
        out = np.einsum("...c,ck->...k", out, matrix)
    return out


def simulate_trajectory(dyn: StateDynamics, T: int, rng=None) -> np.ndarray:
    """Simulate ``T`` steps of the true state; returns ``T + 1`` rows.

    Row 0 is the initial state; row ``t`` is reached after ``t`` steps with
    fresh independent noise.  Deterministic given the generator state.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    rng = as_rng(rng)
    out = np.empty((T + 1, dyn.dim))
    x = dyn.initial_state()
    out[0] = x
    if T:
        w = dyn.noise_sampler(rng, T)
        for t in range(T):
            x = dyn.step(x, w[t])
            out[t + 1] = x
    return out
