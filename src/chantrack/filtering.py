"""Grid-based recursive filtering of the hidden channel state.

The filter maintains a normalized belief ``b`` over grid cells.  Each
update multiplies the belief by the transition matrix ``P``, weights it by
the per-cell Gaussian observation likelihood and renormalizes.  The state
estimate is ``X P^rho b`` at the session's one horizon ``rho``, with ``X`` the
matrix of cell centers; the ``(d, C)`` matrix ``X P^rho`` is built once per
session from ``rho`` row products.  Per-update work does not grow with time.

Given a cell, the observation is Gaussian with mean ``alpha mu`` and a
covariance ``Sigma_u`` set by the cell's kernel-parameter group ``u``.  So
the cell's log-likelihood is a quadratic in its path-loss exponent ``mu``:
``-(S_yy - 2 mu S_ya + mu^2 S_aa + log det Sigma_u) / 2`` up to a constant,
with ``S_ab = a^T Sigma_u^-1 b``.  Per update and group, one triangular solve
of the Cholesky factor ``L_u`` against the two columns ``[y alpha]`` gives the
three sums; they are gathered to the cells by ``group_index``.  The ``(G, N, N)``
factors come from one stacked Cholesky.  Only the sensor geometry fixes the
covariance, so they, and the gain map's class bases and query blocks, go
through one rule, :meth:`GridFilter.memo`: built once for static sensors.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .channel import (
    ChannelScene,
    ObservationBatch,
    _stable_unique_rows,
    build_obs_covariance,
)
from .grid import GridSpec, reconstruction_matrix
from .markov import TransitionMatrix, horizon_steps, propagate_profile, uniform_belief
from .util import single_thread_blas

__all__ = ["GridFilter", "TrackRecord", "DegenerateLikelihoodError", "brute_force_posterior"]

SIMPLEX_TOL = 1e-12
PATH_BUDGET = 1e6  # most cell paths brute_force_posterior enumerates


class DegenerateLikelihoodError(RuntimeError):
    """All cell likelihoods vanished; carries the best log-likelihood seen."""

    def __init__(self, max_log: float):
        super().__init__(f"degenerate likelihood: maximum cell log-likelihood is {max_log!r}")
        self.max_log = max_log


class TrackRecord(NamedTuple):
    t: int
    belief: np.ndarray
    estimate: np.ndarray


def _normalized_update(likelihood: np.ndarray, prior: np.ndarray) -> np.ndarray | None:
    """Posterior weights, or None when the product has no mass left."""
    post = likelihood * prior
    total = post.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    return post / total


class GridFilter:
    """Sequential tracking session over a fixed grid, chain and scene.

    Single-owner mutable state: one caller drives ``step``; read-only
    ``estimate`` queries between steps are safe.
    """

    def __init__(
        self,
        grid: GridSpec,
        transition: TransitionMatrix,
        scene: ChannelScene,
        initial_belief: np.ndarray,
        rho: int = 0,
    ):
        if transition.n_cells != grid.n_cells:
            raise ValueError("transition matrix size does not match the grid")
        if scene.state_map.state_dim_required > grid.ndim:
            raise ValueError("state map binds coordinates beyond the grid dimension")
        rho = horizon_steps(rho)
        belief = np.asarray(initial_belief, dtype=float).copy()
        if belief.shape != (grid.n_cells,):
            raise ValueError("initial belief length must equal the cell count")
        if not (np.all(belief >= 0.0) and abs(belief.sum() - 1.0) <= SIMPLEX_TOL):
            raise ValueError("initial belief must be a probability vector")

        self.grid = grid
        self.transition = transition
        self.scene = scene
        self.rho = rho
        self.X = reconstruction_matrix(grid)
        self.P = transition.matrix
        self.X_rho = propagate_profile(self.X, self.P, rho)
        self.belief = belief
        self.reset_events: list[int] = []

        self.mus = self.X[scene.state_map.mu_index]
        thetas = scene.state_map.theta_of(self.X.T)
        self.group_thetas, self.group_index = _stable_unique_rows(thetas)
        self._memo: dict = {}
        if scene.static:  # so a singular covariance fails here, not at the first update
            self.memo("factors", None, lambda: self._build_factors(0))

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def reset_count(self) -> int:
        return len(self.reset_events)

    def memo(self, key: str, owner, build):
        """``build()``, kept while the sensors are static and ``owner`` is the same; moving sensors build every call."""
        if not self.scene.static:
            return build()
        held = self._memo.get(key)
        if held is None or held[0] is not owner:
            held = self._memo[key] = (owner, build())
        return held[1]

    def _build_factors(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per parameter group, the covariance's Cholesky factor ``(G, N, N)`` and log-determinant ``(G,)``."""
        covs = np.stack([build_obs_covariance(self.scene, t, theta) for theta in self.group_thetas])
        factors = np.linalg.cholesky(covs)
        logdets = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
        return factors, logdets

    def likelihood_vector(self, obs: ObservationBatch) -> np.ndarray:
        """Per-cell observation likelihoods rescaled so the largest entry is 1.

        Each cell's log-likelihood is its group's three sums, quadratic in
        the cell's ``mu`` (see the module docstring).  The rescaling happens
        in the log domain, so any constant factor in the density cancels exactly.
        """
        if obs.n_sensors != self.scene.n_sensors:
            raise ValueError("observation dimension does not match the scene")
        factors, logdets = self.memo("factors", None, lambda: self._build_factors(obs.t))
        rhs = np.column_stack([obs.y, obs.alpha])
        z = np.stack([solve_triangular(factor, rhs, lower=True, check_finite=False) for factor in factors])
        sums = np.einsum("gni,gnj->gij", z, z)[self.group_index]
        s_yy, s_ya, s_aa = sums[:, 0, 0], sums[:, 0, 1], sums[:, 1, 1]
        mus = self.mus
        loglam = -0.5 * (s_yy - 2.0 * mus * s_ya + mus * mus * s_aa + logdets[self.group_index])
        top = loglam.max()
        if not np.isfinite(top):
            raise DegenerateLikelihoodError(top)
        return np.exp(loglam - top)

    def step(self, obs: ObservationBatch) -> np.ndarray:
        """Advance the belief by one observation; returns a belief snapshot.

        If the likelihood annihilates every cell the prior supports (an
        outlier observation), the belief resets to uniform and the event is
        recorded rather than aborting the run.
        """
        likelihood = self.likelihood_vector(obs)
        prior = self.P @ self.belief
        belief = _normalized_update(likelihood, prior)
        if belief is None:
            warnings.warn(f"belief reset to uniform at t={obs.t}: observation killed all supported cells", stacklevel=2)
            self.reset_events.append(obs.t)
            belief = uniform_belief(self.n_cells)
        self.belief = belief
        return belief.copy()

    def estimate(self) -> np.ndarray:
        """State estimate ``X P^rho b``, the session's horizon ``rho`` steps past the last observation."""
        return self.X_rho @ self.belief

    def run_tracking(self, observations: Sequence[ObservationBatch], on_record=None) -> list[TrackRecord]:
        """Process time-ordered observations; one record per observation.

        An empty sequence yields the single record available before any
        data: the initial belief and its estimate, at ``t = -1``.  When
        given, ``on_record(session, obs, record)`` runs after each update,
        e.g. to evaluate gain maps at selected timesteps.
        """
        if not len(observations):
            return [TrackRecord(-1, self.belief.copy(), self.estimate())]
        records = []
        last_t = None
        with single_thread_blas():
            for obs in observations:
                if last_t is not None and obs.t <= last_t:
                    raise ValueError("observations must be strictly time-ordered")
                last_t = obs.t
                belief = self.step(obs)
                record = TrackRecord(obs.t, belief, self.estimate())
                records.append(record)
                if on_record is not None:
                    on_record(self, obs, record)
        return records


def _dense_likelihood_table(
    grid: GridSpec, scene: ChannelScene, observations: Sequence[ObservationBatch]
) -> np.ndarray:
    """Likelihood of each observation at each cell via explicit inverse/determinant.

    This is the independent dense route used by the enumeration oracle; each
    row is rescaled by its maximum, a per-timestep constant that cancels in
    any normalized posterior.
    """
    centers = reconstruction_matrix(grid)
    table = np.empty((len(observations), grid.n_cells))
    for k, obs in enumerate(observations):
        for j in range(grid.n_cells):
            x = centers[:, j]
            cov = build_obs_covariance(scene, obs.t, scene.state_map.theta_of(x))
            resid = obs.y - obs.alpha * scene.state_map.mu_of(x)
            quad = resid @ np.linalg.inv(cov) @ resid
            table[k, j] = np.exp(-0.5 * quad) / np.sqrt(np.linalg.det(cov))
        table[k] /= table[k].max()
    return table


def brute_force_posterior(
    grid: GridSpec,
    transition: TransitionMatrix,
    scene: ChannelScene,
    observations: Sequence[ObservationBatch],
    initial_belief: np.ndarray,
) -> np.ndarray:
    """Exact filtering posteriors by exhaustive path enumeration.

    Maintains the full joint weight tensor over cell paths (including the
    pre-observation cell) instead of collapsing it recursively: entry
    ``[j, l_0, ..., l_t]`` is the product of the initial weight, the
    transition probabilities along the path and the likelihood of every
    observation.  Row ``t`` of the result is the marginal of the terminal
    cell given observations up to ``t``.  Refuses runs whose path count
    exceeds ``PATH_BUDGET``.
    """
    n_obs = len(observations)
    if n_obs < 1:
        raise ValueError("need at least one observation")
    n = grid.n_cells
    if float(n) ** n_obs > PATH_BUDGET:
        raise ValueError(f"path enumeration budget exceeded: {n}^{n_obs} > {PATH_BUDGET:g}")
    initial = np.asarray(initial_belief, dtype=float)
    with single_thread_blas():
        table = _dense_likelihood_table(grid, scene, observations)
        jump = transition.matrix.T  # jump[j, i] = P(next = i | current = j)

        joint = initial[:, None] * jump * table[0]
        posteriors = np.empty((n_obs, n))
        for k in range(n_obs):
            if k:
                joint = joint[..., None] * jump * table[k]
            marg = joint.sum(axis=tuple(range(joint.ndim - 1)))
            posteriors[k] = marg / marg.sum()
    return posteriors
