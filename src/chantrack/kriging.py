"""Sequential channel-gain prediction at arbitrary spatial points.

For the filtering horizon (``rho = 0``) the predicted gain at a query point
is the belief-weighted average, over grid cells, of the Gaussian
conditional mean of the gain given that cell's state and the current
observations.  The average is linear in the belief, and the cells of one
kernel-parameter group ``u`` share their covariance solves ``v_y, v_alpha``,
with ``w_u`` the group's belief mass and ``m_u`` its mu-weighted mass.  The
kernel ``theta1 exp(-d / theta2)`` is linear in the shadowing power, so the
groups that share a correlation distance form one class ``c`` and
``pred(q) = alpha_q E[mu] + sum_c k(q, sensors; 1, theta2_c) . sum_{u in c} theta1_u (w_u v_y,u - m_u v_alpha,u)``:
one kernel pass over the query-sensor distances per distinct ``theta2``.  For
``rho >= 1`` the observation carries no extra information beyond the
propagated state belief, so the prediction reduces to the query's
path-loss coefficient times the predicted path-loss exponent.
``predict_gain_map`` is the one prediction route; ``predict_gain`` is the
map on one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

from .channel import (
    ObservationBatch,
    build_obs_covariance,
    cross_covariance,
    kernel_eval,
    point_path_loss,
)
from .filtering import GridFilter
from .markov import horizon_steps
from .util import single_thread_blas

__all__ = ["QuerySpec", "kriging_mean", "gain_profile", "predict_gain", "predict_gain_map"]


@dataclass(frozen=True)
class QuerySpec:
    """A batch of spatial query points and the prediction horizon."""

    points: np.ndarray
    rho: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"query points must have shape (Q >= 1, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("query points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "rho", horizon_steps(self.rho))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def kriging_mean(x, obs: ObservationBatch, query, scene) -> float:
    """Conditional mean of the gain at ``query`` given state ``x`` and observations.

    Reference single-point route: factorizes the observation covariance of
    this one state and solves against the innovation (never an explicit
    inverse).
    """
    x = np.asarray(x, dtype=float)
    theta = scene.state_map.theta_of(x)
    mu = float(scene.state_map.mu_of(x))
    alpha_q = float(point_path_loss(scene.ref_pos, np.asarray(query, dtype=float)[None, :], label="query point")[0])
    cov = build_obs_covariance(scene, obs.t, theta)
    factor = np.linalg.cholesky(cov)
    cross = cross_covariance(scene, obs.t, query, theta)
    innovation = obs.y - obs.alpha * mu
    return alpha_q * mu + float(cross @ cho_solve((factor, True), innovation, check_finite=False))


def _cell_solves(session: GridFilter, obs: ObservationBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per parameter group, the covariance solves against ``y`` and ``alpha``.

    The cell residual is affine in the cell's path-loss exponent, so solving
    for ``y`` and ``alpha`` once per group covers every cell and every query.
    """
    n_groups = len(session.group_thetas)
    v_y = np.empty((n_groups, obs.n_sensors))
    v_alpha = np.empty_like(v_y)
    with single_thread_blas():
        for u, (factor, _) in enumerate(session.factors_at(obs.t)):
            key = (factor, True)
            v_y[u] = cho_solve(key, obs.y, check_finite=False)
            v_alpha[u] = cho_solve(key, obs.alpha, check_finite=False)
    return v_y, v_alpha


def gain_profile(session: GridFilter, obs: ObservationBatch, query) -> np.ndarray:
    """Conditional gain mean at ``query`` evaluated at every reconstruction point."""
    if obs.n_sensors != session.scene.n_sensors:
        raise ValueError("observation dimension does not match the scene")
    scene = session.scene
    query = np.asarray(query, dtype=float)
    alpha_q = float(point_path_loss(scene.ref_pos, query[None, :], label="query point")[0])
    d = np.linalg.norm(scene.sensors_at(obs.t) - query, axis=-1)
    cross = kernel_eval(d[None, :], session.group_thetas[:, None, :])
    v_y, v_alpha = _cell_solves(session, obs)
    s_y = np.einsum("un,un->u", cross, v_y)[session.group_index]
    s_alpha = np.einsum("un,un->u", cross, v_alpha)[session.group_index]
    mu = session.mus
    return alpha_q * mu + (s_y - mu * s_alpha)


def predict_gain(session: GridFilter, obs: ObservationBatch, query, rho: int | None = None) -> float:
    """Predicted gain at ``query``, ``rho`` steps past the last observation.

    The gain map of :func:`predict_gain_map` on the one point ``query``;
    ``rho`` defaults to the session's horizon.
    """
    rho = session.rho if rho is None else rho
    return float(predict_gain_map(session, obs, QuerySpec(np.asarray(query, dtype=float)[None, :], rho))[0])


def predict_gain_map(session: GridFilter, obs: ObservationBatch, queries: QuerySpec) -> np.ndarray:
    """Predicted gain at every query point of a :class:`QuerySpec`.

    For ``rho = 0``,
    ``alpha_q (mus @ belief) + sum_c k(q, sensors; 1, theta2_c) . sum_{u in c} theta1_u (w_u v_y,u - m_u v_alpha,u)``
    over the classes ``c`` of parameter groups ``u`` with equal correlation
    distance ``theta2``: the number of kernel passes is the number of distinct
    ``theta2`` values (one when it is a constant).  Each ``(Q, N)`` kernel
    block is reduced with ``einsum``, not a BLAS GEMV, so a point's value does
    not depend on how many points share the call.
    """
    if obs.n_sensors != session.scene.n_sensors:
        raise ValueError("observation dimension does not match the scene")
    scene = session.scene
    alpha_q = point_path_loss(scene.ref_pos, queries.points, label="query point")
    if queries.rho:
        return alpha_q * session.estimate(queries.rho)[scene.state_map.mu_index]
    belief = session.belief
    n_groups = len(session.group_thetas)
    mass = np.bincount(session.group_index, weights=belief, minlength=n_groups)
    mu_mass = np.bincount(session.group_index, weights=session.mus * belief, minlength=n_groups)
    v_y, v_alpha = _cell_solves(session, obs)
    theta1, theta2 = session.group_thetas.T
    ranges, group_class = np.unique(theta2, return_inverse=True)
    coeffs = np.zeros((len(ranges), obs.n_sensors))
    np.add.at(coeffs, group_class, theta1[:, None] * (mass[:, None] * v_y - mu_mass[:, None] * v_alpha))
    d = cdist(queries.points, scene.sensors_at(obs.t))
    pred = alpha_q * (session.mus @ belief)
    for distance, c in zip(ranges, coeffs):
        pred += np.einsum("qn,n->q", kernel_eval(d, (1.0, distance)), c)
    return pred
