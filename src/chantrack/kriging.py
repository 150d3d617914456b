"""Sequential channel-gain prediction at arbitrary spatial points.

For the filtering horizon (``rho = 0``) the predicted gain at a query point
is the belief-weighted average, over grid cells, of the Gaussian
conditional mean of the gain given that cell's state and the current
observations.  The average is linear in the belief, and the cells of one
kernel-parameter group ``u`` share their covariance solves, with ``w_u``
the group's belief mass and ``m_u`` its mu-weighted mass.  The kernel
``theta1 exp(-d / theta2)`` is linear in the shadowing power, so the groups
that share a correlation distance form one class ``c``, and every group of
a class is diagonal on one basis: the eigenpairs ``(lam_c, U_c)`` of the
unit-power kernel ``R_c`` over the sensors (:func:`channel.kernel_classes`),
``theta1_u R_c + sigma_xi_sq I = U_c diag(theta1_u lam_c + sigma_xi_sq) U_c^T``
(the FaST-LMM diagonalisation, Lippert et al. 2011).  With ``y~ = U_c^T y``,
``alpha~ = U_c^T alpha`` and ``prec_u = 1 / (theta1_u lam_c + sigma_xi_sq)``,
``pred(q) = alpha_q E[mu] + sum_c K_c(q) . U_c sum_{u in c} theta1_u prec_u o (w_u y~ - m_u alpha~)``
with the unit-power kernel blocks ``K_c = k(q, sensors; 1, theta2_c)``.
At a session horizon ``rho >= 1`` the observation carries no extra
information beyond the propagated state belief, so the prediction reduces
to the query's path-loss coefficient times the predicted path-loss exponent.
``predict_gain_map`` is the one prediction route; a single point is a
one-point :class:`QuerySpec`, and :func:`kriging_mean`, which factors each
cell's covariance by Cholesky, is its referee.

When the sensors are static, nothing but the belief and the observation
changes between maps.  So what the rest depends on goes into the session's
one memo, :meth:`GridFilter.memo`: the classes and their eigenpairs,
``(C, N)`` values and ``(C, N, N)`` vectors, built at the first map, and,
for the last :class:`QuerySpec` mapped, the query path-loss coefficients
and the ``(C, Q, N)`` kernel blocks (``C Q N 8`` bytes; 0.86 MB for 3,600
points, 30 sensors and one correlation distance).  A map is then
``O(C N^2 + G N)`` work before the ``O(C Q N)`` contraction with the
blocks.  The memo hands moving sensors a fresh build of both on every
call, through the same functions, so static and scripted sessions give
bitwise equal maps.
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
    kernel_classes,
    kernel_eval,
    point_path_loss,
)
from .filtering import GridFilter

__all__ = ["QuerySpec", "kriging_mean", "predict_gain_map"]


@dataclass(frozen=True)
class QuerySpec:
    """A batch of spatial query points; the horizon is the session's.

    ``points`` is a read-only copy of the caller's array, so a map memo keyed
    on the spec cannot go stale.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"query points must have shape (Q >= 1, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("query points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

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


def _query_blocks(session: GridFilter, obs: ObservationBatch, queries: QuerySpec, ranges: np.ndarray):
    """The query path-loss coefficients ``(Q,)`` and unit-power kernel blocks ``(C, Q, N)``, one per ``theta2``."""
    scene = session.scene
    alpha_q = point_path_loss(scene.ref_pos, queries.points, label="query point")
    d = cdist(queries.points, scene.sensors_at(obs.t))
    return alpha_q, np.stack([kernel_eval(d, (1.0, distance)) for distance in ranges])


def predict_gain_map(session: GridFilter, obs: ObservationBatch, queries: QuerySpec) -> np.ndarray:
    """Predicted gain at every query point of a :class:`QuerySpec`, at the session's horizon.

    For ``rho = 0`` this is the spectral sum of the module docstring over
    the classes ``c`` of parameter groups with equal correlation distance
    ``theta2``: one eigenbasis ``(lam_c, U_c)`` and one unit-power kernel
    block ``K_c`` per distinct ``theta2`` (one when it is a constant), and
    ``y`` and ``alpha`` rotated once per class.  The classes with their
    eigenpairs, and ``alpha_q`` and the ``(C, Q, N)`` blocks (``C Q N 8``
    bytes) of the last ``queries`` seen, go through ``session.memo``: with
    static sensors a repeated map evaluates no kernel and factors nothing;
    moving sensors rebuild them on every call.  Each ``(Q, N)`` block is
    reduced with ``einsum``, not a BLAS GEMV, so a point's value does not
    depend on how many points share the call.
    """
    scene = session.scene
    if obs.n_sensors != scene.n_sensors:
        raise ValueError("observation dimension does not match the scene")
    if session.rho:
        alpha_q = point_path_loss(scene.ref_pos, queries.points, label="query point")
        return alpha_q * session.estimate()[scene.state_map.mu_index]
    theta1, theta2 = session.group_thetas.T
    ranges, group_class, lam, vecs = session.memo("bases", None, lambda: kernel_classes(scene, obs.t, theta2))
    alpha_q, kernels = session.memo("queries", queries, lambda: _query_blocks(session, obs, queries, ranges))
    belief = session.belief
    n_groups = len(session.group_thetas)
    mass = np.bincount(session.group_index, weights=belief, minlength=n_groups)
    mu_mass = np.bincount(session.group_index, weights=session.mus * belief, minlength=n_groups)
    y_rot = np.einsum("cnk,n->ck", vecs, obs.y)[group_class]
    alpha_rot = np.einsum("cnk,n->ck", vecs, obs.alpha)[group_class]
    prec = 1.0 / (theta1[:, None] * lam[group_class] + scene.sigma_xi_sq)
    spectral = np.zeros((len(ranges), obs.n_sensors))
    np.add.at(spectral, group_class, theta1[:, None] * prec * (mass[:, None] * y_rot - mu_mass[:, None] * alpha_rot))
    coeffs = np.einsum("cnk,ck->cn", vecs, spectral)
    pred = alpha_q * (session.mus @ belief)
    # one einsum per class: a single "cqn,cn->q" coalesces c with n when
    # Q = 1 and so sums a point's terms in an order that depends on Q
    for block, c in zip(kernels, coeffs):
        pred += np.einsum("qn,n->q", block, c)
    return pred
