"""Wireless observation layer: path loss, shadowing kernel, covariances, sampling.

Every sensor measures the channel magnitude relative to a fixed reference
antenna, in dB.  Conditionally on the hidden state, a measurement is the
sum of a path-loss term ``alpha_i * mu`` with ``alpha_i = -10 log10(d_i)``,
a zero-mean jointly Gaussian shadowing field with the one spatial kernel of
the model, the isotropic exponential ``theta1 * exp(-d / theta2)``, and
white multipath noise.  All gains are in dB and all distances in meters;
no unit conversion happens inside these functions.

Observations and the gain-map truth are one draw of the field: an
observation is the joint draw over the sensors with no query points, so
co-located sensors share one shadowing value.  The field is drawn one of
two ways, chosen from the distinct points alone.  When they fill a complete
regular ``nx x ny`` lattice, it is drawn exactly by circulant embedding
(Wood & Chan 1994; Dietrich & Newsam 1997): FFTs only, no BLAS, so the
draw does not depend on the BLAS thread count.  Any other point set, or a
kernel with no nonnegative embedding within the size bound, takes the dense
Cholesky factorization of the full covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .util import as_rng

__all__ = [
    "D_MIN",
    "NumericsWarning",
    "StateCoord",
    "StateToChannelMap",
    "ChannelScene",
    "ObservationBatch",
    "kernel_eval",
    "path_loss_coeffs",
    "point_path_loss",
    "build_covariance",
    "build_obs_covariance",
    "cross_covariance",
    "gaussian_unnormalized_loglik",
    "sample_observation",
    "sample_joint_field",
    "kernel_basis",
    "kernel_classes",
    "observation_conditioning",
]

# Guard against the log10 singularity at the reference antenna.
D_MIN = 1e-6


class NumericsWarning(UserWarning):
    """Raised when a covariance factorization needed diagonal jitter."""


def kernel_eval(d, theta) -> np.ndarray:
    """Shadowing kernel ``theta1 * exp(-d / theta2)`` at distance ``d`` (broadcasts over ``d`` and ``theta``).

    ``theta`` carries ``(theta1, theta2)`` on its last axis: the shadowing
    power (dB^2) and the correlation distance (m).
    """
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t1 = theta[..., 0]
    t2 = theta[..., 1]
    if (t2 <= 0.0).any():
        raise ValueError("correlation distance theta2 must be > 0")
    if (t1 < 0.0).any():
        raise ValueError("shadowing power theta1 must be >= 0")
    return t1 * np.exp(-d / t2)


@dataclass(frozen=True)
class StateCoord:
    """Marks a kernel parameter as bound to a state coordinate."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("state coordinate index must be >= 0")


Binding = Union[StateCoord, float]


@dataclass(frozen=True)
class StateToChannelMap:
    """How the hidden state feeds the observation layer.

    ``mu_index`` names the state coordinate holding the path-loss exponent;
    each of the two kernel parameters is either bound to a state coordinate
    or fixed to a constant.
    """

    mu_index: int
    theta_bindings: tuple[Binding, ...]

    def __post_init__(self):
        if self.mu_index < 0:
            raise ValueError("mu_index must be >= 0")
        bindings = tuple(
            b if isinstance(b, StateCoord) else float(b) for b in self.theta_bindings
        )
        bound = [self.mu_index] + [b.index for b in bindings if isinstance(b, StateCoord)]
        if len(set(bound)) != len(bound):
            raise ValueError("bound state coordinates must be distinct")
        object.__setattr__(self, "theta_bindings", bindings)

    @property
    def state_dim_required(self) -> int:
        bound = [self.mu_index] + [b.index for b in self.theta_bindings if isinstance(b, StateCoord)]
        return max(bound) + 1

    def mu_of(self, x) -> np.ndarray:
        """Path-loss exponent of state(s) ``x`` (state on the last axis)."""
        return np.asarray(x, dtype=float)[..., self.mu_index]

    def theta_of(self, x) -> np.ndarray:
        """Kernel parameter vector(s) of state(s) ``x``; parameters on the last axis."""
        x = np.asarray(x, dtype=float)
        parts = []
        for b in self.theta_bindings:
            if isinstance(b, StateCoord):
                parts.append(x[..., b.index])
            else:
                parts.append(np.broadcast_to(b, x.shape[:-1]))
        return np.stack(parts, axis=-1)


@dataclass(frozen=True)
class ChannelScene:
    """Geometry and noise model shared by all observation-layer operations.

    ``sensors`` is either a static ``(N, 2)`` position array or a scripted
    ``(T, N, 2)`` sequence for known sensor mobility; the pairwise distances
    of static sensors are computed once.  ``sigma_xi_sq`` is the
    multipath noise variance in dB^2; zero is permitted only for analytic
    test modes (the observation covariance then loses its diagonal loading).
    """

    ref_pos: np.ndarray
    sensors: np.ndarray
    sigma_xi_sq: float
    state_map: StateToChannelMap

    def __post_init__(self):
        ref = np.asarray(self.ref_pos, dtype=float)
        if ref.shape != (2,):
            raise ValueError(f"ref_pos must have shape (2,), got {ref.shape}")
        sens = np.asarray(self.sensors, dtype=float)
        if sens.ndim not in (2, 3) or sens.shape[-1] != 2 or sens.shape[-2] == 0:
            raise ValueError(f"sensors must have shape (N, 2) or (T, N, 2) with N >= 1, got {sens.shape}")
        if not np.all(np.isfinite(sens)) or not np.all(np.isfinite(ref)):
            raise ValueError("positions must be finite")
        if not 0.0 <= self.sigma_xi_sq < np.inf:
            raise ValueError("sigma_xi_sq must be finite and >= 0")
        if len(self.state_map.theta_bindings) != 2:
            raise ValueError("state map must bind exactly the kernel's 2 parameters")
        d = np.linalg.norm(sens - ref, axis=-1)
        if np.any(d < D_MIN):
            i = int(np.argwhere(d.reshape(-1, d.shape[-1]) < D_MIN)[0][-1])
            raise ValueError(f"sensor {i} is closer than {D_MIN} m to the reference antenna")
        object.__setattr__(self, "ref_pos", ref)
        object.__setattr__(self, "sensors", sens)
        object.__setattr__(self, "sigma_xi_sq", float(self.sigma_xi_sq))
        if sens.ndim == 2:
            dist = cdist(sens, sens)
            dist.flags.writeable = False
            object.__setattr__(self, "_static_distances", dist)

    @property
    def n_sensors(self) -> int:
        return self.sensors.shape[-2]

    @property
    def static(self) -> bool:
        return self.sensors.ndim == 2

    def sensors_at(self, t: int) -> np.ndarray:
        if self.static:
            return self.sensors
        if not 0 <= t < self.sensors.shape[0]:
            raise ValueError(f"no scripted sensor positions for time {t}")
        return self.sensors[t]

    def sensor_distances(self, t: int) -> np.ndarray:
        """Pairwise sensor distances at time ``t``, shape ``(N, N)``."""
        if self.static:
            return self._static_distances
        pts = self.sensors_at(t)
        return cdist(pts, pts)


@dataclass(frozen=True)
class ObservationBatch:
    """One timestep of dB-scale measurements with their path-loss coefficients."""

    t: int
    y: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        if y.shape != a.shape:
            raise ValueError("y and alpha must have the same length")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(a))):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "alpha", a)

    @property
    def n_sensors(self) -> int:
        return self.y.shape[0]


def point_path_loss(ref_pos, points, label: str = "point") -> np.ndarray:
    """Path-loss coefficients ``-10 log10 ||p - ref||`` for arbitrary points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = np.linalg.norm(pts - np.asarray(ref_pos, dtype=float), axis=-1)
    if (d < D_MIN).any():
        i = int(np.argmin(d))
        raise ValueError(f"{label} {i} is closer than {D_MIN} m to the reference antenna")
    return -10.0 * np.log10(d)


def path_loss_coeffs(scene: ChannelScene, t: int = 0) -> np.ndarray:
    """Per-sensor path-loss coefficients at time ``t``."""
    return point_path_loss(scene.ref_pos, scene.sensors_at(t), label="sensor")


def build_covariance(scene: ChannelScene, t: int, theta) -> np.ndarray:
    """Conditional shadowing covariance over the sensors at time ``t``."""
    return kernel_eval(scene.sensor_distances(t), theta)


def build_obs_covariance(scene: ChannelScene, t: int, theta) -> np.ndarray:
    """Observation covariance: shadowing covariance plus multipath loading."""
    c = build_covariance(scene, t, theta)
    c.flat[:: scene.n_sensors + 1] += scene.sigma_xi_sq
    return c


def cross_covariance(scene: ChannelScene, t: int, q, theta) -> np.ndarray:
    """Shadowing covariance between an arbitrary point ``q`` and each sensor."""
    q = np.asarray(q, dtype=float).reshape(2)
    d = np.linalg.norm(scene.sensors_at(t) - q, axis=-1)
    return kernel_eval(d, theta)


def gaussian_unnormalized_loglik(y, mean, cov) -> float:
    """Log of the Gaussian density without its ``(2 pi)^(-N/2)`` constant.

    Computed through a Cholesky factorization (triangular solves, never an
    explicit inverse); factorization failure raises ``LinAlgError``.
    """
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    factor = np.linalg.cholesky(np.asarray(cov, dtype=float))
    z = solve_triangular(factor, y - mean, lower=True, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(factor)))
    return float(-0.5 * (z @ z) - 0.5 * logdet)


def _chol_psd(sigma: np.ndarray, theta1: float) -> np.ndarray:
    """Cholesky factor of a shadowing covariance, tolerating semidefiniteness.

    An all-zero matrix (no shadowing) factors to zero.  Otherwise a failed
    factorization is retried once with ``1e-10 * theta1`` diagonal jitter,
    which is reported as a :class:`NumericsWarning`.
    """
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        if not sigma.any():
            return np.zeros_like(sigma)
        jitter = 1e-10 * float(theta1)
        warnings.warn(
            f"shadowing covariance is not positive definite; retrying with {jitter:.3e} diagonal jitter",
            NumericsWarning,
            stacklevel=5,
        )
        return np.linalg.cholesky(sigma + jitter * np.eye(sigma.shape[0]))


def _stable_unique_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate rows byte for byte (``-0.0`` and ``0.0`` differ), preserving first-occurrence order."""
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return points[first[order]], np.argsort(order)[inverse]


def _lattice_index(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Axis steps and integer ``(ix, iy)`` coordinates of distinct points filling a regular lattice.

    ``None`` unless both axes hold at least 2 distinct values with steps
    uniform to 1e-9 relative, and every ``nx x ny`` lattice site is present.
    """
    axes = [np.unique(points[:, k]) for k in range(2)]
    if min(len(a) for a in axes) < 2 or len(points) != len(axes[0]) * len(axes[1]):
        return None
    steps = np.array([(a[-1] - a[0]) / (len(a) - 1) for a in axes])
    if any(np.max(np.abs(np.diff(a) - h)) > 1e-9 * h for a, h in zip(axes, steps)):
        return None
    return steps, np.column_stack([np.searchsorted(a, points[:, k]) for k, a in enumerate(axes)])


def _circulant_eigenvalues(theta, steps, shape) -> np.ndarray | None:
    """Eigenvalues of a nonnegative-definite circulant embedding of a lattice covariance.

    Each axis of ``n`` sites is embedded in the next power of two >= 2(n - 1),
    doubled at most three times until the smallest eigenvalue is at least
    ``-1e-10`` times the largest; that roundoff is clipped to zero.  ``None``
    when no size qualifies.
    """
    sizes = [1 << int(2 * n - 3).bit_length() for n in shape]
    for _ in range(4):
        lags = [np.minimum(np.arange(m), m - np.arange(m)) * h for m, h in zip(sizes, steps)]
        lam = np.fft.fft2(kernel_eval(np.hypot(lags[0][:, None], lags[1][None, :]), theta)).real
        if lam.min() >= -1e-10 * lam.max():
            return np.clip(lam, 0.0, None)
        sizes = [2 * m for m in sizes]
    return None


def _field_draws(theta, points: np.ndarray, rng, size: int | None) -> np.ndarray:
    """Zero-mean shadowing draws at distinct ``points``, shape ``(len(points),)`` or ``(size, len(points))``.

    A complete regular lattice with an admissible embedding is drawn as
    ``Re fft2(sqrt(lam / M) (e1 + i e2))`` at the lattice sites; every other
    input factors the dense covariance.
    """
    lattice = _lattice_index(points)
    if lattice is not None:
        steps, index = lattice
        lam = _circulant_eigenvalues(theta, steps, index.max(axis=0) + 1)
        if lam is not None:
            batch = () if size is None else (size,)
            eps = rng.standard_normal((*batch, 2, *lam.shape))
            z = np.fft.fft2(np.sqrt(lam / lam.size) * (eps[..., 0, :, :] + 1j * eps[..., 1, :, :])).real
            return z[..., index[:, 0], index[:, 1]]
    factor = _chol_psd(kernel_eval(cdist(points, points), theta), theta[0])
    if size is None:
        return factor @ rng.standard_normal(len(points))
    return rng.standard_normal((size, len(points))) @ factor.T


def _draw(scene: ChannelScene, t: int, x, q: np.ndarray, rng, size: int | None):
    """The joint draw behind :func:`sample_observation` and :func:`sample_joint_field`; ``q`` is ``(Q, 2)``."""
    rng = as_rng(rng)
    theta = scene.state_map.theta_of(x)
    mu = scene.state_map.mu_of(x)
    alpha = path_loss_coeffs(scene, t)
    alpha_q = point_path_loss(scene.ref_pos, q, label="query point") if len(q) else np.empty(0)

    uniq, inverse = _stable_unique_rows(np.vstack([scene.sensors_at(t), q]))
    shadow = _field_draws(theta, uniq, rng, size)[..., inverse]

    n = scene.n_sensors
    batch = () if size is None else (size,)
    y = alpha * mu + shadow[..., :n] + np.sqrt(scene.sigma_xi_sq) * rng.standard_normal((*batch, n))
    field = alpha_q * mu + shadow[..., n:]
    return (ObservationBatch(t=t, y=y, alpha=alpha) if size is None else y), field


def sample_observation(scene: ChannelScene, t: int, x, rng) -> ObservationBatch:
    """Draw sensor observations conditional on state ``x``: the joint field draw with no query points."""
    return _draw(scene, t, x, np.empty((0, 2)), rng, None)[0]


def sample_joint_field(scene: ChannelScene, t: int, x, query_points, rng, size: int | None = None):
    """One coherent draw of sensor observations and the noiseless gain field.

    The shadowing field is drawn jointly over the stacked sensor and query
    positions (coincident points share a single draw), multipath noise is
    added at the sensors only, and query values are the noiseless channel
    gain ``alpha_q * mu + shadowing``.  Returns ``(observations, field)``;
    with integer ``size`` the observation part is the raw ``(size, N)``
    array and the field has shape ``(size, Q)``.

    When the distinct positions fill a complete regular lattice (at least
    2 x 2 sites, uniform steps per axis), the field is drawn exactly by FFT
    circulant embedding; otherwise, or when the kernel has no nonnegative
    embedding within the size bound, by a dense Cholesky factorization.
    """
    return _draw(scene, t, x, np.asarray(query_points, dtype=float).reshape(-1, 2), rng, size)


def kernel_basis(scene: ChannelScene, t: int, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(lam, U)`` of the unit-power kernel ``exp(-d / theta2)`` over the sensors at time ``t``.

    ``lam`` ascends.  Every observation covariance of this correlation
    distance shares the basis: ``theta1 R + sigma_xi_sq I = U diag(theta1 lam + sigma_xi_sq) U^T``.
    """
    return np.linalg.eigh(kernel_eval(scene.sensor_distances(t), (1.0, theta2)))


def kernel_classes(scene: ChannelScene, t: int, theta2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct ``theta2``, one :func:`kernel_basis`: ``(ranges (C,), class_index, lam (C, N), U (C, N, N))``."""
    ranges, class_index = np.unique(theta2, return_inverse=True)
    lam, vecs = zip(*(kernel_basis(scene, t, distance) for distance in ranges))
    return ranges, class_index, np.stack(lam), np.stack(vecs)


def observation_conditioning(scene: ChannelScene, t: int, thetas) -> float:
    """Smallest observation-covariance eigenvalue over the given parameter rows.

    It is ``min_u (theta1_u lam_min + sigma_xi_sq)``, with ``lam_min`` from
    the :func:`kernel_classes` of the rows' ``theta2``.  A value at or below 1
    is reported as a warning (the filter tolerates it; rescaling the
    observations restores the margin).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    kernel_eval(0.0, thetas)
    _, range_class, lam, _ = kernel_classes(scene, t, thetas[:, 1])
    floor = float(np.min(thetas[:, 0] * lam[range_class, 0] + scene.sigma_xi_sq))
    if floor <= 1.0:
        warnings.warn(
            f"observation covariance eigenvalue floor {floor:.4g} <= 1; consider rescaling observations",
            NumericsWarning,
            stacklevel=2,
        )
    return floor
