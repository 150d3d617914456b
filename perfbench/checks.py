"""Output checks for the benchmark's operations, run outside the timed regions.

Each reference here recomputes a result through a different public route
than the one timed, so a kernel rewrite that changes the numbers is caught.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from chantrack import channel, grid as gridmod, kriging

SIMPLEX_TOL = 1e-12
REFERENCE_TOL = 1e-10
MAP_REL_TOL = 1e-9


def on_simplex(belief) -> bool:
    b = np.asarray(belief)
    return bool(np.all(np.isfinite(b)) and np.all(b >= 0.0) and abs(b.sum() - 1.0) <= SIMPLEX_TOL)


def reference_update(grid, transition, scene, prev_belief, obs) -> np.ndarray:
    """One filter update from per-cell Gaussian densities and ``P @ b_prev``."""
    centers = gridmod.reconstruction_matrix(grid).T
    loglik = np.array(
        [
            channel.gaussian_unnormalized_loglik(
                obs.y,
                obs.alpha * scene.state_map.mu_of(x),
                channel.build_obs_covariance(scene, obs.t, scene.state_map.theta_of(x)),
            )
            for x in centers
        ]
    )
    post = np.exp(loglik - loglik.max()) * (transition.matrix @ prev_belief)
    return post / post.sum()


def update_error(grid, transition, scene, prev_belief, obs, belief) -> float:
    """Largest belief difference between the filter and :func:`reference_update`."""
    return float(np.max(np.abs(reference_update(grid, transition, scene, prev_belief, obs) - belief)))


def reference_gain(grid, scene, belief, obs, query) -> float:
    """Belief-weighted single-point ``kriging_mean``; zero-weight cells add exactly nothing."""
    centers = gridmod.reconstruction_matrix(grid).T
    support = np.flatnonzero(belief)
    return float(sum(belief[l] * kriging.kriging_mean(centers[l], obs, query, scene) for l in support))


def map_ok(grid, scene, belief, obs, queries, gain_map, probe: int) -> bool:
    """The map is finite and matches :func:`reference_gain` at query ``probe``."""
    gain_map = np.asarray(gain_map)
    if gain_map.shape != (len(queries),) or not np.all(np.isfinite(gain_map)):
        return False
    ref = reference_gain(grid, scene, belief, obs, queries[probe])
    return abs(gain_map[probe] - ref) <= MAP_REL_TOL * max(abs(ref), 1.0)


def _rows(path: Path) -> int:
    return len(path.read_text().splitlines())


def experiment_digest(cfg, metrics) -> str | None:
    """SHA-256 over the run's CSVs, or None when an artifact is missing or malformed.

    Expects the state trace with one row per timestep plus a header, one map
    per snapshot with one row per query point plus a header, and both JSON
    files.
    """
    out = Path(cfg.out_dir)
    expected = {out / "state_trace.csv": cfg.timesteps + 1}
    n_queries = cfg.query_grid.nx * cfg.query_grid.ny
    expected.update({out / f"map_t{k}.csv": n_queries + 1 for k in cfg.map_snapshots})
    written = set(metrics.artifacts)
    for path in [*expected, out / "metrics.json", out / "config_echo.json"]:
        if path not in written or not path.is_file():
            return None
    if any(_rows(path) != rows for path, rows in expected.items()):
        return None
    digest = hashlib.sha256()
    for path in sorted(expected):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
