"""Studies the acceptance criteria run on top of the pipeline: the observation-free baseline and the L sweep.

No CLI command, config or benchmark workload reaches them, so they live
beside the tests that use them.  pytest does not collect this file.
"""

import numpy as np

from chantrack.filtering import GridFilter
from chantrack.grid import GridSpec, reconstruction_matrix
from chantrack.harness import ScenarioConfig, build, build_scene, estimate_transition, simulate, streams
from chantrack.markov import TransitionMatrix, initial_belief, propagate_profile
from chantrack.util import single_thread_blas


def prior_baseline(cfg: ScenarioConfig, transition: TransitionMatrix | None = None) -> np.ndarray:
    """Observation-free estimates: the prior chain pushed through time.

    Row ``t`` is the estimate a filter would produce at observation time
    ``t`` had it never seen data.  Uses the same derived transition stream
    as ``run_experiment``, so a paired run shares the transition matrix.
    """
    grid, dyn, _, _ = build(cfg)
    if transition is None:
        transition = estimate_transition(cfg, dyn, grid, streams(cfg).transition)
    X_rho = propagate_profile(reconstruction_matrix(grid), transition.matrix, cfg.horizon)
    belief = initial_belief(dyn, grid)
    if cfg.timesteps == 0:
        return (X_rho @ belief)[None, :]
    out = np.empty((cfg.timesteps, grid.ndim))
    with single_thread_blas():
        for t in range(cfg.timesteps):
            belief = transition.matrix @ belief
            out[t] = X_rho @ belief
    return out


def l_sweep(cfg: ScenarioConfig, L_values, n_seeds: int = 20) -> list[tuple[int, float]]:
    """Tracking error of filters built at several grid resolutions.

    For each seed, one truth/observation stream is generated and replayed
    against a filter per resolution ``L`` (uniform ``L`` cells per axis);
    transition matrices are estimated once per resolution.  Returns rows
    ``(L, median RMSE of the first state coordinate over seeds)``.
    """
    L_values = [int(L) for L in L_values]
    trans_ss, *seed_ss = np.random.SeedSequence(cfg.seed).spawn(1 + n_seeds)
    dyn = build(cfg)[1]
    grids, transitions, priors = {}, {}, {}
    for L, sub in zip(L_values, trans_ss.spawn(len(L_values))):
        grid_l = GridSpec(cfg.grid.lower, cfg.grid.upper, (L,) * len(cfg.grid.cells))
        grids[L] = grid_l
        transitions[L] = estimate_transition(cfg, dyn, grid_l, np.random.default_rng(sub))
        priors[L] = initial_belief(dyn, grid_l)

    errors = {L: [] for L in L_values}
    T, rho = cfg.timesteps, cfg.horizon
    for ss in seed_ss:
        sensor_rng, truth_rng, obs_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        scene = build_scene(cfg, sensor_rng)
        trajectory, observations, _ = simulate(scene, dyn, T, rho, truth_rng, obs_rng)
        targets = np.stack([trajectory[t + 1 + rho] for t in range(T)]) if T else trajectory[[rho]]
        for L in L_values:
            session = GridFilter(grids[L], transitions[L], scene, priors[L], rho=rho)
            records = session.run_tracking(observations)
            estimates = np.stack([r.estimate for r in records])
            errors[L].append(float(np.sqrt(np.mean((estimates[:, 0] - targets[:, 0]) ** 2))))
    return [(L, float(np.median(errors[L]))) for L in L_values]
