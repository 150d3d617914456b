"""Acceptance suite: every criterion runs at its stated scale and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion.
"""

import time

import numpy as np
import pytest

from chantrack.channel import (
    ChannelScene,
    StateToChannelMap,
    build_obs_covariance,
    cross_covariance,
    gaussian_unnormalized_loglik,
    point_path_loss,
    sample_observation,
)
from chantrack.filtering import GridFilter, brute_force_posterior
from chantrack.grid import GridSpec, reconstruction_matrix
from chantrack.harness import (
    benchmark_config,
    build_dynamics,
    build_grid,
    build_scene,
    estimate_transition,
    query_points,
    random_small_scenario,
    run_experiment,
    simulate,
)
from chantrack.kriging import QuerySpec, kriging_mean, predict_gain_map
from chantrack.markov import (
    TransitionMatrix,
    estimate_transition_marginal,
    estimate_transition_markovian,
    finite_chain_dynamics,
    initial_belief,
)
from chantrack.util import single_thread_blas
from studies import l_sweep, prior_baseline

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def random_scene(rng, n_sensors, sigma_xi_sq=None):
    while True:
        sensors = rng.uniform(0.0, 40.0, (n_sensors, 2))
        d = np.linalg.norm(sensors[:, None] - sensors[None, :], axis=-1)
        if n_sensors == 1 or d[np.triu_indices(n_sensors, 1)].min() > 0.5:
            break
    return ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=sensors,
        sigma_xi_sq=float(rng.uniform(0.5, 3.0)) if sigma_xi_sq is None else sigma_xi_sq,
        state_map=StateToChannelMap(
            mu_index=0,
            theta_bindings=(float(rng.uniform(5.0, 30.0)), float(rng.uniform(4.0, 15.0))),
        ),
    )


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n_cells = int(rng.choice([2, 3, 4]))
        n_sensors = int(rng.choice([1, 2, 3]))
        steps = int(rng.choice([3, 4, 5, 6])) + 1
        grid, tm, scene, observations, prior = random_small_scenario(rng, n_cells, n_sensors, steps)
        session = GridFilter(grid, tm, scene, prior)
        beliefs = np.stack([r.belief for r in session.run_tracking(observations)])
        reference = brute_force_posterior(grid, tm, scene, observations, prior)
        worst = max(worst, float(np.max(np.abs(beliefs - reference))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report("criterion 1 (oracle equivalence)", ok, f"max L-inf {worst:.2e}, {elapsed:.1f}s over 50 scenarios")


def test_criterion_2_kriging_exactness():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    with single_thread_blas():
        for _ in range(100):
            n_sensors = int(rng.integers(1, 9))
            scene = random_scene(rng, n_sensors, sigma_xi_sq=0.0)
            n_cells = int(rng.integers(2, 7))
            grid = GridSpec((0.0,), (4.0,), (n_cells,))
            cols = rng.random((n_cells, n_cells)) + 0.1
            tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
            belief = rng.random(n_cells) + 0.01
            belief /= belief.sum()
            session = GridFilter(grid, tm, scene, belief)
            obs = sample_observation(scene, 0, rng.uniform([0.0], [4.0]), rng)
            j = int(rng.integers(n_sensors))
            err = abs(predict_gain_map(session, obs, QuerySpec(scene.sensors[j][None]))[0] - obs.y[j])
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report("criterion 2 (kriging exactness)", ok, f"max |pred - y_j| {worst:.2e}, {elapsed:.1f}s over 100 scenes")


def test_criterion_3_predictor_consistency():
    rng = np.random.default_rng(1003)
    exact = True
    sessions = 0
    for rho in (1, 2, 5):
        for _ in range(20):
            grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 3, 3)
            session = GridFilter(grid, tm, scene, prior, rho=rho)
            session.run_tracking(observations[:-1])
            q = rng.uniform(0.0, 40.0, 2)
            aq = point_path_loss(scene.ref_pos, q[None])[0]
            lhs = predict_gain_map(session, observations[-1], QuerySpec(q[None]))[0]
            rhs = aq * session.estimate()[scene.state_map.mu_index]
            exact = exact and (lhs == rhs)
            sessions += 1
    report("criterion 3 (predictor consistency)", exact, f"bitwise equality on {sessions} sessions, rho in {{1,2,5}}")


def test_criterion_4_dense_oracle_numerics():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(200):
        n_sensors = int(rng.integers(1, 9))
        scene = random_scene(rng, n_sensors)
        x = rng.uniform([0.0], [4.0])
        theta = scene.state_map.theta_of(x)
        mu = float(scene.state_map.mu_of(x))
        cov = build_obs_covariance(scene, 0, theta)
        alpha = point_path_loss(scene.ref_pos, scene.sensors)
        y = sample_observation(scene, 0, x, rng).y
        q = rng.uniform(0.0, 40.0, 2)

        dense_log = -0.5 * (y - alpha * mu) @ np.linalg.inv(cov) @ (y - alpha * mu) - 0.5 * np.log(
            np.linalg.det(cov)
        )
        fact_log = gaussian_unnormalized_loglik(y, alpha * mu, cov)
        worst = max(worst, abs(fact_log - dense_log) / max(1.0, abs(dense_log)))

        aq = point_path_loss(scene.ref_pos, q[None])[0]
        cross = cross_covariance(scene, 0, q, theta)
        dense_phi = aq * mu + cross @ np.linalg.inv(cov) @ (y - alpha * mu)
        from chantrack.channel import ObservationBatch

        obs = ObservationBatch(t=0, y=y, alpha=alpha)
        fact_phi = kriging_mean(x, obs, q, scene)
        worst = max(worst, abs(fact_phi - dense_phi) / max(1.0, abs(dense_phi)))
    ok = worst <= 1e-10
    report("criterion 4 (dense-oracle numerics)", ok, f"max relative error {worst:.2e} over 200 instances")


def test_criterion_5_transition_concentration():
    t0 = time.perf_counter()
    grid = GridSpec((0.0,), (1.0,), (2,))
    points = reconstruction_matrix(grid).T
    dyn = finite_chain_dynamics(points, FLIP)

    markovian = estimate_transition_markovian(dyn, grid, samples_per_cell=500_000, rng=51)
    err_markovian = float(np.max(np.abs(markovian.matrix - FLIP)))

    marginal = estimate_transition_marginal(dyn, grid, n_paths=10, path_length=100_001, rng=52)
    err_marginal = float(np.max(np.abs(marginal.matrix - FLIP)))

    elapsed = time.perf_counter() - t0
    ok = err_markovian <= 0.02 and err_marginal <= 0.02 and elapsed < 30.0
    report(
        "criterion 5 (transition concentration)",
        ok,
        f"markovian {err_markovian:.4f}, marginal {err_marginal:.4f} at 1e6 transitions, {elapsed:.1f}s",
    )


def test_criterion_6_benchmark_reproduction(tmp_path):
    t0 = time.perf_counter()
    cfg = benchmark_config(out_dir=str(tmp_path / "full"))
    metrics = run_experiment(cfg)
    full_elapsed = time.perf_counter() - t0
    assert len(metrics.timesteps) == 250
    trace_rows = (tmp_path / "full" / "state_trace.csv").read_text().strip().split("\n")
    assert len(trace_rows) == 251  # header + one row per tracked step
    map_rows = (tmp_path / "full" / "map_t249.csv").read_text().strip().split("\n")
    assert len(map_rows) == 3601  # header + one row per query point

    study = benchmark_config()
    grid = build_grid(study)
    dyn = build_dynamics(study)
    queries = query_points(study)
    transition = estimate_transition(study, dyn, grid, np.random.default_rng(60_000))
    prior = initial_belief(dyn, grid)

    # the prior-only estimate stream is observation- and seed-independent
    baseline = prior_baseline(study, transition)

    filter_rmse, baseline_rmse, map_rmse = [], [], []
    spec = QuerySpec(queries)
    last = study.timesteps - 1
    for ss in np.random.SeedSequence(60_001).spawn(20):
        sensor_rng, truth_rng, obs_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        scene = build_scene(study, sensor_rng)
        trajectory, observations, fields = simulate(
            scene, dyn, study.timesteps, 0, truth_rng, obs_rng, queries, [last]
        )
        final_obs, field = observations[last], fields[last]
        session = GridFilter(grid, transition, scene, prior)
        records = session.run_tracking(observations)
        estimates = np.stack([r.estimate for r in records])
        truth = trajectory[1:, 0]
        filter_rmse.append(float(np.sqrt(np.mean((estimates[:, 0] - truth) ** 2))))
        baseline_rmse.append(float(np.sqrt(np.mean((baseline[:, 0] - truth) ** 2))))
        predicted = predict_gain_map(session, final_obs, spec)
        map_rmse.append(float(np.sqrt(np.mean((predicted - field) ** 2))))

    med_filter = float(np.median(filter_rmse))
    med_baseline = float(np.median(baseline_rmse))
    med_map = float(np.median(map_rmse))
    field_std = 5.0  # sqrt of the smallest shadowing power on the grid
    ok = (
        full_elapsed < 120.0
        and med_filter <= 0.75 * med_baseline
        and med_map < field_std
        and metrics.resets == 0
    )
    report(
        "criterion 6 (benchmark reproduction)",
        ok,
        f"full run {full_elapsed:.0f}s; median RMSE x1 {med_filter:.3f} vs baseline {med_baseline:.3f} "
        f"({100 * (1 - med_filter / med_baseline):.0f}% better); median map RMSE {med_map:.2f} dB < {field_std}",
    )


def test_criterion_7_resolution_sweep():
    cfg = benchmark_config()
    rows = dict(l_sweep(cfg, [8, 16, 30], n_seeds=20))
    non_increasing = rows[8] >= rows[16] >= rows[30]
    ok = non_increasing and rows[30] <= 0.9 * rows[8]
    report(
        "criterion 7 (resolution sweep)",
        ok,
        f"median RMSE x1: L=8 {rows[8]:.4f}, L=16 {rows[16]:.4f}, L=30 {rows[30]:.4f}",
    )


def test_criterion_8_invariant_suite(tmp_path):
    # simplex preservation over 10^4 updates
    rng = np.random.default_rng(1008)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 3, 10_000)
    session = GridFilter(grid, tm, scene, prior)
    worst_sum = 0.0
    worst_min = 0.0
    for record in session.run_tracking(observations):
        worst_sum = max(worst_sum, abs(record.belief.sum() - 1.0))
        worst_min = min(worst_min, float(record.belief.min()))
    simplex_ok = worst_sum <= 1e-12 and worst_min >= 0.0

    # observation covariance over every benchmark grid cell
    study = benchmark_config()
    bench_grid = build_grid(study)
    scene_b = build_scene(study, np.random.default_rng(7))
    centers = reconstruction_matrix(bench_grid)
    cov_ok = True
    with single_thread_blas():
        for j in range(bench_grid.n_cells):
            cov = build_obs_covariance(scene_b, 0, scene_b.state_map.theta_of(centers[:, j]))
            if not np.array_equal(cov, cov.T):
                cov_ok = False
                break
            if np.linalg.eigvalsh(cov)[0] < scene_b.sigma_xi_sq - 1e-9:
                cov_ok = False
                break

    # byte-identity of two repeated full-scale runs
    cfg_a = benchmark_config(out_dir=str(tmp_path / "a"), seed=60_002)
    run_experiment(cfg_a)
    artifacts = ["state_trace.csv", "map_t124.csv", "map_t249.csv", "config_echo.json"]
    first = {n: (tmp_path / "a" / n).read_bytes() for n in artifacts}
    run_experiment(cfg_a)
    repeat_ok = all((tmp_path / "a" / n).read_bytes() == first[n] for n in artifacts)

    ok = simplex_ok and cov_ok and repeat_ok
    report(
        "criterion 8 (invariant suite)",
        ok,
        f"simplex |sum-1| max {worst_sum:.1e}, min weight {worst_min:.1e}; "
        f"covariance sym/PD over {bench_grid.n_cells} cells: {cov_ok}; repeated-run byte-identity: {repeat_ok}",
    )
