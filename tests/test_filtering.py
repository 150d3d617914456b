import dataclasses
import time

import numpy as np
import pytest

from chantrack.channel import (
    ChannelScene,
    ObservationBatch,
    StateToChannelMap,
    build_obs_covariance,
    gaussian_unnormalized_loglik,
    sample_observation,
)
from chantrack.filtering import (
    DegenerateLikelihoodError,
    GridFilter,
    _normalized_update,
    brute_force_posterior,
)
from chantrack.grid import GridSpec, reconstruction_matrix
from chantrack.harness import benchmark_config, build, random_small_scenario
from chantrack.kriging import QuerySpec, predict_gain_map
from chantrack.markov import TransitionMatrix, one_hot_belief, uniform_belief

FLIP = np.array([[0.7, 0.3], [0.3, 0.7]])


def const_theta_scene(sensors, sigma_xi_sq=1.0, theta=(9.0, 10.0), mu_index=0):
    return ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=np.asarray(sensors, float),
        sigma_xi_sq=sigma_xi_sq,
        state_map=StateToChannelMap(mu_index=mu_index, theta_bindings=(float(theta[0]), float(theta[1]))),
    )


def flat_likelihood_session(p_matrix, belief):
    """Two cells that differ only along an unobserved axis: likelihoods are flat."""
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), (1, 2))
    scene = const_theta_scene([[26.0, 10.0]])
    tm = TransitionMatrix(p_matrix, mode="markovian")
    return GridFilter(grid, tm, scene, belief)


def dense_likelihood(grid, scene, obs):
    centers = reconstruction_matrix(grid)
    lam = np.empty(grid.n_cells)
    for j in range(grid.n_cells):
        x = centers[:, j]
        cov = build_obs_covariance(scene, obs.t, scene.state_map.theta_of(x))
        resid = obs.y - obs.alpha * scene.state_map.mu_of(x)
        lam[j] = np.exp(-0.5 * resid @ np.linalg.inv(cov) @ resid) / np.sqrt(np.linalg.det(cov))
    return lam


def test_likelihood_flat_for_identical_cells():
    session = flat_likelihood_session(np.eye(2), uniform_belief(2))
    obs = ObservationBatch(t=0, y=[-3.0], alpha=[-1.0])
    lam = session.likelihood_vector(obs)
    assert np.array_equal(lam, [1.0, 1.0])


def test_likelihood_single_cell_is_one():
    grid = GridSpec((0.0,), (4.0,), (1,))
    scene = const_theta_scene([[26.0, 10.0], [30.0, 14.0]])
    session = GridFilter(grid, TransitionMatrix(np.eye(1), mode="markovian"), scene, np.ones(1))
    obs = ObservationBatch(t=0, y=[-3.0, -4.0], alpha=[-1.0, -2.0])
    assert np.array_equal(session.likelihood_vector(obs), [1.0])


def test_likelihood_matches_dense_formula():
    rng = np.random.default_rng(0)
    grid = GridSpec((0.0,), (4.0,), (5,))
    scene = const_theta_scene(rng.uniform(0, 40, (2, 2)), sigma_xi_sq=1.5)
    tm_cols = rng.random((5, 5)) + 0.1
    tm = TransitionMatrix(tm_cols / tm_cols.sum(0), mode="markovian")
    session = GridFilter(grid, tm, scene, uniform_belief(5))
    obs = sample_observation(scene, 0, np.array([2.3]), rng)
    lam = session.likelihood_vector(obs)
    dense = dense_likelihood(grid, scene, obs)
    dense /= dense.max()
    assert np.max(np.abs(lam - dense)) <= 1e-12
    assert lam.max() == 1.0


def test_likelihood_matches_per_cell_loglik_benchmark_grid():
    # the three sums per group against one Gaussian log-density per cell, on
    # the benchmark's 900 cells, 30 groups and 30 lattice sensors
    grid, _, scene, _ = build(benchmark_config(seed=3))
    session = GridFilter(grid, TransitionMatrix(np.eye(grid.n_cells), mode="markovian"), scene, uniform_belief(grid.n_cells))
    assert len(session.group_thetas) == 30
    rng = np.random.default_rng(15)
    for t, x in enumerate(rng.uniform(grid.lower, grid.upper, (4, 2))):
        obs = sample_observation(scene, t, x, rng)
        loglik = np.array([
            gaussian_unnormalized_loglik(obs.y, obs.alpha * mu, build_obs_covariance(scene, t, theta))
            for mu, theta in zip(session.mus, scene.state_map.theta_of(session.X.T))
        ])
        lam = session.likelihood_vector(obs)
        assert np.max(np.abs(lam - np.exp(loglik - loglik.max()))) <= 1e-10
        assert lam.max() == 1.0


def test_step_identity_flat_keeps_belief():
    belief = np.array([0.3, 0.7])
    session = flat_likelihood_session(np.eye(2), belief)
    out = session.step(ObservationBatch(t=0, y=[-2.0], alpha=[-1.0]))
    assert np.max(np.abs(out - belief)) <= 1e-14


def test_step_one_hot_transition_moves_mass():
    p = np.array([[0.0, 0.0], [1.0, 1.0]])  # everything jumps to cell 1
    session = flat_likelihood_session(p, one_hot_belief(2, 0))
    out = session.step(ObservationBatch(t=0, y=[-2.0], alpha=[-1.0]))
    assert np.array_equal(out, [0.0, 1.0])


def test_step_degenerate_resets_to_uniform():
    grid = GridSpec((0.0,), (2000.0,), (2,))  # centers 500 and 1500
    scene = const_theta_scene([[25.0, 20.0]], sigma_xi_sq=0.25, theta=(0.01, 10.0))
    p = np.array([[0.0, 0.0], [1.0, 1.0]])
    session = GridFilter(grid, TransitionMatrix(p, mode="markovian"), scene, one_hot_belief(2, 0))
    obs = ObservationBatch(t=0, y=[-5000.0], alpha=[-10.0])  # matches cell 0, prior sits on cell 1
    with pytest.warns(UserWarning, match="reset"):
        out = session.step(obs)
    assert np.array_equal(out, [0.5, 0.5])
    assert session.reset_events == [0]


def test_likelihood_overflow_raises_degenerate_error():
    grid = GridSpec((0.0,), (1.0,), (2,))
    scene = const_theta_scene([[26.0, 10.0]])
    session = GridFilter(grid, TransitionMatrix(FLIP, mode="markovian"), scene, uniform_belief(2))
    obs = ObservationBatch(t=0, y=[1e200], alpha=[-1.0])  # finite y, infinite quadratic form
    with pytest.raises(DegenerateLikelihoodError):
        session.likelihood_vector(obs)


def test_factor_build_fails_without_diagonal_loading():
    # coincident sensors and no multipath noise leave the covariance singular
    grid = GridSpec((0.0,), (1.0,), (2,))
    scene = const_theta_scene([[20.0, 10.0], [20.0, 10.0]], sigma_xi_sq=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        GridFilter(grid, TransitionMatrix(FLIP, mode="markovian"), scene, uniform_belief(2))


def test_scaling_invariance_of_update():
    rng = np.random.default_rng(1)
    lam = rng.random(6)
    prior = rng.random(6)
    prior /= prior.sum()
    base = _normalized_update(lam, prior)
    for c in (2.0**-40, 2.0**13):
        assert np.array_equal(_normalized_update(c * lam, prior), base)
    close = _normalized_update(3.7 * lam, prior)
    assert np.max(np.abs(close - base)) <= 1e-15


def test_estimate_examples():
    grid = GridSpec((0.0,), (1.0,), (2,))
    scene = const_theta_scene([[26.0, 10.0]])
    tm = TransitionMatrix(FLIP, mode="markovian")
    one_hot_session = GridFilter(grid, tm, scene, one_hot_belief(2, 0))
    assert np.array_equal(one_hot_session.estimate(), reconstruction_matrix(grid)[:, 0])
    uniform_session = GridFilter(grid, tm, scene, uniform_belief(2))
    assert uniform_session.estimate()[0] == pytest.approx(0.5, abs=1e-15)
    ahead = GridFilter(grid, tm, scene, one_hot_belief(2, 0), rho=1)
    assert ahead.estimate()[0] == pytest.approx(0.4, abs=1e-15)  # 0.25*0.7 + 0.75*0.3


def test_estimate_stays_in_box():
    rng = np.random.default_rng(2)
    for _ in range(20):
        grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 2, 4)
        session = GridFilter(grid, tm, scene, prior, rho=int(rng.integers(0, 3)))
        for record in session.run_tracking(observations):
            assert np.all(record.estimate >= np.asarray(grid.lower) - 1e-12)
            assert np.all(record.estimate <= np.asarray(grid.upper) + 1e-12)


def test_estimate_matches_matrix_power():
    # reference: X P^rho b with the dense matrix power, one session per horizon
    rng = np.random.default_rng(3)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 2, 3)
    for rho in (0, 1, 2, 5):
        session = GridFilter(grid, tm, scene, prior, rho=rho)
        session.run_tracking(observations)
        expected = session.X @ np.linalg.matrix_power(tm.matrix, rho) @ session.belief
        assert np.max(np.abs(session.estimate() - expected)) <= 1e-12
        if rho == 0:
            assert np.array_equal(session.estimate(), session.X @ session.belief)
    with pytest.raises(ValueError, match="rho"):
        GridFilter(grid, tm, scene, prior, rho=-1)


@pytest.mark.parametrize("belief", [[np.nan, 1.0], [0.5, np.nan], [-0.5, 1.5], [0.4, 0.4]])
def test_initial_belief_must_be_probability_vector(belief):
    grid = GridSpec((0.0,), (1.0,), (2,))
    tm = TransitionMatrix(FLIP, mode="markovian")
    with pytest.raises(ValueError, match="probability vector"):
        GridFilter(grid, tm, const_theta_scene([[26.0, 10.0]]), np.array(belief))


def test_run_tracking_empty_returns_prior_record():
    grid = GridSpec((0.0,), (1.0,), (2,))
    scene = const_theta_scene([[26.0, 10.0]])
    tm = TransitionMatrix(FLIP, mode="markovian")
    session = GridFilter(grid, tm, scene, one_hot_belief(2, 0), rho=1)
    records = session.run_tracking([])
    assert len(records) == 1
    assert records[0].t == -1
    assert np.array_equal(records[0].belief, one_hot_belief(2, 0))
    assert records[0].estimate[0] == pytest.approx(0.4, abs=1e-15)


def test_run_tracking_requires_time_order():
    rng = np.random.default_rng(4)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 3, 2, 3)
    session = GridFilter(grid, tm, scene, prior)
    shuffled = [observations[1], observations[0], observations[2]]
    with pytest.raises(ValueError, match="time-ordered"):
        session.run_tracking(shuffled)


def test_simplex_preserved_over_long_run():
    rng = np.random.default_rng(5)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 3, 500)
    session = GridFilter(grid, tm, scene, prior)
    for record in session.run_tracking(observations):
        assert np.all(record.belief >= 0.0)
        assert abs(record.belief.sum() - 1.0) <= 1e-12


def test_absorbing_chain_concentrates_monotonically():
    grid = GridSpec((0.0,), (3.0,), (3,))
    scene = const_theta_scene([[26.0, 10.0], [30.0, 13.0]], sigma_xi_sq=1.0)
    p = np.array(
        [
            [0.5, 0.0, 0.0],
            [0.5, 1.0, 0.5],
            [0.0, 0.0, 0.5],
        ]
    )
    tm = TransitionMatrix(p, mode="markovian")
    session = GridFilter(grid, tm, scene, uniform_belief(3))
    alpha = -10 * np.log10(np.linalg.norm(scene.sensors - scene.ref_pos, axis=1))
    mu_absorbing = reconstruction_matrix(grid)[0, 1]
    weight = session.belief[1]
    for t in range(30):
        out = session.step(ObservationBatch(t=t, y=alpha * mu_absorbing, alpha=alpha))
        assert out[1] >= weight - 1e-15
        weight = out[1]
    assert weight > 0.999


def test_cache_transparency_bitwise():
    # static sensors reuse cached factors and class bases; the same positions
    # scripted for the time step rebuild them, and the likelihoods, the
    # beliefs and the maps must agree bit for bit
    rng = np.random.default_rng(6)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 3, 1)
    scripted = dataclasses.replace(scene, sensors=scene.sensors[None])
    obs, spec = observations[0], QuerySpec(rng.uniform(0, 40, (16, 2)))
    results = []
    for sc in (scene, scripted):
        session = GridFilter(grid, tm, sc, prior)
        lam = session.likelihood_vector(obs)
        maps = [predict_gain_map(session, obs, spec) for _ in range(2)]  # the second from the static memo
        results.append((lam, session.step(obs), *maps))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_constant_per_step_cost():
    rng = np.random.default_rng(7)
    grid = GridSpec((0.0, 20.0), (4.0, 30.0), (10, 10))
    scene = const_theta_scene(rng.uniform(0, 40, (8, 2)), sigma_xi_sq=1.0)
    cols = rng.random((100, 100)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    session = GridFilter(grid, tm, scene, uniform_belief(100))
    alpha = -10 * np.log10(np.linalg.norm(scene.sensors - scene.ref_pos, axis=1))
    durations = []
    for t in range(250):
        y = alpha * 2.0 + rng.standard_normal(8)
        obs = ObservationBatch(t=t, y=y, alpha=alpha)
        t0 = time.perf_counter()
        session.step(obs)
        session.estimate()
        durations.append(time.perf_counter() - t0)
    early = np.median(durations[5:15])
    late = np.median(durations[235:245])
    assert late <= 2 * early and early <= 2 * late


def test_brute_force_single_step_definition():
    rng = np.random.default_rng(8)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 3, 2, 1)
    reference = brute_force_posterior(grid, tm, scene, observations, prior)
    lam = dense_likelihood(grid, scene, observations[0])
    expected = lam * (tm.matrix @ prior)
    expected /= expected.sum()
    assert np.max(np.abs(reference[0] - expected)) <= 1e-12


def test_brute_force_matches_hand_enumeration():
    rng = np.random.default_rng(9)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 2, 2, 2)
    prior = np.array([1.0, 0.0])  # one-hot start keeps the enumeration to 4 literal paths
    lam = [dense_likelihood(grid, scene, obs) for obs in observations]
    p = tm.matrix
    weights = np.zeros((2, 2))
    for l0 in range(2):
        for l1 in range(2):
            weights[l0, l1] = p[l0, 0] * lam[0][l0] * p[l1, l0] * lam[1][l1]
    hand_t0 = np.array([p[0, 0] * lam[0][0], p[1, 0] * lam[0][1]])
    hand_t0 /= hand_t0.sum()
    hand_t1 = weights.sum(axis=0)
    hand_t1 /= hand_t1.sum()
    reference = brute_force_posterior(grid, tm, scene, observations, prior)
    assert np.max(np.abs(reference[0] - hand_t0)) <= 1e-12
    assert np.max(np.abs(reference[1] - hand_t1)) <= 1e-12


def test_recursion_matches_brute_force():
    rng = np.random.default_rng(10)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 3, 2, 5)
    session = GridFilter(grid, tm, scene, prior)
    records = session.run_tracking(observations)
    reference = brute_force_posterior(grid, tm, scene, observations, prior)
    beliefs = np.stack([r.belief for r in records])
    assert np.max(np.abs(beliefs - reference)) <= 1e-10


def test_brute_force_budget():
    rng = np.random.default_rng(11)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 1, 12)
    with pytest.raises(ValueError, match="budget"):
        brute_force_posterior(grid, tm, scene, observations, prior)



LINE = GridSpec((0.0,), (1.0,), (2,))


def line_filter(p=FLIP, mu_index=0, n_belief=2):
    """A filter on a two-cell line with one sensor; the arguments break one of its inputs."""
    scene = const_theta_scene([[26.0, 10.0]], mu_index=mu_index)
    return GridFilter(LINE, TransitionMatrix(p, mode="markovian"), scene, uniform_belief(n_belief))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: line_filter(p=np.eye(3)), "transition matrix size does not match the grid"),
        (lambda: line_filter(mu_index=1), "state map binds coordinates beyond the grid dimension"),
        (lambda: line_filter(n_belief=3), "initial belief length must equal the cell count"),
        (
            lambda: line_filter().likelihood_vector(ObservationBatch(t=0, y=[-3.0, -4.0], alpha=[-1.0, -2.0])),
            "observation dimension does not match the scene",
        ),
        (
            lambda: brute_force_posterior(LINE, line_filter().transition, line_filter().scene, [], uniform_belief(2)),
            "need at least one observation",
        ),
    ],
    ids=["transition_size", "state_map_beyond_grid", "belief_length", "observation_dimension", "no_observations"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
