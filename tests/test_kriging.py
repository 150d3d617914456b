import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

import chantrack.channel as channel
import chantrack.kriging as kriging
from chantrack.channel import (
    ChannelScene,
    ObservationBatch,
    StateCoord,
    StateToChannelMap,
    build_obs_covariance,
    cross_covariance,
    kernel_basis,
    kernel_eval,
    point_path_loss,
    sample_observation,
)
from chantrack.filtering import GridFilter, brute_force_posterior
from chantrack.grid import GridSpec
from chantrack.harness import random_small_scenario
from chantrack.kriging import QuerySpec, kriging_mean, predict_gain_map
from chantrack.markov import TransitionMatrix, uniform_belief


def make_scene(sensors, sigma_xi_sq=2.0, theta=(25.0, 10.0)):
    return ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=np.asarray(sensors, float),
        sigma_xi_sq=sigma_xi_sq,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=(float(theta[0]), float(theta[1]))),
    )


def predict_point(session, obs, q):
    """The gain map on the one point ``q``."""
    return predict_gain_map(session, obs, QuerySpec(np.asarray(q, dtype=float)[None]))[0]


def make_session(rng, n_cells=6, n_sensors=4, rho=0, n_obs=3):
    grid, tm, scene, observations, prior = random_small_scenario(rng, n_cells, n_sensors, n_obs)
    session = GridFilter(grid, tm, scene, prior, rho=rho)
    session.run_tracking(observations[:-1])
    return session, observations[-1]


def test_query_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(np.empty((0, 2)))
    with pytest.raises(ValueError):
        QuerySpec(np.array([[np.inf, 0.0]]))


def test_query_spec_points_are_read_only_copy():
    # the map memo is keyed on the spec, so its points may not change under it
    pts = np.random.default_rng(20).uniform(0, 40, (5, 2))
    spec = QuerySpec(pts)
    assert spec.n_points == 5
    assert not np.shares_memory(spec.points, pts)
    assert not spec.points.flags.writeable
    with pytest.raises(ValueError):
        spec.points[0, 0] = 1.0
    kept = pts.copy()
    pts += 3.0
    assert np.array_equal(spec.points, kept)


@pytest.mark.parametrize("rho", [1.5, 0.5, 2.0, "2", True, False])
def test_non_integer_horizon_rejected(rho):
    # a horizon is a whole number of steps; nothing may round or truncate it
    rng = np.random.default_rng(14)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 4, 3, 2)
    with pytest.raises(ValueError, match="rho"):
        GridFilter(grid, tm, scene, prior, rho=rho)


def test_kriging_mean_prior_collapse_without_shadowing():
    scene = make_scene([[20.0, 10.0], [30.0, 20.0]], theta=(0.0, 10.0))
    obs = ObservationBatch(t=0, y=[-7.0, -9.0], alpha=point_path_loss(scene.ref_pos, scene.sensors))
    q = np.array([5.0, 5.0])
    aq = point_path_loss(scene.ref_pos, q[None])[0]
    x = np.array([1.7])
    assert kriging_mean(x, obs, q, scene) == pytest.approx(aq * 1.7, abs=1e-12)


def test_kriging_mean_exact_at_sensor_without_noise():
    scene = make_scene([[20.0, 10.0]], sigma_xi_sq=0.0)
    alpha = point_path_loss(scene.ref_pos, scene.sensors)
    obs = ObservationBatch(t=0, y=[-13.37], alpha=alpha)
    assert kriging_mean(np.array([2.4]), obs, scene.sensors[0], scene) == pytest.approx(-13.37, abs=1e-12)


def test_kriging_mean_matches_dense_inverse_hand_scene():
    # sensors at distances 0 and 10 m from the query
    q = np.array([20.0, 20.0])
    sensors = np.array([[20.0, 20.0], [30.0, 20.0]])
    scene = make_scene(sensors, sigma_xi_sq=2.0, theta=(25.0, 10.0))
    alpha = point_path_loss(scene.ref_pos, sensors)
    obs = ObservationBatch(t=0, y=[-20.0, -26.0], alpha=alpha)
    x = np.array([2.1])
    theta = scene.state_map.theta_of(x)
    cov = build_obs_covariance(scene, 0, theta)
    cross = cross_covariance(scene, 0, q, theta)
    aq = point_path_loss(scene.ref_pos, q[None])[0]
    dense = aq * 2.1 + cross @ np.linalg.inv(cov) @ (obs.y - alpha * 2.1)
    assert kriging_mean(x, obs, q, scene) == pytest.approx(dense, abs=1e-12)


def _benchmark_grid_scenario(rng, n_obs):
    grid = GridSpec((0.0, 25.0), (4.0, 25.6), (30, 30))
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=rng.uniform(0, 40, (30, 2)),
        sigma_xi_sq=2.0,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=(StateCoord(1), 10.0)),
    )
    cols = rng.random((900, 900)) + 0.01
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    observations = [sample_observation(scene, t, np.array([2.0, 25.3]), rng) for t in range(n_obs)]
    return grid, tm, scene, observations, uniform_belief(900)


def _range_bound_scenario(rng, theta1, n_sensors=5, scripted=False):
    """A tracked session whose correlation distance is bound to the state, three distinct values.

    ``theta2 = x2`` on a 2-D grid with the constant ``theta1``, or, for
    ``theta1 = "state"``, ``theta1 = x2, theta2 = x3`` on a 3-D grid whose
    ``x2`` has a cell center at 0.  ``scripted`` gives the same sensors as
    a script over the four observation times.
    """
    if theta1 == "state":
        grid = GridSpec((0.0, -2.5, 4.0), (4.0, 12.5, 16.0), (3, 3, 3))
        bindings = (StateCoord(1), StateCoord(2))
    else:
        grid = GridSpec((0.0, 4.0), (4.0, 16.0), (4, 3))
        bindings = (theta1, StateCoord(1))
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=rng.uniform(0, 40, (n_sensors, 2)),
        sigma_xi_sq=1.5,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=bindings),
    )
    if scripted:
        scene = dataclasses.replace(scene, sensors=np.repeat(scene.sensors[None], 4, axis=0))
    cols = rng.random((grid.n_cells, grid.n_cells)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    session = GridFilter(grid, tm, scene, uniform_belief(grid.n_cells))
    states = session.X[:, rng.integers(0, grid.n_cells, 3)].T
    session.run_tracking([sample_observation(scene, t, x, rng) for t, x in enumerate(states)])
    obs = sample_observation(scene, 3, states[-1], rng)
    session.step(obs)
    return session, obs


@pytest.mark.parametrize("theta1", [25.0, 0.0, "state"])
def test_predict_map_with_state_bound_correlation_distance(theta1):
    # several correlation-distance classes, and a group with no shadowing power
    rng = np.random.default_rng(15)
    session, obs = _range_bound_scenario(rng, theta1)
    assert np.any(session.group_thetas[:, 0] == 0.0) == (theta1 != 25.0)
    assert len(np.unique(session.group_thetas[:, 1])) == 3
    pts = rng.uniform(0.0, 40.0, (6, 2))
    out = predict_gain_map(session, obs, QuerySpec(pts))
    for q, value in zip(pts, out):
        ref = sum(b * kriging_mean(x, obs, q, session.scene) for b, x in zip(session.belief, session.X.T))
        assert value == pytest.approx(ref, rel=1e-9)


def test_predict_map_matches_per_group_sum_benchmark_grid():
    # the per-class sum against one kernel block per parameter group
    rng = np.random.default_rng(16)
    grid, tm, scene, observations, prior = _benchmark_grid_scenario(rng, 3)
    session = GridFilter(grid, tm, scene, prior)
    session.run_tracking(observations)
    obs = observations[-1]
    pts = rng.uniform(0.0, 40.0, (200, 2))
    belief = session.belief
    n_groups = len(session.group_thetas)
    mass = np.bincount(session.group_index, weights=belief, minlength=n_groups)
    mu_mass = np.bincount(session.group_index, weights=session.mus * belief, minlength=n_groups)
    d = cdist(pts, scene.sensors)
    per_group = point_path_loss(scene.ref_pos, pts) * (session.mus @ belief)
    for u, theta in enumerate(session.group_thetas):
        factor = (np.linalg.cholesky(build_obs_covariance(scene, obs.t, theta)), True)
        v_y, v_alpha = cho_solve(factor, obs.y), cho_solve(factor, obs.alpha)
        per_group += np.einsum("qn,n->q", kernel_eval(d, theta), mass[u] * v_y - mu_mass[u] * v_alpha)
    assert predict_gain_map(session, obs, QuerySpec(pts)) == pytest.approx(per_group, rel=1e-12)


@pytest.mark.parametrize("scenario", ["benchmark_grid", 25.0, "state"])
def test_predict_map_one_kernel_pass_per_correlation_distance(monkeypatch, scenario):
    rng = np.random.default_rng(17)
    if scenario == "benchmark_grid":
        grid, tm, scene, observations, prior = _benchmark_grid_scenario(rng, 1)
        session = GridFilter(grid, tm, scene, prior)
        session.run_tracking(observations)
        obs, expected = observations[-1], 1
    else:
        session, obs = _range_bound_scenario(rng, scenario)
        expected = 3
    assert len(session.group_thetas) == {"benchmark_grid": 30, 25.0: 3, "state": 9}[scenario]
    calls = []
    original = kriging.kernel_eval

    def counting(d, theta):
        calls.append(theta)
        return original(d, theta)

    monkeypatch.setattr(kriging, "kernel_eval", counting)
    predict_gain_map(session, obs, QuerySpec(rng.uniform(0, 40, (64, 2))))
    assert len(calls) == expected


def _count_kernel_evals(monkeypatch) -> list:
    calls = []
    original = kriging.kernel_eval

    def counting(d, theta):
        calls.append(theta)
        return original(d, theta)

    monkeypatch.setattr(kriging, "kernel_eval", counting)
    return calls


def _tracked_benchmark_session(scene_sensors=None):
    rng = np.random.default_rng(21)
    grid, tm, scene, observations, prior = _benchmark_grid_scenario(rng, 3)
    if scene_sensors == "scripted":
        scene = dataclasses.replace(scene, sensors=np.repeat(scene.sensors[None], len(observations), axis=0))
    session = GridFilter(grid, tm, scene, prior)
    session.run_tracking(observations)
    return session, observations[-1], rng


def test_repeated_map_evaluates_no_kernel(monkeypatch):
    # static sensors keep the kernel blocks of the last spec; the memo must
    # not change the map, even after the caller's point array is changed
    session, obs, rng = _tracked_benchmark_session()
    pts = rng.uniform(0, 40, (64, 2))
    spec = QuerySpec(pts)
    first = predict_gain_map(session, obs, spec)
    pts += 5.0
    calls = _count_kernel_evals(monkeypatch)
    second = predict_gain_map(session, obs, spec)
    assert calls == []
    fresh, _, _ = _tracked_benchmark_session()
    assert np.array_equal(second, first)
    assert np.array_equal(second, predict_gain_map(fresh, obs, spec))


def test_map_memo_recomputes_for_other_points(monkeypatch):
    session, obs, rng = _tracked_benchmark_session()
    predict_gain_map(session, obs, QuerySpec(rng.uniform(0, 40, (64, 2))))
    other = QuerySpec(rng.uniform(0, 40, (64, 2)))
    calls = _count_kernel_evals(monkeypatch)
    out = predict_gain_map(session, obs, other)
    assert len(calls) == 1
    fresh, _, _ = _tracked_benchmark_session()
    assert np.array_equal(out, predict_gain_map(fresh, obs, other))


def test_scripted_sensors_evaluate_kernel_every_map(monkeypatch):
    # moving sensors change the blocks per t, so nothing is kept
    session, obs, rng = _tracked_benchmark_session("scripted")
    spec = QuerySpec(rng.uniform(0, 40, (64, 2)))
    calls = _count_kernel_evals(monkeypatch)
    first = predict_gain_map(session, obs, spec)
    second = predict_gain_map(session, obs, spec)
    assert len(calls) == 2
    assert np.array_equal(first, second)
    assert session._memo == {}


@pytest.mark.parametrize("scenario", ["benchmark_grid", "theta2_bound"])
def test_kernel_basis_rebuilds_obs_covariance(scenario):
    # every group's covariance is U diag(theta1 lam + sigma_xi_sq) U^T on its
    # class's basis; relative to the covariance's largest entry
    if scenario == "benchmark_grid":
        session, obs, _ = _tracked_benchmark_session()
    else:
        session, obs = _range_bound_scenario(np.random.default_rng(22), "state")
    scene = session.scene
    for theta1, theta2 in session.group_thetas:
        lam, vecs = kernel_basis(scene, obs.t, theta2)
        rebuilt = (vecs * (theta1 * lam + scene.sigma_xi_sq)) @ vecs.T
        cov = build_obs_covariance(scene, obs.t, (theta1, theta2))
        assert np.max(np.abs(rebuilt - cov)) <= 1e-12 * np.max(np.abs(cov))


def test_predict_map_value_independent_of_query_count():
    # three correlation-distance classes: a point's value may not depend on
    # how many points share the call
    rng = np.random.default_rng(23)
    session, obs = _range_bound_scenario(rng, "state", n_sensors=30)
    pts = rng.uniform(0, 40, (64, 2))
    out = predict_gain_map(session, obs, QuerySpec(pts))
    for i, q in enumerate(pts):
        assert out[i] == predict_point(session, obs, q)


@pytest.mark.parametrize("scenario", ["small", "benchmark_grid"])
def test_static_sensors_match_scripted_bitwise(scenario):
    # static sensors reuse the cached factors and class bases; the same
    # positions scripted at every t rebuild them per call, and nothing may differ
    rng = np.random.default_rng(12)
    if scenario == "small":
        grid, tm, scene, observations, prior = random_small_scenario(rng, 5, 3, 4)
    else:
        grid, tm, scene, observations, prior = _benchmark_grid_scenario(rng, 3)
    scripted = dataclasses.replace(scene, sensors=np.repeat(scene.sensors[None], len(observations), axis=0))
    spec = QuerySpec(rng.uniform(0, 40, (50, 2)))
    results = []
    for sc in (scene, scripted):
        session = GridFilter(grid, tm, sc, prior)
        beliefs = np.stack([r.belief for r in session.run_tracking(observations)])
        obs = observations[-1]
        maps = [predict_gain_map(session, obs, spec) for _ in range(2)]
        results.append((session.likelihood_vector(obs), beliefs, *maps))
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_mobile_sensors_match_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_obs = int(rng.integers(2, 5))
        grid, tm, static, _, prior = random_small_scenario(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 0)
        sensors = rng.uniform(0.0, 40.0, (n_obs, static.n_sensors, 2))
        scene = dataclasses.replace(static, sensors=sensors)
        states = rng.uniform(np.asarray(grid.lower), np.asarray(grid.upper), (n_obs, grid.ndim))
        observations = [sample_observation(scene, t, x, rng) for t, x in enumerate(states)]
        session = GridFilter(grid, tm, scene, prior)
        beliefs = np.stack([r.belief for r in session.run_tracking(observations)])
        reference = brute_force_posterior(grid, tm, scene, observations, prior)
        assert np.max(np.abs(beliefs - reference)) <= 1e-10

        obs = observations[-1]
        pts = rng.uniform(0.0, 40.0, (5, 2))
        out = predict_gain_map(session, obs, QuerySpec(pts))
        for q, value in zip(pts, out):
            ref = sum(b * kriging_mean(x, obs, q, scene) for b, x in zip(session.belief, session.X.T))
            assert value == pytest.approx(ref, rel=1e-9)


def test_predict_exact_interpolation_any_belief():
    rng = np.random.default_rng(2)
    sensors = rng.uniform(0, 40, (5, 2))
    scene = make_scene(sensors, sigma_xi_sq=0.0)
    grid = GridSpec((0.0,), (4.0,), (6,))
    cols = rng.random((6, 6)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    belief = rng.random(6)
    belief /= belief.sum()
    session = GridFilter(grid, tm, scene, belief)
    obs = sample_observation(scene, 0, np.array([2.2]), rng)
    for j in range(5):
        assert predict_point(session, obs, sensors[j]) == pytest.approx(obs.y[j], abs=1e-9)


def test_predict_prior_collapse():
    rng = np.random.default_rng(3)
    scene = make_scene(rng.uniform(0, 40, (4, 2)), theta=(0.0, 10.0))
    grid = GridSpec((0.0,), (4.0,), (5,))
    cols = rng.random((5, 5)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    belief = rng.random(5)
    belief /= belief.sum()
    session = GridFilter(grid, tm, scene, belief)
    obs = sample_observation(scene, 0, np.array([1.4]), rng)
    q = np.array([8.0, 31.0])
    aq = point_path_loss(scene.ref_pos, q[None])[0]
    assert predict_point(session, obs, q) == pytest.approx(aq * session.estimate()[0], rel=1e-12)


def test_predict_future_horizon_consistency_bitwise():
    rng = np.random.default_rng(4)
    for rho in (1, 2, 5):
        for _ in range(5):
            session, obs = make_session(rng, rho=rho)
            q = rng.uniform(0, 40, 2)
            aq = point_path_loss(session.scene.ref_pos, q[None])[0]
            expected = aq * session.estimate()[session.scene.state_map.mu_index]
            assert predict_point(session, obs, q) == expected


def test_predict_future_ignores_observation():
    rng = np.random.default_rng(5)
    session, obs = make_session(rng, rho=2)
    other = ObservationBatch(t=obs.t, y=obs.y + 5.0, alpha=obs.alpha)
    q = np.array([14.0, 2.0])
    assert predict_point(session, obs, q) == predict_point(session, other, q)


def test_predict_affine_in_observations():
    rng = np.random.default_rng(6)
    session, obs = make_session(rng)
    q = np.array([17.0, 25.0])
    y_a = obs.y
    y_b = obs.y + rng.standard_normal(obs.n_sensors)
    for a in (0.25, 0.7):
        mix = ObservationBatch(t=obs.t, y=a * y_a + (1 - a) * y_b, alpha=obs.alpha)
        pa = predict_point(session, ObservationBatch(t=obs.t, y=y_a, alpha=obs.alpha), q)
        pb = predict_point(session, ObservationBatch(t=obs.t, y=y_b, alpha=obs.alpha), q)
        assert predict_point(session, mix, q) == pytest.approx(a * pa + (1 - a) * pb, rel=1e-10)


def test_predict_matches_split_functional_route():
    # independent second route: average the two conditional-mean pieces separately
    rng = np.random.default_rng(7)
    session, obs = make_session(rng, n_cells=5, n_sensors=3)
    q = rng.uniform(0, 40, 2)
    scene = session.scene
    aq = point_path_loss(scene.ref_pos, q[None])[0]
    phi1 = np.empty((session.n_cells, obs.n_sensors))
    phi2 = np.empty(session.n_cells)
    for j in range(session.n_cells):
        x = session.X[:, j]
        theta = scene.state_map.theta_of(x)
        cov = build_obs_covariance(scene, obs.t, theta)
        cross = cross_covariance(scene, obs.t, q, theta)
        weights = cross @ np.linalg.inv(cov)
        phi1[j] = weights
        phi2[j] = weights @ (obs.alpha * scene.state_map.mu_of(x))
    belief = session.belief
    split = aq * session.estimate()[0] + (phi1.T @ belief) @ obs.y - phi2 @ belief
    assert predict_point(session, obs, q) == pytest.approx(split, rel=1e-10)


def test_predict_map_matches_pointwise_predict():
    rng = np.random.default_rng(8)
    session, obs = make_session(rng)
    pts = rng.uniform(0, 40, (7, 2))
    out = predict_gain_map(session, obs, QuerySpec(pts))
    for i, q in enumerate(pts):
        assert out[i] == predict_point(session, obs, q)


def test_predict_map_future_horizon():
    rng = np.random.default_rng(9)
    session, obs = make_session(rng, rho=2)
    pts = rng.uniform(0, 40, (4, 2))
    out = predict_gain_map(session, obs, QuerySpec(pts))
    aq = point_path_loss(session.scene.ref_pos, pts)
    assert np.array_equal(out, aq * session.estimate()[0])


@pytest.mark.parametrize("sensors", ["static", "scripted"])
def test_predict_map_keeps_one_basis_per_correlation_distance(monkeypatch, sensors):
    # C = 3 classes: a static session builds their bases at its first map and
    # keeps them; scripted sensors rebuild them for every map
    rng = np.random.default_rng(10)
    session, obs = _range_bound_scenario(rng, "state", scripted=sensors == "scripted")
    calls = []
    original = channel.kernel_basis

    def counting(scene, t, theta2):
        calls.append(theta2)
        return original(scene, t, theta2)

    monkeypatch.setattr(channel, "kernel_basis", counting)
    spec = QuerySpec(rng.uniform(0, 40, (64, 2)))
    predict_gain_map(session, obs, spec)
    assert sorted(calls) == sorted(set(session.group_thetas[:, 1]))
    predict_gain_map(session, obs, spec)
    assert len(calls) == (3 if sensors == "static" else 6)


@pytest.mark.parametrize("sensors", ["static", "scripted"])
def test_session_memo_builds_geometry_once_for_static_sensors(monkeypatch, sensors):
    # only the sensor geometry fixes the observation covariance: over 10
    # updates and 2 maps a static session builds its factors once, in the
    # constructor, and each class basis once, at the first map; the same
    # sensors scripted build the factors per update and the bases per map
    rng = np.random.default_rng(24)
    grid = GridSpec((0.0, -2.5, 4.0), (4.0, 12.5, 16.0), (3, 3, 3))
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=rng.uniform(0, 40, (5, 2)),
        sigma_xi_sq=1.5,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=(StateCoord(1), StateCoord(2))),
    )
    if sensors == "scripted":
        scene = dataclasses.replace(scene, sensors=np.repeat(scene.sensors[None], 10, axis=0))
    factor_times, basis_calls = [], []
    original_factors, original_basis = GridFilter._build_factors, channel.kernel_basis
    monkeypatch.setattr(GridFilter, "_build_factors", lambda s, t: factor_times.append(t) or original_factors(s, t))
    monkeypatch.setattr(channel, "kernel_basis", lambda sc, t, d: basis_calls.append(d) or original_basis(sc, t, d))
    cols = rng.random((grid.n_cells, grid.n_cells)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="markovian")
    session = GridFilter(grid, tm, scene, uniform_belief(grid.n_cells))
    assert factor_times == ([0] if sensors == "static" else [])
    classes = sorted(set(session.group_thetas[:, 1]))
    assert len(classes) == 3
    spec = QuerySpec(rng.uniform(0, 40, (16, 2)))
    bases_per_map = []
    for t, cell in enumerate(rng.integers(0, grid.n_cells, 10)):
        obs = sample_observation(scene, t, session.X[:, cell], rng)
        session.step(obs)
        if t in (4, 9):
            predict_gain_map(session, obs, spec)
            bases_per_map.append(sorted(basis_calls))
            basis_calls.clear()
    if sensors == "static":
        assert factor_times == [0]
        assert bases_per_map == [classes, []]
        assert set(session._memo) == {"factors", "bases", "queries"}
    else:
        assert factor_times == list(range(10))
        assert bases_per_map == [classes, classes]
        assert session._memo == {}


def test_query_near_reference_rejected():
    rng = np.random.default_rng(11)
    session, obs = make_session(rng)
    ref = session.scene.ref_pos
    with pytest.raises(ValueError, match="query point"):
        predict_point(session, obs, ref)
    with pytest.raises(ValueError, match="query point"):
        predict_gain_map(session, obs, QuerySpec(np.vstack([ref + [5.0, 5.0], ref])))


def _map_with_wrong_observation_size():
    session, obs = make_session(np.random.default_rng(15), n_sensors=3)
    wrong = ObservationBatch(t=obs.t, y=obs.y[:2], alpha=obs.alpha[:2])
    return predict_gain_map(session, wrong, QuerySpec(np.array([[5.0, 5.0]])))


@pytest.mark.parametrize(
    "call, message",
    [(_map_with_wrong_observation_size, "observation dimension does not match the scene")],
    ids=["observation_dimension"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
