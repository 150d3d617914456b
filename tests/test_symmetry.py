"""The model's symmetries: properties that any route through the maths keeps.

The observation model sees the sensors as a set, so permuting them together
with each observation's ``y`` and ``alpha`` changes no likelihood, belief or
gain map.  The kernel and the path loss depend on distances only, so a rigid
motion of the reference antenna, the sensors and the query points together
changes none of them either.  About 3 s in all.
"""

import dataclasses

import numpy as np
import pytest

from chantrack.channel import (
    ChannelScene,
    ObservationBatch,
    StateCoord,
    StateToChannelMap,
    path_loss_coeffs,
    sample_observation,
)
from chantrack.filtering import GridFilter
from chantrack.grid import GridSpec
from chantrack.harness import TransitionBudget, benchmark_config, build, estimate_transition, simulate, streams
from chantrack.kriging import QuerySpec, predict_gain_map
from chantrack.markov import TransitionMatrix, initial_belief

STEPS = 50
BOUND = 1e-12


def _benchmark_scene():
    """``(grid, chain, scene, observations, prior, queries)`` of the benchmark, over ``STEPS`` updates."""
    cfg = dataclasses.replace(benchmark_config(), transition=TransitionBudget(samples_per_cell=500))
    grid, dyn, scene, queries = build(cfg)
    rngs = streams(cfg)
    chain = estimate_transition(cfg, dyn, grid, rngs.transition)
    _, observations, _ = simulate(scene, dyn, STEPS, 0, rngs.truth, rngs.obs)
    return grid, chain, scene, observations, initial_belief(dyn, grid), queries


def _three_class_scene():
    """A scene whose correlation distance is bound to the state: three ``theta2`` classes of five cells."""
    rng = np.random.default_rng(36)
    grid = GridSpec((0.0, 5.0), (4.0, 15.0), (5, 3))
    cols = rng.random((grid.n_cells, grid.n_cells)) + 0.1
    chain = TransitionMatrix(cols / cols.sum(axis=0), mode="markovian")
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=rng.uniform(0.0, 40.0, (12, 2)),
        sigma_xi_sq=2.0,
        state_map=StateToChannelMap(mu_index=0, theta_bindings=(20.0, StateCoord(1))),
    )
    states = rng.uniform(grid.lower, grid.upper, (STEPS, 2))
    observations = [sample_observation(scene, t, x, rng) for t, x in enumerate(states)]
    queries = rng.uniform(0.0, 40.0, (400, 2))
    return grid, chain, scene, observations, np.full(grid.n_cells, 1.0 / grid.n_cells), queries


def test_sensor_order_changes_nothing():
    grid, chain, scene, observations, prior, queries = _benchmark_scene()
    perm = np.random.default_rng(5).permutation(scene.n_sensors)
    assert (perm != np.arange(scene.n_sensors)).any()
    permuted = [ObservationBatch(t=o.t, y=o.y[perm], alpha=o.alpha[perm]) for o in observations]
    a = GridFilter(grid, chain, scene, prior)
    b = GridFilter(grid, chain, dataclasses.replace(scene, sensors=scene.sensors[perm]), prior)

    assert np.max(np.abs(a.likelihood_vector(observations[0]) - b.likelihood_vector(permuted[0]))) <= BOUND
    beliefs_a = np.stack([r.belief for r in a.run_tracking(observations)])
    beliefs_b = np.stack([r.belief for r in b.run_tracking(permuted)])
    assert np.max(np.abs(beliefs_a - beliefs_b)) <= BOUND
    spec = QuerySpec(queries)
    map_a = predict_gain_map(a, observations[-1], spec)
    map_b = predict_gain_map(b, permuted[-1], spec)
    assert np.max(np.abs(map_a - map_b) / np.abs(map_a)) <= BOUND


def _moved(points):
    """``points`` rotated by sqrt(2) rad and translated: a rigid motion with no lattice symmetry."""
    c, s = np.cos(np.sqrt(2.0)), np.sin(np.sqrt(2.0))
    return np.asarray(points) @ np.array([[c, s], [-s, c]]) + (123.4, -56.7)


@pytest.mark.parametrize("make", [_benchmark_scene, _three_class_scene], ids=["benchmark", "three_classes"])
def test_rigid_motion_changes_nothing(make):
    grid, chain, scene, observations, prior, queries = make()
    moved = dataclasses.replace(scene, ref_pos=_moved(scene.ref_pos), sensors=_moved(scene.sensors))
    # y is a draw of a field that depends on distances only; alpha is recomputed in the moved frame
    moved_obs = [ObservationBatch(t=o.t, y=o.y, alpha=path_loss_coeffs(moved, o.t)) for o in observations]
    a = GridFilter(grid, chain, scene, prior)
    b = GridFilter(grid, chain, moved, prior)

    assert np.max(np.abs(a.likelihood_vector(observations[0]) - b.likelihood_vector(moved_obs[0]))) <= BOUND
    beliefs_a = np.stack([r.belief for r in a.run_tracking(observations)])
    beliefs_b = np.stack([r.belief for r in b.run_tracking(moved_obs)])
    assert np.max(np.abs(beliefs_a - beliefs_b)) <= BOUND
    map_a = predict_gain_map(a, observations[-1], QuerySpec(queries))
    map_b = predict_gain_map(b, moved_obs[-1], QuerySpec(_moved(queries)))
    assert np.max(np.abs(map_a - map_b) / np.abs(map_a)) <= BOUND
