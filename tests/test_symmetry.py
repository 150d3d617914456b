"""The model's symmetries: properties that any route through the maths keeps.

The observation model sees the sensors as a set, so permuting them together
with each observation's ``y`` and ``alpha`` changes no likelihood, belief or
gain map.  About 1 s on the benchmark scene.
"""

import dataclasses

import numpy as np

from chantrack.channel import ObservationBatch
from chantrack.filtering import GridFilter
from chantrack.harness import TransitionBudget, benchmark_config, build, estimate_transition, simulate, streams
from chantrack.kriging import QuerySpec, predict_gain_map
from chantrack.markov import initial_belief

STEPS = 50


def test_sensor_order_changes_nothing():
    cfg = dataclasses.replace(benchmark_config(), transition=TransitionBudget(samples_per_cell=500))
    grid, dyn, scene, queries = build(cfg)
    rngs = streams(cfg)
    chain = estimate_transition(cfg, dyn, grid, rngs.transition)
    _, observations, _ = simulate(scene, dyn, STEPS, 0, rngs.truth, rngs.obs)
    perm = np.random.default_rng(5).permutation(scene.n_sensors)
    assert (perm != np.arange(scene.n_sensors)).any()
    permuted = [ObservationBatch(t=o.t, y=o.y[perm], alpha=o.alpha[perm]) for o in observations]
    prior = initial_belief(dyn, grid)
    a = GridFilter(grid, chain, scene, prior)
    b = GridFilter(grid, chain, dataclasses.replace(scene, sensors=scene.sensors[perm]), prior)

    assert np.max(np.abs(a.likelihood_vector(observations[0]) - b.likelihood_vector(permuted[0]))) <= 1e-12
    beliefs_a = np.stack([r.belief for r in a.run_tracking(observations)])
    beliefs_b = np.stack([r.belief for r in b.run_tracking(permuted)])
    assert np.max(np.abs(beliefs_a - beliefs_b)) <= 1e-12
    spec = QuerySpec(queries)
    map_a = predict_gain_map(a, observations[-1], spec)
    map_b = predict_gain_map(b, permuted[-1], spec)
    assert np.max(np.abs(map_a - map_b) / np.abs(map_a)) <= 1e-12
