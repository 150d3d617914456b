import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

import chantrack.filtering as filtering
import chantrack.harness as harness
from chantrack.channel import observation_conditioning
from chantrack.filtering import GridFilter, brute_force_posterior
from chantrack.grid import reconstruction_matrix
from chantrack.harness import (
    ConfigError,
    GridConfig,
    PhaseFailure,
    ScenarioConfig,
    benchmark_config,
    config_from_dict,
    config_to_dict,
    load_transition,
    oracle_check,
    random_small_scenario,
    run_experiment,
    save_transition,
)
from chantrack.markov import TransitionMatrix, estimate_transition_markovian
from studies import l_sweep, prior_baseline


def small_config_dict(**overrides):
    base = {
        "grid": {"lower": [0.0, 25.0], "upper": [4.0, 25.6], "cells": [6, 6]},
        "dynamics": {"kind": "coupled_tanh"},
        "quantization": "markovian",
        "transition": {"samples_per_cell": 200},
        "scene": {
            "ref_pos": [25.0, 10.0],
            "sensors": {"kind": "lattice", "n": 5},
            "sigma_xi_sq": 2.0,
            "kernel": {"params": [{"state": 1}, {"const": 10.0}]},
        },
        "timesteps": 8,
        "horizon": 0,
        "query_grid": {"nx": 6, "ny": 6, "region": [[0.0, 40.0], [0.0, 40.0]]},
        "map_snapshots": [3, 7],
        "seed": 77,
    }
    base.update(overrides)
    return base


def constant_state_config(point, L, **overrides):
    base = {
        "grid": {"lower": [0.0], "upper": [1.0], "cells": [L]},
        "dynamics": {"kind": "finite_chain", "points": [[point]], "matrix": [[1.0]]},
        "quantization": "markovian",
        "transition": {"samples_per_cell": 50},
        "scene": {
            "ref_pos": [25.0, 10.0],
            "sensors": {"kind": "fixed", "positions": [[20.0, 10.0], [30.0, 14.0]]},
            "sigma_xi_sq": 1.0,
            "kernel": {"params": [{"const": 9.0}, {"const": 10.0}]},
        },
        "timesteps": 12,
        "horizon": 0,
        "query_grid": {"nx": 4, "ny": 4, "region": [[0.0, 40.0], [0.0, 40.0]]},
        "map_snapshots": [],
        "seed": 5,
    }
    base.update(overrides)
    return base


def test_benchmark_config_defaults():
    cfg = benchmark_config()
    assert cfg.grid.cells == (30, 30)
    assert cfg.scene.sensors.n == 30
    assert cfg.timesteps == 250
    assert cfg.query_grid.nx * cfg.query_grid.ny == 3600
    assert cfg.scene.sigma_xi_sq == 2.0
    assert cfg.dynamics.gamma == 1.6


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="'sensrs'"):
        bad = small_config_dict()
        bad["scene"]["sensrs"] = bad["scene"].pop("sensors")
        config_from_dict(bad)
    with pytest.raises(ConfigError, match="'extra'"):
        config_from_dict(small_config_dict(extra=1))


def test_validation_names_offending_field():
    with pytest.raises(ConfigError, match="map_snapshots"):
        config_from_dict(small_config_dict(map_snapshots=[99]))
    with pytest.raises(ConfigError, match="mu_index"):
        bad = small_config_dict()
        bad["scene"]["mu_index"] = 5
        config_from_dict(bad)
    with pytest.raises(ConfigError, match="quantization"):
        config_from_dict(small_config_dict(quantization="exact"))
    with pytest.raises(ConfigError, match="coupled_tanh"):
        bad = small_config_dict()
        bad["grid"] = {"lower": [0.0], "upper": [1.0], "cells": [4]}
        config_from_dict(bad)
    with pytest.raises(ConfigError, match="sensors.n"):
        bad = small_config_dict()
        bad["scene"]["sensors"]["n"] = 100
        config_from_dict(bad)
    with pytest.raises(ConfigError, match="sigma_xi_sq"):
        bad = small_config_dict()
        bad["scene"]["sigma_xi_sq"] = float("nan")
        config_from_dict(bad)


def test_config_round_trip():
    cfg = config_from_dict(small_config_dict())
    assert config_from_dict(config_to_dict(cfg)) == cfg
    bench = benchmark_config(out_dir="x")
    assert config_from_dict(config_to_dict(bench)) == bench


def test_run_experiment_artifacts_and_determinism(tmp_path):
    artifacts = ("state_trace.csv", "map_t3.csv", "map_t7.csv", "config_echo.json")
    cfg_a = config_from_dict(small_config_dict(out_dir=str(tmp_path / "a")))
    ma = run_experiment(cfg_a)
    first = {name: (tmp_path / "a" / name).read_bytes() for name in artifacts}
    mb = run_experiment(cfg_a)
    for name in artifacts:
        assert (tmp_path / "a" / name).read_bytes() == first[name], f"{name} differs between repeated runs"
    # the output directory itself must not leak into the data artifacts
    cfg_b = config_from_dict(small_config_dict(out_dir=str(tmp_path / "b")))
    run_experiment(cfg_b)
    for name in artifacts[:-1]:
        assert (tmp_path / "b" / name).read_bytes() == first[name]
    assert np.array_equal(ma.estimates, mb.estimates)
    assert ma.rmse_map == mb.rmse_map
    assert len(ma.timesteps) == 8
    assert (tmp_path / "a" / "metrics.json").exists()


def test_failure_in_nested_phase_keeps_its_name(monkeypatch):
    def broken(*args):
        raise ValueError("broken map")

    monkeypatch.setattr(harness, "predict_gain_map", broken)
    with pytest.raises(PhaseFailure) as info:
        run_experiment(config_from_dict(small_config_dict()))
    assert info.value.phase == "predict"


def test_metrics_recompute_from_artifacts(tmp_path):
    cfg = config_from_dict(small_config_dict(out_dir=str(tmp_path)))
    run_experiment(cfg)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    trace = np.genfromtxt(tmp_path / "state_trace.csv", delimiter=",", names=True)
    for i, name in enumerate(("x1", "x2")):
        rmse = np.sqrt(np.mean((trace[f"true_{name}"] - trace[f"est_{name}"]) ** 2))
        assert abs(rmse - metrics["rmse_state"][i]) <= 1e-9
    for k in (3, 7):
        m = np.genfromtxt(tmp_path / f"map_t{k}.csv", delimiter=",", names=True)
        rmse = np.sqrt(np.mean((m["true_gain_db"] - m["pred_gain_db"]) ** 2))
        assert abs(rmse - metrics["rmse_map"][str(k)]) <= 1e-9
    assert set(metrics["runtime_s"]) >= {"setup", "transition", "simulate", "track", "predict"}
    assert metrics["resolved_seed"] == 77
    assert metrics["config"]["timesteps"] == 8


def test_metrics_report_filter_health(tmp_path, monkeypatch):
    # the conditioning floor of setup, the time of each belief reset and the patched transition columns
    cfg = config_from_dict(small_config_dict(out_dir=str(tmp_path)))
    grid = harness.build_grid(cfg)
    cols = np.random.default_rng(3).random((grid.n_cells, grid.n_cells)) + 0.1
    tm = TransitionMatrix(cols / cols.sum(0), mode="marginal", patched_columns=4)
    original = filtering._normalized_update
    calls = []

    def no_mass_at_t5(likelihood, prior):
        calls.append(1)
        return None if len(calls) == 6 else original(likelihood, prior)

    monkeypatch.setattr(filtering, "_normalized_update", no_mass_at_t5)
    with pytest.warns(UserWarning, match="reset to uniform at t=5"):
        m = run_experiment(cfg, transition=tm)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["reset_times"] == [5]
    assert metrics["resets"] == m.resets == 1
    assert metrics["patched_columns"] == 4
    scene = harness.build_scene(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(5)[0]))
    floor = observation_conditioning(scene, 0, scene.state_map.theta_of(reconstruction_matrix(grid).T))
    assert metrics["observation_conditioning"] == floor
    assert floor >= cfg.scene.sigma_xi_sq


def test_zero_timesteps_gives_prior_row_only(tmp_path):
    cfg = config_from_dict(
        small_config_dict(timesteps=0, map_snapshots=[], out_dir=str(tmp_path))
    )
    m = run_experiment(cfg)
    assert list(m.timesteps) == [-1]
    trace = (tmp_path / "state_trace.csv").read_text().strip().split("\n")
    assert len(trace) == 2  # header + prior row
    assert trace[1].startswith("-1,")


def test_prior_baseline_constant_chain():
    cfg = config_from_dict(constant_state_config(1 / 3, 4))
    base = prior_baseline(cfg)
    assert base.shape == (12, 1)
    assert np.all(base == base[0])
    # the chain pins every cell onto the cell containing the fixed point
    assert base[0, 0] == pytest.approx(0.375, abs=1e-12)


def test_prior_baseline_ergodic_two_state():
    cfg = config_from_dict(
        constant_state_config(
            0.25,
            2,
            dynamics={
                "kind": "finite_chain",
                "points": [[0.25], [0.75]],
                "matrix": [[0.7, 0.3], [0.3, 0.7]],
            },
            timesteps=40,
            transition={"samples_per_cell": 4000},
        )
    )
    base = prior_baseline(cfg)
    # oracle: stationary law of the estimated chain via its unit eigenvector
    from chantrack.harness import build_dynamics, build_grid, estimate_transition

    _, transition_ss, *_ = np.random.SeedSequence(cfg.seed).spawn(5)
    tm = estimate_transition(cfg, build_dynamics(cfg), build_grid(cfg), np.random.default_rng(transition_ss))
    vals, vecs = np.linalg.eig(tm.matrix)
    stat = np.real(vecs[:, np.argmax(np.real(vals))])
    stat /= stat.sum()
    target = 0.25 * stat[0] + 0.75 * stat[1]
    assert base[-1, 0] == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("timesteps", [0, 6])
def test_prior_baseline_horizon_matches_matrix_power(timesteps):
    chain = {"kind": "finite_chain", "points": [[0.25], [0.75]], "matrix": [[0.7, 0.3], [0.3, 0.7]]}
    cfg = config_from_dict(constant_state_config(0.25, 2, dynamics=chain, timesteps=timesteps, horizon=2))
    tm = TransitionMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]), mode="markovian")
    base = prior_baseline(cfg, tm)
    X, p2 = np.array([[0.25, 0.75]]), np.linalg.matrix_power(tm.matrix, 2)
    beliefs = [np.linalg.matrix_power(tm.matrix, t + 1) @ [1.0, 0.0] for t in range(timesteps)] or [[1.0, 0.0]]
    expected = np.stack([X @ p2 @ b for b in beliefs])
    assert base.shape == expected.shape and np.max(np.abs(base - expected)) <= 1e-12


def test_query_lattice_on_reference_antenna_rejected_only_when_used(tmp_path):
    # fixed sensors and no map snapshots never evaluate the query lattice
    on_ref = {"nx": 1, "ny": 1, "region": [[24.0, 26.0], [9.0, 11.0]]}
    cfg = config_from_dict(constant_state_config(1 / 3, 4, query_grid=on_ref, timesteps=3, out_dir=str(tmp_path)))
    assert run_experiment(cfg).resets == 0
    with pytest.raises(ConfigError, match="query_grid"):
        config_from_dict(constant_state_config(1 / 3, 4, query_grid=on_ref, map_snapshots=[1]))


def test_prior_baseline_pairs_with_experiment(tmp_path):
    cfg = config_from_dict(small_config_dict(out_dir=str(tmp_path)))
    m = run_experiment(cfg)
    base = prior_baseline(cfg)
    assert base.shape == m.estimates.shape
    rmse_filter = np.sqrt(np.mean((m.estimates[:, 0] - m.truths[:, 0]) ** 2))
    rmse_base = np.sqrt(np.mean((base[:, 0] - m.truths[:, 0]) ** 2))
    assert rmse_filter < rmse_base


def test_l_sweep_singleton():
    cfg = config_from_dict(constant_state_config(1 / 3, 4, timesteps=6))
    rows = l_sweep(cfg, [4], n_seeds=2)
    assert len(rows) == 1 and rows[0][0] == 4


def test_l_sweep_quantization_error_scaling():
    cfg = config_from_dict(constant_state_config(1 / 3, 4, timesteps=6))
    rows = dict(l_sweep(cfg, [4, 8, 16], n_seeds=2))
    for L in (4, 8, 16):
        width = 1.0 / L
        analytic = abs(1 / 3 - (np.floor(1 / 3 * L) + 0.5) * width)
        assert rows[L] == pytest.approx(analytic, abs=1e-9)
        assert rows[L] <= width / 2 + 1e-12
    assert rows[8] == pytest.approx(rows[4] / 2, rel=1e-9)
    assert rows[16] == pytest.approx(rows[8] / 2, rel=1e-9)


def _chain(n: int, mode: str, patched: int = 0) -> TransitionMatrix:
    cols = np.random.default_rng(0).random((n, n)) + 0.1
    return TransitionMatrix(cols / cols.sum(0), mode=mode, patched_columns=patched)


def test_transition_round_trip(tmp_path):
    cfg = config_from_dict(small_config_dict(quantization="marginal"))
    tm = _chain(36, "marginal", patched=2)
    path = tmp_path / "transition.bin"
    save_transition(path, tm, cfg)
    blob = path.read_bytes()
    echo = config_to_dict(cfg)
    key = b"".join(
        hashlib.sha256(json.dumps(echo[name], sort_keys=True).encode()).digest()
        for name in ("grid", "dynamics", "quantization")
    )
    assert blob == b"CGRIDP3\x00" + key + struct.pack("<q", 2) + tm.matrix.astype("<f8").tobytes()
    assert len(blob) == 112 + 8 * 36 * 36
    loaded = load_transition(path, cfg)
    assert loaded.mode == "marginal"
    assert loaded.patched_columns == 2
    assert np.array_equal(loaded.matrix, tm.matrix)
    again = tmp_path / "again.bin"
    save_transition(again, loaded, cfg)
    assert again.read_bytes() == blob
    # a config built in code with integers keys as its JSON reading does, with floats
    ints = dataclasses.replace(cfg, grid=GridConfig(lower=(0, 25), upper=(4, 25.6), cells=(6, 6)))
    assert config_to_dict(ints)["grid"]["lower"] == (0, 25)
    assert np.array_equal(load_transition(path, ints).matrix, tm.matrix)


def test_transition_v1_file_is_rejected(tmp_path):
    # neither older header (16 bytes, then 24) says what the chain was estimated from; only the 112-byte one is read
    cfg = config_from_dict(small_config_dict())
    payload = _chain(36, "markovian").matrix.astype("<f8").tobytes()
    path = tmp_path / "old.bin"
    for header in (b"CGRIDP1\x00" + struct.pack("<II", 36, 1), b"CGRIDP2\x00" + struct.pack("<IIq", 36, 1, 0)):
        path.write_bytes(header + payload)
        with pytest.raises(ValueError, match="bad magic"):
            load_transition(path, cfg)


def test_transition_load_rejects_corruption(tmp_path):
    cfg = config_from_dict(small_config_dict())
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 104)
    with pytest.raises(ValueError, match="magic"):
        load_transition(path, cfg)
    good = tmp_path / "good.bin"
    save_transition(good, _chain(36, "markovian"), cfg)
    good.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_transition(good, cfg)


def test_run_experiment_accepts_precomputed_transition(tmp_path):
    cfg = config_from_dict(small_config_dict(out_dir=str(tmp_path), map_snapshots=[]))
    from chantrack.harness import build_dynamics, build_grid

    _, transition_ss, *_ = np.random.SeedSequence(cfg.seed).spawn(5)
    tm = estimate_transition_markovian(
        build_dynamics(cfg), build_grid(cfg), samples_per_cell=200, rng=np.random.default_rng(transition_ss)
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg, transition=tm)
    assert np.array_equal(a.estimates, b.estimates)


def test_oracle_check_runs_clean():
    assert oracle_check(n_scenarios=5, seed=1) <= 1e-10


def test_random_small_scenario_brute_force_budget():
    rng = np.random.default_rng(2)
    grid, tm, scene, observations, prior = random_small_scenario(rng, 2, 1, 3)
    session = GridFilter(grid, tm, scene, prior)
    records = session.run_tracking(observations)
    reference = brute_force_posterior(grid, tm, scene, observations, prior)
    assert np.max(np.abs(np.stack([r.belief for r in records]) - reference)) <= 1e-10
