"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the benchmark is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chantrack import filtering, harness, kriging  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name):
    out = workloads.WORKLOADS[name](SEED, 0.0, tiny=True)
    assert out.attempted >= 1
    assert out.failed == 0, out.notes
    assert len(out.setup_s) == (workloads.MIN_EXPERIMENTS if name == "experiment" else workloads.SETUPS)
    assert all(v > 0 for v in workloads.summary(out).values())


def test_corrupted_beliefs_count_as_failed_updates(monkeypatch):
    step = filtering.GridFilter.step
    probe = workloads.TRACK_BLOCK // 2

    def corrupt(self, obs):
        belief = step(self, obs)
        if obs.t == probe:  # still on the simplex; only the reference check can see it
            return belief[::-1].copy()
        if obs.t == 7:
            belief[0] = -belief[0] - 1e-3
        return belief

    monkeypatch.setattr(filtering.GridFilter, "step", corrupt)
    out = workloads.track_stream(SEED, 0.0, tiny=True)
    assert (out.attempted, out.failed) == ((workloads.SETUPS - 1) * workloads.TRACK_BLOCK, 2)


def test_corrupted_maps_count_as_failed_maps(monkeypatch):
    predict = kriging.predict_gain_map
    monkeypatch.setattr(kriging, "predict_gain_map", lambda *a: predict(*a) + 1e-6)
    out = workloads.map_stream(SEED, 0.0, tiny=True)
    assert out.attempted == (workloads.SETUPS - 1) * workloads.MAP_BLOCK // workloads.MAP_EVERY
    assert out.failed == out.attempted


def test_damaged_artifacts_count_as_failed_experiments(monkeypatch):
    run = harness.run_experiment
    calls = []

    def damage_second(cfg):
        metrics = run(cfg)
        calls.append(cfg)
        if len(calls) == 2:
            trace = Path(cfg.out_dir) / "state_trace.csv"
            trace.write_text(trace.read_text().replace("1", "2", 1))
        return metrics

    monkeypatch.setattr(harness, "run_experiment", damage_second)
    out = workloads.experiment(SEED, 0.0, tiny=True)
    assert (out.attempted, out.failed) == (workloads.MIN_EXPERIMENTS, 1)


def test_reference_update_matches_filter():
    cfg = workloads.scenario(SEED, tiny=True)
    stream = workloads._Stream(cfg, 0, workloads.Outcome(), None)
    prev = stream.session.belief.copy()
    obs = stream.observations(1)[0]
    belief = stream.session.step(obs)
    assert checks.update_error(stream.grid, stream.transition, stream.scene, prev, obs, belief) <= 1e-12


def test_tracer_records_layers_and_restores_the_api():
    originals = (filtering.GridFilter.step, kriging.predict_gain_map, harness.predict_gain_map)
    tracer = tracing.Tracer()
    with tracer:
        out = workloads.map_stream(SEED, 0.0, tiny=True, tracer=tracer)
    assert (filtering.GridFilter.step, kriging.predict_gain_map, harness.predict_gain_map) == originals
    assert out.failed == 0
    layers, absent = tracing.layer_metrics(tracer)
    assert absent == ["channel.sample_joint_field", "harness.run_experiment"]
    assert layers["kriging.points"] == 64
    assert layers["filtering.groups"] == 6
    assert layers["grid.cell_index_calls"] == 36
    assert 0 < layers["filtering.step_self_ms"] < layers["filtering.step_ms"]
    assert {s["op"] for s in tracer.spans} >= {"setup-0", "map-0"}
    json.dumps(tracer.dump())


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "d", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert np.allclose(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
