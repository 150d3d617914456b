import json
import os
import subprocess
import sys
from pathlib import Path

from chantrack.cli import main
from test_cli import SMALL_CONFIG

ROOT = Path(__file__).resolve().parents[1]


def _source_env(**extra):
    """The environment with ``src/`` first on ``PYTHONPATH``, plus ``extra`` variables."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_perfbench_selftest_passes():
    # pytest does not collect perfbench/selftest.py by default; it guards the API names perfbench traces
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_cli_exit_codes_reach_the_process(tmp_path):
    # `python -m chantrack.cli` exits through entry() and sys.exit with main()'s code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"lower": [0.0], "upper": [1.0], "cells": [2]}}))
    small, other = tmp_path / "small.json", tmp_path / "other.json"
    small.write_text(json.dumps(SMALL_CONFIG))
    other.write_text(json.dumps(SMALL_CONFIG | {"grid": {"lower": [0.0, 20.0], "upper": [4.0, 30.0], "cells": [5, 5]}}))
    assert main(["transition", "--config", str(other), "--out", str(tmp_path / "other")]) == 0
    track = ["track", "--config", str(small), "--out", str(tmp_path / "out"), "--transition"]
    env = _source_env()
    for argv, code, printed in (
        (["oracle-check", "--scenarios", "2"], 0, "oracle-check: max belief error"),
        (["experiment", "--config", str(bad), "--out", str(tmp_path / "out")], 2, "config error: missing field"),
        (["oracle-check", "--scenarios", "0"], 2, "config error: --scenarios"),
        (track + [str(tmp_path / "other" / "transition.bin")], 2, "another grid"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "chantrack.cli", *argv], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == code, proc.stdout[-4000:] + proc.stderr[-4000:]
        assert printed in proc.stdout + proc.stderr


MAP_DIGEST = """
import hashlib
import numpy as np
from chantrack.channel import ObservationBatch, observation_conditioning, path_loss_coeffs
from chantrack.filtering import GridFilter
from chantrack.harness import benchmark_config, build
from chantrack.kriging import QuerySpec, predict_gain_map
from chantrack.markov import TransitionMatrix

grid, _, scene, queries = build(benchmark_config())
rng = np.random.default_rng(7)
belief = rng.random(grid.n_cells)
session = GridFilter(grid, TransitionMatrix(np.eye(grid.n_cells), mode="markovian"), scene, belief / belief.sum())
alpha = path_loss_coeffs(scene, 0)
obs = ObservationBatch(t=0, y=2.0 * alpha + 3.0 * rng.standard_normal(len(alpha)), alpha=alpha)
gain = predict_gain_map(session, obs, QuerySpec(queries))
floor = observation_conditioning(scene, 0, scene.state_map.theta_of(session.X.T))
print(hashlib.sha256(gain.tobytes() + np.float64(floor).tobytes()).hexdigest())
"""


def test_map_and_floor_do_not_depend_on_blas_threads():
    # the benchmark lattice's map and the conditioning floor, under 1 and 2
    # OpenBLAS threads, must match byte for byte; about 3 s for both runs
    digests = []
    for threads in ("1", "2"):
        env = _source_env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", MAP_DIGEST], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_markovian_chain_does_not_depend_on_blas_threads(tmp_path):
    # the benchmark's Markovian transition.bin under 1 and 2 OpenBLAS threads,
    # byte for byte: the estimator calls no BLAS; about 2 s for both runs
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = _source_env(OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "chantrack.cli", "transition", "--mode", "markovian", "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
        files.append((out / "transition.bin").read_bytes())
    assert len(files[0]) == 112 + 900 * 900 * 8 and files[0] == files[1]
