import copy
import json
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from chantrack import cli, harness
from chantrack.cli import main
from chantrack.harness import ConfigError, ScenarioConfig, benchmark_config, config_from_dict, config_to_dict

SMALL_CONFIG = {
    "grid": {"lower": [0.0, 25.0], "upper": [4.0, 25.6], "cells": [5, 5]},
    "dynamics": {"kind": "coupled_tanh"},
    "quantization": "markovian",
    "transition": {"samples_per_cell": 150},
    "scene": {
        "ref_pos": [25.0, 10.0],
        "sensors": {"kind": "lattice", "n": 4},
        "sigma_xi_sq": 2.0,
        "kernel": {"params": [{"state": 1}, {"const": 10.0}]},
    },
    "timesteps": 6,
    "horizon": 0,
    "query_grid": {"nx": 5, "ny": 5, "region": [[0.0, 40.0], [0.0, 40.0]]},
    "map_snapshots": [5],
    "seed": 31,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def test_experiment_command(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "state_trace.csv").exists()
    assert (out / "map_t5.csv").exists()
    assert (out / "metrics.json").exists()
    assert (out / "config_echo.json").exists()
    assert "state RMSE" in capsys.readouterr().out


def test_transition_then_track_then_map(config_path, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
    tpath = out / "transition.bin"
    assert tpath.exists()
    assert (
        main(["track", "--config", str(config_path), "--out", str(out), "--transition", str(tpath)])
        == 0
    )
    assert (out / "state_trace.csv").exists()
    assert (
        main(
            ["predict-map", "--config", str(config_path), "--out", str(out), "--transition", str(tpath)]
        )
        == 0
    )
    assert (out / "map_t5.csv").exists()
    assert "map_t5.csv" in capsys.readouterr().out


def test_track_reports_patched_columns_of_saved_transition(tmp_path, capsys):
    # a marginal chain from 2 short paths leaves columns unvisited; the count
    # goes through transition.bin into metrics.json, and an older file
    # without the key is rejected, not run on a chain of unknown origin
    cfg = copy.deepcopy(SMALL_CONFIG)
    cfg.update(quantization="marginal", transition={"n_paths": 2, "path_length": 20})
    config_path = tmp_path / "marginal.json"
    config_path.write_text(json.dumps(cfg))
    out = tmp_path / "artifacts"
    assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
    printed = int(capsys.readouterr().out.rsplit("patched_columns=", 1)[1].rstrip(")\n"))
    assert printed > 0
    tpath = out / "transition.bin"
    argv = ["track", "--config", str(config_path), "--out", str(out), "--transition"]
    assert main(argv + [str(tpath)]) == 0
    assert json.loads((out / "metrics.json").read_text())["patched_columns"] == printed

    blob = tpath.read_bytes()
    v2 = tmp_path / "v2.bin"  # the second version's header: cell count, mode tag 2 (marginal), patched count
    v2.write_bytes(b"CGRIDP2\x00" + struct.pack("<IIq", 25, 2, printed) + blob[112:])
    capsys.readouterr()
    assert main(argv + [str(v2)]) == 2
    assert "--transition" in (err := capsys.readouterr().err) and "bad magic" in err


def _transition_fault(blob: bytes, fault: str) -> bytes:
    """A saved transition file of ``SMALL_CONFIG`` (25 cells) with one fault; ``blob`` is a valid one.

    The header is 112 bytes: the magic, three section digests and the patched count.
    """
    if fault == "bad_magic":
        return b"NOTAGRID" + blob[8:]
    if fault in ("wrong_length", "shrank"):
        return blob[:-8]
    if fault == "v1":
        return b"CGRIDP1\x00" + struct.pack("<II", 25, 1) + blob[112:]
    if fault == "v2":
        return b"CGRIDP2\x00" + struct.pack("<IIq", 25, 1, 0) + blob[112:]
    if fault.startswith("patched"):
        return blob[:104] + struct.pack("<q", -1 if fault == "patched_negative" else 26) + blob[112:]
    return blob[:112] + struct.pack("<d", float("nan")) + blob[120:]  # nan_entry


# SMALL_CONFIG with one key section changed: a chain estimated for one of these does not fit SMALL_CONFIG
_OTHER_KEY = {
    "other_grid": {"grid": {"lower": [0.0, 25.0], "upper": [4.0, 25.6], "cells": [2, 1]}},
    "same_cells_other_grid": {"grid": {"lower": [0.0, 20.0], "upper": [4.0, 30.0], "cells": [5, 5]}},
    "other_dynamics": {"dynamics": {"kind": "coupled_tanh", "gamma": 1.7}},
    "other_mode": {"quantization": "marginal"},
}


@pytest.mark.parametrize("command", ["track", "predict-map"])
@pytest.mark.parametrize(
    "fault, named",
    [
        ("missing", "No such file"),
        ("bad_magic", "bad magic"),
        ("wrong_length", "expected"),
        ("nan_entry", "[0, 1]"),
        ("other_grid", "estimated for another grid than the config's"),
        ("same_cells_other_grid", "estimated for another grid than the config's"),
        ("other_dynamics", "estimated for another dynamics than the config's"),
        ("other_mode", "estimated for another quantization than the config's"),
        ("v1", "bad magic"),
        ("v2", "bad magic"),
        ("patched_negative", "patched_columns must be an integer in [0, 25], got -1"),
        ("patched_oversized", "patched_columns must be an integer in [0, 25], got 26"),
        ("shrank", "file shrank while it was read"),
    ],
)
def test_transition_file_faults_are_config_errors(config_path, tmp_path, capsys, monkeypatch, command, fault, named):
    # a missing or malformed file, or one estimated for another grid, dynamics
    # or quantization, is a config error: no crash, no run on a bad matrix
    out = tmp_path / "artifacts"
    assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.bin"
    if fault in _OTHER_KEY:
        other = tmp_path / "other.json"
        other.write_text(json.dumps(SMALL_CONFIG | _OTHER_KEY[fault]))
        with warnings.catch_warnings():  # the marginal chain patches the cells the dynamics never visits
            warnings.simplefilter("ignore")
            assert main(["transition", "--config", str(other), "--out", str(tmp_path / "other")]) == 0
        (tmp_path / "other" / "transition.bin").rename(bad)
    elif fault != "missing":
        blob = (out / "transition.bin").read_bytes()
        bad.write_bytes(_transition_fault(blob, fault))
    if fault == "shrank":  # the size check sees the uncut file, as when it is cut between the check and the read
        monkeypatch.setattr(harness.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    argv = [command, "--config", str(config_path), "--out", str(out), "--transition", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--transition" in err and named in err


@pytest.mark.parametrize(
    "change", [{"seed": 99}, {"transition": {"samples_per_cell": 7}}, {"transition": {"n_paths": 3, "path_length": 9}}]
)
def test_saved_chain_serves_another_seed_and_budget(config_path, tmp_path, change):
    # the seed and the transition budget are not part of a chain's key: one chain tracks many seeds
    out = tmp_path / "artifacts"
    assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(SMALL_CONFIG | change))
    for command in ("track", "predict-map"):
        argv = [command, "--config", str(other), "--out", str(out), "--transition", str(out / "transition.bin")]
        assert main(argv) == 0


def _numeric_leaves(node, path=""):
    """The dotted path of every numeric leaf of a JSON tree, as config errors name it."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _numeric_leaves(value, f"{path}.{key}".lstrip("."))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in _numeric_leaves(value, f"{path}[{i}]")]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _set_leaf(cfg, path: str, value):
    keys = [int(k) if k.isdigit() else k for k in path.replace("[", ".").replace("]", "").split(".")]
    holder = cfg
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("leaf", _numeric_leaves(SMALL_CONFIG))
def test_non_finite_number_is_config_error(tmp_path, capsys, leaf, value):
    # json.load reads NaN and Infinity; no such number may reach the pipeline
    cfg = copy.deepcopy(SMALL_CONFIG)
    _set_leaf(cfg, leaf, value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert leaf in capsys.readouterr().err


_CHAIN = {"kind": "finite_chain", "points": [[1.0, 25.1], [3.0, 25.5]], "matrix": [[0.7, 0.3], [0.3, 0.7]]}


@pytest.mark.parametrize(
    "dynamics, named",
    [
        ({"kind": "coupled_tanh", "gamma": float("nan")}, "dynamics.gamma"),
        ({"kind": "coupled_tanh", "gamma": float("inf")}, "dynamics.gamma"),
        ({"kind": "coupled_tanh", "initial_state": [float("nan"), 25.3]}, "dynamics.initial_state[0]"),
        (dict(_CHAIN, points=[[float("nan"), 25.1], [3.0, 25.5]]), "dynamics.points[0][0]"),
        (dict(_CHAIN, matrix=[[0.7, float("nan")], [0.3, 0.7]]), "dynamics.matrix[0][1]"),
        (dict(_CHAIN, matrix=[[1.5, 0.3], [-0.5, 0.7]]), "dynamics.matrix"),  # columns sum to 1
        (dict(_CHAIN, matrix=[[0.7, -0.3], [0.3, 1.3]]), "dynamics.matrix"),
        ({"kind": "coupled_tanh", "gamma": 10**400}, "dynamics.gamma"),  # an integer beyond the float range
        (dict(_CHAIN, points=[[1.0, 25.1], [3.0]]), "dynamics.points"),  # ragged rows
        (dict(_CHAIN, matrix=[[0.7, 0.3], [0.3]]), "dynamics.matrix"),
        (dict(_CHAIN, points=[[1.0, -25.1], [3.0, 25.5]]), "scene.kernel.params"),  # shadowing power < 0 at a chain point
        (dict(_CHAIN, initial_index=2), "dynamics.initial_index"),
        ({"kind": "coupled_tanh", "initial_state": [2.0]}, "dynamics.initial_state"),
        ({"kind": "coupled_tanh", "points": _CHAIN["points"]}, "dynamics.points"),  # fields coupled_tanh does not read
        ({"kind": "coupled_tanh", "matrix": _CHAIN["matrix"]}, "dynamics.matrix"),
        ({"kind": "coupled_tanh", "initial_index": 7}, "dynamics.initial_index"),
        (dict(_CHAIN, gamma=2.0), "dynamics.gamma"),  # a field finite_chain does not read
    ],
)
def test_malformed_dynamics_numbers_are_config_errors(tmp_path, capsys, dynamics, named):
    cfg = copy.deepcopy(SMALL_CONFIG)
    cfg["dynamics"] = dynamics
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


def test_finite_chain_config_runs(tmp_path):
    # the valid chain the rows above break, so each row tests only its fault
    cfg = copy.deepcopy(SMALL_CONFIG)
    cfg["dynamics"] = _CHAIN
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"lower": [0], "upper": [1], "cells": [2]}}))
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["experiment", "--config", str(tmp_path / "missing.json")]) == 2
    bad.write_text(json.dumps(SMALL_CONFIG)[:-1])
    capsys.readouterr()
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("timesteps", "x"), ("seed", "abc"), ("map_snapshots", "12")]
)
def test_unconvertible_field_is_config_error(config_path, tmp_path, capsys, field, value):
    cfg = json.loads(config_path.read_text())
    cfg[field] = value
    config_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value, named",
    [
        ("scene", "ref_pos", [1.0], "scene.ref_pos"),
        ("query_grid", "region", [[0.0, 40.0]], "query_grid.region"),
        ("query_grid", "region", [[0.0, 40.0, 50.0], [0.0, 40.0]], "query_grid.region"),
        ("scene", "kernel", {"params": [{"const": -1.0}, {"const": 10.0}]}, "scene.kernel.params[0]"),
        ("scene", "kernel", {"params": [{"state": 1}, {"const": 0.0}]}, "scene.kernel.params[1]"),
        ("scene", "kernel", {"params": [{"state": 1}]}, "scene.kernel.params"),
        ("scene", "kernel", {"params": [{"state": 1, "const": 25.0}, {"const": 10.0}]}, "params[0] must set exactly one"),
        ("scene", "kernel", {"params": [{"state": 1}, {}]}, "params[1] must set exactly one"),
        ("scene", "kernel", {"params": [{"stat": 1}, {"const": 10.0}]}, "'stat'"),
        ("scene", "kernel", {"form": "gaussian", "params": [{"state": 1}, {"const": 10.0}]}, "scene.kernel.form"),
        ("grid", "lower", [0.0, -5.0], "scene.kernel.params"),  # shadowing power bound to a range below 0
        ("scene", "sensors", {"kind": "fixed", "positions": [[1.0, 2.0, 3.0]]}, "scene.sensors.positions"),
        ("scene", "sensors", {"kind": "fixed", "positions": []}, "scene.sensors.positions"),
        ("scene", "sensors", {"kind": "fixed", "positions": [[25.0, 10.0]]}, "scene.sensors.positions"),
        ("scene", "mu_index", 1, "scene.mu_index"),  # coordinate 1 also holds the shadowing power
        ("query_grid", "region", [[24.0, 26.0], [9.0, 11.0]], "query_grid"),  # a lattice point sits on ref_pos
        ("transition", "samples_per_cell", -150, "transition.samples_per_cell"),
        ("scene", "sensors", {"kind": "lattice", "n": 4, "positions": [[20.0, 10.0]]}, "scene.sensors.positions"),
        ("scene", "sensors", {"kind": "fixed", "n": 9, "positions": [[20.0, 10.0]]}, "scene.sensors.n"),
    ],
)
def test_setup_failures_are_config_errors(config_path, tmp_path, capsys, section, field, value, named):
    # most of these used to pass validation and then fail in phase 'setup' or 'transition' (exit 3)
    cfg = json.loads(config_path.read_text())
    cfg[section][field] = value
    config_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


def test_missing_out_dir_is_config_error(config_path, capsys):
    assert main(["experiment", "--config", str(config_path)]) == 2
    assert "out_dir" in capsys.readouterr().err


FIRST_ARTIFACT = {
    "transition": "transition.bin",
    "track": "state_trace.csv",
    "predict-map": "map_t5.csv",
    "experiment": "state_trace.csv",
}
LAST_ARTIFACT = dict.fromkeys(FIRST_ARTIFACT, "metrics.json") | {"transition": "transition.bin"}


@pytest.mark.parametrize("command", ["transition", "track", "predict-map", "experiment"])
@pytest.mark.parametrize("out_kind", ["file", "under_file", "artifact_is_dir", "metrics_is_dir"])
def test_unusable_out_dir_is_config_error(config_path, tmp_path, capsys, monkeypatch, command, out_kind):
    # an --out that cannot be a directory, or a directory at any artifact path,
    # is refused before any phase runs and before any file is written
    argv = [command, "--config", str(config_path)]
    if command in ("track", "predict-map"):
        assert main(["transition", "--config", str(config_path), "--out", str(tmp_path / "t")]) == 0
        argv += ["--transition", str(tmp_path / "t" / "transition.bin")]
    blocker = tmp_path / "blocker"
    artifact = FIRST_ARTIFACT[command] if out_kind == "artifact_is_dir" else LAST_ARTIFACT[command]
    if out_kind.endswith("_is_dir"):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
    else:
        blocker.write_text("not a directory")
        out = blocker if out_kind == "file" else blocker / "out"
    phases = []
    real_phase = harness._phase

    def spy(runtime_s, name):
        phases.append(name)
        return real_phase(runtime_s, name)

    monkeypatch.setattr(harness, "_phase", spy)
    monkeypatch.setattr(cli, "_phase", spy)
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: out_dir" in err and "phase" not in err
    assert phases == []
    if out_kind.endswith("_is_dir"):
        assert artifact in err
        assert [p.name for p in out.iterdir()] == [artifact]
    else:
        assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["transition", "track", "predict-map", "experiment"])
@pytest.mark.parametrize("flag, named", [("--rho", "horizon"), ("--seed", "seed")])
def test_bad_override_is_config_error(config_path, tmp_path, capsys, command, flag, named):
    # an override is validated where the command builds its config, before any phase writes
    out = tmp_path / "artifacts"
    argv = [command, "--config", str(config_path), "--out", str(out), flag, "-1"]
    if command in ("track", "predict-map"):
        assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        argv += ["--transition", str(out / "transition.bin")]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (out / "metrics.json").exists()
    assert command != "transition" or not out.exists()


def test_seed_override_changes_artifacts(config_path, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["experiment", "--config", str(config_path), "--out", str(a)])
    main(["experiment", "--config", str(config_path), "--out", str(b), "--seed", "99"])
    main(["experiment", "--config", str(config_path), "--out", str(c), "--seed", "99"])
    trace_a = (a / "state_trace.csv").read_bytes()
    trace_b = (b / "state_trace.csv").read_bytes()
    trace_c = (c / "state_trace.csv").read_bytes()
    assert trace_a != trace_b
    assert trace_b == trace_c
    assert json.loads((b / "config_echo.json").read_text())["seed"] == 99


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--scenarios", "3", "--seed", "7"]) == 0
    assert "oracle-check" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--scenarios", "0"), ("--scenarios", "-5"), ("--seed", "-3")])
def test_oracle_check_bad_flag_is_config_error(capsys, flag, value):
    # a check over no scenarios checks nothing, and a negative seed is no seed: neither is OK or a numerical failure
    assert main(["oracle-check", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag} must be >=" in err and "numerical failure" not in err


def test_oracle_check_numerical_failure_exit_code(monkeypatch, capsys):
    def singular(**_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(cli, "oracle_check", singular)
    assert main(["oracle-check", "--scenarios", "2"]) == 3
    assert "numerical failure in phase 'oracle-check'" in capsys.readouterr().err


def test_predict_map_without_snapshots(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["transition", "--config", str(config_path), "--out", str(out)]) == 0
    cfg = json.loads(config_path.read_text())
    cfg["map_snapshots"] = []
    config_path.write_text(json.dumps(cfg))
    argv = ["predict-map", "--config", str(config_path), "--out", str(out), "--transition", str(out / "transition.bin")]
    assert main(argv) == 0
    assert "no map snapshots configured; nothing to write" in capsys.readouterr().err
    assert not list(out.glob("map_t*.csv"))


def test_numerical_failure_exit_code(tmp_path, capsys):
    # coincident sensors with zero multipath noise: the tracking-phase
    # factorization fails, which must surface as exit code 3 with phase context
    cfg = {
        "grid": {"lower": [0.0, 25.0], "upper": [4.0, 25.6], "cells": [3, 3]},
        "dynamics": {"kind": "coupled_tanh"},
        "quantization": "markovian",
        "transition": {"samples_per_cell": 50},
        "scene": {
            "ref_pos": [25.0, 10.0],
            "sensors": {"kind": "fixed", "positions": [[20.0, 10.0], [20.0, 10.0]]},
            "sigma_xi_sq": 0.0,
            "kernel": {"params": [{"state": 1}, {"const": 10.0}]},
        },
        "timesteps": 2,
        "horizon": 0,
        "query_grid": {"nx": 3, "ny": 3, "region": [[0.0, 40.0], [0.0, 40.0]]},
        "map_snapshots": [],
        "seed": 1,
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "phase" in err and "track" in err


@pytest.mark.parametrize("mode", ["markovian", "marginal"])
def test_transition_numerical_failure_exit_code(tmp_path, capsys, mode):
    # a chain that overflows to non-finite states fails in the transition phase, as `experiment` reports it
    cfg = copy.deepcopy(SMALL_CONFIG)
    cfg["dynamics"]["gamma"] = 1.7e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["transition", "--config", str(path), "--out", str(tmp_path / "out"), "--mode", mode])
    assert code == 3
    assert "numerical failure in phase 'transition'" in capsys.readouterr().err


def _leaf_mutations(node, path=()):
    """Every single-node mutation of a JSON tree as ``(path, label, new value)``.

    Every node but the root takes a value of each other JSON type; a string
    also takes another string, a number flips its sign, and a list also
    grows or shrinks by its last entry.
    """
    out = [(path, f"type_{type(other).__name__}", other) for other in _OTHER_TYPES if path and type(other) is not type(node)]
    if isinstance(node, dict):
        out += [m for key, value in node.items() for m in _leaf_mutations(value, path + (key,))]
    elif isinstance(node, str):
        out.append((path, "string", node + "_"))
    elif isinstance(node, list):
        out += [(path, "grow", node + node[-1:]), (path, "shrink", node[:-1])]
        out += [m for i, value in enumerate(node) for m in _leaf_mutations(value, path + (i,))]
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.append((path, "sign", -node))
    return out


_OTHER_TYPES = [None, True, "x", 3, 2.5, [], {}]
CHAIN_CONFIG = dict(
    SMALL_CONFIG,
    dynamics=_CHAIN,
    scene=dict(SMALL_CONFIG["scene"], sensors={"kind": "fixed", "positions": [[20.0, 10.0], [30.0, 14.0]]}),
)


def _mutants():
    """Each distinct config one leaf mutation of ``SMALL_CONFIG`` or ``CHAIN_CONFIG`` gives, with a test id."""
    out = {}
    for name, base in (("small", SMALL_CONFIG), ("chain", CHAIN_CONFIG)):
        for (*parents, leaf), label, value in _leaf_mutations(base):
            cfg = copy.deepcopy(base)
            holder = cfg
            for key in parents:
                holder = holder[key]
            holder[leaf] = value
            test_id = "-".join([name, ".".join(map(str, parents + [leaf])), label])
            out.setdefault(json.dumps(cfg, sort_keys=True), pytest.param(cfg, id=test_id))
    return list(out.values())


def test_echo_states_only_what_the_run_reads():
    # a field that its section's kind does not read is left out of the echo, which still reads back equal
    chain, small, bench = config_from_dict(CHAIN_CONFIG), config_from_dict(SMALL_CONFIG), benchmark_config()
    echo = config_to_dict(chain)
    assert {"gamma", "initial_state"}.isdisjoint(echo["dynamics"]) and "n" not in echo["scene"]["sensors"]
    assert "initial_index" not in config_to_dict(bench)["dynamics"]
    assert "positions" not in config_to_dict(small)["scene"]["sensors"]
    for cfg in (chain, small, bench):
        assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("cfg", _mutants())
def test_mutated_config_is_valid_or_config_error(tmp_path, cfg):
    # a config that parses runs to exit 0; one that raises ConfigError exits 2; nothing exits 1 or 3
    try:
        valid = isinstance(config_from_dict(cfg), ScenarioConfig)
    except ConfigError:
        valid = False
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == (0 if valid else 2)
