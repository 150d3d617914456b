"""Scenario configuration, the bundled benchmark experiment, metrics and file IO.

A scenario is described by a single hierarchical JSON document (all fields
snake_case, unknown fields rejected), one object per config dataclass.  A
field's annotation is its JSON shape (``tuple[X, ...]`` a list of ``X``,
``X | None`` an ``X`` that may be left out), and a field declared with
``_read_by(kind, default)`` is read only by that ``kind`` of its section.  A
field is required exactly when its dataclass field has no default; an absent
optional field takes that default.  The document is valid exactly when
``build`` can construct the objects a run uses from it; an ``out_dir`` that
cannot be created or written into is a ``ConfigError`` as well, and a
directory at any artifact path is one before the first phase.  ``streams``
owns the seed layout and ``simulate`` draws the truth and its observations.
``run_experiment`` drives the whole pipeline: estimate the transition
matrix offline, simulate, run the tracking filter, predict gain maps at
snapshot times and write the artifacts:

* ``state_trace.csv``   -- ``t, true_x1, ..., est_x1, ...`` per observation
* ``map_t<k>.csv``      -- ``qx_m, qy_m, true_gain_db, pred_gain_db``
* ``metrics.json``      -- RMSEs, resets, phase runtimes, resolved seed, config echo,
  and filter health: ``observation_conditioning`` (the smallest
  observation-covariance eigenvalue over the grid's kernel parameters,
  ``min_u (theta1_u lam_min + sigma_xi_sq)`` with ``lam_min`` from one
  kernel eigenbasis per correlation distance),
  ``reset_times`` (the timesteps of belief resets) and ``patched_columns``
  (the integer count of transition columns patched uniform for
  never-visited cells)
* ``config_echo.json``  -- the resolved configuration, less the fields its kinds do not read

Identical configurations produce byte-identical CSV artifacts.  A saved chain,
``transition.bin``, is a 112-byte header (the magic ``CGRIDP3\\0``, the sha256 of
the canonical JSON of the echo's ``grid``, ``dynamics`` and ``quantization``, the
patched count as ``<q``), then the row-major ``<f8`` matrix.  It loads only for a
config with those three sections; the seed and the ``transition`` budget are not
part of that key, so one chain serves many seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
import struct
import time
import types
import typing
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import (
    ChannelScene,
    ObservationBatch,
    StateCoord,
    StateToChannelMap,
    kernel_eval,
    observation_conditioning,
    point_path_loss,
    sample_joint_field,
    sample_observation,
)
from .filtering import GridFilter, brute_force_posterior
from .grid import GridSpec, reconstruction_matrix
from .kriging import QuerySpec, predict_gain_map
from .util import single_thread_blas
from .markov import (
    StateDynamics,
    TransitionMatrix,
    coupled_tanh_dynamics,
    estimate_transition_marginal,
    estimate_transition_markovian,
    finite_chain_dynamics,
    horizon_steps,
    initial_belief,
    simulate_trajectory,
)

__all__ = [
    "ConfigError",
    "PhaseFailure",
    "GridConfig",
    "DynamicsConfig",
    "TransitionBudget",
    "SensorConfig",
    "KernelConfig",
    "SceneConfig",
    "QueryGridConfig",
    "ScenarioConfig",
    "RunMetrics",
    "benchmark_config",
    "config_from_dict",
    "config_from_json",
    "config_to_dict",
    "build_grid",
    "build_dynamics",
    "build_scene",
    "query_points",
    "estimate_transition",
    "build",
    "streams",
    "simulate",
    "run_experiment",
    "save_transition",
    "load_transition",
    "random_small_scenario",
    "oracle_check",
]


class ConfigError(ValueError):
    """A scenario configuration failed validation; the message names the field."""


class PhaseFailure(RuntimeError):
    """A pipeline phase failed; carries the phase name for diagnostics."""

    def __init__(self, phase: str, original: BaseException):
        super().__init__(f"phase {phase!r} failed: {original}")
        self.phase = phase


_SCALARS = {int: numbers.Integral, float: numbers.Real, str: str}


def _convert(value, path: str, hint):
    """``value`` read as the field annotation ``hint``.

    ``X | None`` reads as ``X`` (JSON ``null`` is no field's value),
    ``tuple[X, ...]`` as a list of ``X`` and a config section by
    :func:`_read`; a ``hint`` that is none of these nor a scalar is a reader,
    called as ``hint(value, path)``.
    No JSON type is coerced into another (a string is not a number or a
    list, a bool is not a number), except that an integer reads as a float.
    A float must be finite: ``json.load`` reads ``NaN`` and ``Infinity``.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (hint,) = (a for a in args if a is not type(None))
        return _convert(value, path, hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return tuple(_convert(v, f"{path}[{i}]", args[0]) for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return _read(value, path, hint)
    if hint not in _SCALARS:
        return hint(value, path)
    if isinstance(value, bool) or not isinstance(value, _SCALARS[hint]):
        raise ConfigError(f"{path} must be of type {hint.__name__}, got {value!r}")
    try:
        out = hint(value)
    except OverflowError:  # an integer literal beyond the float range
        out = np.inf
    if hint is float and not np.isfinite(out):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return out


def _read_by(kind: str, default):
    """A field that only one ``kind`` of its section reads, which the echo leaves out under another.

    A section's kind is its ``kind`` field; that of ``transition`` is the
    ``quantization``.  Under another kind a ``dynamics`` or ``scene.sensors``
    field must keep ``default``; a ``transition`` budget need not, so that
    one config runs in either mode (``--mode``).
    """
    return field(default=default, metadata={"kind": kind})


def _unread(f: dataclasses.Field, kind) -> bool:
    """Whether a section of ``kind`` does not read its field ``f``."""
    return "kind" in f.metadata and f.metadata["kind"] != kind


@dataclass(frozen=True)
class GridConfig:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cells: tuple[int, ...]


@dataclass(frozen=True)
class DynamicsConfig:
    kind: str
    gamma: float = _read_by("coupled_tanh", 1.6)
    initial_state: tuple[float, ...] = _read_by("coupled_tanh", (2.0, 25.3))
    points: tuple[tuple[float, ...], ...] | None = _read_by("finite_chain", None)
    matrix: tuple[tuple[float, ...], ...] | None = _read_by("finite_chain", None)
    initial_index: int = _read_by("finite_chain", 0)


@dataclass(frozen=True)
class TransitionBudget:
    samples_per_cell: int = _read_by("markovian", 2_000)
    n_paths: int = _read_by("marginal", 100)
    path_length: int = _read_by("marginal", 10_000)


@dataclass(frozen=True)
class SensorConfig:
    kind: str
    n: int = _read_by("lattice", 30)
    positions: tuple[tuple[float, ...], ...] | None = _read_by("fixed", None)


@dataclass(frozen=True)
class KernelConfig:
    params: tuple[_kernel_binding, ...]
    form: str = "exponential-isotropic"


@dataclass(frozen=True)
class SceneConfig:
    ref_pos: tuple[float, ...]
    sensors: SensorConfig
    sigma_xi_sq: float
    kernel: KernelConfig
    mu_index: int = 0


@dataclass(frozen=True)
class QueryGridConfig:
    nx: int
    ny: int
    region: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridConfig
    dynamics: DynamicsConfig
    quantization: str
    scene: SceneConfig
    timesteps: int
    query_grid: QueryGridConfig
    seed: int
    transition: TransitionBudget = TransitionBudget()
    horizon: int = 0
    map_snapshots: tuple[int, ...] = ()
    out_dir: str | None = None

    def validate(self) -> "ScenarioConfig":
        """``self``, if its objects build; otherwise :func:`build` raises a ``ConfigError``."""
        build(self)
        return self


def _kernel_binding(data, path: str) -> tuple:
    """One kernel parameter binding, ``{"state": i}`` or ``{"const": v}``, as ``(tag, value)``."""
    if not isinstance(data, dict) or len(data) != 1:
        raise ConfigError(f"{path} must set exactly one of 'state' or 'const'")
    ((tag, value),) = data.items()
    if tag not in ("state", "const"):
        raise ConfigError(f"unknown field {tag!r} in {path}")
    return tag, _convert(value, f"{path}.{tag}", int if tag == "state" else float)


def _read(data, path: str, cls):
    """The config section ``cls`` read from the JSON object ``data`` at ``path``.

    Unknown, missing or mistyped fields raise ``ConfigError`` naming the
    field.  A field is required exactly when its dataclass field has no
    default; an absent optional one takes that default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    hints, out = typing.get_type_hints(cls), {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown field {key!r} in {path}")
        out[key] = _convert(value, f"{path}.{key}", hints[key])
    for f in dataclasses.fields(cls):
        if f.default is f.default_factory is dataclasses.MISSING and f.name not in data:
            raise ConfigError(f"missing field {f.name!r} in {path}")
    return cls(**out)


def config_from_dict(data: dict) -> ScenarioConfig:
    return _read(data, "config", ScenarioConfig).validate()


def config_from_json(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return config_from_dict(data)


def config_to_dict(cfg, kind=None) -> dict:
    """Plain-JSON echo of a config or section (inverse of ``config_from_dict``), less fields unset or unread.

    ``kind`` is the kind of a section with no ``kind`` field, which its parent passes down.
    """
    kind = getattr(cfg, "kind", kind)
    quantization = getattr(cfg, "quantization", None)
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is not None and not _unread(f, kind):
            out[f.name] = config_to_dict(value, quantization) if dataclasses.is_dataclass(value) else value
    if isinstance(cfg, KernelConfig):
        out["params"] = [{tag: value} for tag, value in cfg.params]
    return out


def benchmark_config(out_dir=None, seed: int = 20260810) -> ScenarioConfig:
    """The default synthetic benchmark scenario at full scale.

    30 sensors sampled from a 60x60 lattice over [0, 40]^2 m, reference
    antenna at (25, 10), multipath variance 2 dB^2, exponential kernel with
    the correlation distance fixed at 10 m and the shadowing power bound to
    the second state coordinate, coupled-tanh dynamics on a 30x30 grid over
    [0, 4] x [25, 25.6], 250 tracking steps at horizon 0, with two gain-map
    snapshots.
    """
    cfg = ScenarioConfig(
        grid=GridConfig(lower=(0.0, 25.0), upper=(4.0, 25.6), cells=(30, 30)),
        dynamics=DynamicsConfig(kind="coupled_tanh", gamma=1.6, initial_state=(2.0, 25.3)),
        quantization="markovian",
        transition=TransitionBudget(),
        scene=SceneConfig(
            ref_pos=(25.0, 10.0),
            sensors=SensorConfig(kind="lattice", n=30),
            sigma_xi_sq=2.0,
            kernel=KernelConfig(params=(("state", 1), ("const", 10.0))),
            mu_index=0,
        ),
        timesteps=250,
        horizon=0,
        query_grid=QueryGridConfig(nx=60, ny=60, region=((0.0, 40.0), (0.0, 40.0))),
        map_snapshots=(124, 249),
        seed=seed,
        out_dir=str(out_dir) if out_dir is not None else None,
    )
    return cfg.validate()


def build_grid(cfg: ScenarioConfig) -> GridSpec:
    return GridSpec(cfg.grid.lower, cfg.grid.upper, cfg.grid.cells)


def build_dynamics(cfg: ScenarioConfig) -> StateDynamics:
    d = cfg.dynamics
    if d.kind == "coupled_tanh":
        return coupled_tanh_dynamics(gamma=d.gamma, initial=d.initial_state)
    return finite_chain_dynamics(d.points, d.matrix, initial_index=d.initial_index)


def query_points(cfg: ScenarioConfig) -> np.ndarray:
    """Evaluation lattice: cell centers of the query region, x varying fastest."""
    (x0, x1), (y0, y1) = cfg.query_grid.region
    nx, ny = cfg.query_grid.nx, cfg.query_grid.ny
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _state_map(cfg: ScenarioConfig) -> StateToChannelMap:
    bindings = tuple(StateCoord(value) if tag == "state" else value for tag, value in cfg.scene.kernel.params)
    return StateToChannelMap(mu_index=cfg.scene.mu_index, theta_bindings=bindings)


def build_scene(cfg: ScenarioConfig, rng) -> ChannelScene:
    """Realize the scene; lattice sensors are sampled without replacement from the query lattice.

    ``rng`` is used only for lattice sensors; fixed ones are taken as given.
    """
    sc = cfg.scene
    positions = sc.sensors.positions
    if sc.sensors.kind == "lattice":
        lattice = query_points(cfg)
        positions = lattice[rng.choice(len(lattice), size=sc.sensors.n, replace=False)]
    return ChannelScene(ref_pos=sc.ref_pos, sensors=positions, sigma_xi_sq=sc.sigma_xi_sq, state_map=_state_map(cfg))


def estimate_transition(cfg: ScenarioConfig, dyn: StateDynamics, grid: GridSpec, rng) -> TransitionMatrix:
    if cfg.quantization == "markovian":
        return estimate_transition_markovian(dyn, grid, samples_per_cell=cfg.transition.samples_per_cell, rng=rng)
    return estimate_transition_marginal(
        dyn, grid, n_paths=cfg.transition.n_paths, path_length=cfg.transition.path_length, rng=rng
    )


Streams = namedtuple("Streams", "sensor transition truth obs")


def streams(cfg: ScenarioConfig) -> Streams:
    """A run's generators, one per consumer, from the five children of ``cfg.seed`` in this fixed order.

    The third child is unused, since the initial state is fixed; it is still
    spawned so that the truth and observation streams keep their seeds.
    """
    sensor, transition, _, truth, obs = np.random.SeedSequence(cfg.seed).spawn(5)
    return Streams(*(np.random.default_rng(ss) for ss in (sensor, transition, truth, obs)))


@contextmanager
def _fields(names: str):
    """Raise a constructor's ``ValueError`` as a ``ConfigError`` naming the config fields it was built from."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{names}: {e}") from e


def build(cfg: ScenarioConfig):
    """The objects a run uses, ``(grid, dynamics, scene, query points)``; building them validates ``cfg``.

    A constructor's ``ValueError`` becomes a ``ConfigError`` naming its config
    fields; the checks written here are those no constructor makes.  A
    ``dynamics`` or ``scene.sensors`` field that the section's kind does not
    read is one, unless it keeps its default.  Lattice sensors are drawn from
    the run's own sensor stream.
    """
    sc = cfg.scene
    for name, value, allowed in (
        ("quantization", cfg.quantization, ("markovian", "marginal")),
        ("dynamics.kind", cfg.dynamics.kind, ("coupled_tanh", "finite_chain")),
        ("scene.sensors.kind", sc.sensors.kind, ("lattice", "fixed")),
        ("scene.kernel.form", sc.kernel.form, ("exponential-isotropic",)),
    ):
        if value not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")
    for name, section in (("dynamics", cfg.dynamics), ("scene.sensors", sc.sensors)):
        for f in dataclasses.fields(section):
            if _unread(f, section.kind) and getattr(section, f.name) != f.default:
                raise ConfigError(f"{name}.{f.name} is not read by {name}.kind {section.kind!r}")
    for name, least in (("samples_per_cell", 1), ("n_paths", 1), ("path_length", 2)):
        if getattr(cfg.transition, name) < least:
            raise ConfigError(f"transition.{name} must be >= {least}")
    if cfg.timesteps < 0:
        raise ConfigError("timesteps must be >= 0")
    with _fields("horizon"):
        horizon_steps(cfg.horizon)
    for k in cfg.map_snapshots:
        if not 0 <= k < cfg.timesteps:
            raise ConfigError(f"map_snapshots entry {k} outside [0, timesteps)")
    if len(set(cfg.map_snapshots)) != len(cfg.map_snapshots):
        raise ConfigError("map_snapshots entries must be distinct")
    with _fields("grid"):
        grid = build_grid(cfg)
    d = cfg.dynamics
    with _fields(", ".join(f"dynamics.{f.name}" for f in dataclasses.fields(d) if f.metadata.get("kind") == d.kind)):
        dyn = build_dynamics(cfg)
    if dyn.dim != grid.ndim:
        raise ConfigError(f"dynamics ({d.kind}) has {dyn.dim}-dimensional states; the grid has {grid.ndim} dimensions")
    if len(sc.kernel.params) != 2:
        raise ConfigError("scene.kernel.params must have 2 entries (shadowing power, correlation distance)")
    (power_tag, power), (dist_tag, dist) = sc.kernel.params
    if power_tag == "const" and power < 0.0:
        raise ConfigError("scene.kernel.params[0] (shadowing power) must be >= 0")
    if dist_tag == "const" and dist <= 0.0:
        raise ConfigError("scene.kernel.params[1] (correlation distance) must be > 0")
    with _fields("scene.mu_index, scene.kernel.params"):
        state_map = _state_map(cfg)
    if state_map.state_dim_required > grid.ndim:
        raise ConfigError(f"scene.mu_index, scene.kernel.params: the grid has only {grid.ndim} coordinates")
    states = reconstruction_matrix(grid).T  # the states the filter weighs, and the chain states the truth visits
    if d.kind == "finite_chain":
        states = np.vstack([states, d.points])
    with _fields("scene.kernel.params at a grid cell center or chain point"):
        kernel_eval(0.0, state_map.theta_of(states))
    qg = cfg.query_grid
    if qg.nx < 1 or qg.ny < 1:
        raise ConfigError("query_grid.nx and query_grid.ny must be >= 1")
    if len(qg.region) != 2 or any(len(r) != 2 for r in qg.region):
        raise ConfigError("query_grid.region must be two [lower, upper] pairs")
    for axis, (lo, hi) in enumerate(qg.region):
        if not lo < hi:
            raise ConfigError(f"query_grid.region[{axis}] must satisfy lower < upper")
    queries = query_points(cfg)
    with _fields("seed"):
        sensor_rng = streams(cfg).sensor
    sensors = "scene.sensors.positions" if sc.sensors.kind == "fixed" else "scene.sensors.n, query_grid"
    with _fields(f"scene.ref_pos, scene.sigma_xi_sq, {sensors}"):
        scene = build_scene(cfg, sensor_rng)
    if sc.sensors.kind == "lattice" or cfg.map_snapshots:
        with _fields("query_grid"):
            point_path_loss(scene.ref_pos, queries, label="query point")
    return grid, dyn, scene, queries


def simulate(
    scene: ChannelScene, dyn: StateDynamics, T: int, rho: int, truth_rng, obs_rng, queries=None, field_times=()
):
    """``(trajectory, observations, fields)``: ``T + rho`` steps of ``dyn`` and what the sensors and maps see.

    Observation ``t`` is drawn at trajectory row ``t + 1``.  ``fields[k]``,
    for each ``k`` in ``field_times``, is the noiseless gain over ``queries``
    at time ``k + rho``, drawn jointly with that time's observation.
    """
    targets = {k + rho: k for k in field_times}
    observations: list[ObservationBatch] = []
    fields: dict[int, np.ndarray] = {}
    with single_thread_blas():
        trajectory = simulate_trajectory(dyn, T + rho, truth_rng)
        for t in range(T + rho):
            if t in targets:
                obs, fields[targets[t]] = sample_joint_field(scene, t, trajectory[t + 1], queries, obs_rng)
            elif t < T:
                obs = sample_observation(scene, t, trajectory[t + 1], obs_rng)
            if t < T:
                observations.append(obs)
    return trajectory, observations, fields


@dataclass
class RunMetrics:
    """Per-run results: estimates paired with their truth targets and summary metrics."""

    timesteps: np.ndarray
    estimates: np.ndarray
    truths: np.ndarray
    rmse_state: np.ndarray
    rmse_map: dict[int, float]
    resets: int
    runtime_s: dict[str, float]
    resolved_seed: int
    out_dir: Path | None = None
    artifacts: list[Path] = field(default_factory=list)


def _write_csv(path: Path, header, rows) -> None:
    """The column names, then one line per row: a Python ``int`` as is, any other value as ``repr(float(v))``."""
    cells = (",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) for row in rows)
    path.write_text("\n".join([",".join(header), *cells]) + "\n")


@contextmanager
def _phase(runtime_s: dict[str, float], name: str):
    """Add the phase's elapsed time to ``runtime_s[name]`` and raise its failures as ``PhaseFailure``.

    A ``PhaseFailure`` from a nested phase passes through, keeping the inner
    name, and so does a ``ConfigError``.
    """
    start = time.perf_counter()
    try:
        yield
    except (PhaseFailure, ConfigError):
        raise
    except Exception as e:
        raise PhaseFailure(name, e) from e
    finally:
        runtime_s[name] = runtime_s.get(name, 0.0) + time.perf_counter() - start


@contextmanager
def _writing(cfg: ScenarioConfig):
    """Raise an ``OSError`` from creating or writing into ``cfg.out_dir`` as a ``ConfigError`` naming it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"out_dir: cannot write to {cfg.out_dir!r}: {e}") from e


def _make_out_dir(cfg: ScenarioConfig, artifacts=()) -> Path | None:
    """Create ``cfg.out_dir`` (``None`` when unset) for the named ``artifacts``.

    A path that cannot be a directory, or a directory at an artifact's
    path, is a ``ConfigError``; so a run checks every path it will write
    before its first phase.
    """
    if cfg.out_dir is None:
        return None
    out = Path(cfg.out_dir)
    with _writing(cfg):
        out.mkdir(parents=True, exist_ok=True)
    for name in artifacts:
        if (out / name).is_dir():
            raise ConfigError(f"out_dir: cannot write to {cfg.out_dir!r}: {name} is a directory")
    return out


def run_experiment(
    cfg: ScenarioConfig,
    transition: TransitionMatrix | None = None,
    write_trace: bool = True,
    write_maps: bool = True,
) -> RunMetrics:
    """Run the full pipeline.

    A faulty config, an uncreatable ``out_dir`` or a directory at a path the
    run will write raises ``ConfigError`` before any phase.  Passing a
    precomputed ``transition`` skips the offline estimation phase (its
    budget settings are then ignored).  Artifacts are written only when
    ``cfg.out_dir`` is set; metric computation happens regardless.
    """
    grid, dyn, scene, queries = build(cfg)
    maps = [f"map_t{k}.csv" for k in sorted(cfg.map_snapshots)] if write_maps else []
    artifacts = (["state_trace.csv"] if write_trace else []) + maps + ["metrics.json", "config_echo.json"]
    out = _make_out_dir(cfg, artifacts)
    rngs = streams(cfg)
    runtime_s: dict[str, float] = {}

    with _phase(runtime_s, "setup"):
        conditioning = observation_conditioning(scene, 0, scene.state_map.theta_of(reconstruction_matrix(grid).T))

    with _phase(runtime_s, "transition"):
        if transition is None:
            transition = estimate_transition(cfg, dyn, grid, rngs.transition)

    with _phase(runtime_s, "simulate"):
        T, rho = cfg.timesteps, cfg.horizon
        trajectory, observations, true_fields = simulate(
            scene, dyn, T, rho, rngs.truth, rngs.obs, queries, cfg.map_snapshots
        )

    pred_maps: dict[int, np.ndarray] = {}
    snapshot_set = set(cfg.map_snapshots)
    spec = QuerySpec(queries) if snapshot_set else None

    def snapshot_maps(session_, obs_, record_):
        if obs_.t in snapshot_set:
            with _phase(runtime_s, "predict"):
                pred_maps[obs_.t] = predict_gain_map(session_, obs_, spec)

    runtime_s["predict"] = 0.0
    with _phase(runtime_s, "track"):
        prior = initial_belief(dyn, grid)
        session = GridFilter(grid, transition, scene, prior, rho=rho)
        records = session.run_tracking(observations, on_record=snapshot_maps)
    runtime_s["track"] -= runtime_s["predict"]  # the predict phase runs nested inside track

    times = np.array([r.t for r in records])
    estimates = np.stack([r.estimate for r in records])
    truths = np.stack([trajectory[t + 1 + rho] for t in times])
    rmse_state = np.sqrt(np.mean((estimates - truths) ** 2, axis=0))
    rmse_map = {
        k: float(np.sqrt(np.mean((pred_maps[k] - true_fields[k]) ** 2))) for k in sorted(pred_maps)
    }
    metrics = RunMetrics(
        timesteps=times,
        estimates=estimates,
        truths=truths,
        rmse_state=rmse_state,
        rmse_map=rmse_map,
        resets=session.reset_count,
        runtime_s=runtime_s,
        resolved_seed=cfg.seed,
    )

    if out is not None:
        with _phase(runtime_s, "write"), _writing(cfg):
            if write_trace:
                m = truths.shape[1]
                header = ["t", *(f"true_x{i + 1}" for i in range(m)), *(f"est_x{i + 1}" for i in range(m))]
                rows = ((int(t), *tru, *est) for t, tru, est in zip(times, truths, estimates))
                _write_csv(out / "state_trace.csv", header, rows)
            if write_maps:
                for k in sorted(pred_maps):
                    rows = np.column_stack([queries, true_fields[k], pred_maps[k]])
                    _write_csv(out / f"map_t{k}.csv", ["qx_m", "qy_m", "true_gain_db", "pred_gain_db"], rows)
            echo = config_to_dict(cfg)
            payload = {
                "rmse_state": [float(v) for v in rmse_state],
                "rmse_map": {str(k): v for k, v in rmse_map.items()},
                "resets": metrics.resets,
                "reset_times": list(session.reset_events),
                "observation_conditioning": conditioning,
                "patched_columns": transition.patched_columns,
                "runtime_s": runtime_s,
                "resolved_seed": cfg.seed,
                "config": echo,
            }
            for name, doc in (("metrics.json", payload), ("config_echo.json", echo)):
                (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        metrics.out_dir, metrics.artifacts = out, [out / name for name in artifacts]
    return metrics


TRANSITION_MAGIC = b"CGRIDP3\x00"
_TRANSITION_KEY = ("grid", "dynamics", "quantization")
_TRANSITION_HEADER = struct.Struct("<8s32s32s32sq")  # the magic, a digest per key section, the patched count


def _transition_key(cfg: ScenarioConfig) -> list[bytes]:
    """The sha256 of each key section's canonical JSON, from the echo read back, so an ``int`` keys as a ``float``."""
    echo = config_to_dict(_read(config_to_dict(cfg), "config", ScenarioConfig))
    return [hashlib.sha256(json.dumps(echo[name], sort_keys=True).encode()).digest() for name in _TRANSITION_KEY]


def save_transition(path, transition: TransitionMatrix, cfg: ScenarioConfig) -> None:
    """Persist a transition matrix estimated for ``cfg``: the header, then row-major little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(_TRANSITION_HEADER.pack(TRANSITION_MAGIC, *_transition_key(cfg), transition.patched_columns))
        fh.write(memoryview(np.ascontiguousarray(transition.matrix, dtype="<f8")))


def load_transition(path, cfg: ScenarioConfig) -> TransitionMatrix:
    """Read a file written by :func:`save_transition` for ``cfg``'s grid, dynamics and quantization.

    Another header (as the first two versions') is "bad magic"; another key section, a size other
    than ``cfg``'s grid's or a patched count outside ``[0, n_cells]`` is a ``ValueError`` as well.
    """
    with open(path, "rb") as fh:
        head = fh.read(_TRANSITION_HEADER.size)
        if head[:8] != TRANSITION_MAGIC or len(head) != _TRANSITION_HEADER.size:
            raise ValueError(f"{path}: not a transition matrix file (bad magic)")
        _, *digests, patched = _TRANSITION_HEADER.unpack(head)
        other = [name for name, a, b in zip(_TRANSITION_KEY, digests, _transition_key(cfg)) if a != b]
        if other:
            raise ValueError(f"{path}: estimated for another {' and '.join(other)} than the config's")
        n = build_grid(cfg).n_cells
        expected = _TRANSITION_HEADER.size + 8 * n * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:  # checked before the payload is allocated
            raise ValueError(f"{path}: expected {expected} bytes for {n} cells, got {size}")
        matrix = np.empty((n, n), dtype="<f8")
        if fh.readinto(matrix) != size - _TRANSITION_HEADER.size:
            raise ValueError(f"{path}: file shrank while it was read")
    return TransitionMatrix(matrix, mode=cfg.quantization, patched_columns=patched)


def random_small_scenario(rng, n_cells: int, n_sensors: int, n_obs: int):
    """A randomized small tracking scenario for oracle comparisons.

    Returns ``(grid, transition, scene, observations, initial_belief)`` with
    a random column-stochastic chain, random sensor geometry and observations
    sampled from the channel model at random in-box states.
    """
    if rng.random() < 0.5:
        grid = GridSpec((0.0,), (4.0,), (n_cells,))
        bindings = (float(rng.uniform(5.0, 30.0)), float(rng.uniform(4.0, 15.0)))
    else:
        grid = GridSpec((0.0, 20.0), (4.0, 30.0), (n_cells, 1))
        bindings = (StateCoord(1), float(rng.uniform(4.0, 15.0)))
    state_map = StateToChannelMap(mu_index=0, theta_bindings=bindings)
    scene = ChannelScene(
        ref_pos=np.array([25.0, 10.0]),
        sensors=rng.uniform(0.0, 40.0, size=(n_sensors, 2)),
        sigma_xi_sq=float(rng.uniform(0.5, 3.0)),
        state_map=state_map,
    )
    cols = rng.random((n_cells, n_cells)) + 0.1
    transition = TransitionMatrix(cols / cols.sum(axis=0), mode="markovian")
    prior = rng.random(n_cells) + 0.05
    prior /= prior.sum()
    observations = []
    for t in range(n_obs):
        x = rng.uniform(np.asarray(grid.lower), np.asarray(grid.upper))
        observations.append(sample_observation(scene, t, x, rng))
    return grid, transition, scene, observations, prior


def oracle_check(n_scenarios: int = 50, seed: int = 0) -> float:
    """Max belief discrepancy between the recursion and path enumeration.

    Runs randomized small scenarios and compares ``run_tracking`` beliefs
    against ``brute_force_posterior`` in the sup norm; returns the worst
    error over all scenarios and timesteps.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_scenarios):
        n_cells = int(rng.integers(2, 5))
        n_sensors = int(rng.integers(1, 4))
        n_obs = int(rng.integers(4, 8))
        grid, transition, scene, observations, prior = random_small_scenario(rng, n_cells, n_sensors, n_obs)
        session = GridFilter(grid, transition, scene, prior)
        records = session.run_tracking(observations)
        reference = brute_force_posterior(grid, transition, scene, observations, prior)
        beliefs = np.stack([r.belief for r in records])
        worst = max(worst, float(np.max(np.abs(beliefs - reference))))
    return worst
