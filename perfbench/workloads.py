"""The benchmark's three workloads, driven only through chantrack's public API.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come from the workload seed;
the program receives only the generated scene, chain and observations.
Calls go through module attributes (``markov.simulate_trajectory``, not an
imported name) so that a :class:`tracing.Tracer` sees them.

* ``experiment``   -- one operation is ``run_experiment(benchmark_config())``
  with artifacts written.  It is the only workload that runs the Markovian
  Monte-Carlo estimator inside the pipeline, the dense joint-field Cholesky
  for the map ground truth and the artifact write.
* ``track_stream`` -- one operation is one filter update of a long stream
  through ``run_tracking`` (marginal chain, ``rho = 2``, no maps): the
  likelihood and the ``P @ b`` / ``P_rho @ b`` matvecs do nearly all work.
* ``map_stream``   -- one operation is one ``predict_gain_map`` over the
  query lattice, after every ``MAP_EVERY``-th update (Markovian chain,
  ``rho = 0``): kriging dominates and no truth field is drawn.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from chantrack import channel, filtering, harness, kriging, markov

# Set-ups timed per run; setup_s is their median.  The streams repeat the
# set-up between blocks, outside the timed regions and discarding the result,
# so the samples span the run and one slow spell of a shared machine moves
# their median less than back-to-back repeats would.
SETUPS = 5
TRACK_BLOCK = 250  # updates pregenerated and passed to one run_tracking call
TRACK_RHO = 2
MAP_EVERY = 5
MAP_BLOCK = 10 * MAP_EVERY
MIN_EXPERIMENTS = 3


@dataclass
class Outcome:
    """What one workload run measured: per-operation latencies in seconds."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # wall time of the timed regions
    notes: list[str] = field(default_factory=list)


def scenario(seed: int, tiny: bool = False, out_dir=None) -> harness.ScenarioConfig:
    """The benchmark scenario, or a tiny one with the same structure for smoke tests."""
    cfg = harness.benchmark_config(out_dir=out_dir, seed=seed)
    if not tiny:
        return cfg
    return dataclasses.replace(
        cfg,
        grid=harness.GridConfig(cfg.grid.lower, cfg.grid.upper, (6, 6)),
        transition=harness.TransitionBudget(samples_per_cell=200, n_paths=20, path_length=400),
        scene=dataclasses.replace(cfg.scene, sensors=harness.SensorConfig(kind="lattice", n=6)),
        timesteps=12,
        query_grid=harness.QueryGridConfig(nx=8, ny=8, region=cfg.query_grid.region),
        map_snapshots=(5, 11),
    ).validate()


def _mark(tracer, op) -> None:
    if tracer is not None:
        tracer.op = op


class _Stream:
    """Set-ups and observation source shared by the two stream workloads."""

    def __init__(self, cfg: harness.ScenarioConfig, rho: int, out: Outcome, tracer):
        scene_ss, self._chain_ss, truth_ss, obs_ss = np.random.SeedSequence(cfg.seed).spawn(4)
        self.cfg, self.rho, self._out, self._tracer = cfg, rho, out, tracer
        self.grid = harness.build_grid(cfg)
        self.dyn = harness.build_dynamics(cfg)
        self.scene = harness.build_scene(cfg, np.random.default_rng(scene_ss))
        self.transition, self.session = self.setup()
        self._truth_rng = np.random.default_rng(truth_ss)
        self._obs_rng = np.random.default_rng(obs_ss)
        self._state = self.dyn.initial_state()
        self._t = 0

    def setup(self):
        """One timed set-up: estimate the chain from the seed and build the filter."""
        _mark(self._tracer, f"setup-{len(self._out.setup_s)}")
        start = time.perf_counter()
        transition = harness.estimate_transition(self.cfg, self.dyn, self.grid, np.random.default_rng(self._chain_ss))
        prior = markov.initial_belief(self.dyn, self.grid)
        session = filtering.GridFilter(self.grid, transition, self.scene, prior, rho=self.rho)
        self._out.setup_s.append(time.perf_counter() - start)
        return transition, session

    def observations(self, n: int) -> list:
        """The next ``n`` observations of one continuing true trajectory."""
        dyn = dataclasses.replace(self.dyn, initial=self._state)
        path = markov.simulate_trajectory(dyn, n, self._truth_rng)
        self._state = path[-1]
        batch = [channel.sample_observation(self.scene, self._t + k, path[k + 1], self._obs_rng) for k in range(n)]
        self._t += n
        return batch


def experiment(seed: int, seconds: float, tiny: bool = False, tracer=None) -> Outcome:
    out = Outcome()
    digests = []
    with tempfile.TemporaryDirectory(prefix="experiment-", dir=output_dir()) as tmp:
        while out.busy_s < seconds or out.attempted < MIN_EXPERIMENTS:
            _mark(tracer, f"experiment-{out.attempted}")
            cfg = scenario(seed, tiny, out_dir=Path(tmp) / f"run-{out.attempted}")
            out.attempted += 1
            start = time.perf_counter()
            try:
                metrics = harness.run_experiment(cfg)
            except harness.PhaseFailure as e:
                out.busy_s += time.perf_counter() - start
                out.failed += 1
                out.notes.append(f"experiment {out.attempted - 1}: {e}")
                continue
            elapsed = time.perf_counter() - start
            out.busy_s += elapsed
            out.op_s.append(elapsed)
            out.setup_s.append(metrics.runtime_s["setup"] + metrics.runtime_s["transition"])
            digest = checks.experiment_digest(cfg, metrics)
            digests.append(digest)
            if digest is None or metrics.resets != 0 or digest != digests[0]:
                out.failed += 1
                out.notes.append(f"experiment {out.attempted - 1}: artifacts {digest}, resets {metrics.resets}")
            shutil.rmtree(cfg.out_dir)
    return out


def track_stream(seed: int, seconds: float, tiny: bool = False, tracer=None) -> Outcome:
    out = Outcome()
    cfg = dataclasses.replace(scenario(seed, tiny), quantization="marginal")
    stream = _Stream(cfg, TRACK_RHO, out, tracer)
    session = stream.session
    probe = TRACK_BLOCK // 2
    last = [0.0]

    def on_record(session_, obs, record):
        now = time.perf_counter()
        out.op_s.append(now - last[0])
        last[0] = now
        _mark(tracer, f"update-{obs.t + 1}")

    while out.busy_s < seconds or len(out.setup_s) < SETUPS:
        batch = stream.observations(TRACK_BLOCK)
        _mark(tracer, f"update-{batch[0].t}")
        last[0] = start = time.perf_counter()
        records = session.run_tracking(batch, on_record=on_record)
        out.busy_s += time.perf_counter() - start

        out.attempted += len(records)
        bad = {r.t for r in records if not checks.on_simplex(r.belief)} | set(session.reset_events)
        prior, record = records[probe - 1], records[probe]
        err = checks.update_error(stream.grid, stream.transition, stream.scene, prior.belief, batch[probe], record.belief)
        if not err <= checks.REFERENCE_TOL:
            bad.add(record.t)
            out.notes.append(f"update {record.t}: reference error {err:.3e}")
        out.failed += len(bad & {r.t for r in records})
        if len(out.setup_s) < SETUPS:
            stream.setup()
    return out


def map_stream(seed: int, seconds: float, tiny: bool = False, tracer=None) -> Outcome:
    out = Outcome()
    cfg = scenario(seed, tiny)
    stream = _Stream(cfg, 0, out, tracer)
    session = stream.session
    queries = harness.query_points(cfg)
    spec = kriging.QuerySpec(queries)
    probe_rng = np.random.default_rng(seed)
    maps = []

    def on_record(session_, obs, record):
        if (obs.t + 1) % MAP_EVERY:
            return
        _mark(tracer, f"map-{out.attempted + len(maps)}")
        start = time.perf_counter()
        gain_map = kriging.predict_gain_map(session_, obs, spec)
        out.op_s.append(time.perf_counter() - start)
        maps.append((obs, record.belief, gain_map))

    while out.busy_s < seconds or len(out.setup_s) < SETUPS:
        batch = stream.observations(MAP_BLOCK)
        _mark(tracer, f"map-{out.attempted}")
        start = time.perf_counter()
        session.run_tracking(batch, on_record=on_record)
        out.busy_s += time.perf_counter() - start

        for obs, belief, gain_map in maps:
            probe = int(probe_rng.integers(len(queries)))
            ok = checks.on_simplex(belief) and checks.map_ok(
                stream.grid, stream.scene, belief, obs, queries, gain_map, probe
            )
            if not ok or session.reset_events:
                out.failed += 1
                out.notes.append(f"map at t={obs.t}: query {probe}, resets {session.reset_events}")
        out.attempted += len(maps)
        maps.clear()
        if len(out.setup_s) < SETUPS:
            stream.setup()
    return out


def output_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


WORKLOADS = {"experiment": experiment, "track_stream": track_stream, "map_stream": map_stream}


def summary(out: Outcome) -> dict[str, float]:
    """End-to-end metrics of one run, in the units BENCHMARK.json names."""
    ms = np.asarray(out.op_s) * 1e3
    if not len(ms):  # every operation failed before it could be timed
        ms = np.zeros(1)
    return {
        "setup_s": statistics.median(out.setup_s) if out.setup_s else 0.0,
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "ops_per_s": out.attempted / out.busy_s,
    }
