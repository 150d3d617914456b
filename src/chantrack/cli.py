"""Command-line interface.

Subcommands::

    transition    estimate the transition matrix offline and save it
    track         run sequential state tracking from a saved transition matrix
    predict-map   write predicted gain-map snapshots from a saved transition matrix
    experiment    run the full pipeline (estimation, tracking, maps, metrics)
    oracle-check  compare the recursion against exhaustive path enumeration

``track`` and ``predict-map`` reject a ``--transition`` chain estimated for
another grid, dynamics or quantization than the config's.

Exit codes: 0 success, 2 configuration validation failure (an ``out_dir``
that cannot be created or written into, a faulty ``--transition`` file and
an ``oracle-check`` count or seed out of range included), 3 numerical
failure (with phase context on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ConfigError,
    PhaseFailure,
    _make_out_dir,
    _phase,
    _writing,
    benchmark_config,
    build,
    config_from_json,
    estimate_transition,
    load_transition,
    oracle_check,
    run_experiment,
    save_transition,
    streams,
)

__all__ = ["main", "entry"]

ORACLE_TOL = 1e-10


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="scenario configuration (JSON); defaults to the built-in benchmark")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the configured master seed")
    parser.add_argument("--out", metavar="DIR", help="override the configured output directory")
    parser.add_argument("--mode", choices=["markovian", "marginal"], help="override the quantization mode")
    parser.add_argument("--rho", type=int, metavar="INT", help="override the prediction horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chantrack", description="Grid-based channel state tracking and gain-map prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="estimate and save the cell transition matrix")
    _common_flags(p)

    p = sub.add_parser("track", help="sequential state tracking from a saved transition matrix")
    _common_flags(p)
    p.add_argument("--transition", required=True, metavar="PATH", help="saved transition matrix")

    p = sub.add_parser("predict-map", help="gain-map snapshots from a saved transition matrix")
    _common_flags(p)
    p.add_argument("--transition", required=True, metavar="PATH", help="saved transition matrix")

    p = sub.add_parser("experiment", help="full pipeline: estimate, track, predict, write artifacts")
    _common_flags(p)

    p = sub.add_parser("oracle-check", help="recursion vs. exhaustive path enumeration")
    p.add_argument("--scenarios", type=int, default=50, help="number of randomized scenarios (default 50)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    return parser


def _resolve_config(args):
    """The config with the command-line overrides; every command builds it, which validates it, before any phase."""
    cfg = config_from_json(args.config) if args.config else benchmark_config()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.mode is not None:
        updates["quantization"] = args.mode
    if args.rho is not None:
        updates["horizon"] = args.rho
    return dataclasses.replace(cfg, **updates)


def _require_out_dir(cfg):
    if cfg.out_dir is None:
        raise ConfigError("out_dir: set it in the config or pass --out")
    return cfg


def _cmd_transition(args) -> int:
    cfg = _require_out_dir(_resolve_config(args))
    grid, dyn, _, _ = build(cfg)
    path = _make_out_dir(cfg, ["transition.bin"]) / "transition.bin"
    with _phase({}, "transition"):
        tm = estimate_transition(cfg, dyn, grid, streams(cfg).transition)
    with _writing(cfg):
        save_transition(path, tm, cfg)
    print(f"wrote {path} ({tm.n_cells} cells, mode={tm.mode}, patched_columns={tm.patched_columns})")
    return 0


def _load_transition_arg(cfg, path):
    """The ``--transition`` file for ``cfg``; a missing, malformed or mismatched one is a ``ConfigError``."""
    try:
        return load_transition(path, cfg)
    except (OSError, ValueError) as e:
        raise ConfigError(f"--transition: {e}") from e


def _cmd_track(args) -> int:
    cfg = _require_out_dir(_resolve_config(args))
    tm = _load_transition_arg(cfg, args.transition)
    metrics = run_experiment(cfg, transition=tm, write_maps=False)
    rmse = ", ".join(f"x{i + 1}={v:.4f}" for i, v in enumerate(metrics.rmse_state))
    print(f"tracked {len(metrics.timesteps)} steps; state RMSE: {rmse}; resets: {metrics.resets}")
    print(f"artifacts in {metrics.out_dir}")
    return 0


def _cmd_predict_map(args) -> int:
    cfg = _require_out_dir(_resolve_config(args))
    tm = _load_transition_arg(cfg, args.transition)
    metrics = run_experiment(cfg, transition=tm, write_trace=False)
    if not metrics.rmse_map:
        print("no map snapshots configured; nothing to write", file=sys.stderr)
    for k, v in metrics.rmse_map.items():
        print(f"map_t{k}.csv: RMSE {v:.4f} dB")
    print(f"artifacts in {metrics.out_dir}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _require_out_dir(_resolve_config(args))
    metrics = run_experiment(cfg)
    rmse = ", ".join(f"x{i + 1}={v:.4f}" for i, v in enumerate(metrics.rmse_state))
    print(f"tracked {len(metrics.timesteps)} steps; state RMSE: {rmse}; resets: {metrics.resets}")
    for k, v in metrics.rmse_map.items():
        print(f"map_t{k}.csv: RMSE {v:.4f} dB")
    timings = ", ".join(f"{k}={v:.2f}s" for k, v in metrics.runtime_s.items())
    print(f"phase runtimes: {timings}")
    print(f"artifacts in {metrics.out_dir}")
    return 0


def _cmd_oracle_check(args) -> int:
    for flag, value, least in (("--scenarios", args.scenarios, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    with _phase({}, "oracle-check"):
        worst = oracle_check(n_scenarios=args.scenarios, seed=args.seed)
    status = "OK" if worst <= ORACLE_TOL else "FAIL"
    print(f"oracle-check: max belief error {worst:.3e} over {args.scenarios} scenarios [{status}]")
    return 0 if worst <= ORACLE_TOL else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "transition": _cmd_transition,
        "track": _cmd_track,
        "predict-map": _cmd_predict_map,
        "experiment": _cmd_experiment,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PhaseFailure as e:
        print(f"numerical failure in phase {e.phase!r}: {e.__cause__}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
