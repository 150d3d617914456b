"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload track_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("experiment", "track_stream", "map_stream")

# Workload-specific names of the generic end-to-end metrics, printed next to them.
ALIASES = {
    "experiment": {"experiment_s": ("op_ms_p50", 1e-3, "s")},
    "track_stream": {
        "update_ms_p50": ("op_ms_p50", 1.0, "ms"),
        "update_ms_p90": ("op_ms_p90", 1.0, "ms"),
        "updates_per_s": ("ops_per_s", 1.0, "1/s"),
    },
    "map_stream": {"map_ms_p50": ("op_ms_p50", 1.0, "ms"), "maps_per_s": ("ops_per_s", 1.0, "1/s")},
}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(outcome, metrics: dict[str, float], specs: list[dict]) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import envinfo
    import workloads

    spec = _benchmark_spec()
    print("env " + json.dumps(envinfo.environment(ROOT), sort_keys=True))
    fn = workloads.WORKLOADS[name]
    if not trace:
        outcome = fn(seed, seconds)
        metrics = workloads.summary(outcome)
        metrics["peak_rss_mb"] = _peak_rss_mb()
        for line in outcome.notes:
            print("check failed: " + line)
        for metric, value in metrics.items():
            print(f"{name} {metric} = {value:.6g}")
        for alias, (metric, scale, unit) in ALIASES[name].items():
            print(f"{name} {alias} = {metrics[metric] * scale:.6g} {unit}")
        return _result(outcome, metrics, spec["end_to_end"])

    import tracing

    half = seconds / 2.0
    plain = workloads.summary(fn(seed, half))
    tracer = tracing.Tracer()
    with tracer:
        outcome = fn(seed, half, tracer=tracer)
    traced = workloads.summary(outcome)
    layers, absent = tracing.layer_metrics(tracer)
    layers["trace.overhead_pct"] = 100.0 * (traced["op_ms_p50"] / plain["op_ms_p50"] - 1.0)
    for metric in plain:
        print(f"{name} {metric}: untraced {plain[metric]:.6g} traced {traced[metric]:.6g}")
    for metric, value in layers.items():
        print(f"{name} {metric} = {value:.6g}")
    if absent:
        print(f"{name} not called by this workload (reported as 0): {', '.join(absent)}")
    path = workloads.output_dir() / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "layers": layers, "spans": tracer.dump()}))
    print(f"spans written to {path.relative_to(ROOT)}")
    return _result(outcome, layers, spec["per_layer"])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chantrack" / "__init__.py").is_file():
        print(f"no chantrack sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
