"""Spans around calls into chantrack's public functions, recorded from outside.

A :class:`Tracer` replaces each listed public callable, in every chantrack
module that holds a reference to it, with a wrapper that records a span
``(name, start, end, parent, op)`` in memory.  Layers are the package's
modules; a layer's self time is its span minus the time its child spans
cover.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from chantrack import channel, filtering, grid, harness, kriging, markov

PHASES = ("setup", "transition", "simulate", "track", "predict", "write")


def _nbytes(matrix) -> int:
    """Bytes a matvec reads from ``matrix``.

    Scipy-sparse matrices are counted too, so that storing ``P`` sparse
    later needs no change to the benchmark.
    """
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def _nnz(matrix) -> int:
    return int(matrix.nnz) if hasattr(matrix, "nnz") else int(np.count_nonzero(matrix))


def _estimate_note(a, result):
    if result.mode == "markovian":
        draws = a["grid"].n_cells * a["samples_per_cell"]
    else:
        draws = a["n_paths"] * (a["path_length"] - 1)
    return {"draws": int(draws), "nnz": _nnz(result.matrix), "patched": int(result.patched_columns)}


def _joint_field_note(a, result):
    stacked = np.vstack([a["scene"].sensors_at(a["t"]), np.asarray(a["query_points"]).reshape(-1, 2)])
    n = len(np.unique(stacked, axis=0))
    return {"points": n, "cov_bytes": n * n * 8}


def _init_note(a, result):
    session = a["self"]
    p = getattr(session, "P", session.transition.matrix)
    return {"p_bytes": _nbytes(p), "groups": len(session.group_thetas), "session": session}


def _map_note(a, result):
    return {"points": int(a["queries"].n_points)}


def _experiment_note(a, result):
    return {
        "phases": dict(result.runtime_s),
        "artifact_bytes": sum(p.stat().st_size for p in result.artifacts),
    }


# (owner, attribute, span name, note): note(bound arguments, result) adds fields to the span.
TRACED = (
    (markov, "estimate_transition_markovian", "markov.estimate_transition", _estimate_note),
    (markov, "estimate_transition_marginal", "markov.estimate_transition", _estimate_note),
    (markov, "simulate_trajectory", "markov.simulate_trajectory", None),
    (grid, "cell_index", "grid.cell_index", None),
    (channel, "sample_joint_field", "channel.sample_joint_field", _joint_field_note),
    (channel, "sample_observation", "channel.sample_observation", None),
    (filtering.GridFilter, "__init__", "filtering.init", _init_note),
    (filtering.GridFilter, "step", "filtering.step", None),
    (filtering.GridFilter, "likelihood_vector", "filtering.likelihood", None),
    (filtering.GridFilter, "estimate", "filtering.estimate", None),
    (kriging, "predict_gain_map", "kriging.predict_gain_map", _map_note),
    (harness, "run_experiment", "harness.run_experiment", _experiment_note),
)


class Tracer:
    """Records spans while active; use as a context manager around a workload."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = {"name": name, "parent": stack[-1] if stack else None, "op": self.op}
            spans.append(span)
            stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(note(bound.arguments, result))
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "chantrack" or key.startswith("chantrack.")]
        for owner, attr, name, note in TRACED:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, note)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()
        return False

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        """Spans as plain JSON records, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for s, self_s in zip(self.spans, self.self_times()):
            rec = {k: v for k, v in s.items() if k != "session"}
            rec["start"] -= t0
            rec["end"] -= t0
            rec["self"] = self_s
            out.append(rec)
        return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans, and the layers this workload never called.

    Times are medians per call unless named per transition estimate; a layer
    that was not called reports 0.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)
    absent = sorted({name for _, _, name, _ in TRACED} - set(by_name))
    dur = [s["end"] - s["start"] for s in spans]
    self_t = tracer.self_times()

    def med(name, scale=1.0):
        return _median([dur[i] * scale for i in by_name[name]])

    def last(name, key):
        return spans[by_name[name][-1]][key] if by_name[name] else 0

    estimates = set(by_name["markov.estimate_transition"])
    in_estimate = [i for i in by_name["grid.cell_index"] if spans[i]["parent"] in estimates]
    per_estimate = max(len(estimates), 1)
    sessions = [spans[i]["session"] for i in by_name["filtering.init"]]
    experiments = [spans[i] for i in by_name["harness.run_experiment"]]

    m = {
        "markov.estimate_transition_s": med("markov.estimate_transition"),
        "markov.transition_draws": last("markov.estimate_transition", "draws"),
        "markov.transition_nnz": last("markov.estimate_transition", "nnz"),
        "markov.patched_columns": last("markov.estimate_transition", "patched"),
        "markov.simulate_trajectory_s": med("markov.simulate_trajectory"),
        "grid.cell_index_calls": len(in_estimate) / per_estimate,
        "grid.cell_index_s": sum(dur[i] for i in in_estimate) / per_estimate,
        "channel.sample_joint_field_s": med("channel.sample_joint_field"),
        "channel.joint_field_points": last("channel.sample_joint_field", "points"),
        "channel.joint_field_cov_bytes": last("channel.sample_joint_field", "cov_bytes"),
        "channel.sample_observation_ms": med("channel.sample_observation", 1e3),
        "filtering.init_s": med("filtering.init"),
        "filtering.step_ms": med("filtering.step", 1e3),
        "filtering.likelihood_ms": med("filtering.likelihood", 1e3),
        "filtering.step_self_ms": _median([self_t[i] * 1e3 for i in by_name["filtering.step"]]),
        "filtering.estimate_ms": med("filtering.estimate", 1e3),
        "filtering.p_bytes": last("filtering.init", "p_bytes"),
        "filtering.groups": last("filtering.init", "groups"),
        "filtering.resets": sum(s.reset_count for s in sessions),
        "kriging.predict_gain_map_ms": med("kriging.predict_gain_map", 1e3),
        "kriging.points": last("kriging.predict_gain_map", "points"),
        "harness.artifact_bytes": _median([e["artifact_bytes"] for e in experiments]),
    }
    for phase in PHASES:
        m[f"harness.phase_{phase}_s"] = _median([e["phases"].get(phase, 0.0) for e in experiments])
    return m, absent
