"""Spans around the calls into each kaclab module, recorded from outside.

`install` replaces the module bindings that kaclab's callers look up at call
time (``kaclab.freezing.simulate``, ``kaclab.config_io.load_trajectory_inputs``
and so on) with wrappers that record one span per call.  Nothing inside
kaclab changes: a span covers exactly the call into the wrapped function.

A span is ``[name, start, end, parent, op]``.  Spans stay in memory and are
written out once, at the end of the run.  Busy time of a name is the time
covered by its outermost spans; self time is a span's duration minus the
part its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import time

import numpy as np

# (span name, module path, attribute) for every binding that is wrapped.
# One layer function can be reached through several bindings: the span name
# stays the same, whichever caller made the call.
TRACED_BINDINGS = (
    ("engine.simulate", "kaclab", "simulate"),
    ("engine.simulate", "kaclab.freezing", "simulate"),
    ("engine.final_state_from_log", "kaclab.engine", "final_state_from_log"),
    ("engine.flux_measure", "kaclab", "flux_measure"),
    ("girsanov.sample_tilted_initial", "kaclab.freezing", "sample_tilted_initial"),
    ("girsanov.sample_tilted_initial", "kaclab.engine", "sample_tilted_initial"),
    ("girsanov.validate_normalisation", "kaclab.girsanov", "TiltingScheme.validate_normalisation"),
    ("freezing.run_experiment", "kaclab", "run_experiment"),
    ("freezing.design_freeze_experiment", "kaclab.freezing", "design_freeze_experiment"),
    ("freezing.build_freeze_scheme", "kaclab.freezing", "build_freeze_scheme"),
    ("rate_function.dynamic_cost", "kaclab.freezing", "dynamic_cost"),
    ("rate_function.xi_functionals", "kaclab", "xi_functionals"),
    ("config_io.save_trajectory", "kaclab.config_io", "save_trajectory"),
    ("config_io.load_trajectory_inputs", "kaclab.config_io", "load_trajectory_inputs"),
    ("config_io.replay", "kaclab.config_io", "replay"),
    ("metrics.bl_distance", "kaclab", "bl_distance"),
    ("metrics.flux_distance", "kaclab", "flux_distance"),
)

# run_experiment only encloses other layers: its self time is reported
BUSY_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED_BINDINGS
                                 if name != "freezing.run_experiment"))


# ---------------------------------------------------------------------------
# facts about one simulate call, shared by the traced run and the
# determinism record


def call_arg(args, kwargs, pos, name, default=None):
    """Argument `name` of a call, passed at position `pos` or by keyword."""
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def segment_count(config, scheme) -> int:
    """Segments `simulate` runs: spans between checkpoints and breakpoints."""
    bounds = {0.0, float(config.t_max)}
    bounds.update(float(t) for t in config.checkpoint_times)
    if scheme is not None:
        bounds.update(float(b) for b in scheme.breakpoints if 0.0 < b < config.t_max)
    bounds = sorted(bounds)
    return sum(1 for a, b in zip(bounds[:-1], bounds[1:]) if b > a)


def simulate_counts(config, scheme, trajectory) -> dict:
    """Exact counts of one simulate call.

    proposals, accepted and diagonal come from the event log (0 without
    one); pair_table_bytes is the dense N x N distance table a ledger
    tracker builds per segment, 8 N^2 bytes each.
    """
    segments = segment_count(config, scheme)
    tracked = scheme is not None and not scheme.is_trivial()
    log = trajectory.log
    if log is None:
        proposals = accepted = diagonal = 0
    else:
        proposals = len(log)
        accepted = int(np.count_nonzero(~log.fictitious))
        diagonal = int(np.count_nonzero(log.i == log.j))
    return {
        "proposals": proposals,
        "accepted": accepted,
        "diagonal": diagonal,
        "segments": segments,
        "pair_table_bytes": segments * 8 * config.n * config.n if tracked else 0,
    }


def velocity_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Collects spans and per-op counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.calls = []  # (op, span name, args, kwargs, result), read at op end

    def begin_op(self, op: int):
        self.op = op
        self._op_span = self._open("op")

    def end_op(self):
        self._close(self._op_span)
        self.op = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        keep = name in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if keep:
                self.calls.append((self.op, name, args, kwargs, result))
            return result

        return traced

    # -- per-op reductions ----------------------------------------------

    def op_layers(self, op: int) -> dict:
        """Busy time per layer name and run_experiment self time for one op."""
        spans = self.spans
        busy = dict.fromkeys(BUSY_NAMES, 0.0)
        child_time = {}
        for sid, (name, t0, t1, parent, sop) in enumerate(spans):
            if sop != op:
                continue
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
            if name in busy and not _has_ancestor(spans, parent, name):
                busy[name] += t1 - t0
        out = {f"{name}.busy_s": v for name, v in busy.items()}
        out["freezing.run_experiment.self_s"] = sum(
            (t1 - t0) - child_time.get(sid, 0.0)
            for sid, (name, t0, t1, _, sop) in enumerate(spans)
            if sop == op and name == "freezing.run_experiment"
        )
        return out

    def op_counts(self, op: int) -> dict:
        """Counts observed at the layer boundaries during one op."""
        c = {"engine.simulate.calls": 0, "engine.proposals": 0, "engine.accepted": 0,
             "engine.diagonal": 0, "engine.segments": 0, "engine.pair_table_bytes": 0,
             "config_io.bytes_written": 0, "metrics.atoms": 0}
        for cop, name, args, kwargs, result in self.calls:
            if cop != op:
                continue
            if name == "engine.simulate":
                counts = simulate_counts(call_arg(args, kwargs, 0, "config"),
                                         call_arg(args, kwargs, 1, "scheme"), result)
                c["engine.simulate.calls"] += 1
                for key, val in counts.items():
                    c[f"engine.{key}"] += val
            elif name == "config_io.save_trajectory":
                c["config_io.bytes_written"] += sum(os.path.getsize(p) for p in result.values())
            else:  # a distance between two atomic measures
                c["metrics.atoms"] += len(args[0]) + len(args[1])
        return c

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


_OBSERVED = {"engine.simulate", "config_io.save_trajectory", "metrics.bl_distance",
             "metrics.flux_distance"}


def _has_ancestor(spans, sid, name) -> bool:
    while sid >= 0:
        if spans[sid][0] == name:
            return True
        sid = spans[sid][3]
    return False


def install(tracer: Tracer):
    """Wrap every binding in TRACED_BINDINGS; returns a function undoing it."""
    undo = []
    for name, module_path, attr in TRACED_BINDINGS:
        owner = importlib.import_module(module_path)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        setattr(owner, leaf, tracer.wrap(name, original))
        undo.append((owner, leaf, original))

    def uninstall():
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall


# ---------------------------------------------------------------------------
# Fenwick driver: the layer measured from outside on an engine's real stream


def fenwick_probe(kl, trajectory, rng, n_samples: int = 20_000) -> dict:
    """Build a FenwickSampler on the initial speeds, replay the speed-update
    stream of the logged collisions (two updates per accepted off-diagonal
    collision) and time a fixed set of samples.
    """
    log = trajectory.log
    v = trajectory.initial_state.velocities.copy()
    speeds0 = np.linalg.norm(v, axis=1)
    idx, new_w = [], []
    for k in np.flatnonzero(~log.fictitious & (log.i != log.j)):
        i, j = int(log.i[k]), int(log.j[k])
        sigma = log.sigma[k]
        a = float((v[i] - v[j]) @ sigma)
        step = a * sigma
        v[i] = v[i] - step
        v[j] = v[j] + step
        idx.append(i)
        new_w.append(math.sqrt(float(v[i] @ v[i])))
        idx.append(j)
        new_w.append(math.sqrt(float(v[j] @ v[j])))
    us = rng.random(n_samples).tolist()

    t0 = time.perf_counter()
    fen = kl.FenwickSampler(speeds0)
    t1 = time.perf_counter()
    update = fen.update
    for i, w in zip(idx, new_w):
        update(i, w)
    t2 = time.perf_counter()
    sample = fen.sample
    for u in us:
        sample(u)
    t3 = time.perf_counter()
    return {
        "fenwick.build_s": t1 - t0,
        "fenwick.updates": len(idx),
        "fenwick.update_us": 1e6 * (t2 - t1) / max(len(idx), 1),
        "fenwick.sample_us": 1e6 * (t3 - t2) / n_samples,
    }
