"""Configuration, persistence, ensembles, and replay.

Everything a run produces is reproducible from its manifest: configs and
reports are JSON, event logs CSV (one row per proposal, floats printed with
17 significant digits so replay is bit-exact).  No ambient state: every
stream derives from (master seed, run index).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass

import jsonschema
import numpy as np

from . import __version__
from .engine import (EventLog, InitialCondition, ParticleState, SimConfig,
                     Trajectory, make_rng, replay_events, simulate, state_moments)
from .girsanov import TiltingScheme
from .kinetics import Kernel

_NUM = {"type": "number"}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["N", "T", "kernel"],
    "properties": {
        "N": {"type": "integer", "minimum": 1},
        "T": {"type": "number", "minimum": 0},
        "kernel": {"enum": ["maxwell", "hard_sphere"]},
        "d": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "checkpoints": {"type": "array", "items": _NUM},
        "record_full_states": {"type": "boolean"},
        "truncation_thresholds": {"type": "array", "items": _NUM},
        "measure": {"enum": ["P", "Q"]},
        "store_log": {"type": "boolean"},
        "majorant_inflation": {"type": "number", "minimum": 1.0},
        "runs": {"type": "integer", "minimum": 1},
        "threads": {"type": "integer", "minimum": 1},
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["gaussian", "scale_mixture"]},
                "weights": {"type": "array", "items": _NUM},
                "scales": {"type": "array", "items": _NUM},
            },
        },
        "tilting": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constant", "pairwise", "freeze"]},
                "kappa": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "b": {"type": "number", "minimum": 0},
                "M": {"type": "number", "minimum": 0},
                "r": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "minimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0},
                "theta": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["jump_times", "levels"],
                    "properties": {
                        "jump_times": {"type": "array", "items": _NUM},
                        "levels": {"type": "array", "items": _NUM},
                    },
                },
            },
            # the parameters each kind is built from
            "allOf": [{"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
                       "then": {"required": required}}
                      for kind, required in (("constant", ["kappa"]), ("pairwise", ["a"]),
                                             ("freeze", ["M", "r", "theta"]))],
        },
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class ParsedConfig:
    sim: SimConfig
    runs: int
    threads: int
    tilting: dict | None
    echo: dict


def tilting_scheme(tilting: dict | None) -> TiltingScheme | None:
    """Realise a state-independent tilting scheme from a validated descriptor.

    Freeze tilts depend on sampled initial data and are realised per run by
    the experiment driver, not here.
    """
    if tilting is None:
        return None
    kind = tilting["kind"]
    if kind == "constant":
        return TiltingScheme.constant(tilting["kappa"])
    if kind == "pairwise":
        return TiltingScheme.pairwise(tilting["a"], tilting.get("b", 0.0))
    raise ConfigError("freeze tilting is realised per run; use the tilt-experiment driver")


def _materialise(raw: dict) -> dict:
    echo = {
        "N": raw["N"],
        "T": float(raw["T"]),
        "kernel": raw["kernel"],
        "d": raw.get("d", 3),
        "seed": raw.get("seed", 0),
        "checkpoints": [float(t) for t in raw.get("checkpoints", [0.0, raw["T"]])],
        "record_full_states": raw.get("record_full_states", False),
        "truncation_thresholds": [float(t) for t in raw.get("truncation_thresholds", [])],
        "measure": raw.get("measure", "Q"),
        "store_log": raw.get("store_log", True),
        "majorant_inflation": float(raw.get("majorant_inflation", 1.0)),
        "runs": raw.get("runs", 1),
        "threads": raw.get("threads", 1),
        "initial": {
            "kind": raw.get("initial", {}).get("kind", "gaussian"),
            "weights": [float(x) for x in raw.get("initial", {}).get("weights", [])],
            "scales": [float(x) for x in raw.get("initial", {}).get("scales", [])],
        },
        "tilting": raw.get("tilting", None),
    }
    return echo


def validate(instance, schema: dict = CONFIG_SCHEMA) -> None:
    """Raise ConfigError listing every way `instance` breaks `schema`."""
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(instance),
                    key=lambda e: e.json_path)
    if errors:
        raise ConfigError("; ".join(f"{e.json_path}: {e.message}" for e in errors))


def parse_config(path_or_dict) -> ParsedConfig:
    """Validate strictly (unknown keys are errors) and materialise defaults."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    validate(raw)
    echo = _materialise(raw)
    sim = SimConfig(
        n=echo["N"],
        t_max=echo["T"],
        kernel=Kernel(echo["kernel"]),
        d=echo["d"],
        seed=echo["seed"],
        checkpoint_times=tuple(echo["checkpoints"]),
        record_full_states=echo["record_full_states"],
        truncation_thresholds=tuple(echo["truncation_thresholds"]),
        initial=InitialCondition(
            kind=echo["initial"]["kind"],
            weights=tuple(echo["initial"]["weights"]),
            scales=tuple(echo["initial"]["scales"]),
        ),
        measure=echo["measure"],
        store_log=echo["store_log"],
        majorant_inflation=echo["majorant_inflation"],
    )
    return ParsedConfig(sim=sim, runs=echo["runs"], threads=echo["threads"],
                        tilting=echo["tilting"], echo=echo)


# ---------------------------------------------------------------------------
# persistence


def _atomic_write(path: str, payload: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _sigma_columns(d: int):
    return ["sx", "sy", "sz"] if d == 3 else [f"s{k}" for k in range(d)]


def write_event_csv(path: str, log: EventLog, d: int) -> None:
    cols = _sigma_columns(d)
    lines = ["t,i,j," + ",".join(cols) + ",assignment,fictitious"]
    for k in range(len(log)):
        sig = ",".join(f"{x:.17g}" for x in log.sigma[k])
        lines.append(
            f"{log.t[k]:.17g},{log.i[k]},{log.j[k]},{sig},{log.assignment[k]},{int(log.fictitious[k])}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def read_event_csv(path: str, n_particles: int, horizon: float) -> EventLog:
    """The log `write_event_csv` wrote; d comes from the header, and a row
    without as many fields as the header is a ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        d = len(header) - 5
        columns = [("t", float), ("i", np.int64), ("j", np.int64), ("sigma", float, (d,)),
                   ("assignment", np.int8), ("fictitious", np.int8)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # no rows
            rows = np.loadtxt(fh, delimiter=",", dtype=columns, ndmin=1)
    t, i, j, sigma, assignment = (np.ascontiguousarray(rows[name])
                                  for name in ("t", "i", "j", "sigma", "assignment"))
    return EventLog(t, i, j, sigma, assignment, rows["fictitious"] != 0, n_particles, horizon)


def state_digest(v: np.ndarray) -> str:
    """sha256 of the bytes of a velocity array (float64, C order)."""
    return hashlib.sha256(np.ascontiguousarray(v, dtype=np.float64).tobytes()).hexdigest()


def write_sidecar(path: str, trajectory: Trajectory) -> None:
    payload = {
        "version": __version__,
        "config": trajectory.config.to_dict(),
        "seed": trajectory.seed,
        "initial_velocities": trajectory.initial_state.velocities.tolist(),
        "final_sha256": state_digest(trajectory.final_state.velocities),
        "ledger": trajectory.rn_ledger.to_dict(),
    }
    _atomic_write(path, json.dumps(payload, indent=1))


def write_checkpoints(path: str, trajectory: Trajectory) -> None:
    payload = {
        "version": __version__,
        "checkpoints": {f"{cp.time:.17g}": cp.to_dict() for cp in trajectory.checkpoints},
    }
    _atomic_write(path, json.dumps(payload, indent=1))


def save_trajectory(out_dir: str, trajectory: Trajectory, stem: str = "run") -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "events": os.path.join(out_dir, f"{stem}_events.csv"),
        "sidecar": os.path.join(out_dir, f"{stem}_sidecar.json"),
        "checkpoints": os.path.join(out_dir, f"{stem}_checkpoints.json"),
    }
    if trajectory.log is not None:
        write_event_csv(paths["events"], trajectory.log, trajectory.initial_state.d)
    else:
        paths.pop("events")
    write_sidecar(paths["sidecar"], trajectory)
    write_checkpoints(paths["checkpoints"], trajectory)
    return paths


def load_trajectory_inputs(sidecar_path: str, events_path: str):
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    cfg = SimConfig.from_dict(sidecar["config"])
    log = read_event_csv(events_path, cfg.n, cfg.t_max)
    v0 = np.asarray(sidecar["initial_velocities"], dtype=float)
    return sidecar, ParticleState(v0), log


class VersionMismatchError(RuntimeError):
    pass


class ReplayMismatchError(RuntimeError):
    """A replayed log does not end in the final state its sidecar records."""


def replay(sidecar_path: str, events_path: str, force: bool = False):
    """Re-apply a persisted log to its initial state.

    Refuses manifests stamped by a different tool version unless forced.
    Replays the whole log and raises ReplayMismatchError unless the final
    state's sha256 equals the sidecar's `final_sha256`.  Returns (sidecar,
    checkpoint summaries recomputed at the persisted checkpoint times).
    """
    sidecar, state0, log = load_trajectory_inputs(sidecar_path, events_path)
    if sidecar.get("version") != __version__ and not force:
        raise VersionMismatchError(
            f"log was written by version {sidecar.get('version')}, this is {__version__}; "
            "pass force=True to replay anyway"
        )
    cfg = SimConfig.from_dict(sidecar["config"])
    v = state0.velocities.copy()
    out = []
    start = 0
    for t in cfg.checkpoint_times:
        # the checkpoint at t follows every row stamped at or before t
        stop = int(np.searchsorted(log.t, t, side="right"))
        for _ in replay_events(v, log, start, stop):
            pass
        start = stop
        momentum, m2, m4, trunc = state_moments(v, cfg.truncation_thresholds)
        out.append({
            "time": t,
            "mass": 1.0,
            "momentum": momentum.tolist(),
            "m2": m2,
            "m4": m4,
            "truncated_m2": {str(thr): val for thr, val in trunc.items()},
        })
    for _ in replay_events(v, log, start):
        pass
    if state_digest(v) != sidecar.get("final_sha256"):
        raise ReplayMismatchError(
            f"replaying {events_path} does not reproduce the final state recorded in "
            f"{sidecar_path} (sha256 {sidecar.get('final_sha256')})")
    return sidecar, out


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class RunSummary:
    """Per-run scalars needed for pooled statistics."""

    run_index: int
    checkpoint_times: np.ndarray
    m2: np.ndarray
    m4: np.ndarray
    momentum: np.ndarray
    truncated_m2: dict
    ledger: dict
    n_events: int
    n_collisions: int


@dataclass
class RunManifest:
    version: str
    master_seed: int
    config: dict
    run_indices: list
    seed_derivation: str
    artifacts: dict
    wallclock_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def map_runs(fn, args: list, threads: int) -> list:
    """[fn(a) for a in args], in `threads` worker processes when threads > 1.

    Results come back in the order of `args` however the runs are scheduled.
    """
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]


def _one_run(args):
    cfg, tilting, run_index = args
    traj = simulate(cfg, tilting_scheme(tilting), rng=make_rng(cfg.seed, run_index))
    return _summarise(traj, run_index)


def _summarise(traj: Trajectory, run_index: int) -> RunSummary:
    cps = traj.checkpoints
    return RunSummary(
        run_index=run_index,
        checkpoint_times=np.array([cp.time for cp in cps]),
        m2=np.array([cp.m2 for cp in cps]),
        m4=np.array([cp.m4 for cp in cps]),
        momentum=np.array([cp.momentum for cp in cps]),
        truncated_m2={thr: np.array([cp.truncated_m2.get(thr, np.nan) for cp in cps])
                      for thr in (cps[0].truncated_m2 if cps else {})},
        ledger=traj.rn_ledger.to_dict(),
        n_events=cps[-1].n_events if cps else 0,
        n_collisions=cps[-1].n_collisions if cps else 0,
    )


def run_ensemble(parsed: ParsedConfig, n_runs: int | None = None, run_offset: int = 0,
                 threads: int | None = None, out_dir: str | None = None):
    """n_runs trajectories with per-run streams (master seed, run index).

    Summaries are reduced in run-index order regardless of scheduling, so
    pooled statistics are bit-stable under any thread count and any batch
    split with the same per-run indices.
    """
    n_runs = parsed.runs if n_runs is None else n_runs
    threads = parsed.threads if threads is None else threads
    t0 = time.time()
    indices = list(range(run_offset, run_offset + n_runs))
    summaries = map_runs(_one_run, [(parsed.sim, parsed.tilting, idx) for idx in indices], threads)
    manifest = RunManifest(
        version=__version__,
        master_seed=parsed.sim.seed,
        config=parsed.echo,
        run_indices=indices,
        seed_derivation="philox(SeedSequence(entropy=master_seed, spawn_key=(run_index,)))",
        artifacts={},
        wallclock_seconds=time.time() - t0,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        pooled = pool_summaries(summaries)
        path = os.path.join(out_dir, "ensemble_summary.json")
        _atomic_write(path, json.dumps(pooled, indent=1))
        manifest.artifacts["ensemble_summary"] = path
        mpath = os.path.join(out_dir, "manifest.json")
        _atomic_write(mpath, json.dumps(manifest.to_dict(), indent=1))
        manifest.artifacts["manifest"] = mpath
    return summaries, manifest


def pool_summaries(summaries) -> dict:
    """Ordered reduction of per-run summaries into pooled means and SEs."""
    summaries = sorted(summaries, key=lambda s: s.run_index)
    times = summaries[0].checkpoint_times
    m2 = np.stack([s.m2 for s in summaries])
    m4 = np.stack([s.m4 for s in summaries])
    n = len(summaries)

    def stats(x):
        mean = x.mean(axis=0)
        se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        return mean.tolist(), se.tolist()

    m2_mean, m2_se = stats(m2)
    m4_mean, m4_se = stats(m4)
    return {
        "n_runs": n,
        "checkpoint_times": times.tolist(),
        "m2_mean": m2_mean, "m2_se": m2_se,
        "m4_mean": m4_mean, "m4_se": m4_se,
        "total_events": int(sum(s.n_events for s in summaries)),
        "total_collisions": int(sum(s.n_collisions for s in summaries)),
    }
