"""Configuration, persistence, ensembles, and replay.

Everything a run produces is reproducible from its manifest: configs and
reports are JSON, event logs CSV (one row per proposal, floats printed with
17 significant digits so replay is bit-exact).  A saved run is read back
in one place, `_read_sidecar`, which `load_trajectory_inputs`, `replay` and
the CLI's `rate-eval` share: it checks the config and that the initial
velocities are N rows of d numbers.  No ambient state: every stream derives
from (master seed, run index).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, _kloop
from .engine import (EventLog, InitialCondition, ParticleState, SimConfig,
                     Trajectory, make_rng, replay_rows, simulate, state_moments)
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
    import jsonschema

    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(instance),
                    key=lambda e: e.json_path)
    if errors:
        raise ConfigError("; ".join(f"{e.json_path}: {e.message}" for e in errors))


def _reject_non_finite(value, path: str = "$") -> None:
    """ConfigError at a NaN or infinity, which json and the schema accept."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {value!r} is not a finite number")
    if isinstance(value, (dict, list)):
        keyed = isinstance(value, dict)
        for key, item in value.items() if keyed else enumerate(value):
            _reject_non_finite(item, f"{path}.{key}" if keyed else f"{path}[{key}]")


def parse_config(path_or_dict) -> ParsedConfig:
    """Validate strictly (unknown keys and non-finite numbers are errors)
    and materialise defaults."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    _reject_non_finite(raw)
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


def _atomic_write(path: str, payload: str | bytes) -> None:
    """Write text (a str) or bytes to `path` through a temporary file that
    replaces it, and is removed if the write or the replace fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w" if isinstance(payload, str) else "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _event_header(d: int) -> str:
    sigma = ["sx", "sy", "sz"] if d == 3 else [f"s{k}" for k in range(d)]
    return "t,i,j," + ",".join(sigma) + ",assignment,fictitious"


def _format_rows(log: EventLog, d: int):
    """The rows of the log as `kac_write_events` prints them, or None where
    the library does not load or the Python writer must run (a non-finite
    t or sigma, a decimal point other than '.')."""
    lib = _kloop.library()
    if lib is None or log.sigma.shape != (len(log), d):
        return None
    cols = [np.ascontiguousarray(c) for c in (log.t, log.i, log.j, log.sigma, log.assignment,
                                              log.fictitious.view(np.uint8))]
    buf = np.empty(len(log) * (25 * (d + 1) + 58), np.uint8)  # ROW_BYTES(d) a row
    size = lib.kac_write_events(*(c.ctypes.data for c in cols), len(log), d, buf.ctypes.data,
                                len(buf))
    return None if size < 0 else memoryview(buf)[:size]


def write_event_csv(path: str, log: EventLog, d: int) -> None:
    header = _event_header(d) + "\n"
    rows = _format_rows(log, d)
    if rows is not None:
        _atomic_write(path, b"".join((header.encode(), rows)))
        return
    # one %-template per row over Python scalars: "%.17g" % x prints what
    # format(x, ".17g") prints, so replay stays bit-exact
    row = "%.17g,%d,%d," + "%.17g," * d + "%d,%d"
    columns = zip(log.t.tolist(), log.i.tolist(), log.j.tolist(), *log.sigma.T.tolist(),
                  log.assignment.tolist(), log.fictitious.view(np.uint8).tolist())
    body = "".join(row % r + "\n" for r in columns)
    _atomic_write(path, header + body)


def _parse_rows(data: bytes, d: int):
    """The columns (t, i, j, sigma, assignment, fictitious) of the rows
    after the header from `kac_read_events`, or None where the library does
    not load or the text is not byte for byte what the writer writes."""
    lib = _kloop.library()
    header = (_event_header(d) + "\n").encode()
    if lib is None or d < 1 or not data.startswith(header):
        return None
    # a bytes object ends in a NUL, which the parser stops at
    body = np.frombuffer(data, np.uint8, offset=len(header))
    size = len(body)
    rows = int(np.count_nonzero(body == ord("\n"))) + int(size > 0 and body[size - 1] != ord("\n"))
    cols = (np.empty(rows), np.empty(rows, np.int64), np.empty(rows, np.int64),
            np.empty((rows, d)), np.empty(rows, np.int8), np.empty(rows, np.int8))
    if lib.kac_read_events(body.ctypes.data, size, d, rows, *(c.ctypes.data for c in cols)) != rows:
        return None
    return cols


def read_event_csv(path: str, n_particles: int, horizon: float, d: int | None = None) -> EventLog:
    """The log `write_event_csv` wrote for dimension d (by default the
    header's).  A header other than the one written for d, or a particle
    index outside [0, n_particles), is a ConfigError; a row without as many
    fields as the header is a ValueError.  The compiled parser reads the
    rows of a file as the writer writes it; `np.loadtxt` reads any other."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = io.TextIOWrapper(io.BytesIO(data))  # the file as open(path) reads it
    header = text.readline().strip()
    if d is None:
        d = header.count(",") - 4
    if header != _event_header(d):
        raise ConfigError(f"{path}: header {header!r} is not the d = {d} event header "
                          f"{_event_header(d)!r}")
    cols = _parse_rows(data, d)
    if cols is None:
        columns = [("t", float), ("i", np.int64), ("j", np.int64), ("sigma", float, (d,)),
                   ("assignment", np.int8), ("fictitious", np.int8)]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # no rows
            rows = np.loadtxt(text, delimiter=",", dtype=columns, ndmin=1)
        cols = [np.ascontiguousarray(rows[name]) for name, *_ in columns]
    t, i, j, sigma, assignment, fictitious = cols
    bad = np.flatnonzero((i < 0) | (i >= n_particles) | (j < 0) | (j >= n_particles))
    if len(bad):
        k = int(bad[0])
        raise ConfigError(f"{path}: row {k + 1} names particles ({i[k]}, {j[k]}), "
                          f"outside [0, {n_particles})")
    return EventLog(t, i, j, sigma, assignment, fictitious != 0, n_particles, horizon)


def state_digest(v: np.ndarray) -> str:
    """sha256 of the bytes of a velocity array (float64, C order)."""
    return hashlib.sha256(np.ascontiguousarray(v, dtype=np.float64).tobytes()).hexdigest()


# stands in for the velocities while the rest of the sidecar is dumped
_VELOCITIES = "\x00initial velocities\x00"


def _velocity_block(velocities: np.ndarray) -> str:
    """`json.dumps` of the velocities' rows as one value of an `indent=1`
    dict: json writes a finite float with float.__repr__, and so does this.
    `kac_write_velocities` prints the values in its band and leaves a NUL
    in place of each other one, which float.__repr__ prints here."""
    if len(velocities) == 0:
        return "[]"
    lib = _kloop.library()
    if lib is not None:
        n, d = velocities.shape
        v = np.ascontiguousarray(velocities, dtype=np.float64)
        buf = np.empty(n * (28 * d + 9) + 4, np.uint8)  # REPR_ROW_BYTES(d) a row
        slow = np.empty(n * d, np.uint8)
        size = lib.kac_write_velocities(v.ctypes.data, n, d, buf.ctypes.data, len(buf),
                                        slow.ctypes.data)
        if size >= 0:
            first, *rest = buf[:size].tobytes().decode("ascii").split("\0")
            others = map(float.__repr__, v.ravel()[slow.view(bool)].tolist())
            return first + "".join(x + text for x, text in zip(others, rest))
    rows = ("[\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]"
            for row in velocities.tolist())
    return "[\n  " + ",\n  ".join(rows) + "\n ]"


def write_sidecar(path: str, trajectory: Trajectory) -> None:
    """The sidecar is `json.dumps(payload, indent=1)`; the velocities, most of
    it, are spliced in as text, since an indented dump never runs json's C
    encoder."""
    payload = {
        "version": __version__,
        "config": trajectory.config.to_dict(),
        "seed": trajectory.seed,
        "initial_velocities": _VELOCITIES,
        "final_sha256": state_digest(trajectory.final_state.velocities),
        "ledger": trajectory.rn_ledger.to_dict(),
    }
    text = json.dumps(payload, indent=1).replace(
        json.dumps(_VELOCITIES), _velocity_block(trajectory.initial_state.velocities), 1)
    _atomic_write(path, text)


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


# the sidecar keys its readers use; SimConfig.from_dict checks the config
# and `_read_sidecar` the velocities, an array on the compiled route, which
# the schema's "array" type would refuse
_SIDECAR_SCHEMA = {"type": "object", "required": ["config", "seed", "initial_velocities"]}


class VersionMismatchError(RuntimeError):
    pass


class ReplayMismatchError(RuntimeError):
    """A replayed log does not end in the final state its sidecar records."""


# the text before the writer's "initial_velocities" block, up to its '['
_BLOCK = b'\n "initial_velocities": ['


def _parse_sidecar(data: bytes):
    """The sidecar in `data`, its initial velocities a float64 array read
    by `kac_read_velocities` and the rest read by json, or None where the
    library does not load or the text is not laid out as `write_sidecar`
    writes it (json.load reads any other)."""
    lib = _kloop.library()
    start = data.find(_BLOCK) + len(_BLOCK)
    # json.loads reads bytes as UTF-8 and open(path) with the locale's
    # encoding: the same text where every byte is ASCII
    if lib is None or start < len(_BLOCK) or not data.isascii():
        return None
    # a bytes object ends in a NUL, which the parser stops at; a value and
    # its separator take 8 bytes or more
    raw = np.frombuffer(data, np.uint8)
    values, shape = np.empty((len(data) - start) // 8 + 1), np.empty(2, np.int64)
    size = lib.kac_read_velocities(raw.ctypes.data + start, len(data) - start,
                                   values.ctypes.data, len(values), shape.ctypes.data)
    if size < 0:
        return None
    try:
        sidecar = json.loads(b"".join((data[:start - 1], json.dumps(_VELOCITIES).encode(),
                                       data[start + size:])))
    except ValueError:
        return None
    # the placeholder must be the key's value: not one of a nested dict,
    # nor one a later duplicate of the key replaced
    if not isinstance(sidecar, dict) or sidecar.get("initial_velocities") != _VELOCITIES:
        return None
    rows, d = shape.tolist()
    sidecar["initial_velocities"] = values[:rows * d].reshape(rows, d)
    return sidecar


def _read_sidecar(path: str, force: bool = True):
    """The sidecar at `path`, its config and its initial state; in the
    sidecar returned, "initial_velocities" is a float64 (N, d) array on
    either route.  Unless forced, a sidecar stamped by another version is a
    VersionMismatchError; a velocity block that is not N rows of d numbers
    is a ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    sidecar = _parse_sidecar(data)
    if sidecar is None:
        # the file as open(path) reads it
        sidecar = json.load(io.TextIOWrapper(io.BytesIO(data)))
    validate(sidecar, _SIDECAR_SCHEMA)
    if sidecar.get("version") != __version__ and not force:
        raise VersionMismatchError(
            f"log was written by version {sidecar.get('version')}, this is {__version__}; "
            "pass force=True to replay anyway"
        )
    cfg = SimConfig.from_dict(sidecar["config"])
    v = sidecar["initial_velocities"]
    # json's lists: rows of d numbers (a bool is not one, nor an integer
    # beyond the doubles) convert, and the shape check refuses the rest
    if isinstance(v, list) and all(isinstance(row, list) and len(row) == cfg.d and all(
            type(x) in (int, float) for x in row) for row in v):
        with contextlib.suppress(OverflowError):
            v = np.array(v, dtype=float)
    if not isinstance(v, np.ndarray) or v.shape != (cfg.n, cfg.d):
        raise ConfigError(f"{path}: initial_velocities is not {cfg.n} rows of {cfg.d} numbers")
    sidecar["initial_velocities"] = v
    return sidecar, cfg, ParticleState(v)


def load_trajectory_inputs(sidecar_path: str, events_path: str):
    sidecar, cfg, state0 = _read_sidecar(sidecar_path)
    return sidecar, state0, read_event_csv(events_path, cfg.n, cfg.t_max, cfg.d)


def replay(sidecar_path: str, events_path: str, force: bool = False):
    """Re-apply a persisted log to its initial state.

    Refuses manifests stamped by a different tool version unless forced,
    before it reads the log.  Replays the whole log and raises
    ReplayMismatchError unless the final state's sha256 equals the
    sidecar's `final_sha256`.  Returns (sidecar, checkpoint summaries
    recomputed at the persisted checkpoint times).
    """
    sidecar, cfg, state0 = _read_sidecar(sidecar_path, force)
    log = read_event_csv(events_path, cfg.n, cfg.t_max, cfg.d)
    v = state0.velocities.copy()
    out = []
    start = 0
    for t in cfg.checkpoint_times:
        # the checkpoint at t follows every row stamped at or before t
        stop = int(np.searchsorted(log.t, t, side="right"))
        replay_rows(v, log, start, stop)
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
    replay_rows(v, log, start)
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


def run_ensemble(parsed: ParsedConfig, n_runs: int | None = None,
                 threads: int | None = None, out_dir: str | None = None):
    """n_runs trajectories with per-run streams (master seed, run index).

    Summaries are reduced in run-index order regardless of scheduling, so
    pooled statistics are bit-stable under any thread count.
    """
    n_runs = parsed.runs if n_runs is None else n_runs
    threads = parsed.threads if threads is None else threads
    t0 = time.time()
    indices = list(range(n_runs))
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
        # the dimension and kernel say which moment law the summary may be held to
        pooled = dict(pool_summaries(summaries), d=parsed.sim.d, kernel=parsed.sim.kernel.value)
        path = os.path.join(out_dir, "ensemble_summary.json")
        _atomic_write(path, json.dumps(pooled, indent=1))
        manifest.artifacts["ensemble_summary"] = path
        mpath = os.path.join(out_dir, "manifest.json")
        _atomic_write(mpath, json.dumps(manifest.to_dict(), indent=1))
        manifest.artifacts["manifest"] = mpath
    return summaries, manifest


def mean_se(x: np.ndarray):
    """Column means of the per-run rows of x and their standard errors
    (zero below two runs)."""
    mean = x.mean(axis=0)
    n = len(x)
    se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def pool_summaries(summaries) -> dict:
    """Ordered reduction of per-run summaries into pooled means and SEs."""
    summaries = sorted(summaries, key=lambda s: s.run_index)
    times = summaries[0].checkpoint_times
    m2 = np.stack([s.m2 for s in summaries])
    m4 = np.stack([s.m4 for s in summaries])
    m2_mean, m2_se = mean_se(m2)
    m4_mean, m4_se = mean_se(m4)
    return {
        "n_runs": len(summaries),
        "checkpoint_times": times.tolist(),
        "m2_mean": m2_mean.tolist(), "m2_se": m2_se.tolist(),
        "m4_mean": m4_mean.tolist(), "m4_se": m4_se.tolist(),
        "total_events": int(sum(s.n_events for s in summaries)),
        "total_collisions": int(sum(s.n_collisions for s in summaries)),
    }
