"""Command-line surface.

Subcommands: simulate, tilt-experiment, rate-eval, metrics, moments, replay.
All state flows through flags and config files; exit codes are 0 on
success, 2 for configuration errors, 3 for runtime simulation errors, 4
for I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config_io import (_NUM, CONFIG_SCHEMA, ConfigError, VersionMismatchError, _atomic_write,
                        load_trajectory_inputs, parse_config, pool_summaries, replay,
                        run_ensemble, save_trajectory, tilting_scheme, validate)
from .engine import MajorantViolationError, SimConfig, Trajectory, make_rng, simulate
from .freezing import ThetaSchedule, run_experiment
from .metrics import WeightedMeasure, bl_distance, flux_distance
from .moment_ode import maxwell_m4_curve
from .rate_function import TestFunctionDescriptor, dynamic_cost, relative_entropy, xi_functionals
from .reference import ReferenceMeasure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# what the commands below read of their input files
_DESCRIPTORS_SCHEMA = {
    "type": "object",
    "properties": {
        "descriptors": {"type": "array", "items": {"type": "object"}},
        "tilting": CONFIG_SCHEMA["properties"]["tilting"],
    },
}
_SUMMARY_KEYS = ("checkpoint_times", "m2_mean", "m4_mean", "m4_se")
_SUMMARY_SCHEMA = {"type": "object", "required": list(_SUMMARY_KEYS),
                   "properties": {k: {"type": "array", "items": {"type": "number"}, "minItems": 1}
                                  for k in _SUMMARY_KEYS}}
_CHECKPOINTS_SCHEMA = {"type": "object", "required": ["checkpoints"], "properties": {
    "checkpoints": {"type": "object", "additionalProperties": {
        "type": "object", "required": ["m2", "m4", "momentum", "truncated_m2"],
        "properties": {"m2": _NUM, "m4": _NUM, "momentum": {"type": "array", "items": _NUM},
                       "truncated_m2": {"type": "object", "additionalProperties": _NUM}}}}}}


def _load_measure_csv(path: str) -> WeightedMeasure:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "weight":
            raise ConfigError(f"{path}: last column must be 'weight', got {header[-1]!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):  # 1-based rows of the file, header first
            if not line.strip():
                continue
            values = line.strip().split(",")
            if len(values) != len(header):
                raise ConfigError(f"{path}: row {lineno} has {len(values)} values, "
                                  f"the header {len(header)} columns")
            try:
                rows.append([float(x) for x in values])
            except ValueError as exc:
                raise ConfigError(f"{path}: row {lineno}: {exc}") from exc
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        return WeightedMeasure(np.empty((0, len(header) - 1)), np.empty(0))
    return WeightedMeasure(arr[:, :-1], arr[:, -1])


def _cmd_simulate(args) -> int:
    parsed = parse_config(args.config)
    if args.seed is not None:
        parsed.echo["seed"] = args.seed
        parsed = parse_config(parsed.echo)
    runs = args.runs if args.runs is not None else parsed.runs
    threads = args.threads if args.threads is not None else parsed.threads
    out_dir = args.out_dir or "."
    if runs > 1:
        summaries, manifest = run_ensemble(parsed, n_runs=runs, threads=threads, out_dir=out_dir)
        print(json.dumps(pool_summaries(summaries), indent=1))
        return EXIT_OK
    rng = make_rng(parsed.sim.seed, 0)
    traj = simulate(parsed.sim, tilting_scheme(parsed.tilting), rng=rng)
    paths = save_trajectory(out_dir, traj)
    print(json.dumps({"artifacts": paths, "events": len(traj.log) if traj.log else 0,
                      "collisions": traj.log.n_collisions if traj.log else 0,
                      "log_rn": traj.rn_ledger.log_rn() if np.isfinite(traj.rn_ledger.log_rn()) else None}))
    return EXIT_OK


def _cmd_tilt_experiment(args) -> int:
    parsed = parse_config(args.config)
    tilt = parsed.tilting
    if tilt is None or tilt.get("kind") != "freeze":
        raise ConfigError("tilt-experiment requires tilting.kind == 'freeze' in the config")
    theta = ThetaSchedule(
        jump_times=tuple(tilt["theta"]["jump_times"]),
        levels=tuple(tilt["theta"]["levels"]),
        horizon=parsed.sim.t_max,
    )
    seed = args.seed if args.seed is not None else parsed.sim.seed
    report = run_experiment(
        n=parsed.sim.n, kernel=parsed.sim.kernel, theta=theta,
        M=tilt["M"], r=tilt["r"], delta=tilt.get("delta", 0.0),
        n_runs=args.runs if args.runs is not None else parsed.runs,
        master_seed=seed, checkpoint_times=parsed.sim.checkpoint_times,
        d=parsed.sim.d, alpha=tilt.get("alpha"),
        threads=args.threads if args.threads is not None else parsed.threads,
    )
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    report.to_json(os.path.join(out_dir, "experiment_report.json"))
    report.write_energy_csv(os.path.join(out_dir, "experiment_energy.csv"))
    print(json.dumps({"report": os.path.join(out_dir, "experiment_report.json"),
                      "energy_csv": os.path.join(out_dir, "experiment_energy.csv"),
                      "max_relative_energy_drift": report.max_relative_energy_drift}))
    return EXIT_OK


def _descriptor(d: dict | None) -> TestFunctionDescriptor | None:
    if d is None:
        return None
    try:
        return TestFunctionDescriptor(**d)
    except TypeError as exc:
        raise ConfigError(f"test function descriptor {d!r}: {exc}") from exc


def _cmd_rate_eval(args) -> int:
    with open(args.descriptors) as fh:
        spec = json.load(fh)
    validate(spec, _DESCRIPTORS_SCHEMA)
    sidecar, state0, log = load_trajectory_inputs(args.sidecar, args.events)
    cfg = SimConfig.from_dict(sidecar["config"])
    traj = Trajectory(initial_state=state0, final_state=None, checkpoints=[],
                      log=log, rn_ledger=None, seed=sidecar["seed"], config=cfg)
    reference = ReferenceMeasure(cfg.d)
    report = {"version": __version__, "ledger": sidecar.get("ledger"), "descriptors": []}
    for item in spec.get("descriptors", []):
        phi = _descriptor(item.get("phi"))
        f = _descriptor(item.get("f"))
        g = _descriptor(item.get("g"))
        xi0, xi1, xi2 = xi_functionals(traj, phi, f, g, reference)
        report["descriptors"].append({"xi0": xi0, "xi1": xi1, "xi2": xi2})
    if spec.get("tilting") is not None:
        scheme = tilting_scheme(spec["tilting"])
        value, se = dynamic_cost(traj, scheme)
        report["dynamic_cost"] = {"value": value, "stderr": se}
        report["relative_entropy"] = relative_entropy(scheme, reference)
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "rate_eval.json")
    _atomic_write(path, json.dumps(report, indent=1))
    print(json.dumps(report["descriptors"]))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    mu = _load_measure_csv(args.measure_a)
    nu = _load_measure_csv(args.measure_b)
    if args.flux:
        value = flux_distance(mu, nu, support_cap=args.support_cap, subsample_seed=args.seed or 0)
    else:
        value = bl_distance(mu, nu, support_cap=args.support_cap, subsample_seed=args.seed or 0)
    print(json.dumps({"distance": value, "flux": bool(args.flux),
                      "mass_a": mu.total_mass, "mass_b": nu.total_mass}))
    return EXIT_OK


def _cmd_moments(args) -> int:
    with open(args.summary) as fh:
        summary = json.load(fh)
    validate(summary, _SUMMARY_SCHEMA)
    if len({len(summary[k]) for k in _SUMMARY_KEYS}) > 1:
        raise ConfigError(f"{args.summary}: {', '.join(_SUMMARY_KEYS)} differ in length")
    # maxwell_m4_curve is the closed m4 law of d = 3 Maxwell molecules only
    if summary.get("d") != 3 or summary.get("kernel") != "maxwell":
        raise ConfigError(f"{args.summary}: the m4 law holds for d = 3 and the maxwell kernel; "
                          f"the summary records d = {summary.get('d')}, kernel {summary.get('kernel')}")
    times = np.asarray(summary["checkpoint_times"], dtype=float)
    m2 = np.asarray(summary["m2_mean"], dtype=float)
    m4 = np.asarray(summary["m4_mean"], dtype=float)
    m4_se = np.asarray(summary["m4_se"], dtype=float)
    curve = maxwell_m4_curve(float(m2[0]), float(m4[0]), times)
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "moments_vs_ode.csv")
    lines = ["t,m4_sim,m4_se,m4_ode"]
    for k in range(len(times)):
        lines.append(f"{times[k]:.17g},{m4[k]:.17g},{m4_se[k]:.17g},{curve[k]:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")
    print(json.dumps({"csv": path, "max_abs_gap": float(np.max(np.abs(m4 - curve)))}))
    return EXIT_OK


def _cmd_replay(args) -> int:
    sidecar, summaries = replay(args.sidecar, args.events, force=args.force)
    report = {"checkpoints": summaries}
    if args.reference_checkpoints:
        with open(args.reference_checkpoints) as fh:
            ref = json.load(fh)
        validate(ref, _CHECKPOINTS_SCHEMA)
        ref = ref["checkpoints"]
        # replay is bit-exact, so every replayed field must equal its
        # reference, and a checkpoint on one side only is a mismatch
        keys = [f"{s['time']:.17g}" for s in summaries]
        worst = 0.0 if set(keys) == set(ref) else math.inf
        for key, s in zip(keys, summaries):
            r = ref.get(key)
            if r is None:
                continue
            got = [s["m2"], s["m4"], *s["momentum"], *s["truncated_m2"].values()]
            want = [r["m2"], r["m4"], *r["momentum"],
                    *(r["truncated_m2"].get(k, math.inf) for k in s["truncated_m2"])]
            for a, b in zip(got, want):
                worst = max(worst, abs(a - b))
        report["max_abs_checkpoint_gap"] = worst
        if worst != 0.0:
            print(json.dumps(report))
            return EXIT_RUNTIME
    print(json.dumps(report))
    return EXIT_OK


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1, as the config schema has it."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kaclab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one trajectory or an ensemble from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--runs", type=_count)
    sp.add_argument("--out-dir")
    sp.add_argument("--threads", type=_count)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("tilt-experiment", help="run the freeze-schedule energy experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--runs", type=_count)
    sp.add_argument("--out-dir")
    sp.add_argument("--threads", type=_count)
    sp.set_defaults(func=_cmd_tilt_experiment)

    sp = sub.add_parser("rate-eval", help="evaluate variational functionals on a persisted trajectory")
    sp.add_argument("--sidecar", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--descriptors", required=True)
    sp.add_argument("--out-dir")
    sp.set_defaults(func=_cmd_rate_eval)

    sp = sub.add_parser("metrics", help="distance between two persisted measures")
    sp.add_argument("--measure-a", required=True)
    sp.add_argument("--measure-b", required=True)
    sp.add_argument("--flux", action="store_true")
    sp.add_argument("--support-cap", type=int, default=4000)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_metrics)

    sp = sub.add_parser("moments", help="compare an ensemble moment track with the closed relaxation law")
    sp.add_argument("--summary", required=True)
    sp.add_argument("--out-dir")
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("replay", help="re-apply a persisted event log and verify checkpoints")
    sp.add_argument("--sidecar", required=True)
    sp.add_argument("--events", required=True)
    sp.add_argument("--reference-checkpoints")
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_replay)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MajorantViolationError, VersionMismatchError, RuntimeError) as exc:
        # first: an engine.SimulationError is both a RuntimeError and a ValueError
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error [{exc.filename}]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
