"""Energy-concentration experiment: tilted initial data plus freeze schedule.

The construction drives the empirical energy of the visible bulk along a
prescribed nondecreasing step function Theta with Theta(0) = 1 while every
sample path conserves total energy exactly.  Ingredients, all closed forms
in the tail tilt's law of |v|^2 (`girsanov._tail_law`), no quadrature:

1.  ``psi_M(lam) = log int exp(lam |v|^2 1[|v| >= M]) dmu`` and the tail
    tilt ``phi = lam |v|^2 1[|v| >= M] - psi_M(lam)``;
2.  ``lam_M`` solving ``<|v|^2, tilted> = Theta(T)`` (bisection; the tilted
    energy is continuous and strictly increasing in lam, diverging at z2);
3.  a time partition ``t_i = inf{t : Theta(t) >= (1 - i/r) + (i/r)
    Theta(T)}`` whose interior points sit on jumps of Theta, with t_r = T
    by convention;
4.  speed thresholds ``M_0 <= ... <= M_{r-1} < M_r = inf`` with the tilted
    truncated energy below M_i equal to Theta(t_i+);
5.  the freeze tilt: on [t_{i-1}, t_i) particles whose *initial* speed is
    >= M_{i-1} are frozen (K = 0 on any pair touching them), everyone else
    collides at rate N/N_t (times 1 + delta |v - v_star| in the Maxwell
    variant), N_t the unfrozen count.

Fast particles carry a macroscopic share of energy in o(N) particles; while
frozen they are invisible to the bulk dynamics, and their scheduled release
lifts the bulk energy in steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .config_io import _atomic_write, map_runs, mean_se
from .engine import ParticleState, SimConfig, make_rng, simulate
from .girsanov import InitialTilt, TiltingScheme, _tail_law, _tail_mass, sample_tilted_initial
from .kinetics import Kernel
from .rate_function import dynamic_cost
from .reference import ReferenceMeasure

_BISECT_RTOL = 1e-10


# ---------------------------------------------------------------------------
# the target energy trajectory


@dataclass(frozen=True)
class ThetaSchedule:
    """Piecewise-constant, left-continuous, nondecreasing target energy.

    ``levels[k]`` is the value on (jump_times[k-1], jump_times[k]] with the
    convention jump_times[-1] = 0, so levels[0] = Theta(0) = 1.
    """

    jump_times: tuple
    levels: tuple
    horizon: float

    def __post_init__(self):
        jumps = tuple(float(t) for t in self.jump_times)
        levels = tuple(float(v) for v in self.levels)
        if len(levels) != len(jumps) + 1:
            raise ValueError("need one level per interval: len(levels) = len(jumps) + 1")
        if levels[0] != 1.0:
            raise ValueError("Theta(0) must be 1")
        if any(b <= a for a, b in zip(jumps, jumps[1:])):
            raise ValueError("jump times must be strictly increasing")
        if jumps and (jumps[0] <= 0.0 or jumps[-1] >= self.horizon):
            raise ValueError("jumps must lie strictly inside (0, horizon)")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise ValueError("Theta must be nondecreasing")
        object.__setattr__(self, "jump_times", jumps)
        object.__setattr__(self, "levels", levels)

    @property
    def theta_final(self) -> float:
        return self.levels[-1]

    def theta(self, t: float) -> float:
        """Left-continuous evaluation."""
        k = int(np.searchsorted(self.jump_times, t, side="left"))
        return self.levels[k]

    def theta_right(self, t: float) -> float:
        """Right limit Theta(t+)."""
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.levels[k]

    def a_bound(self, t: float, alpha: float | None = None) -> float:
        """Fourth-moment diagnostic envelope alpha / gap(t)^2.

        gap(t) is the distance from t to the nearest point of {0} u jumps
        strictly below t; infinite at t = 0 and on the jump set itself.
        """
        if alpha is None:
            alpha = 10.0 * self.theta_final
        pts = [0.0] + [s for s in self.jump_times]
        below = [s for s in pts if s < t]
        if not below or t in pts:
            return math.inf
        gap = t - max(below)
        return alpha / gap**2


# ---------------------------------------------------------------------------
# scalar ingredients (closed forms over the Gaussian reference)


def cumulant_psi(reference: ReferenceMeasure, M: float, lam: float) -> float:
    """log int exp(lam |v|^2 1[|v| >= M]) dmu, for 0 <= lam < z2."""
    if lam < 0.0 or lam >= reference.z2:
        raise ValueError(f"lam must lie in [0, z2 = {reference.z2}), got {lam}")
    if lam == 0.0:
        return 0.0
    return math.log(_tail_mass(reference, M, lam))


def tilted_energy(reference: ReferenceMeasure, M: float, lam: float) -> float:
    """<|v|^2> under the tilted measure exp(lam |v|^2 1[|v| >= M] - psi) dmu."""
    return tilted_truncated_energy(reference, M, lam, math.inf)


def tilted_truncated_energy(reference: ReferenceMeasure, M: float, lam: float, x: float) -> float:
    """<|v|^2 1[|v| <= x]> under the tilted measure, for x >= M."""
    psi = cumulant_psi(reference, M, lam)
    if lam == 0.0:
        return float(reference.partial_m2(x * x))
    m2, scale_t, growth = _tail_law(reference, M, lam)
    if x < M:
        return float(reference.partial_m2(min(x * x, m2))) * math.exp(-psi)
    inside = float(reference.partial_m2(m2))
    tail = growth * float(reference.partial_m2(x * x, scale=scale_t) - reference.partial_m2(m2, scale=scale_t))
    return (inside + tail) * math.exp(-psi)


def solve_lambda(reference: ReferenceMeasure, M: float, theta_final: float) -> float:
    """The unique lam in (0, z2) with tilted energy equal to theta_final.

    Bisection to relative tolerance 1e-10; monotonicity of the tilted
    energy in lam is asserted along the way.
    """
    if theta_final <= 1.0:
        raise ValueError(f"target energy must exceed 1, got {theta_final}")
    hi = reference.z2 * (1.0 - 1e-14)
    while tilted_energy(reference, M, hi) < theta_final:  # pragma: no cover
        hi = reference.z2 - 0.1 * (reference.z2 - hi)
    e_lo = 1.0  # the tilted energy at the lower end of the bracket

    def energy(lam):
        nonlocal e_lo
        e = tilted_energy(reference, M, lam)
        if e < e_lo - 1e-12:
            raise AssertionError("tilted energy is not increasing in lam")
        if e < theta_final:
            e_lo = e
        return e

    return _bisect(energy, theta_final, 0.0, hi)


def _bisect(fn, target: float, lo: float, hi: float) -> float:
    """The root of fn = target in [lo, hi] for an increasing fn with
    fn(lo) < target <= fn(hi), by bisection to relative tolerance 1e-10."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_RTOL * max(hi, 1e-30):
            break
    return 0.5 * (lo + hi)


def legendre_psi_star(reference: ReferenceMeasure, a: float) -> float:
    """Legendre transform of the full-energy cumulant (threshold M = 0).

    Closed form (d/2)(a - 1 - log a) for the Gaussian reference; always
    bounded by a * z2.
    """
    if a <= 0.0:
        raise ValueError("the transform is evaluated at a > 0")
    val = (reference.d / 2.0) * (a - 1.0 - math.log(a))
    return val


def tv_distance_tilted(reference: ReferenceMeasure, M: float, lam: float) -> float:
    """Total variation (unhalved) between the tilted measure and the base.  In
    s = |v|^2 the density e^phi is e^{-psi} <= 1 below M^2 and e^{lam s - psi}
    above, >= 1 from max(M^2, psi/lam) on: three Gamma pieces give it."""
    psi = cumulant_psi(reference, M, lam)
    m2, scale_t, growth = _tail_law(reference, M, lam)
    split = max(m2, psi / lam if lam > 0 else m2)
    w = math.exp(-psi) * growth  # the tilted density's factor above M^2
    sf = [float(reference.speed2_sf(s)) for s in (m2, split)]
    sf_t = [float(reference.speed2_sf(s, scale=scale_t)) for s in (m2, split)]
    below = -math.expm1(-psi) * float(reference.speed2_cdf(m2))
    middle = (sf[0] - sf[1]) - w * (sf_t[0] - sf_t[1])
    return below + middle + (w * sf_t[1] - sf[1])


# ---------------------------------------------------------------------------
# the freeze plan and its realisation on sampled initial data


def time_partition(theta: ThetaSchedule, r: int) -> np.ndarray:
    """t_i = inf{t : Theta(t) >= (1 - i/r) Theta(0) + (i/r) Theta(T)}.

    Interior points land on jumps of Theta; the last point is the horizon
    by convention.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    t_final = theta.theta_final
    grid = [0.0]
    for i in range(1, r):
        level = (1.0 - i / r) * theta.levels[0] + (i / r) * t_final
        if level <= theta.levels[0]:
            grid.append(0.0)
            continue
        # first jump whose post-jump level reaches the target
        k = int(np.searchsorted(theta.levels, level, side="left"))
        grid.append(theta.jump_times[k - 1])
    grid.append(theta.horizon)
    return np.asarray(grid)


@dataclass
class FreezeScheme:
    """State-independent plan for the freeze construction."""

    M: float
    r: int
    t_grid: np.ndarray
    thresholds: np.ndarray  # M_0 .. M_{r-1}; np.inf marks "nothing frozen"
    lam: float
    psi: float
    delta: float = 0.0

    @property
    def initial_tilt(self) -> InitialTilt:
        return InitialTilt(self.lam, self.M, self.psi)


def freeze_thresholds(reference: ReferenceMeasure, M: float, lam: float,
                      theta: ThetaSchedule, t_grid: np.ndarray) -> np.ndarray:
    """Solve the truncated tilted energy below M_i equal to Theta(t_i+).

    Bisection to relative tolerance 1e-10; the truncated energy is
    continuous and increasing in the threshold.  Targets equal to the full
    tilted energy give the sentinel inf.
    """
    theta_final = theta.theta_final
    out = np.empty(len(t_grid) - 1)
    for i in range(len(t_grid) - 1):
        target = theta.theta_right(t_grid[i])
        if target > theta_final * (1.0 + 1e-12):
            raise ValueError(f"target energy {target} exceeds the tilted total {theta_final}")
        if target >= theta_final * (1.0 - 1e-12):
            out[i] = np.inf
            continue
        hi = max(2.0 * M, 4.0)
        while tilted_truncated_energy(reference, M, lam, hi) < target:
            hi *= 2.0
        out[i] = _bisect(lambda x: tilted_truncated_energy(reference, M, lam, x), target, M, hi)
    finite = out[np.isfinite(out)]
    if np.any(np.diff(finite) < 0.0) or (len(finite) < len(out) and not np.all(np.isinf(out[len(finite):]))):
        raise AssertionError("freeze thresholds must be nondecreasing")
    if out[0] <= M:
        raise AssertionError("the first freeze threshold must exceed the tilt threshold")
    return out


def design_freeze_experiment(reference: ReferenceMeasure, theta: ThetaSchedule,
                             M: float, r: int, delta: float = 0.0) -> FreezeScheme:
    """Solve every scalar ingredient; no initial data involved yet."""
    if theta.theta_final <= 1.0:
        # degenerate schedule: identity dynamics, no tilt
        return FreezeScheme(M=M, r=r, t_grid=time_partition(theta, r),
                            thresholds=np.full(r, np.inf), lam=0.0, psi=0.0, delta=delta)
    lam = solve_lambda(reference, M, theta.theta_final)
    psi = cumulant_psi(reference, M, lam)
    t_grid = time_partition(theta, r)
    thresholds = freeze_thresholds(reference, M, lam, theta, t_grid)
    return FreezeScheme(M=M, r=r, t_grid=t_grid, thresholds=thresholds,
                        lam=lam, psi=psi, delta=delta)


def build_freeze_scheme(state0_velocities: np.ndarray, fs: FreezeScheme) -> TiltingScheme:
    """Realise the dynamic tilt on sampled initial data.

    On [t_{i-1}, t_i) the frozen set is the particles whose initial speed is
    at least M_{i-1}; K = 0 on pairs touching it and N/N_t (1 + delta u)
    elsewhere.
    """
    v0 = np.asarray(state0_velocities, dtype=float)
    n = len(v0)
    speeds = np.linalg.norm(v0, axis=1)
    frozen_sets, coeffs, deltas = [], [], []
    for thr in fs.thresholds:
        frozen = np.flatnonzero(speeds >= thr)
        n_t = n - len(frozen)
        if n_t == 0:
            raise ValueError("every particle is frozen on some interval (N_t = 0)")
        frozen_sets.append(frozen)
        coeffs.append(n / n_t)
        deltas.append(fs.delta)
    return TiltingScheme(
        initial_tilt=fs.initial_tilt if fs.lam > 0.0 else None,
        breakpoints=np.asarray(fs.t_grid, dtype=float),
        coeffs=np.asarray(coeffs),
        deltas=np.asarray(deltas),
        frozen_sets=frozen_sets,
    )


# ---------------------------------------------------------------------------
# the experiment driver


@dataclass
class ExperimentReport:
    """Per-checkpoint ensemble summaries plus per-run scalar audit trail.

    window_energy is the truncated energy (1/N) sum over currently unfrozen
    particles of |v_k(t)|^2, whose ensemble mean tracks Theta; the
    renormalised per-unfrozen-particle version is subsystem_energy =
    window_energy * N / N_t.  Adding the frozen particles' (constant)
    energy back reconstructs the conserved total exactly, path by path.
    """

    config: dict
    checkpoint_times: np.ndarray
    theta_at_checkpoints: np.ndarray
    window_energy_mean: np.ndarray
    window_energy_se: np.ndarray
    subsystem_energy_mean: np.ndarray
    subsystem_energy_se: np.ndarray
    unfrozen_fraction_mean: np.ndarray
    total_energy_mean: np.ndarray
    max_relative_energy_drift: float
    truncated_initial_energy_mean: np.ndarray  # per partition index i = 0..r
    truncated_initial_energy_se: np.ndarray
    theta_right_at_grid: np.ndarray
    per_run_log_rn: np.ndarray  # (runs, 4): initial, jump, compensator, hit_zero
    per_particle_log_rn: np.ndarray
    rn_reference_level: float  # z2 * Theta(T), the hard-sphere comparison level
    dynamic_costs: np.ndarray
    dynamic_cost_se: np.ndarray
    dynamic_cost_bound: float  # 4 delta^2 Theta(T) T (Maxwell variant), else nan
    a_bound_curve: np.ndarray
    freeze_plan: dict

    def to_dict(self) -> dict:
        # tolist() turns arrays into lists, and returns floats and dicts as they are
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    def to_json(self, path) -> None:
        _atomic_write(path, json.dumps(self.to_dict(), indent=1))

    def write_energy_csv(self, path) -> None:
        rows = (f"{t:.17g},{self.window_energy_mean[k]:.17g},"
                f"{self.window_energy_se[k]:.17g},{self.theta_at_checkpoints[k]:.17g}\n"
                for k, t in enumerate(self.checkpoint_times))
        _atomic_write(path, "t,window_energy_mean,window_energy_se,theta\n" + "".join(rows))


def _experiment_one_run(args):
    """One run of the experiment: its values, keyed by name."""
    run, n, kernel, d, plan, t_max, checkpoint_times, master_seed, cost_pairs_per_interval = args
    reference = ReferenceMeasure(d)
    r_eff = len(plan.t_grid) - 1
    rng = make_rng(master_seed, run)
    v0 = sample_tilted_initial(reference, TiltingScheme(initial_tilt=plan.initial_tilt), n, rng)
    scheme = build_freeze_scheme(v0, plan)
    config = SimConfig(
        n=n, t_max=t_max, kernel=kernel, d=d, seed=master_seed,
        checkpoint_times=tuple(checkpoint_times), record_full_states=True,
        measure="Q", store_log=True,
    )
    traj = simulate(config, scheme, rng=rng, initial_state=ParticleState(v0))

    speeds0 = np.linalg.norm(v0, axis=1)
    s0 = speeds0**2
    truncated0 = np.empty(r_eff + 1)
    for i in range(r_eff):
        truncated0[i] = float(np.mean(s0 * (speeds0 <= plan.thresholds[i])))
    truncated0[r_eff] = float(np.mean(s0))

    n_cp = len(checkpoint_times)
    window = np.empty(n_cp)
    subsystem = np.empty(n_cp)
    unfrozen = np.empty(n_cp)
    total_energy = np.empty(n_cp)
    drift = 0.0
    e0 = traj.checkpoints[0].m2 if checkpoint_times[0] == 0.0 else float(np.mean(s0))
    for k, cp in enumerate(traj.checkpoints):
        s = np.sum(cp.state.velocities**2, axis=1)
        k_int = scheme.interval_index(min(cp.time, t_max * (1 - 1e-15)))
        alive = ~scheme.frozen_mask(k_int, n)
        n_t = int(alive.sum())
        window[k] = float(np.sum(s[alive])) / n
        subsystem[k] = float(np.sum(s[alive])) / max(n_t, 1)
        unfrozen[k] = n_t / n
        total_energy[k] = cp.m2
        drift = max(drift, abs(cp.m2 - e0) / max(abs(e0), 1e-300))

    led = traj.rn_ledger
    ledger = np.array([led.initial_term, led.jump_term, led.compensator_term, float(led.hit_zero)])
    if plan.delta > 0.0:
        cost, cost_se = dynamic_cost(traj, scheme, mode="subsample",
                                     pairs_per_interval=cost_pairs_per_interval,
                                     seed=master_seed + run)
    else:  # the exact cost, integrated during the run
        cost, cost_se = traj.dynamic_cost, 0.0
    return {"window": window, "subsystem": subsystem, "unfrozen": unfrozen,
            "total_energy": total_energy, "truncated0": truncated0, "ledger": ledger,
            "cost": cost, "cost_se": cost_se, "drift": drift}


def run_experiment(n: int, kernel: Kernel, theta: ThetaSchedule, M: float, r: int,
                   delta: float = 0.0, n_runs: int = 20, master_seed: int = 0,
                   checkpoint_times=None, d: int = 3, alpha: float | None = None,
                   cost_pairs_per_interval: int = 64, threads: int = 1) -> ExperimentReport:
    """Simulate the tilted ensemble and collect every diagnostic.

    Runs are independent streams (master seed, run index); with threads > 1
    they execute in worker processes and are reduced in run-index order, so
    the report is identical under any thread count.
    """
    # a report needs a run and a checkpoint (its first is each run's
    # starting energy)
    if n_runs < 1:
        raise ValueError(f"n_runs must be at least 1, got {n_runs}")
    if checkpoint_times is not None and len(checkpoint_times) == 0:
        raise ValueError("checkpoint_times is empty: the experiment needs at least one checkpoint")
    reference = ReferenceMeasure(d)
    plan = design_freeze_experiment(reference, theta, M, r, delta)
    t_max = theta.horizon
    if checkpoint_times is None:
        checkpoint_times = np.linspace(0.0, t_max, 21)
    checkpoint_times = np.asarray(sorted(set(float(t) for t in checkpoint_times)))

    args = [(run, n, kernel, d, plan, t_max, checkpoint_times, master_seed, cost_pairs_per_interval)
            for run in range(n_runs)]
    results = map_runs(_experiment_one_run, args, threads)

    # each run's values stacked by name, in run order
    runs = {key: np.array([res[key] for res in results]) for key in results[0]}
    ledgers = runs["ledger"]

    w_mean, w_se = mean_se(runs["window"])
    s_mean, s_se = mean_se(runs["subsystem"])
    tr_mean, tr_se = mean_se(runs["truncated0"])
    log_rn = ledgers[:, 0] + ledgers[:, 1] - ledgers[:, 2]
    log_rn = np.where(ledgers[:, 3] > 0.0, -np.inf, log_rn)
    theta_grid_right = np.array([theta.theta_right(t) for t in plan.t_grid])

    return ExperimentReport(
        config={
            "n": n, "kernel": kernel.value, "M": M, "r": r, "delta": delta,
            "n_runs": n_runs, "master_seed": master_seed, "d": d,
            "theta": {"jump_times": list(theta.jump_times), "levels": list(theta.levels),
                      "horizon": theta.horizon},
        },
        checkpoint_times=checkpoint_times,
        theta_at_checkpoints=np.array([theta.theta(t) if t > 0 else theta.theta_right(0.0)
                                       for t in checkpoint_times]),
        window_energy_mean=w_mean, window_energy_se=w_se,
        subsystem_energy_mean=s_mean, subsystem_energy_se=s_se,
        unfrozen_fraction_mean=runs["unfrozen"].mean(axis=0),
        total_energy_mean=runs["total_energy"].mean(axis=0),
        max_relative_energy_drift=max(res["drift"] for res in results),
        truncated_initial_energy_mean=tr_mean,
        truncated_initial_energy_se=tr_se,
        theta_right_at_grid=theta_grid_right,
        per_run_log_rn=ledgers,
        per_particle_log_rn=log_rn / n,
        rn_reference_level=reference.z2 * theta.theta_final,
        dynamic_costs=runs["cost"],
        dynamic_cost_se=runs["cost_se"],
        dynamic_cost_bound=(4.0 * delta**2 * theta.theta_final * t_max) if delta > 0.0 else math.nan,
        a_bound_curve=np.array([theta.a_bound(t, alpha) for t in checkpoint_times]),
        freeze_plan={
            "lam": plan.lam, "psi": plan.psi, "t_grid": np.asarray(plan.t_grid).tolist(),
            "thresholds": [None if not np.isfinite(x) else float(x) for x in plan.thresholds],
            "M": plan.M, "r": plan.r, "delta": plan.delta,
        },
    )
