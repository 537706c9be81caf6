"""The benchmark workloads.

Each workload builds its inputs once from the benchmark seed (set-up), then
runs ops: op k draws every random number it needs from
``make_rng(seed, k)``.  `op` is the timed unit of work.  An op made of
several calls calls `lap()` between them, so that the host's speed is
probed around each call and not only around the op; `check` runs after
the clock stops, decides whether the op's output is correct and returns the
op's determinism record (a sha256 of its final velocities plus its exact
counts) and its amount of work.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from tracing import call_arg, fenwick_probe, simulate_counts, velocity_digest

# run index of the stream the log_pipeline set-up simulates from; ops use
# the indices 0, 1, 2, ... of the same master seed
SETUP_STREAM = 1 << 40

CONSERVATION_TOL = 1e-9


class Workload:
    work_unit = ""

    def __init__(self, kl, seed, smoke, scratch_dir):
        self.kl, self.seed = kl, seed

    def layer_probe(self, out) -> dict:
        """Per-layer metrics measured from outside on an op's output (traced runs)."""
        return {}

    def close(self):
        pass


class HsUntilted(Workload):
    """kl.simulate of regularised hard spheres, N=10_000, T=2, no tilt."""

    work_unit = "proposals"

    def __init__(self, kl, seed, smoke, scratch_dir):
        super().__init__(kl, seed, smoke, scratch_dir)
        n, t = (300, 0.5) if smoke else (10_000, 2.0)
        self.cfg = kl.SimConfig(n=n, t_max=t, kernel=kl.Kernel.HARD_SPHERE, seed=seed,
                                checkpoint_times=(0.0, t / 2, t))

    def op(self, k, lap):
        return self.kl.simulate(self.cfg, rng=self.kl.make_rng(self.seed, k))

    def check(self, traj):
        cps = traj.checkpoints
        e0, p0 = cps[0].m2, cps[0].momentum
        drift_e = max(abs(cp.m2 - e0) / e0 for cp in cps)
        drift_p = max(float(np.max(np.abs(cp.momentum - p0))) for cp in cps) / (1.0 + float(np.max(np.abs(p0))))
        counts = simulate_counts(self.cfg, None, traj)
        record = {"sha256": velocity_digest(traj.final_state.velocities), **counts}
        ok = drift_e <= CONSERVATION_TOL and drift_p <= CONSERVATION_TOL
        return ok, record, counts["proposals"]

    def layer_probe(self, traj):
        return fenwick_probe(self.kl, traj, np.random.default_rng(0))


class FreezeHs(Workload):
    """One freeze-experiment run in the criterion 7 configuration."""

    work_unit = "proposals"

    def __init__(self, kl, seed, smoke, scratch_dir):
        super().__init__(kl, seed, smoke, scratch_dir)
        self.n = 300 if smoke else 2000
        self.theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        self.checkpoints = np.arange(0.0, 1.001, 0.05)
        # run_experiment returns no trajectory; keep the one its simulate
        # call makes, for the determinism record
        self.runs = []
        original = kl.freezing.simulate

        def keep_trajectory(*args, **kwargs):
            traj = original(*args, **kwargs)
            self.runs.append((call_arg(args, kwargs, 0, "config"), call_arg(args, kwargs, 1, "scheme"), traj))
            return traj

        kl.freezing.simulate = keep_trajectory

    def op(self, k, lap):
        self.runs.clear()
        master_seed = int(self.kl.make_rng(self.seed, k).integers(0, 2**31))
        return self.kl.run_experiment(
            n=self.n, kernel=self.kl.Kernel.HARD_SPHERE, theta=self.theta, M=4.0, r=4,
            n_runs=1, master_seed=master_seed, checkpoint_times=self.checkpoints, threads=1)

    def check(self, report):
        (config, scheme, traj), = self.runs
        ledger = report.per_run_log_rn
        ok = (report.max_relative_energy_drift <= CONSERVATION_TOL
              and not np.any(ledger[:, 3])
              and bool(np.all(np.isfinite(ledger[:, :3]))))
        counts = simulate_counts(config, scheme, traj)
        record = {"sha256": velocity_digest(traj.final_state.velocities), **counts}
        return ok, record, counts["proposals"]


class LogPipeline(Workload):
    """The read side of the event log: persistence, replay and metrics."""

    work_unit = "log rows"
    SUPPORT_CAP = 1000

    def __init__(self, kl, seed, smoke, scratch_dir):
        super().__init__(kl, seed, smoke, scratch_dir)
        n, t = (300, 0.5) if smoke else (5000, 2.0)
        cfg = kl.SimConfig(n=n, t_max=t, kernel=kl.Kernel.HARD_SPHERE, seed=seed,
                           checkpoint_times=(0.0, t / 2, t))
        self.traj = kl.simulate(cfg, rng=kl.make_rng(seed, SETUP_STREAM))
        self.counts = simulate_counts(cfg, None, self.traj)
        self.reference = kl.ReferenceMeasure(3)
        os.makedirs(scratch_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="log_pipeline_", dir=scratch_dir)

    def op(self, k, lap):
        kl, traj = self.kl, self.traj
        rng = kl.make_rng(self.seed, k)
        f = kl.TestFunctionDescriptor(kind="product", coeff=float(rng.uniform(0.2, 2.0)),
                                      a_kind="sin", a_param=float(rng.uniform(0.5, 3.0)),
                                      b_kind="energy")
        subsample_seed = int(rng.integers(0, 2**31))
        paths = kl.config_io.save_trajectory(self.dir, traj)
        lap()
        _, state0, log = kl.config_io.load_trajectory_inputs(paths["sidecar"], paths["events"])
        lap()
        _, replayed = kl.config_io.replay(paths["sidecar"], paths["events"])
        lap()
        final = kl.engine.final_state_from_log(state0, log)
        lap()
        flux = kl.flux_measure(traj)
        lap()
        _, xi1, _ = kl.xi_functionals(traj, None, f, None, self.reference)
        lap()
        bl = kl.bl_distance(kl.empirical_measure(traj.initial_state),
                            kl.empirical_measure(traj.final_state),
                            support_cap=self.SUPPORT_CAP, subsample_seed=subsample_seed)
        lap()
        early = flux.points[:, 0] < traj.config.t_max / 2
        flux_bl = kl.flux_distance(kl.WeightedMeasure(flux.points[early], flux.weights[early]),
                                   kl.WeightedMeasure(flux.points[~early], flux.weights[~early]),
                                   support_cap=self.SUPPORT_CAP, subsample_seed=subsample_seed)
        return final, replayed, xi1, bl, flux_bl, flux.total_mass, len(log)

    def check(self, out):
        final, replayed, xi1, bl, flux_bl, flux_mass, rows = out
        traj = self.traj
        same_final = final.velocities.tobytes() == traj.final_state.velocities.tobytes()
        moments_ok = len(replayed) == len(traj.checkpoints) and all(
            abs(r[key] - getattr(cp, key)) <= 1e-12 * max(1.0, abs(getattr(cp, key)))
            for r, cp in zip(replayed, traj.checkpoints) for key in ("m2", "m4"))
        # the flux halves are not probability measures: the distance is at
        # most their total mass, which is 2 for two probability measures
        ok = (same_final and moments_ok and rows == len(traj.log)
              and abs(xi1) <= 1e-9 * (1 + rows)
              and 0.0 <= bl <= 2.0 and 0.0 <= flux_bl <= flux_mass)
        record = {"sha256": velocity_digest(final.velocities), **self.counts}
        return ok, record, rows

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "hs_untilted": HsUntilted,
    "freeze_hs": FreezeHs,
    "log_pipeline": LogPipeline,
}
