import dataclasses
import itertools
import math

import numpy as np
import pytest

import kaclab as kl
from kaclab.engine import EventLog, ParticleState, replay_events
from kaclab.girsanov import InitialTilt, TiltingScheme
from kaclab.kinetics import Kernel, post_collision
from kaclab.metrics import WeightedMeasure
from kaclab.rate_function import (TestFunctionDescriptor, dynamic_cost, relative_entropy,
                                  tau, xi_functionals)

REF = kl.ReferenceMeasure(3)


class TestTau:
    def test_minimum_at_one(self):
        assert tau(1.0) == 0.0

    def test_continuous_extension_at_zero(self):
        assert tau(0.0) == 1.0

    def test_value_at_e(self):
        assert tau(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tau(-0.1)

    def test_convexity_on_grid(self):
        grid = np.linspace(0.0, 6.0, 41)
        for a in grid:
            for b in grid:
                for theta in (0.25, 0.5, 0.75):
                    mix = theta * a + (1 - theta) * b
                    assert tau(mix) <= theta * tau(a) + (1 - theta) * tau(b) + 1e-12


class TestRelativeEntropy:
    def test_identity_zero(self):
        assert relative_entropy(InitialTilt(0.0, 0.0, 0.0), REF) == 0.0

    def test_closed_form_full_tilt(self):
        psi = kl.cumulant_psi(REF, 0.0, 0.75)
        h = relative_entropy(InitialTilt(0.75, 0.0, psi), REF)
        assert h == pytest.approx(0.75 * 2.0 - psi, abs=1e-12)
        assert h == pytest.approx(0.460279, abs=1e-6)

    def test_plugin_estimator_matches_closed_form(self):
        psi = kl.cumulant_psi(REF, 0.0, 0.75)
        tilt = InitialTilt(0.75, 0.0, psi)
        scheme = TiltingScheme(initial_tilt=tilt)
        v = kl.sample_tilted_initial(REF, scheme, 10_000, kl.make_rng(1))
        mu = kl.empirical_measure(ParticleState(v))
        h_hat = relative_entropy(mu, REF, log_density_ratio=lambda pts: tilt.phi(pts))
        vals = tilt.phi(v)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(h_hat - 0.460279) < 3 * se

    def test_atomic_without_evaluator_infinite(self):
        mu = WeightedMeasure([[0.0, 0, 0]], [1.0])
        assert relative_entropy(mu, REF) == math.inf


class TestDynamicCost:
    def test_identity_cost_zero(self):
        cfg = kl.SimConfig(n=8, t_max=0.5, kernel=Kernel.MAXWELL, seed=2)
        traj = kl.simulate(cfg)
        value, se = dynamic_cost(traj, TiltingScheme.identity())
        assert value == 0.0 and se == 0.0

    def test_constant_tilt_closed_form(self):
        # K = 2 with the unit kernel: tau(2) * mbar(E) = (2 log 2 - 1) * T
        scheme = TiltingScheme.constant(2.0)
        cfg = kl.SimConfig(n=3, t_max=0.1, kernel=Kernel.MAXWELL, seed=3, measure="Q")
        traj = kl.simulate(cfg, scheme)
        value, se = dynamic_cost(traj, scheme)
        assert se == 0.0
        assert value == pytest.approx((2.0 * math.log(2.0) - 1.0) * 0.1, abs=1e-9)

    def test_maxwell_bound_on_tilted_path(self):
        delta = 0.15
        scheme = TiltingScheme.pairwise(1.0, delta)
        cfg = kl.SimConfig(n=64, t_max=0.5, kernel=Kernel.MAXWELL, seed=4, measure="Q")
        traj = kl.simulate(cfg, scheme)
        value, _ = dynamic_cost(traj, scheme, mode="exact")
        theta_max = max(cp.m2 for cp in traj.checkpoints)
        assert value <= 4.0 * delta**2 * theta_max * 0.5 + 1e-9

    def test_subsampling_unbiased(self):
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        cfg = kl.SimConfig(n=200, t_max=0.4, kernel=Kernel.MAXWELL, seed=5, measure="Q")
        traj = kl.simulate(cfg, scheme)
        exact, _ = dynamic_cost(traj, scheme, mode="exact")
        estimates = np.array([dynamic_cost(traj, scheme, mode="subsample",
                                           pairs_per_interval=48, seed=seed)[0]
                              for seed in range(24)])
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 3 * se

    def test_reported_stderr_calibrated(self):
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        cfg = kl.SimConfig(n=100, t_max=0.3, kernel=Kernel.MAXWELL, seed=6, measure="Q")
        traj = kl.simulate(cfg, scheme)
        exact, _ = dynamic_cost(traj, scheme, mode="exact")
        value, se = dynamic_cost(traj, scheme, mode="subsample", pairs_per_interval=64, seed=0)
        assert se > 0.0
        assert abs(value - exact) < 5 * se

    def test_unknown_mode_rejected(self):
        # a typo must not run the subsample estimator
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        traj = kl.simulate(kl.SimConfig(n=20, t_max=0.2, kernel=Kernel.MAXWELL, seed=8), scheme)
        for mode in ("exat", "auto", ""):
            with pytest.raises(ValueError, match="dynamic cost mode"):
                dynamic_cost(traj, scheme, mode=mode)


class TestXiFunctionals:
    def _trajectory(self, n=32, t_max=0.8, seed=7, kernel=Kernel.HARD_SPHERE, scheme=None,
                    measure="Q"):
        cfg = kl.SimConfig(n=n, t_max=t_max, kernel=kernel, seed=seed, measure=measure)
        return kl.simulate(cfg, scheme)

    def test_zero_f_gives_zero(self):
        traj = self._trajectory()
        f = TestFunctionDescriptor(kind="product", coeff=0.0, a_kind="sin", b_kind="energy")
        _, xi1, _ = xi_functionals(traj, None, f, None, REF)
        assert xi1 == 0.0

    def test_continuity_equation_residual(self):
        traj = self._trajectory()
        tol = 1e-9 * (1 + len(traj.log))
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = TestFunctionDescriptor(
                kind="product", coeff=float(rng.uniform(0.2, 2.0)),
                a_kind=rng.choice(["sin", "poly"]), a_param=float(rng.uniform(0.5, 3.0)),
                b_kind=rng.choice(["energy", "radial_bump", "coordinate"]),
                radius=float(rng.uniform(1.0, 3.0)), axis=int(rng.integers(0, 3)))
            _, xi1, _ = xi_functionals(traj, None, f, None, REF)
            assert abs(xi1) <= tol, (f, xi1)

    def test_f_not_vanishing_at_zero_rejected(self):
        traj = self._trajectory(n=4, t_max=0.1)
        f = TestFunctionDescriptor(kind="energy")  # constant-in-time, f_0 != 0
        with pytest.raises(ValueError):
            xi_functionals(traj, None, f, None, REF)

    def test_zero_g_gives_zero(self):
        traj = self._trajectory(n=8, t_max=0.2)
        g = TestFunctionDescriptor(kind="flux_test", coeff=0.0)
        _, _, xi2 = xi_functionals(traj, None, None, g, REF)
        assert xi2 == 0.0

    def test_xi0_constant_phi_zero(self):
        traj = self._trajectory(n=8, t_max=0.2)
        phi = TestFunctionDescriptor(kind="constant", coeff=1.3)
        xi0, _, _ = xi_functionals(traj, phi, None, None, REF)
        assert xi0 == pytest.approx(0.0, abs=1e-12)

    def test_xi0_coordinate_log_mgf(self):
        # <exp(c v_x), mu*> = exp(c^2 / (2d)); checked against quadrature
        phi = TestFunctionDescriptor(kind="coordinate", coeff=0.8)
        assert phi.log_mgf(REF) == pytest.approx(0.8**2 / 6.0, abs=1e-12)
        from scipy.integrate import quad
        val = quad(lambda x: math.exp(0.8 * x - 1.5 * x * x) * math.sqrt(3 / (2 * math.pi)),
                   -np.inf, np.inf)[0]
        assert phi.log_mgf(REF) == pytest.approx(math.log(val), abs=1e-10)

    def test_delta_b_cross_check(self):
        # collisional increment via the collision map vs direct evaluation
        rng = np.random.default_rng(9)
        f = TestFunctionDescriptor(kind="radial_bump", coeff=1.1, radius=2.0)
        for _ in range(50):
            v, vs = rng.normal(size=3), rng.normal(size=3)
            sig = rng.normal(size=3)
            sig /= np.linalg.norm(sig)
            vp, vsp = post_collision(v, vs, sig)
            direct = (f._b(vp) + f._b(vsp) - f._b(v) - f._b(vs))
            assert f.delta_b(v, vs, sig) == pytest.approx(float(direct), abs=1e-12)

    @staticmethod
    def _xi1_by_collision_map(traj, f):
        """Xi_1 from a walk that applies every logged collision a second time,
        through the validating `post_collision` (via `delta_b`)."""
        n, t_max, log = traj.initial_state.n, traj.config.t_max, traj.log
        v = traj.initial_state.velocities.copy()
        b_mean = float(np.mean(f._b(v, f.b_kind)))
        time_integral = event_sum = 0.0
        t0 = 0.0
        for k in itertools.chain(replay_events(v, log), (None,)):
            t1 = t_max if k is None else float(log.t[k])
            if t1 - t0 > 0.0:
                time_integral += (f.a_of_t(t1) - f.a_of_t(t0)) * b_mean
            t0 = t1
            if k is None or log.fictitious[k]:
                continue
            db = f.delta_b(v[log.i[k]], v[log.j[k]], log.sigma[k])
            event_sum += f.a_of_t(t1) * db / n
            b_mean += db / n
        return f.a_of_t(t_max) * b_mean - time_integral - event_sum

    @pytest.mark.parametrize("kernel,n,t_max,seed", [(Kernel.HARD_SPHERE, 24, 0.6, 7),
                                                     (Kernel.MAXWELL, 10, 3.0, 2)])
    def test_xi1_bit_identical_to_collision_map_walk(self, kernel, n, t_max, seed):
        traj = self._trajectory(n=n, t_max=t_max, seed=seed, kernel=kernel)
        log = traj.log
        if kernel is Kernel.MAXWELL:
            assert np.any((log.i == log.j) & ~log.fictitious)  # diagonal rows
        for a_kind in ("sin", "poly"):
            for b_kind in ("constant", "coordinate", "energy", "radial_bump"):
                f = TestFunctionDescriptor(kind="product", coeff=1.3, a_kind=a_kind, a_param=1.7,
                                           b_kind=b_kind, radius=1.5, axis=1)
                _, xi1, _ = xi_functionals(traj, None, f, None, REF)
                assert xi1 == self._xi1_by_collision_map(traj, f), (a_kind, b_kind)

    @staticmethod
    def _edited_log(log, t_max, edit):
        t, fict = log.t.copy(), log.fictitious.copy()
        keep = slice(None)
        if edit == "no rows":
            keep = slice(0, 0)
        elif edit == "fictitious only":
            fict[:] = True
        elif edit == "rows sharing times":
            t = np.floor(t * 8.0) / 8.0  # nondecreasing, several rows at each time
            t[:3] = 0.0
        elif edit == "last row at t_max":
            t[-1] = t_max
        return EventLog(t[keep], log.i[keep], log.j[keep], log.sigma[keep],
                        log.assignment[keep], fict[keep], log.n_particles, log.horizon)

    @pytest.mark.parametrize("edit", ["no rows", "fictitious only", "rows sharing times",
                                      "last row at t_max"])
    def test_xi1_edge_logs_bit_identical_to_collision_map_walk(self, edit):
        traj = self._trajectory(n=20, t_max=0.9, seed=5, kernel=Kernel.MAXWELL)
        traj = dataclasses.replace(traj, log=self._edited_log(traj.log, 0.9, edit))
        log = traj.log
        assert (len(log) == 0) == (edit == "no rows")
        assert bool(log.fictitious.all()) == (edit in ("no rows", "fictitious only"))
        assert (len(np.unique(log.t)) < len(log)) == (edit == "rows sharing times")
        assert (len(log) > 0 and log.t[-1] == 0.9) == (edit == "last row at t_max")
        for a_kind in ("sin", "poly"):
            for b_kind in ("constant", "coordinate", "energy", "radial_bump"):
                f = TestFunctionDescriptor(kind="product", coeff=0.7, a_kind=a_kind, a_param=2.3,
                                           b_kind=b_kind, radius=1.5, axis=2)
                _, xi1, _ = xi_functionals(traj, None, f, None, REF)
                want = self._xi1_by_collision_map(traj, f)
                assert np.float64(xi1).tobytes() == np.float64(want).tobytes(), (a_kind, b_kind)

    def test_variational_lower_bound(self):
        # Xi_0 + Xi_1 + Xi_2 <= H + J + statistical slack for a tilted run
        psi = kl.cumulant_psi(REF, 0.0, 0.3)
        tilt = InitialTilt(0.3, 0.0, psi)
        scheme = TiltingScheme.pairwise(1.0, 0.2, initial_tilt=tilt)
        cfg = kl.SimConfig(n=64, t_max=0.4, kernel=Kernel.MAXWELL, seed=10, measure="Q")
        traj = kl.simulate(cfg, scheme)
        h_term = relative_entropy(tilt, REF)
        j_term, _ = dynamic_cost(traj, scheme, mode="exact")
        rng = np.random.default_rng(11)
        slack = 0.35  # finite-N fluctuation allowance at N = 64
        for k in range(20):
            phi = TestFunctionDescriptor(kind=rng.choice(["constant", "coordinate", "energy", "radial_bump"]),
                                         coeff=float(rng.uniform(-0.4, 0.4)),
                                         radius=float(rng.uniform(1.0, 3.0)),
                                         axis=int(rng.integers(0, 3)))
            f = TestFunctionDescriptor(kind="product", coeff=float(rng.uniform(-1, 1)),
                                       a_kind="sin", a_param=float(rng.uniform(0.5, 4.0)),
                                       b_kind="radial_bump", radius=float(rng.uniform(1.0, 3.0)))
            g = TestFunctionDescriptor(kind="flux_test", coeff=float(rng.uniform(-0.5, 0.5)),
                                       radius=float(rng.uniform(1.0, 3.0)),
                                       sigma_coupling=float(rng.choice([0.0, 0.3])))
            xi0, xi1, xi2 = xi_functionals(traj, phi, f, g, REF)
            assert xi0 + xi1 + xi2 <= h_term + j_term + slack
