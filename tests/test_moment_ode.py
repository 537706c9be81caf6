import math

import numpy as np
import pytest

import kaclab as kl
from kaclab.kinetics import Kernel
from kaclab.moment_ode import (MomentTrack, maxwell_m4_coeffs, maxwell_m4_curve,
                               povzner_check, sigma_avg_delta)


def mc_sigma_average(p, v, v_star, n, seed):
    """Independent Monte Carlo oracle for the sigma average on S^{d-1}, d = len(v)."""
    rng = np.random.default_rng(seed)
    sig = rng.normal(size=(n, len(v)))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    u = np.asarray(v) - np.asarray(v_star)
    w = np.asarray(v) + np.asarray(v_star)
    pvals = (sig @ u) * (sig @ w)
    sv = float(np.dot(v, v))
    svs = float(np.dot(v_star, v_star))
    h = p // 2
    vals = (sv - pvals) ** h + (svs + pvals) ** h - sv**h - svs**h
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n)


class TestSigmaAvgDelta:
    def test_energy_identically_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v, vs = rng.normal(size=3) * 2, rng.normal(size=3) * 2
            assert abs(sigma_avg_delta(2, v, vs)) <= 1e-12

    def test_identity_collision_zero(self):
        v = np.array([0.7, -0.3, 1.1])
        for p in (2, 4, 6):
            assert sigma_avg_delta(p, v, v) == 0.0

    def test_against_monte_carlo_oracle(self):
        configs = [
            (np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])),
            (np.array([2.0, 0, 0]), np.array([0.0, 1.0, 0])),
            (np.array([0.3, -1.2, 0.5]), np.array([0.8, 0.1, -0.4])),
            (np.array([1.1, -0.4]), np.array([-0.2, 0.9])),
        ]
        for k, (v, vs) in enumerate(configs):
            for p in (4, 6):
                got = sigma_avg_delta(p, v, vs)
                mc, se = mc_sigma_average(p, v, vs, 1_000_000, seed=10 + k)
                assert abs(got - mc) <= 3 * se, (p, v, vs, got, mc, se)

    def test_frozen_regression_values(self):
        # orthogonal unit pair: average = (2/15) |u|^2 |w|^2 = 8/15
        got = sigma_avg_delta(4, np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))
        assert got == pytest.approx(8.0 / 15.0, abs=1e-12)
        got = sigma_avg_delta(4, np.array([2.0, 0, 0]), np.array([0.0, 1.0, 0]))
        assert got == pytest.approx(-(2.0 / 3.0) * 9.0 + (2.0 / 15.0) * (25.0 + 2 * 9.0), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        from scipy.spatial.transform import Rotation
        for _ in range(20):
            v, vs = rng.normal(size=3), rng.normal(size=3)
            rot = Rotation.random(random_state=rng).as_matrix()
            for p in (4, 6):
                a = sigma_avg_delta(p, v, vs)
                b = sigma_avg_delta(p, rot @ v, rot @ vs)
                assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_d1_swap_is_null(self):
        assert sigma_avg_delta(4, np.array([2.0]), np.array([-1.0])) == 0.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            sigma_avg_delta(3, np.ones(3), np.zeros(3))


class TestMaxwellCoefficients:
    def test_machine_extracted_values(self):
        a, b = maxwell_m4_coeffs(3)
        # closure integrals give a = 8/9, b = -8/15 in three dimensions
        assert a == pytest.approx(8.0 / 9.0, abs=1e-9)
        assert b == pytest.approx(-8.0 / 15.0, abs=1e-9)
        assert a > 0 > b

    def test_equilibrium_fixed_point(self):
        a, b = maxwell_m4_coeffs(3)
        # Gaussian with m2 = 1 has m4 = (d+2)/d = 5/3
        assert -a / b == pytest.approx(5.0 / 3.0, abs=1e-9)


class TestM4Curve:
    def test_fixed_point_constant(self):
        curve = maxwell_m4_curve(1.0, 5.0 / 3.0, [0.0, 0.7, 2.0, 5.0])
        assert np.allclose(curve, 5.0 / 3.0, atol=1e-10)

    def test_monotone_decay_from_above(self):
        curve = maxwell_m4_curve(1.0, 10.0 / 3.0, np.linspace(0, 5, 11))
        assert np.all(np.diff(curve) < 0)
        assert curve[-1] > 5.0 / 3.0

    def test_exact_at_zero_and_relaxes_to_fixed_point(self):
        a, b = maxwell_m4_coeffs(3)
        m2, m4_0 = 1.3, 4.1
        curve = maxwell_m4_curve(m2, m4_0, [0.0, 10.0, 60.0])
        assert curve[0] == m4_0
        assert curve[-1] == pytest.approx(-a * m2**2 / b, rel=1e-12)
        assert abs(curve[1] + a * m2**2 / b) > abs(curve[-1] + a * m2**2 / b)

    def test_infeasible_m4_rejected(self):
        with pytest.raises(ValueError):
            maxwell_m4_curve(1.0, 0.5, [0.0, 1.0])

    def test_simulation_cross_validation(self):
        # the curve predicts the ensemble m4 of the particle system and the
        # particle system validates the machine-extracted coefficients
        init = kl.InitialCondition(kind="scale_mixture", weights=(0.1, 0.9),
                                  scales=(2.0, math.sqrt(2.0 / 3.0)))
        times = tuple(np.arange(0.0, 4.01, 0.5))
        runs, n = 10, 2000
        m4s = np.empty((runs, len(times)))
        m2s = np.empty(runs)
        for k in range(runs):
            cfg = kl.SimConfig(n=n, t_max=4.0, kernel=Kernel.MAXWELL, seed=33,
                               checkpoint_times=times, initial=init, store_log=False)
            traj = kl.simulate(cfg, rng=kl.make_rng(33, k))
            m4s[k] = [cp.m4 for cp in traj.checkpoints]
            m2s[k] = traj.checkpoints[0].m2
        mean = m4s.mean(axis=0)
        se = m4s.std(axis=0, ddof=1) / math.sqrt(runs)
        curve = maxwell_m4_curve(float(m2s.mean()), float(mean[0]), times)
        z = np.abs(mean - curve) / np.maximum(se, 1e-12)
        assert np.all(z[1:] <= 3.0), list(zip(times, z))


class TestMomentTrack:
    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(ValueError):
            MomentTrack(times=[0.0, 1.0], m2=[1.0, 1.0], m2_se=[0.0, 0.0],
                        m4=[1.5, 0.5], m4_se=[0.0, 0.0])

    def test_consistent_track_accepted(self):
        MomentTrack(times=[0.0, 1.0], m2=[1.0, 1.0], m2_se=[0.01, 0.01],
                    m4=[1.7, 1.68], m4_se=[0.02, 0.02])


class TestPovzner:
    def _track_from_run(self):
        cfg = kl.SimConfig(n=3000, t_max=2.0, kernel=Kernel.HARD_SPHERE, seed=44,
                           checkpoint_times=tuple(np.linspace(0.0, 2.0, 11)), store_log=False)
        runs = 4
        m4s, m2s = [], []
        for k in range(runs):
            traj = kl.simulate(cfg, rng=kl.make_rng(44, k))
            m4s.append([cp.m4 for cp in traj.checkpoints])
            m2s.append([cp.m2 for cp in traj.checkpoints])
        m4s, m2s = np.array(m4s), np.array(m2s)
        return MomentTrack(times=np.linspace(0.0, 2.0, 11),
                           m2=m2s.mean(axis=0), m2_se=m2s.std(axis=0, ddof=1) / 2,
                           m4=m4s.mean(axis=0), m4_se=m4s.std(axis=0, ddof=1) / 2)

    def test_p2_flat_exponent(self):
        track = self._track_from_run()
        report = povzner_check(track, p=2.0)
        assert abs(report.fitted_exponent) < 0.05
        assert not report.violations

    def test_p4_finite_envelope_no_violations(self):
        track = self._track_from_run()
        report = povzner_check(track, p=4.0)
        assert np.isfinite(report.c_fit) and report.c_fit > 0
        assert not report.violations

    def test_injected_spike_flagged(self):
        track = self._track_from_run()
        m4 = track.m4.copy()
        m4[-1] *= 8.0
        spiked = MomentTrack(times=track.times, m2=track.m2, m2_se=track.m2_se,
                             m4=m4, m4_se=track.m4_se)
        report = povzner_check(spiked, p=4.0)
        assert report.violations and report.violations[-1] == pytest.approx(track.times[-1])
