import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import kaclab as kl
from conftest import (accumulate_compensator, compensator_rate, ks_threshold, record_jump,
                      weighted_ks_statistic)
from kaclab.engine import ParticleState
from kaclab.girsanov import (InitialTilt, RNLedger, TiltingScheme, TiltingSchemeError,
                             sample_tilted_initial)
from kaclab.kinetics import Kernel


def _quad_psi(ref, M, lam):
    """log int exp(lam |v|^2 1[|v| >= M]) dmu by quadrature in s = |v|^2, for
    lam of either sign."""
    a, th = ref.shape, ref.scale

    def f(s):
        return s ** (a - 1.0) * math.exp(lam * s * (s >= M * M) - s / th)

    val = quad(f, 0.0, M * M, limit=300)[0] + quad(f, M * M, np.inf, limit=300)[0]
    return math.log(val / (math.gamma(a) * th**a))


class TestSchemeConstruction:
    def test_identity_trivial(self):
        assert TiltingScheme.identity().is_trivial()

    def test_negative_k_rejected(self):
        with pytest.raises(TiltingSchemeError):
            TiltingScheme(coeffs=[-1.0], deltas=[0.0], frozen_sets=[np.array([])],
                          breakpoints=[0.0, np.inf])

    def test_pairwise_with_growing_kernel_rejected(self):
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        with pytest.raises(TiltingSchemeError):
            scheme.validate_kernel(Kernel.HARD_SPHERE)
        scheme.validate_kernel(Kernel.MAXWELL)

    def test_normalisation_check(self):
        ref = kl.ReferenceMeasure(3)
        lam = 0.6
        psi = kl.cumulant_psi(ref, 1.0, lam)
        good = TiltingScheme(initial_tilt=InitialTilt(lam, 1.0, psi))
        good.validate_normalisation(ref)
        bad = TiltingScheme(initial_tilt=InitialTilt(lam, 1.0, psi + 0.05))
        with pytest.raises(TiltingSchemeError):
            bad.validate_normalisation(ref)

    @pytest.mark.parametrize("d, M, lam", [(3, 1.0, -0.8), (2, 0.0, -2.5), (5, 1.5, -0.3)])
    def test_normalised_negative_lam_passes(self, d, M, lam):
        ref = kl.ReferenceMeasure(d)
        psi = _quad_psi(ref, M, lam)
        assert psi < 0.0
        TiltingScheme(initial_tilt=InitialTilt(lam, M, psi)).validate_normalisation(ref)

    @pytest.mark.parametrize("lam", [-1.0, 0.6, 1.4])
    def test_infinite_threshold_passes(self, lam):
        # nothing lies beyond M = inf, so psi = 0 whatever lam < z2 is
        ref = kl.ReferenceMeasure(3)
        TiltingScheme(initial_tilt=InitialTilt(lam, math.inf, 0.0)).validate_normalisation(ref)
        with pytest.raises(TiltingSchemeError):
            TiltingScheme(initial_tilt=InitialTilt(lam, math.inf, 1e-6)).validate_normalisation(ref)

    @pytest.mark.parametrize("M", [0.0, 1.0, 4.0])
    def test_psi_off_by_1e_6_fails(self, M):
        ref = kl.ReferenceMeasure(3)
        psi = kl.cumulant_psi(ref, M, 0.9)
        TiltingScheme(initial_tilt=InitialTilt(0.9, M, psi)).validate_normalisation(ref)
        for off in (1e-6, -1e-6):
            with pytest.raises(TiltingSchemeError, match="not normalised"):
                TiltingScheme(initial_tilt=InitialTilt(0.9, M, psi + off)).validate_normalisation(ref)

    @pytest.mark.parametrize("lam", [1.5, 2.0, math.inf])
    def test_lam_at_or_above_z2_fails(self, lam):
        with pytest.raises(TiltingSchemeError, match="not normalisable"):
            TiltingScheme(initial_tilt=InitialTilt(lam, 1.0, 0.0)).validate_normalisation(kl.ReferenceMeasure(3))

    @pytest.mark.parametrize("field", ["lam", "M", "psi"])
    def test_nan_fails(self, field):
        ref = kl.ReferenceMeasure(3)
        good = dict(lam=0.6, M=1.0, psi=kl.cumulant_psi(ref, 1.0, 0.6))
        TiltingScheme(initial_tilt=InitialTilt(**good)).validate_normalisation(ref)
        with pytest.raises(TiltingSchemeError, match="not normalised"):
            TiltingScheme(initial_tilt=InitialTilt(**dict(good, **{field: math.nan}))).validate_normalisation(ref)

    def test_psi_whose_exponential_overflows_fails(self):
        # e^(-psi) overflows a double below psi = -709.78; no normalised tilt has such a psi
        with pytest.raises(TiltingSchemeError, match=r"psi = -1000\.0"):
            TiltingScheme(initial_tilt=InitialTilt(0.5, 1.0, -1000.0)).validate_normalisation(
                kl.ReferenceMeasure(3))

    def test_unnormalisable_lam(self):
        ref = kl.ReferenceMeasure(3)
        scheme = TiltingScheme(initial_tilt=InitialTilt(1.6, 0.0, 0.0))
        with pytest.raises(TiltingSchemeError):
            sample_tilted_initial(ref, scheme, 10, kl.make_rng(0))


class TestLedgerOps:
    def test_identity_compensator_zero(self):
        state = ParticleState(np.random.default_rng(0).normal(size=(6, 3)))
        led = accumulate_compensator(RNLedger(), state, TiltingScheme.identity(),
                                     Kernel.HARD_SPHERE, 0.7)
        assert led.compensator_term == 0.0

    def test_constant_k2_increment(self):
        state = ParticleState(np.random.default_rng(1).normal(size=(2, 3)))
        led = accumulate_compensator(RNLedger(), state, TiltingScheme.constant(2.0),
                                     Kernel.MAXWELL, 0.5)
        assert led.compensator_term == pytest.approx(1.0, abs=1e-12)

    def test_freeze_without_frozen_particles_zero(self):
        state = ParticleState(np.random.default_rng(2).normal(size=(8, 3)))
        scheme = TiltingScheme(breakpoints=[0.0, np.inf], coeffs=[8.0 / 8.0], deltas=[0.0],
                               frozen_sets=[np.array([], dtype=int)])
        led = accumulate_compensator(RNLedger(), state, scheme, Kernel.HARD_SPHERE, 0.3)
        assert led.compensator_term == 0.0

    def test_record_jump_values(self):
        event = kl.CollisionEvent(time=0.2, i=0, j=1, sigma=np.array([1.0, 0, 0]),
                                  assignment=0, pre_v=np.array([1.0, 0, 0]),
                                  pre_v_star=np.array([0.0, 0, 0]), fictitious=False)
        led = record_jump(RNLedger(), event, TiltingScheme.identity())
        assert led.jump_term == 0.0
        led = record_jump(RNLedger(compensator_term=0.4), event, TiltingScheme.constant(2.0))
        assert led.log_rn() == pytest.approx(math.log(2.0) - 0.4, abs=1e-14)

    def test_jump_on_frozen_set_kills_density(self):
        scheme = TiltingScheme(breakpoints=[0.0, np.inf], coeffs=[2.0], deltas=[0.0],
                               frozen_sets=[np.array([1])])
        event = kl.CollisionEvent(time=0.2, i=0, j=1, sigma=np.array([1.0, 0, 0]),
                                  assignment=0, pre_v=np.ones(3), pre_v_star=np.zeros(3),
                                  fictitious=False)
        led = record_jump(RNLedger(), event, scheme)
        assert led.hit_zero and led.log_rn() == -np.inf

    def test_fictitious_event_rejected(self):
        event = kl.CollisionEvent(time=0.2, i=0, j=1, sigma=np.array([1.0, 0, 0]),
                                  assignment=0, pre_v=np.ones(3), pre_v_star=np.zeros(3),
                                  fictitious=True)
        with pytest.raises(ValueError):
            record_jump(RNLedger(), event, TiltingScheme.identity())

    def test_engine_ledger_matches_reference_ops(self):
        # the engine's incremental compensator against the O(N^2) reference
        scheme = TiltingScheme(
            breakpoints=np.array([0.0, 0.4, 1.0]), coeffs=np.array([1.2, 1.0]),
            deltas=np.array([0.0, 0.0]), frozen_sets=[np.array([2]), np.array([], dtype=int)])
        cfg = kl.SimConfig(n=10, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=3, measure="P")
        traj = kl.simulate(cfg, scheme)
        led = RNLedger()
        from kaclab.engine import replay_events
        log = traj.log
        t_prev = 0.0
        v_now = traj.initial_state.velocities.copy()
        live = v_now.copy()
        boundaries = [0.4]
        for k in replay_events(live, log):
            t, i, j = float(log.t[k]), int(log.i[k]), int(log.j[k])
            sig, fict = log.sigma[k], log.fictitious[k]
            pv, pvs = live[i].copy(), live[j].copy()
            seg = [t_prev] + [b for b in boundaries if t_prev < b < t] + [t]
            for a, b in zip(seg[:-1], seg[1:]):
                accumulate_compensator(led, ParticleState(v_now.copy(), a), scheme,
                                       cfg.kernel, b - a)
            v_now = live.copy()  # pre-event state at yield time
            if not fict and i != j:
                a_dot = float((v_now[i] - v_now[j]) @ sig)
                v_now[i] = v_now[i] - a_dot * sig
                v_now[j] = v_now[j] + a_dot * sig
            t_prev = t
            if not fict:
                record_jump(led, kl.CollisionEvent(t, i, j, sig, 0, pv, pvs, False), scheme)
        seg = [t_prev] + [b for b in boundaries if t_prev < b < 1.0] + [1.0]
        for a, b in zip(seg[:-1], seg[1:]):
            accumulate_compensator(led, ParticleState(v_now.copy(), a), scheme, cfg.kernel, b - a)
        assert led.jump_term == pytest.approx(traj.rn_ledger.jump_term, abs=1e-12)
        assert led.compensator_term == pytest.approx(traj.rn_ledger.compensator_term, abs=1e-9)
        assert led.hit_zero == traj.rn_ledger.hit_zero


class TestTiltedSampling:
    def test_identity_tilt_plain_sampling(self):
        ref = kl.ReferenceMeasure(3)
        v = sample_tilted_initial(ref, TiltingScheme.identity(), 20_000, kl.make_rng(5))
        s = (v**2).sum(axis=1)
        assert abs(s.mean() - 1.0) < 3 * np.sqrt(2.0 / 3.0 / len(s))

    def test_full_tilt_hits_target_energy(self):
        ref = kl.ReferenceMeasure(3)
        lam = kl.solve_lambda(ref, 0.0, 2.0)
        assert lam == pytest.approx(0.75, abs=1e-9)
        scheme = TiltingScheme(initial_tilt=InitialTilt(lam, 0.0, kl.cumulant_psi(ref, 0.0, lam)))
        v = sample_tilted_initial(ref, scheme, 10_000, kl.make_rng(6))
        s = (v**2).sum(axis=1)
        se = s.std(ddof=1) / np.sqrt(len(s))
        assert abs(s.mean() - 2.0) < 3 * se

    def test_large_threshold_indistinguishable_from_base(self):
        ref = kl.ReferenceMeasure(3)
        m_thr = 6.0  # tail mass ~ sf(36 * 1.5) << 1e-6
        assert float(ref.speed2_sf(m_thr**2)) < 1e-6
        lam = 1.2
        scheme = TiltingScheme(initial_tilt=InitialTilt(lam, m_thr, kl.cumulant_psi(ref, m_thr, lam)))
        tilted = sample_tilted_initial(ref, scheme, 20_000, kl.make_rng(7))
        base = ref.sample(kl.make_rng(8), 20_000)
        _, p = stats.ks_2samp(np.linalg.norm(tilted, axis=1), np.linalg.norm(base, axis=1))
        assert p > 0.01


class TestNormalisation:
    @pytest.mark.parametrize("n", [2, 5])
    def test_both_directions(self, n):
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        runs = 4000
        log_p = np.empty(runs)
        log_q = np.empty(runs)
        for k in range(runs):
            cfg = kl.SimConfig(n=n, t_max=0.4, kernel=Kernel.MAXWELL, seed=21, measure="P",
                               store_log=False, checkpoint_times=())
            log_p[k] = kl.simulate(cfg, scheme, rng=kl.make_rng(21 + n, k)).rn_ledger.log_rn()
            cfg = kl.SimConfig(n=n, t_max=0.4, kernel=Kernel.MAXWELL, seed=22, measure="Q",
                               store_log=False, checkpoint_times=())
            log_q[k] = kl.simulate(cfg, scheme, rng=kl.make_rng(22 + n, k)).rn_ledger.log_rn()
        ep = np.exp(log_p)
        eq = np.exp(-log_q)
        for vals in (ep, eq):
            se = vals.std(ddof=1) / np.sqrt(runs)
            assert abs(vals.mean() - 1.0) < 3 * se, (vals.mean(), se)

    def test_markov_property_under_q(self):
        # Q-dynamics simulated directly vs P-simulation reweighted by the
        # density: terminal m4 laws must agree (weighted KS at 1%)
        scheme = TiltingScheme.pairwise(1.0, 0.2)
        runs, n = 3000, 5
        m4_q = np.empty(runs)
        m4_p = np.empty(runs)
        w_p = np.empty(runs)
        for k in range(runs):
            cfg = kl.SimConfig(n=n, t_max=0.5, kernel=Kernel.MAXWELL, seed=31, measure="Q",
                               store_log=False, checkpoint_times=(0.5,))
            traj = kl.simulate(cfg, scheme, rng=kl.make_rng(31, k))
            m4_q[k] = traj.checkpoints[-1].m4
            cfg = kl.SimConfig(n=n, t_max=0.5, kernel=Kernel.MAXWELL, seed=32, measure="P",
                               store_log=False, checkpoint_times=(0.5,))
            traj = kl.simulate(cfg, scheme, rng=kl.make_rng(32, k))
            m4_p[k] = traj.checkpoints[-1].m4
            w_p[k] = math.exp(traj.rn_ledger.log_rn())
        d_stat, n_eff = weighted_ks_statistic(m4_q, m4_p, w_p)
        assert d_stat < ks_threshold(runs, n_eff), (d_stat, ks_threshold(runs, n_eff))

    def test_ledger_additivity_across_checkpoint_split(self):
        # interior checkpoints truncate holding times, so the per-checkpoint
        # ledger snapshots decompose the total exactly
        scheme = TiltingScheme.pairwise(1.0, 0.3)
        cfg = kl.SimConfig(n=6, t_max=1.0, kernel=Kernel.MAXWELL, seed=41,
                           checkpoint_times=(0.5, 1.0))
        traj = kl.simulate(cfg, scheme)
        half = traj.checkpoints[0].ledger
        full = traj.checkpoints[1].ledger
        # second-half contribution recomputed independently by replaying
        from kaclab.engine import replay_events
        log = traj.log
        jump2 = 0.0
        comp2 = 0.0
        v = traj.initial_state.velocities.copy()
        t0 = 0.0
        for k in itertools.chain(replay_events(v, log), (None,)):
            t1 = cfg.t_max if k is None else float(log.t[k])
            a, b = max(t0, 0.5), t1
            if b > a:
                comp2 += (b - a) * compensator_rate(v, scheme, cfg.kernel, b)
            t0 = t1
            if k is not None and not log.fictitious[k] and t1 > 0.5:
                i, j = log.i[k], log.j[k]
                u = float(np.linalg.norm(v[i] - v[j]))
                jump2 += math.log(scheme.k_value(t1, u))
        assert half.jump_term + jump2 == pytest.approx(full.jump_term, abs=1e-12)
        assert half.compensator_term + comp2 == pytest.approx(full.compensator_term, abs=1e-9)

    def test_log_rn_derivative_identity_zero(self):
        cfg = kl.SimConfig(n=10, t_max=0.5, kernel=Kernel.MAXWELL, seed=51)
        traj = kl.simulate(cfg)
        assert traj.rn_ledger.log_rn() == 0.0
