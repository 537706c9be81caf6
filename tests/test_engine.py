import hashlib
import itertools

import numpy as np
import pytest
from scipy import stats

import kaclab as kl
from kaclab import config_io, engine
from kaclab.engine import (MajorantViolationError, ParticleState, _Draws, _EventBuffer,
                           _Engine, final_state_from_log, replay_events, replay_rows)
from kaclab.girsanov import RNLedger, TiltingScheme
from kaclab.kinetics import Kernel


class TestTotalRate:
    def test_two_maxwell(self):
        state = ParticleState(np.random.default_rng(0).normal(size=(2, 3)))
        assert kl.total_rate(state, Kernel.MAXWELL) == pytest.approx(2.0, abs=1e-14)

    def test_single_particle(self):
        state = ParticleState(np.array([[0.4, 0.0, 0.0]]))
        assert kl.total_rate(state, Kernel.MAXWELL) == pytest.approx(1.0, abs=1e-14)

    def test_two_hard_sphere(self):
        state = ParticleState(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        assert kl.total_rate(state, Kernel.HARD_SPHERE) == pytest.approx(4.0, abs=1e-14)

    def test_frozen_tilt_zeroes_pairs(self):
        state = ParticleState(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        scheme = TiltingScheme(breakpoints=[0.0, np.inf], coeffs=[2.0], deltas=[0.0],
                               frozen_sets=[np.array([1])])
        # only the (0,0) diagonal survives, with K = 2
        assert kl.total_rate(state, Kernel.HARD_SPHERE, scheme) == pytest.approx(1.0, abs=1e-14)


class TestStep:
    def test_single_particle_never_moves(self):
        rng = kl.make_rng(1)
        state = ParticleState(np.array([[0.5, -0.2, 0.1]]))
        for _ in range(40):
            state, event = kl.step(state, Kernel.MAXWELL, None, rng)
            assert event.i == event.j == 0
        assert np.array_equal(state.velocities, [[0.5, -0.2, 0.1]])

    def test_per_event_energy_conservation(self):
        rng = kl.make_rng(2)
        state = ParticleState(np.random.default_rng(3).normal(size=(30, 3)) / np.sqrt(3))
        for _ in range(2000):
            e_before = np.sum(state.velocities**2)
            state, event = kl.step(state, Kernel.HARD_SPHERE, None, rng)
            e_after = np.sum(state.velocities**2)
            assert abs(e_after - e_before) <= 1e-12 * (1.0 + e_before)

    def test_inter_acceptance_times_exponential(self):
        # N = 2 Maxwell has constant total rate 2
        cfg = kl.SimConfig(n=2, t_max=5300.0, kernel=Kernel.MAXWELL, seed=4, checkpoint_times=())
        traj = kl.simulate(cfg)
        times = traj.log.t[~traj.log.fictitious]
        gaps = np.diff(times)[:10_000]
        assert len(gaps) == 10_000
        se = 0.5 / np.sqrt(len(gaps))
        assert abs(gaps.mean() - 0.5) < 3 * se


class TestSimulate:
    def test_zero_horizon(self):
        cfg = kl.SimConfig(n=100, t_max=0.0, kernel=Kernel.MAXWELL, seed=5, checkpoint_times=(0.0,))
        traj = kl.simulate(cfg)
        assert len(traj.log) == 0
        assert len(traj.checkpoints) == 1
        assert np.array_equal(traj.initial_state.velocities, traj.final_state.velocities)
        assert traj.checkpoints[0].m2 == pytest.approx(traj.initial_state.energy(), abs=0)

    def test_energy_conservation_maxwell(self):
        cfg = kl.SimConfig(n=1000, t_max=1.0, kernel=Kernel.MAXWELL, seed=6, store_log=False)
        traj = kl.simulate(cfg)
        e0 = traj.initial_state.energy()
        assert abs(traj.final_state.energy() - e0) <= 1e-9 * e0

    def test_pathwise_conservation_hard_sphere(self):
        cfg = kl.SimConfig(n=500, t_max=2.0, kernel=Kernel.HARD_SPHERE, seed=7,
                           checkpoint_times=tuple(np.linspace(0, 2, 9)))
        traj = kl.simulate(cfg)
        e0 = traj.checkpoints[0].m2
        p0 = traj.checkpoints[0].momentum
        for cp in traj.checkpoints:
            assert abs(cp.m2 - e0) <= 1e-9 * e0
            assert np.max(np.abs(cp.momentum - p0)) <= 1e-9 * (1.0 + np.max(np.abs(p0)))
            assert cp.mass == 1.0

    def test_determinism_bit_identical(self):
        cfg = kl.SimConfig(n=64, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=8)
        a, b = kl.simulate(cfg), kl.simulate(cfg)
        assert np.array_equal(a.log.t, b.log.t)
        assert np.array_equal(a.log.i, b.log.i)
        assert np.array_equal(a.log.sigma, b.log.sigma)
        assert np.array_equal(a.final_state.velocities, b.final_state.velocities)
        assert a.rn_ledger.to_dict() == b.rn_ledger.to_dict()

    def test_replay_reproduces_final_state(self):
        cfg = kl.SimConfig(n=40, t_max=1.5, kernel=Kernel.HARD_SPHERE, seed=9)
        traj = kl.simulate(cfg)
        replayed = final_state_from_log(traj.initial_state, traj.log)
        assert np.array_equal(replayed.velocities, traj.final_state.velocities)

    def test_fictitious_events_leave_state_unchanged(self):
        cfg = kl.SimConfig(n=20, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=10)
        traj = kl.simulate(cfg)
        log = traj.log
        assert log.fictitious.sum() > 0
        live = traj.initial_state.velocities.copy()
        v_prev = live.copy()
        for k in replay_events(live, log):
            i, j, sig, fict = log.i[k], log.j[k], log.sigma[k], log.fictitious[k]
            if fict:
                assert np.array_equal(live, v_prev)
            v_prev = live.copy()
            if not fict and i != j:
                a = float((live[i] - live[j]) @ sig)
                v_prev[i] = live[i] - a * sig
                v_prev[j] = live[j] + a * sig

    def test_event_times_strictly_increase(self):
        cfg = kl.SimConfig(n=100, t_max=1.0, kernel=Kernel.MAXWELL, seed=11)
        traj = kl.simulate(cfg)
        assert np.all(np.diff(traj.log.t) > 0)

    def test_flux_mass_unit(self):
        cfg = kl.SimConfig(n=25, t_max=0.8, kernel=Kernel.MAXWELL, seed=12)
        traj = kl.simulate(cfg)
        assert traj.log.flux_mass() == pytest.approx(traj.log.n_collisions / 25.0)
        flux = kl.flux_measure(traj)
        assert flux.total_mass == pytest.approx(traj.log.flux_mass(), abs=1e-12)
        assert flux.points.shape[1] == 1 + 3 * 3

    def test_diagonal_events_recorded_non_fictitious(self):
        cfg = kl.SimConfig(n=2, t_max=40.0, kernel=Kernel.MAXWELL, seed=13)
        traj = kl.simulate(cfg)
        diag = traj.log.i == traj.log.j
        assert diag.sum() > 0
        assert not traj.log.fictitious[diag].any()
        # a replayed diagonal row is a state no-op
        v = traj.initial_state.velocities.copy()
        before = None
        for k in itertools.chain(replay_events(v, traj.log), (None,)):
            if before is not None:
                assert np.array_equal(v, before)
            before = v.copy() if k is not None and diag[k] else None


class TestEventBuffer:
    def test_simulate_reserves_the_rows_it_proposes(self, monkeypatch):
        # the proposal loop's rate at t = 0 times T, plus 8 standard
        # deviations: no growth, and the log of a buffer grown from one row
        cfg = kl.SimConfig(n=2000, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=31)
        grown_from = []
        monkeypatch.setattr(_EventBuffer, "_grow",
                            lambda self, grow=_EventBuffer._grow: grown_from.append(len(self.t)) or grow(self))
        reserved = kl.simulate(cfg).log
        assert grown_from == []
        monkeypatch.setattr(engine, "_reserved_rows", lambda eng, t_max: 1)
        grown = kl.simulate(cfg).log
        assert grown_from[0] == 1 and len(grown_from) > 10
        for name in ("t", "i", "j", "sigma", "assignment", "fictitious"):
            assert getattr(reserved, name).tobytes() == getattr(grown, name).tobytes(), name

    @pytest.mark.parametrize("capacity, shared", [(8, True), (9, True), (10, False), (1024, False)])
    def test_to_log_shares_the_buffer_up_to_an_eighth_of_slack(self, capacity, shared):
        buf = _EventBuffer(2, capacity)
        for k in range(8):
            buf.append(0.1 * k, k, k + 1, np.array([0.6, 0.8]), k % 4, k % 3 == 0)
        log = buf.to_log(9, 1.0)
        columns = ("t", "i", "j", "sigma", "assignment", "fictitious")
        assert [np.shares_memory(getattr(log, name), getattr(buf, name)) for name in columns] == [shared] * 6
        assert len(log) == 8 and log.i.tolist() == list(range(8)) and log.sigma.shape == (8, 2)
        assert log.fictitious.tolist() == [k % 3 == 0 for k in range(8)]


class TestThinning:
    def test_acceptance_counts_poisson(self):
        # constant total rate 2 with an inflated majorant: accepted events
        # must still be Poisson(2T) if thinning is exact
        t_max, runs = 1.5, 10_000
        lam = 2.0 * t_max
        counts = np.empty(runs, dtype=int)
        for k in range(runs):
            cfg = kl.SimConfig(n=2, t_max=t_max, kernel=Kernel.MAXWELL, seed=200,
                               checkpoint_times=(t_max,), store_log=False, majorant_inflation=1.7)
            traj = kl.simulate(cfg, rng=kl.make_rng(200, k))
            counts[k] = traj.checkpoints[-1].n_collisions
        kmax = int(stats.poisson.ppf(0.999, lam))
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax + 1), lam)
        probs[-1] = 1.0 - probs[:-1].sum()
        _, p_value = stats.chisquare(obs, probs * runs)
        assert p_value > 0.01, f"thinning chi-square p = {p_value}"

    def test_inflation_does_not_change_law(self):
        # the same seed gives different chains, but the collision-count mean
        # must agree between inflated and tight majorants
        means = []
        for inflation in (1.0, 2.5):
            tot = 0
            for k in range(2000):
                cfg = kl.SimConfig(n=2, t_max=2.0, kernel=Kernel.MAXWELL, seed=55,
                                   checkpoint_times=(2.0,), store_log=False,
                                   majorant_inflation=inflation)
                tot += kl.simulate(cfg, rng=kl.make_rng(55 + int(10 * inflation), k)).checkpoints[-1].n_collisions
            means.append(tot / 2000)
        se = np.sqrt(4.0 / 2000) * np.sqrt(2)
        assert abs(means[0] - means[1]) < 3 * se

    def test_majorant_violation_detected(self):
        # white box: corrupt the cached speed of a particle so the bound lies
        state = ParticleState(np.random.default_rng(14).normal(size=(16, 3)) + 3.0)
        eng = _Engine(state, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                      RNLedger(), _Draws(kl.make_rng(14)), _EventBuffer(3))
        eng.enter_segment(0.0)
        eng.speeds[:] = 1e-9
        if eng.fen is not None:
            for idx in range(16):
                eng.fen.update(idx, 1e-9)
        with pytest.raises(MajorantViolationError):
            for _ in range(500):
                eng.propose(np.inf)


class TestExchangeability:
    def test_permuted_replay_gives_permuted_checkpoints(self):
        cfg = kl.SimConfig(n=30, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=15)
        traj = kl.simulate(cfg)
        rng = np.random.default_rng(16)
        perm = rng.permutation(30)
        inv = np.argsort(perm)
        # permute particle identities and relabel the log consistently
        v0_perm = traj.initial_state.velocities[inv]
        log = traj.log
        log_perm = kl.EventLog(log.t, perm[log.i], perm[log.j], log.sigma,
                               log.assignment, log.fictitious, 30, log.horizon)
        final_perm = final_state_from_log(ParticleState(v0_perm), log_perm)
        want = traj.final_state.velocities[inv]
        assert np.array_equal(np.sort(final_perm.velocities, axis=0), np.sort(want, axis=0))
        assert np.array_equal(final_perm.velocities, want)


class TestEquilibrium:
    def test_hard_sphere_preserves_gaussian_equilibrium(self):
        # a deep check of the speed-weighted partner sampling: any proposal
        # bias would distort the invariant law
        cfg = kl.SimConfig(n=8000, t_max=3.0, kernel=Kernel.HARD_SPHERE, seed=61, store_log=False)
        traj = kl.simulate(cfg)
        coords = traj.final_state.velocities * np.sqrt(3.0)
        for k in range(3):
            assert stats.kstest(coords[:, k], "norm").pvalue > 0.01

    def test_hard_sphere_relaxes_to_gaussian_m4(self):
        import math
        init = kl.InitialCondition(kind="scale_mixture", weights=(0.1, 0.9),
                                   scales=(2.0, math.sqrt(2.0 / 3.0)))
        diffs = []
        for k in range(6):
            cfg = kl.SimConfig(n=4000, t_max=3.0, kernel=Kernel.HARD_SPHERE, seed=62,
                               initial=init, checkpoint_times=(0.0, 3.0), store_log=False)
            traj = kl.simulate(cfg, rng=kl.make_rng(62, k))
            m2 = traj.checkpoints[-1].m2
            diffs.append(traj.checkpoints[-1].m4 - (5.0 / 3.0) * m2 * m2)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < max(3 * se, 0.05), (diffs.mean(), se)

    def test_million_event_conservation(self):
        # ~13 s: the pathwise-conservation envelope at its stated event count
        cfg = kl.SimConfig(n=1000, t_max=1000.0, kernel=Kernel.MAXWELL, seed=63,
                           checkpoint_times=(0.0, 1000.0), store_log=False)
        traj = kl.simulate(cfg)
        assert traj.checkpoints[-1].n_events >= 1_000_000
        e0 = traj.checkpoints[0].m2
        p0 = traj.checkpoints[0].momentum
        assert abs(traj.checkpoints[-1].m2 - e0) <= 1e-9 * e0
        assert np.max(np.abs(traj.checkpoints[-1].momentum - p0)) <= 1e-9


class TestContinuityEquation:
    def test_static_test_function_balance(self):
        # <f, mu_T> - <f, mu_0> = (1/N) sum of collisional increments
        from kaclab.rate_function import TestFunctionDescriptor

        cfg = kl.SimConfig(n=150, t_max=1.2, kernel=Kernel.HARD_SPHERE, seed=64)
        traj = kl.simulate(cfg)
        f = TestFunctionDescriptor(kind="radial_bump", coeff=1.3, radius=1.8)
        lhs = float(np.mean(f._b(traj.final_state.velocities))
                    - np.mean(f._b(traj.initial_state.velocities)))
        rhs = 0.0
        log = traj.log
        v = traj.initial_state.velocities.copy()
        for k in replay_events(v, log):
            if not log.fictitious[k]:
                rhs += f.delta_b(v[log.i[k]], v[log.j[k]], log.sigma[k]) / 150.0
        assert abs(lhs - rhs) <= 1e-9 * (1 + len(traj.log))


class TestReplayRows:
    @pytest.mark.parametrize("d", [2, 3])
    def test_pairs_hold_each_collision_before_and_after(self, d):
        cfg = kl.SimConfig(n=6, t_max=3.0, d=d, kernel=Kernel.HARD_SPHERE, seed=61 + d)
        traj = kl.simulate(cfg)
        log = traj.log
        v = traj.initial_state.velocities.copy()
        want = []
        for k in itertools.chain(replay_events(v, log), (None,)):
            if want and len(want[-1]) == 2:  # v now holds the last collision's outcome
                i, j = log.i[last], log.j[last]
                want[-1] += [v[i].copy(), v[j].copy()]
            if k is not None and not log.fictitious[k]:
                last = k
                want.append([v[log.i[k]].copy(), v[log.j[k]].copy()])
        start = len(log) // 4
        head = traj.initial_state.velocities.copy()
        replay_rows(head, log, 0, start)
        pairs = replay_rows(head, log, start, pairs=True)
        assert np.array_equal(pairs, np.array(want)[np.count_nonzero(~log.fictitious[:start]):])
        assert np.array_equal(head, traj.final_state.velocities)
        # a diagonal row's two velocities are one and unchanged
        diag = (log.i == log.j)[start:][~log.fictitious[start:]]
        assert np.any(diag)
        assert np.all(pairs[diag] == pairs[diag][:, :1])


class TestOtherDimensions:
    def test_d1_collisions_swap_velocities(self):
        # in one dimension every collision exchanges the pair, so the
        # empirical measure is invariant
        cfg = kl.SimConfig(n=12, t_max=2.0, kernel=Kernel.MAXWELL, seed=19, d=1)
        traj = kl.simulate(cfg)
        assert traj.log.n_collisions > 0
        assert np.allclose(np.sort(traj.final_state.velocities, axis=0),
                           np.sort(traj.initial_state.velocities, axis=0),
                           rtol=0, atol=1e-12)

    def test_d2_conservation(self):
        cfg = kl.SimConfig(n=64, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=20, d=2)
        traj = kl.simulate(cfg)
        e0 = traj.initial_state.energy()
        assert abs(traj.final_state.energy() - e0) <= 1e-9 * e0
        assert np.max(np.abs(traj.final_state.momentum() - traj.initial_state.momentum())) <= 1e-12

    @pytest.mark.parametrize("n,seed", [(1, 1), (2, 0)])
    def test_more_dimensions_than_draws_per_buffer(self, n, seed):
        # a short small-N run sizes its draw buffers below d = 200 variates;
        # each buffer must still hold one sigma
        cfg = kl.SimConfig(n=n, t_max=0.5, kernel=Kernel.MAXWELL, seed=seed, d=200)
        traj = kl.simulate(cfg)
        e0 = traj.initial_state.energy()
        assert abs(traj.final_state.energy() - e0) <= 1e-12 * e0
        assert np.max(np.abs(traj.final_state.momentum() - traj.initial_state.momentum())) <= 1e-12


class TestEmpiricalMeasure:
    def test_single_atom(self):
        m = kl.empirical_measure(ParticleState(np.zeros((1, 3))))
        assert m.total_mass == 1.0 and len(m) == 1

    def test_atom_merging_equivalence(self):
        v = np.array([[1.0, 0, 0], [1.0, 0, 0]])
        m = kl.empirical_measure(ParticleState(v))
        merged = m.merge_atoms()
        assert len(merged) == 1 and merged.weights[0] == pytest.approx(1.0)
        assert kl.bl_distance(m, merged) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment_clt(self):
        n = 10_000
        ref = kl.ReferenceMeasure(3)
        v = ref.sample(kl.make_rng(17), n)
        m2 = kl.moment(kl.empirical_measure(ParticleState(v)), 2.0)
        se = np.sqrt(2.0 / 3.0 / n)  # Var(|v|^2) = 2/d for the unit-energy Gaussian
        assert abs(m2 - 1.0) < 3 * se


class TestSegmentResumability:
    def test_split_run_is_bit_exact(self):
        # one engine with an interior boundary vs a fresh engine resumed
        # from the midpoint state with the same draw stream
        rng1 = kl.make_rng(18)
        state1 = ParticleState(kl.ReferenceMeasure(3).sample(rng1, 40))
        draws = _Draws(rng1)
        eng1 = _Engine(state1, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                       RNLedger(), draws, _EventBuffer(3))
        eng1.run_segment(0.5)
        mid_v = eng1.V.copy()
        mid_events = eng1.n_events
        eng1.run_segment(1.0)

        rng2 = kl.make_rng(18)
        state2 = ParticleState(kl.ReferenceMeasure(3).sample(rng2, 40))
        draws2 = _Draws(rng2)
        eng2a = _Engine(state2, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                        RNLedger(), draws2, _EventBuffer(3))
        eng2a.run_segment(0.5)
        assert np.array_equal(eng2a.V, mid_v)
        resumed = ParticleState(eng2a.V.copy(), 0.5)
        eng2b = _Engine(resumed, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                        RNLedger(), draws2, _EventBuffer(3))
        eng2b.set_clock(eng2a.t)
        eng2b.run_segment(1.0)
        assert eng2a.n_events + eng2b.n_events == eng1.n_events
        assert np.array_equal(eng2b.V, eng1.V)


# sha256 of (t, i, j, sigma, assignment, fictitious) plus the final velocities;
# any change to the engine's arithmetic or RNG consumption changes them, so
# they change only with a change meant to alter the bytes of a run
GOLDEN_DIGESTS = {
    "maxwell": "8660cbd6df8d485df1a8b01986658373f1c4e45e89402eac1c914d6b934026b9",
    "hard_sphere": "446c0ad7d3c6b7014fcfb73a6dc4c12b29302055d86fa1230aa7f1b3d5ed4ac0",
    "pairwise_q": "abee48c4430163e067600f284f3c6d4c6382a7f9072c6f946c1cdb0074a9d239",
    "constant_p": "6604667629874929458db202156964b6c6d556dc6aebe72ff86b47499078ed7a",
    "freeze": "6b972a3977a9fdfd21de8ba1d3da64a889048384ef3aad57f6ad5bbc6cb2e326",
}


def _golden_run(name):
    thresholds = (1.0, 2.0)
    cps = (0.0, 0.5, 1.0)
    if name == "maxwell":
        cfg = kl.SimConfig(n=30, t_max=1.0, kernel=Kernel.MAXWELL, seed=301,
                           checkpoint_times=cps, truncation_thresholds=thresholds)
        return kl.simulate(cfg)
    if name == "hard_sphere":
        cfg = kl.SimConfig(n=30, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=302,
                           checkpoint_times=cps, truncation_thresholds=thresholds)
        return kl.simulate(cfg)
    if name == "pairwise_q":
        cfg = kl.SimConfig(n=20, t_max=1.0, kernel=Kernel.MAXWELL, seed=303,
                           checkpoint_times=cps, truncation_thresholds=(1.0,))
        return kl.simulate(cfg, TiltingScheme.pairwise(1.0, 0.3))
    if name == "constant_p":
        cfg = kl.SimConfig(n=20, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=304, measure="P",
                           checkpoint_times=cps, truncation_thresholds=(1.0,))
        return kl.simulate(cfg, TiltingScheme.constant(1.5))
    ref = kl.ReferenceMeasure(3)
    th = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    plan = kl.design_freeze_experiment(ref, th, M=2.0, r=2)
    rng = kl.make_rng(305, 0)
    v0 = kl.sample_tilted_initial(ref, TiltingScheme(initial_tilt=plan.initial_tilt), 40, rng)
    cfg = kl.SimConfig(n=40, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=305,
                       checkpoint_times=(0.0, 0.25, 0.5, 0.75, 1.0), truncation_thresholds=thresholds)
    return kl.simulate(cfg, kl.build_freeze_scheme(v0, plan), rng=rng,
                       initial_state=ParticleState(v0))


class TestGoldenDeterminism:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_pinned_log_and_exact_readers(self, name, tmp_path):
        traj = _golden_run(name)
        log = traj.log
        h = hashlib.sha256()
        for arr in (log.t, log.i, log.j, log.sigma, log.assignment, log.fictitious,
                    traj.final_state.velocities):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == GOLDEN_DIGESTS[name]

        final = final_state_from_log(traj.initial_state, log)
        assert np.array_equal(final.velocities, traj.final_state.velocities)

        paths = config_io.save_trajectory(str(tmp_path), traj)
        _, summaries = config_io.replay(paths["sidecar"], paths["events"])
        assert len(summaries) == len(traj.checkpoints)
        for got, cp in zip(summaries, traj.checkpoints):
            want = cp.to_dict()
            assert got == {key: want[key] for key in got}

        v = traj.initial_state.velocities.copy()
        atoms = [np.concatenate(([log.t[k]], v[log.i[k]], v[log.j[k]], log.sigma[k]))
                 for k in replay_events(v, log) if not log.fictitious[k]]
        assert np.array_equal(kl.flux_measure(traj).points, np.array(atoms))
