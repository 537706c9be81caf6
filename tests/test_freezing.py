import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import kaclab as kl
from kaclab import freezing
from kaclab.engine import ParticleState
from kaclab.freezing import (ThetaSchedule, cumulant_psi, design_freeze_experiment,
                             freeze_thresholds, legendre_psi_star, solve_lambda,
                             tilted_energy, tilted_truncated_energy, time_partition,
                             tv_distance_tilted)
from kaclab.kinetics import Kernel
from kaclab.rate_function import relative_entropy

REF = kl.ReferenceMeasure(3)


def quad_psi(M, lam):
    """Quadrature oracle for the tail cumulant, independent of the closed form."""
    a, th = REF.shape, REF.scale
    norm = math.gamma(a) * th**a

    def f(s):
        return s ** (a - 1.0) * math.exp(lam * s * (s >= M * M) - s / th)

    val = quad(f, 0, M * M, limit=300)[0] if M > 0 else 0.0
    val += quad(f, M * M, np.inf, limit=300)[0]
    return math.log(val / norm)


def quad_energy(M, lam):
    a, th = REF.shape, REF.scale
    norm = math.gamma(a) * th**a

    def f(s):
        return s**a * math.exp(lam * s * (s >= M * M) - s / th)

    val = (quad(f, 0, M * M, limit=300)[0] if M > 0 else 0.0) + quad(f, M * M, np.inf, limit=300)[0]
    return val / norm * math.exp(-quad_psi(M, lam))


def quad_tv(reference, M, lam):
    """Quadrature oracle for `tv_distance_tilted`, split where |e^phi - 1|
    has kinks; quad's tolerances are tightened from their defaults, at which
    d = 5, M = 0, Theta(T) = 2 misses the exact value by 1.4e-9."""
    psi = cumulant_psi(reference, M, lam)
    a, th = reference.shape, reference.scale
    m2 = M * M
    tol = dict(limit=200, epsabs=1e-13, epsrel=1e-13)

    def integrand(s):
        phi = lam * s * (s >= m2) - psi
        return abs(math.exp(phi - s / th) - math.exp(-s / th)) * s ** (a - 1.0)

    norm = math.gamma(a) * th**a
    split = max(m2, psi / lam if lam > 0 else m2)
    val = quad(integrand, 0.0, m2, **tol)[0] if m2 > 0 else 0.0
    if split > m2:
        val += quad(integrand, m2, split, **tol)[0]
    val += quad(integrand, split, np.inf, **tol)[0]
    return val / norm


class TestCumulant:
    def test_zero_tilt(self):
        assert cumulant_psi(REF, 3.0, 0.0) == 0.0

    def test_closed_form_full_tilt(self):
        assert cumulant_psi(REF, 0.0, 0.75) == pytest.approx(1.5 * math.log(2.0), abs=1e-12)

    def test_negligible_tail(self):
        assert abs(cumulant_psi(REF, 10.0, 0.1)) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cumulant_psi(REF, 1.0, 1.5)

    def test_against_quadrature_oracle(self):
        for M, lam in [(1.0, 0.5), (2.0, 0.9), (4.0, 1.2)]:
            assert cumulant_psi(REF, M, lam) == pytest.approx(quad_psi(M, lam), abs=1e-9)
            assert tilted_energy(REF, M, lam) == pytest.approx(quad_energy(M, lam), abs=1e-8)


class TestSolveLambda:
    def test_full_tilt_closed_form(self):
        assert solve_lambda(REF, 0.0, 2.0) == pytest.approx(0.75, abs=1e-9)

    def test_small_excess_small_lambda(self):
        assert solve_lambda(REF, 0.0, 1.0001) < 1e-3

    def test_target_below_one_rejected(self):
        with pytest.raises(ValueError):
            solve_lambda(REF, 0.0, 1.0)

    def test_tail_tilt_value_from_oracle(self):
        # fixed by the quadrature oracle: the all-mass tilt at M = 2 needs
        # lam below the M = 0 value because tail-only weighting is stronger
        lam = solve_lambda(REF, 2.0, 2.0)
        assert quad_energy(2.0, lam) == pytest.approx(2.0, abs=1e-7)
        assert lam == pytest.approx(0.7374467786, abs=1e-6)
        assert lam < REF.z2

    def test_monotone_on_moderate_thresholds(self):
        lams = [solve_lambda(REF, M, 2.0) for M in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        assert all(l < REF.z2 for l in lams)


class TestPsiDecay:
    def test_psi_decreases_with_threshold(self):
        psis = [cumulant_psi(REF, M, solve_lambda(REF, M, 2.0)) for M in (1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(psis, psis[1:]))
        assert psis[-1] < 0.02

    def test_chain_bound(self):
        # e^psi <= 1 + Theta(T) e^psi / M^2 for the solved tilt
        for M in (2.0, 4.0, 8.0):
            psi = cumulant_psi(REF, M, solve_lambda(REF, M, 2.0))
            assert psi <= -math.log(1.0 - 2.0 / M**2) + 1e-12

    def test_tv_proximity(self):
        for M in (2.0, 4.0, 8.0):
            lam = solve_lambda(REF, M, 2.0)
            psi = cumulant_psi(REF, M, lam)
            tv = tv_distance_tilted(REF, M, lam)
            assert tv <= abs(1.0 - math.exp(-psi)) + (2.0 + 1.0) / M**2 + 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_tv_closed_form_against_quadrature_oracle(self, d):
        ref = kl.ReferenceMeasure(d)
        for M in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            for theta_final in (1.1, 2.0, 3.0):
                lam = solve_lambda(ref, M, theta_final)
                assert tv_distance_tilted(ref, M, lam) == pytest.approx(quad_tv(ref, M, lam), abs=1e-9)


class TestThetaSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaSchedule(jump_times=(0.5,), levels=(1.2, 2.0), horizon=1.0)
        with pytest.raises(ValueError):
            ThetaSchedule(jump_times=(0.5,), levels=(1.0, 0.5), horizon=1.0)
        with pytest.raises(ValueError):
            ThetaSchedule(jump_times=(1.5,), levels=(1.0, 2.0), horizon=1.0)

    def test_left_continuity(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        assert th.theta(0.5) == 1.0
        assert th.theta_right(0.5) == 2.0
        assert th.theta(0.7) == 2.0

    def test_a_bound(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        assert th.a_bound(0.7, alpha=1.0) == pytest.approx(1.0 / 0.2**2)
        assert th.a_bound(0.5, alpha=1.0) == math.inf
        assert th.a_bound(0.3, alpha=1.0) == pytest.approx(1.0 / 0.3**2)


class TestTimePartition:
    def test_single_jump(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        assert np.allclose(time_partition(th, 2), [0.0, 0.5, 1.0])

    def test_r_one_endpoints(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        assert np.allclose(time_partition(th, 1), [0.0, 1.0])

    def test_two_jumps(self):
        th = ThetaSchedule(jump_times=(0.3, 0.7), levels=(1.0, 1.5, 2.0), horizon=1.0)
        assert np.allclose(time_partition(th, 4), [0.0, 0.3, 0.3, 0.7, 1.0])


class TestFreezeThresholds:
    def test_sentinel_for_full_energy(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, th, M=4.0, r=4)
        # interior partition points all sit on the jump: post level = 2 = total
        assert np.isfinite(plan.thresholds[0])
        assert np.all(np.isinf(plan.thresholds[1:]))

    def test_first_threshold_exceeds_tilt_threshold(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        for M in (0.0, 2.0, 4.0):
            plan = design_freeze_experiment(REF, th, M=M, r=2)
            assert plan.thresholds[0] > M

    def test_threshold_solves_truncated_energy(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, th, M=4.0, r=4)
        got = tilted_truncated_energy(REF, plan.M, plan.lam, plan.thresholds[0])
        assert got == pytest.approx(1.0, abs=1e-8)
        # independent quadrature of the same truncated moment
        a, thb = REF.shape, REF.scale
        norm = math.gamma(a) * thb**a
        x = plan.thresholds[0]

        def f(s):
            return s**a * math.exp(plan.lam * s * (s >= plan.M**2) - s / thb)

        val = (quad(f, 0, plan.M**2, limit=300)[0] + quad(f, plan.M**2, x * x, limit=300)[0])
        val = val / norm * math.exp(-plan.psi)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_monotone_thresholds_multi_level(self):
        th = ThetaSchedule(jump_times=(0.3, 0.7), levels=(1.0, 1.5, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, th, M=3.0, r=4)
        finite = plan.thresholds[np.isfinite(plan.thresholds)]
        assert np.all(np.diff(finite) >= 0)

    def test_criterion_7_plan_and_entropy_are_pinned(self):
        # M = 4, r = 4, Theta: 1 -> 2; the bits these closed forms gave before
        # they shared `girsanov._tail_law`
        theta = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, theta, 4.0, 4)
        assert plan.lam.hex() == "0x1.2010bbd3effccp+0"
        assert plan.psi.hex() == "0x1.d850d2759b10ep-5"
        assert [float(x).hex() for x in plan.thresholds] == ["0x1.0178a851a0000p+2", "inf", "inf", "inf"]
        assert relative_entropy(plan.initial_tilt, REF).hex() == "0x1.2171c41a6a8d9p+0"


class TestBuildFreezeScheme:
    def _plan(self, M=4.0, r=4, delta=0.0):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        return design_freeze_experiment(REF, th, M=M, r=r, delta=delta)

    def test_no_fast_particles_identity(self):
        plan = self._plan()
        v0 = np.full((10, 3), 0.1)
        scheme = kl.build_freeze_scheme(v0, plan)
        assert np.all(scheme.coeffs == 1.0)
        assert all(len(f) == 0 for f in scheme.frozen_sets)

    def test_single_frozen_particle(self):
        plan = self._plan()
        v0 = np.full((10, 3), 0.1)
        v0[3] = [plan.thresholds[0] + 1.0, 0.0, 0.0]
        scheme = kl.build_freeze_scheme(v0, plan)
        assert list(scheme.frozen_sets[0]) == [3]
        assert scheme.coeffs[0] == pytest.approx(10.0 / 9.0)
        # released on the post-jump intervals
        assert len(scheme.frozen_sets[-1]) == 0
        assert scheme.coeffs[-1] == 1.0

    def test_maxwell_variant_pairwise_factor(self):
        plan = self._plan(delta=0.1)
        v0 = np.full((10, 3), 0.1)
        scheme = kl.build_freeze_scheme(v0, plan)
        assert np.all(scheme.deltas == 0.1)
        assert scheme.k_value(0.1, 2.0) == pytest.approx(1.0 + 0.1 * 2.0)

    def test_all_frozen_rejected(self):
        plan = self._plan()
        v0 = np.full((4, 3), 10.0)
        with pytest.raises(ValueError):
            kl.build_freeze_scheme(v0, plan)


class TestLegendre:
    def test_zero_at_mean(self):
        assert legendre_psi_star(REF, 1.0) == 0.0

    def test_closed_form_value(self):
        assert legendre_psi_star(REF, 1.5) == pytest.approx(1.5 * (0.5 - math.log(1.5)), abs=1e-12)
        assert legendre_psi_star(REF, 1.5) == pytest.approx(0.141802, abs=1e-6)

    def test_uniform_bound(self):
        # a z2 dominates the one-sided (lam >= 0) transform, which matches
        # the closed form on a >= 1/e; below that the two-sided form exceeds it
        for a in (0.5, 0.8, 1.3, 2.5, 6.0):
            assert legendre_psi_star(REF, a) <= a * REF.z2 + 1e-12

    def test_positive_away_from_mean(self):
        for a in (0.5, 1.2, 3.0):
            assert legendre_psi_star(REF, a) > 0.0


class TestRunExperiment:
    def test_degenerate_schedule_is_equilibrium(self):
        th = ThetaSchedule(jump_times=(), levels=(1.0,), horizon=0.4)
        rep = kl.run_experiment(n=50, kernel=Kernel.MAXWELL, theta=th, M=2.0, r=2,
                                n_runs=3, master_seed=1, checkpoint_times=(0.0, 0.4))
        assert np.all(rep.per_run_log_rn[:, :3] == 0.0)
        assert np.allclose(rep.unfrozen_fraction_mean, 1.0)
        assert abs(rep.total_energy_mean[0] - 1.0) < 0.15

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_runs=0), "n_runs must be at least 1, got 0"),
        (dict(checkpoint_times=()), "checkpoint_times is empty"),
        (dict(checkpoint_times=np.array([])), "checkpoint_times is empty"),
    ])
    def test_no_run_or_no_checkpoint_is_refused_before_any_run(self, kwargs, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(freezing, "_experiment_one_run", refuse)
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        with pytest.raises(ValueError, match=message):
            kl.run_experiment(**{**dict(n=40, kernel=Kernel.HARD_SPHERE, theta=th, M=4.0, r=4,
                                        n_runs=2, checkpoint_times=(0.0, 1.0)), **kwargs})

    def test_report_files_are_written_whole(self, tmp_path):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        rep = kl.run_experiment(n=40, kernel=Kernel.HARD_SPHERE, theta=th, M=2.0, r=2,
                                n_runs=2, master_seed=4, checkpoint_times=(0.0, 0.5, 1.0))
        rep.to_json(tmp_path / "report.json")
        rep.write_energy_csv(tmp_path / "energy.csv")
        assert (tmp_path / "report.json").read_text() == json.dumps(rep.to_dict(), indent=1)
        lines = (tmp_path / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,window_energy_mean,window_energy_se,theta" and len(lines) == 4
        assert lines[2] == (f"{0.5:.17g},{rep.window_energy_mean[1]:.17g},"
                            f"{rep.window_energy_se[1]:.17g},{rep.theta_at_checkpoints[1]:.17g}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["energy.csv", "report.json"]

    def test_energy_accounting_exact_per_path(self):
        # frozen energy + unfrozen window = conserved total, path by path
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, th, M=2.0, r=2)
        rng = kl.make_rng(7, 0)
        v0 = kl.sample_tilted_initial(REF, kl.TiltingScheme(initial_tilt=plan.initial_tilt), 80, rng)
        scheme = kl.build_freeze_scheme(v0, plan)
        cfg = kl.SimConfig(n=80, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=7,
                           checkpoint_times=(0.0, 0.25, 0.75, 1.0), record_full_states=True)
        traj = kl.simulate(cfg, scheme, rng=rng, initial_state=ParticleState(v0))
        for cp in traj.checkpoints:
            k = scheme.interval_index(min(cp.time, 1.0 - 1e-12))
            frozen = scheme.frozen_mask(k, 80)
            s = np.sum(cp.state.velocities**2, axis=1)
            window = s[~frozen].sum() / 80.0
            frozen_energy = s[frozen].sum() / 80.0
            assert window + frozen_energy == pytest.approx(cp.m2, abs=1e-12)
            # frozen particles keep their initial velocities while frozen
            assert np.array_equal(cp.state.velocities[frozen],
                                  traj.initial_state.velocities[frozen])

    def test_mechanism_small_scale(self):
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        rep = kl.run_experiment(n=400, kernel=Kernel.HARD_SPHERE, theta=th, M=3.0, r=4,
                                n_runs=5, master_seed=3,
                                checkpoint_times=(0.0, 0.25, 0.45, 0.75, 1.0))
        assert rep.max_relative_energy_drift <= 1e-9
        early = rep.checkpoint_times < 0.5
        late = rep.checkpoint_times > 0.6
        assert np.all(np.abs(rep.window_energy_mean[early] - 1.0) < 0.12)
        assert np.all(np.abs(rep.window_energy_mean[late] - 2.0) < 0.25)
        # release schedule: unfrozen fraction jumps to 1 after the jump
        assert np.all(rep.unfrozen_fraction_mean[late] == 1.0)
        assert np.all(rep.unfrozen_fraction_mean[early] < 1.0)
        # per-particle path-measure density stays under z2 Theta(T) + 1/2
        bound = REF.z2 * 2.0 + 0.5
        assert np.mean(rep.per_particle_log_rn <= bound) >= 0.9

    def test_assignment_invariance_of_diagnostics(self):
        # swapping the recorded labels and flipping sigma leaves every
        # diagnostic unchanged: the transition and K are symmetric and even
        th = ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = design_freeze_experiment(REF, th, M=2.0, r=2)
        rng = kl.make_rng(9, 0)
        v0 = kl.sample_tilted_initial(REF, kl.TiltingScheme(initial_tilt=plan.initial_tilt), 40, rng)
        scheme = kl.build_freeze_scheme(v0, plan)
        cfg = kl.SimConfig(n=40, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=9,
                           checkpoint_times=(1.0,), record_full_states=True)
        traj = kl.simulate(cfg, scheme, rng=rng, initial_state=ParticleState(v0))
        from kaclab.engine import EventLog, final_state_from_log
        log = traj.log
        swapped = EventLog(log.t, log.j.copy(), log.i.copy(), -log.sigma,
                           log.assignment, log.fictitious, 40, log.horizon)
        v_end_a = final_state_from_log(traj.initial_state, log).velocities
        v_end_b = final_state_from_log(traj.initial_state, swapped).velocities
        assert np.array_equal(v_end_a, v_end_b)
        # jump term recomputed from the swapped log is identical
        import kaclab.girsanov as g
        from kaclab.engine import replay_events
        def jump_sum(lg):
            total, hit = 0.0, False
            v = traj.initial_state.velocities.copy()
            for row in replay_events(v, lg):
                if lg.fictitious[row]:
                    continue
                t, i, j = float(lg.t[row]), lg.i[row], lg.j[row]
                k = scheme.interval_index(t)
                frozen = scheme.frozen_mask(k, 40)
                kv = scheme.k_value(t, float(np.linalg.norm(v[i] - v[j])), frozen[i], frozen[j])
                if kv == 0.0:
                    hit = True
                else:
                    total += math.log(kv)
            return total, hit
        assert jump_sum(log) == jump_sum(swapped)
