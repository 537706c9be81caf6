"""The incremental pair sums against dense recomputation, their memory, and
how often they are built."""

import itertools
import json
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kaclab as kl
from conftest import compensator_rate
from kaclab import engine, freezing
from kaclab.config_io import save_trajectory
from kaclab.engine import _BSums, _k_itself, _k_minus_1, _TiltPairSum, replay_events
from kaclab.girsanov import TiltingScheme
from kaclab.kinetics import Kernel, sphere_quadrature
from kaclab.rate_function import TestFunctionDescriptor, _xi2_pair_sum, dynamic_cost, tau, xi_functionals

REF = kl.ReferenceMeasure(3)
RTOL = 1e-10


def _run(name):
    """Small runs with diagonal and fictitious rows; returns (trajectory, scheme)."""
    if name == "maxwell_pairwise":
        scheme = TiltingScheme.pairwise(1.0, 0.3)
        cfg = kl.SimConfig(n=16, t_max=2.0, kernel=Kernel.MAXWELL, seed=401, measure="Q")
    else:
        # three intervals: two with frozen sets, then K = 1
        scheme = TiltingScheme(
            breakpoints=np.array([0.0, 0.3, 0.6, 1.0]), coeffs=np.array([1.25, 1.5, 1.0]),
            deltas=np.zeros(3), frozen_sets=[np.array([0, 3, 5]), np.array([2]), np.array([], int)])
        cfg = kl.SimConfig(n=16, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=402, measure="Q")
    traj = kl.simulate(cfg, scheme)
    assert np.any(traj.log.fictitious) and np.any(traj.log.i == traj.log.j)
    return traj, scheme


def _xi2_dense(v, g, beta):
    """sum_ab of the sigma-averaged (e^g - 1) B, as one dense table."""
    u = np.sqrt(np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1))
    if g.sigma_coupling == 0.0:
        e = np.exp(g.g(v[:, None, :], v[None, :, :], None)) - 1.0
    else:
        pts, wts = sphere_quadrature(v.shape[1])
        e = sum(w * (np.exp(g.g(v[:, None, :], v[None, :, :], p)) - 1.0) for p, w in zip(pts, wts))
    return float(np.sum(e * (1.0 + beta * u)))


def _tilt_dense(v, scheme, k, beta):
    """(sum K B, sum tau(K) B, S_live, S_all) at interval k, as dense tables."""
    n = len(v)
    u = np.sqrt(np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1))
    alive = np.ones(n, bool)
    alive[scheme.frozen_sets[k]] = False
    live = np.outer(alive, alive)
    kmat = scheme.coeffs[k] * (1.0 + scheme.deltas[k] * u) * live
    b = 1.0 + beta * u
    return float(np.sum(kmat * b)), float(np.sum(tau(kmat) * b)), float(np.sum(b * live)), float(np.sum(b))


def tilt_sum(v, scheme, k, beta, f):
    """The engine's pair sum of f(K) B (f = K - 1, tau or K) on interval k
    of a scheme, and a function that reads it: the total of a `_TiltPairSum`
    at delta > 0, and at delta = 0 what `_BSums` gives from S_live and S_all."""
    if scheme.deltas[k] > 0.0:
        pair_sum = _TiltPairSum(v, scheme, k, beta, f)
        return pair_sum, lambda: pair_sum.total
    sums = _BSums(v, scheme, k, beta)
    read = {_k_minus_1: lambda: sums.total, tau: lambda: sums.cost, _k_itself: lambda: sums.c * sums.s_live}
    return sums, read[f]


class _Fan:
    """Forwards the collision hooks to several pair sums."""

    def __init__(self, sums):
        self.sums = sums

    def pre_collision(self, i, j):
        return [s.pre_collision(i, j) for s in self.sums]

    def post_collision(self, i, j, pre):
        for s, p in zip(self.sums, pre):
            s.post_collision(i, j, p)


@pytest.mark.parametrize("name", ["maxwell_pairwise", "hs_frozen_intervals"])
def test_four_sums_match_dense_after_every_row(name):
    traj, scheme = _run(name)
    log = traj.log
    n = traj.initial_state.n
    beta = traj.config.kernel.slope
    g = TestFunctionDescriptor(kind="flux_test", coeff=0.4, radius=2.5, sigma_coupling=0.3)
    v = traj.initial_state.velocities.copy()
    checked = checked_sums = 0
    for k_int in range(scheme.n_intervals()):
        b0, b1 = scheme.breakpoints[k_int], scheme.breakpoints[k_int + 1]
        lo, hi = np.searchsorted(log.t, (b0, b1))
        (ledger, read_ledger), (cost, read_cost), (total, read_total) = (
            tilt_sum(v, scheme, k_int, beta, f) for f in (_k_minus_1, tau, _k_itself))
        xi2 = _xi2_pair_sum(v, g, beta)
        for _ in itertools.chain(replay_events(v, log, lo, hi, _Fan([ledger, cost, total, xi2])), (None,)):
            # v now holds the state after every row before this one
            want_total, want_cost, want_live, want_all = _tilt_dense(v, scheme, k_int, beta)
            want_ledger = compensator_rate(v, scheme, traj.config.kernel, b0) * n
            assert read_ledger() == pytest.approx(want_ledger, rel=RTOL, abs=0.0)
            assert read_cost() == pytest.approx(want_cost, rel=RTOL, abs=0.0)
            assert read_total() == pytest.approx(want_total, rel=RTOL, abs=0.0)
            assert xi2.total == pytest.approx(_xi2_dense(v, g, beta), rel=RTOL, abs=0.0)
            if scheme.deltas[k_int] == 0.0:  # the two sums every pair sum there is made of
                assert ledger.s_live == pytest.approx(want_live, rel=RTOL, abs=0.0)
                assert ledger.s_all == pytest.approx(want_all, rel=RTOL, abs=0.0)
                checked_sums += 1
            checked += 1
    assert checked == len(log) + scheme.n_intervals()
    assert (checked_sums == checked) == (name == "hs_frozen_intervals")


@pytest.mark.parametrize("name", ["maxwell_pairwise", "hs_frozen_intervals"])
@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_dynamic_cost_and_xi2_match_dense_spans(name, coupling):
    traj, scheme = _run(name)
    log = traj.log
    n = traj.initial_state.n
    t_max = traj.config.t_max
    beta = traj.config.kernel.slope
    g = TestFunctionDescriptor(kind="flux_test", coeff=-0.3, radius=2.0, sigma_coupling=coupling)
    cuts = [float(b) for b in scheme.breakpoints if 0.0 < b < t_max]
    cost = comp = flux = 0.0
    v = traj.initial_state.velocities.copy()
    t0 = 0.0
    for k in itertools.chain(replay_events(v, log), (None,)):
        t1 = t_max if k is None else float(log.t[k])
        pts = [t0] + [b for b in cuts if t0 < b < t1] + [t1]
        for a, b in zip(pts[:-1], pts[1:]):
            if b > a:
                cost += (b - a) * _tilt_dense(v, scheme, scheme.interval_index(a), beta)[1] / n**2
        comp += (t1 - t0) * _xi2_dense(v, g, beta) / n**2
        if k is not None and not log.fictitious[k]:
            flux += float(g.g(v[log.i[k]], v[log.j[k]], log.sigma[k])) / n
        t0 = t1
    value, se = dynamic_cost(traj, scheme, mode="exact")
    assert se == 0.0
    assert value == pytest.approx(cost, rel=RTOL, abs=0.0)
    assert xi_functionals(traj, None, None, g, REF)[2] == pytest.approx(flux - comp, rel=RTOL, abs=0.0)


def test_pair_sums_take_o_n_memory():
    # a dense N x N float table would be 8 N^2 bytes
    n = 4000
    scheme = TiltingScheme(coeffs=np.array([n / (n - 2)]), frozen_sets=[np.array([0, 1])])
    cfg = kl.SimConfig(n=n, t_max=1e-5, kernel=Kernel.HARD_SPHERE, seed=403)
    tracemalloc.start()
    try:
        traj = kl.simulate(cfg, scheme)
        peak_simulate = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rate = kl.total_rate(traj.final_state, cfg.kernel, scheme)
        peak_total_rate = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate > 0.0
    assert peak_simulate < 2 * n * n
    assert peak_total_rate < 2 * n * n


def test_freeze_run_builds_one_pair_sum_per_tilted_interval(monkeypatch):
    # the criterion 7 configuration: t_grid [0, .5, .5, .5, 1], K = 1 after
    # t = 0.5, and checkpoints every 0.05
    builds = []
    describe = engine._TiltPairSum._describe  # once for each tilt pair sum, of either kind

    def counting_describe(self, v, *args):
        builds.append(len(v))
        describe(self, v, *args)

    schemes, after_simulate = [], []
    build_scheme, simulate = freezing.build_freeze_scheme, freezing.simulate

    def keep_scheme(v0, plan):
        schemes.append(build_scheme(v0, plan))
        return schemes[-1]

    def counted_simulate(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        after_simulate.append(len(builds))
        return traj

    monkeypatch.setattr(engine._TiltPairSum, "_describe", counting_describe)
    monkeypatch.setattr(freezing, "build_freeze_scheme", keep_scheme)
    monkeypatch.setattr(freezing, "simulate", counted_simulate)
    theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    kl.run_experiment(n=300, kernel=Kernel.HARD_SPHERE, theta=theta, M=4.0, r=4, n_runs=1,
                      master_seed=108, checkpoint_times=np.arange(0.0, 1.001, 0.05))
    (scheme,) = schemes
    assert np.array_equal(scheme.breakpoints, [0.0, 0.5, 0.5, 0.5, 1.0])
    assert len(scheme.frozen_sets[0]) > 0
    assert scheme.is_unit(scheme.interval_index(0.5))
    assert after_simulate == [1]
    assert len(builds) == 1  # the cost comes from the ledger's two sums, and nothing replays


# ---------------------------------------------------------------------------
# the compiled rows and updates against numpy's, and the row-free Maxwell sums


def _replayed_totals(traj, scheme, f):
    """The tilt pair sums of f after every row of the log (hex)."""
    log, beta = traj.log, traj.config.kernel.slope
    v = traj.initial_state.velocities.copy()
    totals = []
    for k_int in range(scheme.n_intervals()):
        lo, hi = np.searchsorted(log.t, scheme.breakpoints[k_int: k_int + 2])
        pair_sum, read = tilt_sum(v, scheme, k_int, beta, f)
        for _ in replay_events(v, log, lo, hi, pair_sum):
            totals.append(float(read()).hex())
        totals.append(float(read()).hex())
    return totals


@pytest.mark.parametrize("name", ["maxwell_pairwise", "hs_frozen_intervals"])
@pytest.mark.parametrize("f", ["k_minus_1", "k", "tau"])
def test_compiled_updates_match_numpy_bit_for_bit(name, f, monkeypatch):
    func = {"k_minus_1": _k_minus_1, "k": _k_itself, "tau": tau}[f]
    traj, scheme = _run(name)
    compiled = _replayed_totals(traj, scheme, func)
    with monkeypatch.context() as m:
        m.setattr(engine._kloop, "_lib", None)
        assert _replayed_totals(traj, scheme, func) == compiled
        cost = dynamic_cost(traj, scheme, mode="exact")
        rate = kl.total_rate(traj.final_state, traj.config.kernel, scheme)
    assert dynamic_cost(traj, scheme, mode="exact") == cost
    assert kl.total_rate(traj.final_state, traj.config.kernel, scheme) == rate


@pytest.mark.parametrize("frozen", [True, False], ids=["freeze", "constant"])
@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_maxwell_sums_at_delta_zero_are_counts(loop, frozen, monkeypatch):
    # B = 1: S_live = N_t^2 and S_all = N^2, exact, and no row is made, built
    # or moved, in either loop; the ledger is the counts' closed form
    if loop == "python":
        monkeypatch.setattr(engine._kloop, "_lib", None)
    n, rng = 400, kl.make_rng(409)
    if frozen:  # the criterion-7 freeze scheme: frozen sets, then K = 1
        theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
        plan = kl.design_freeze_experiment(REF, theta, M=4.0, r=4)
        v0 = kl.sample_tilted_initial(REF, TiltingScheme(initial_tilt=plan.initial_tilt), n, rng)
        scheme = kl.build_freeze_scheme(v0, plan)
    else:
        v0, scheme = REF.sample(rng, n), TiltingScheme.constant(1.5)
    calls, trackers = [], []
    rows, init = _TiltPairSum.rows, _BSums.__init__
    monkeypatch.setattr(_TiltPairSum, "rows", lambda self, sel: calls.append("rows") or rows(self, sel))
    monkeypatch.setattr(_BSums, "rows", lambda self, sel: calls.append("rows") or rows(self, sel))
    monkeypatch.setattr(_BSums, "__init__", lambda self, *args: trackers.append(self) or init(self, *args))
    lib = engine._kloop.kernel()
    if lib is not None:
        monkeypatch.setattr(lib, "kac_rows", lambda *args: calls.append("kac_rows"))
    cfg = kl.SimConfig(n=n, t_max=1.0, kernel=Kernel.MAXWELL, seed=409)
    traj = kl.simulate(cfg, scheme, initial_state=kl.ParticleState(v0))
    assert traj.log.n_collisions > 100 and calls == []
    want, closed = [], 0.0
    for k in range(scheme.n_intervals()):
        if not scheme.is_unit(k):
            live = n - len(scheme.frozen_sets[k])
            want.append((float(live**2), float(n**2)))
            span = min(scheme.breakpoints[k + 1], cfg.t_max) - scheme.breakpoints[k]
            closed += span * ((scheme.coeffs[k] - 1.0) * live**2 - (n**2 - live**2)) / n
    assert [(s.s_live, s.s_all) for s in trackers] == want
    assert (want[0][0] < n**2) == frozen
    assert traj.rn_ledger.compensator_term == pytest.approx(closed, rel=1e-12, abs=0.0)


def _velocity_free_outputs(measure, frozen, overflow, tmp_path):
    """Saved artifacts, ledgers and costs of a Maxwell run at delta = 0 under
    the criterion-7 freeze scheme (frozen sets, then K = 1) or a constant
    tilt; with `overflow`, two velocities whose distance overflows."""
    theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    plan = kl.design_freeze_experiment(REF, theta, M=4.0, r=4)
    rng = kl.make_rng(426, 0)
    v0 = kl.sample_tilted_initial(REF, TiltingScheme(initial_tilt=plan.initial_tilt), 2000, rng)
    scheme = kl.build_freeze_scheme(v0, plan) if frozen else TiltingScheme.constant(1.5)
    if overflow:  # on a pair that the scheme leaves free to collide
        a, b = np.flatnonzero(~scheme.frozen_mask(0, len(v0)))[:2]
        v0[a] = (math.sqrt(0.8e308), 0.0, 0.0)
        v0[b] = -v0[a]
    cfg = kl.SimConfig(n=2000, t_max=1.0, kernel=Kernel.MAXWELL, seed=426, measure=measure,
                       checkpoint_times=tuple(np.arange(0.0, 1.001, 0.25)))
    traj = kl.simulate(cfg, scheme, rng=rng, initial_state=kl.ParticleState(v0))
    paths = save_trajectory(str(tmp_path), traj)
    files = {key: Path(path).read_bytes() for key, path in sorted(paths.items())}
    return (files, [repr(cp.ledger.to_dict()) for cp in traj.checkpoints], repr(traj.rn_ledger.log_rn()),
            float(traj.dynamic_cost).hex(), float(dynamic_cost(traj, scheme)[0]).hex())


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("overflow", [False, True], ids=["finite", "overflow"])
@pytest.mark.parametrize("frozen", [True, False], ids=["freeze", "constant"])
@pytest.mark.parametrize("measure", ["Q", "P"])
def test_velocity_free_rows_skip_alike(measure, frozen, overflow, tmp_path, monkeypatch):
    # at beta = delta = 0 the pair sums are counts, in both loops, and read
    # no distance: one that overflows leaves the ledger's compensator and the
    # cost what they are without it, finite (it was NaN through K = c (1 + 0 inf))
    compiled = _velocity_free_outputs(measure, frozen, overflow, tmp_path / "compiled")
    with monkeypatch.context() as m:
        m.setattr(engine._kloop, "_lib", None)
        assert _velocity_free_outputs(measure, frozen, overflow, tmp_path / "python") == compiled
    ledger = json.loads(compiled[0]["sidecar"])["ledger"]
    if overflow:  # the same event times, so the same compensator and cost to the bit
        finite = _velocity_free_outputs(measure, frozen, False, tmp_path / "finite")
        assert json.loads(finite[0]["sidecar"])["ledger"]["compensator_term"] == ledger["compensator_term"]
        assert finite[3] == compiled[3]
    assert math.isfinite(ledger["compensator_term"])
    assert ledger["hit_zero"] == (measure == "P" and frozen)  # log dQ/dP = -inf


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_freeze_rows_are_all_compiled(monkeypatch):
    # the two rows of B behind the ledger, the in-run cost and the replay
    calls = []
    for kind in (_TiltPairSum, _BSums):
        monkeypatch.setattr(kind, "rows", lambda self, sel, rows=kind.rows: calls.append(1) or rows(self, sel))
    theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    plan = kl.design_freeze_experiment(REF, theta, M=4.0, r=4)
    rng = kl.make_rng(410, 0)
    v0 = kl.sample_tilted_initial(REF, TiltingScheme(initial_tilt=plan.initial_tilt), 300, rng)
    scheme = kl.build_freeze_scheme(v0, plan)
    assert len(scheme.frozen_sets[0]) > 0
    cfg = kl.SimConfig(n=300, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=410)
    traj = kl.simulate(cfg, scheme, rng=rng, initial_state=kl.ParticleState(v0))
    cost, se = dynamic_cost(traj, scheme)
    assert traj.log.n_collisions > 0 and traj.rn_ledger.compensator_term != 0.0 and cost > 0.0
    assert calls == []


# ---------------------------------------------------------------------------
# the dynamic cost integrated during the run, against the replay


def _freeze_scheme_run(measure, seed):
    """A hard-sphere freeze scheme: frozen sets, then K = 1, with checkpoints
    inside the tilted interval."""
    theta = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    plan = kl.design_freeze_experiment(REF, theta, M=2.0, r=2)
    rng = kl.make_rng(seed, 0)
    v0 = kl.sample_tilted_initial(REF, TiltingScheme(initial_tilt=plan.initial_tilt), 120, rng)
    scheme = kl.build_freeze_scheme(v0, plan)
    assert len(scheme.frozen_sets[0]) > 0
    cfg = kl.SimConfig(n=120, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=seed, measure=measure,
                       checkpoint_times=(0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0))
    return kl.simulate(cfg, scheme, rng=rng, initial_state=kl.ParticleState(v0)), scheme


COST_RUNS = {
    "freeze_q": lambda: _freeze_scheme_run("Q", 421),
    "freeze_p_hit_zero": lambda: _freeze_scheme_run("P", 422),
    "maxwell_constant": lambda: (kl.simulate(kl.SimConfig(n=150, t_max=1.0, kernel=Kernel.MAXWELL, seed=423,
                                                          checkpoint_times=(0.0, 0.5, 1.0)),
                                             TiltingScheme.constant(1.5)), TiltingScheme.constant(1.5)),
    "hs_frozen_intervals": lambda: _run("hs_frozen_intervals"),
}


def _cost_outputs(traj):
    log = traj.log
    return (float(traj.dynamic_cost).hex(), repr(traj.rn_ledger.to_dict()), traj.final_state.velocities.tobytes(),
            *(getattr(log, name).tobytes() for name in ("t", "i", "j", "sigma", "assignment", "fictitious")))


@pytest.mark.parametrize("name", sorted(COST_RUNS))
def test_in_run_cost_is_the_replayed_exact_cost(name, monkeypatch):
    traj, scheme = COST_RUNS[name]()
    if name == "freeze_p_hit_zero":
        assert traj.rn_ledger.hit_zero
    assert traj.dynamic_cost > 0.0
    assert float(traj.dynamic_cost).hex() == float(dynamic_cost(traj, scheme, mode="exact")[0]).hex()
    # the Python loop, with numpy rows, integrates the same bits
    with monkeypatch.context() as m:
        m.setattr(engine._kloop, "_lib", None)
        python, _ = COST_RUNS[name]()
        assert float(dynamic_cost(python, scheme, mode="exact")[0]).hex() == float(python.dynamic_cost).hex()
    assert _cost_outputs(python) == _cost_outputs(traj)


def test_in_run_cost_without_a_scheme_and_at_positive_delta():
    cfg = kl.SimConfig(n=30, t_max=0.5, kernel=Kernel.MAXWELL, seed=424)
    assert kl.simulate(cfg).dynamic_cost == 0.0
    assert kl.simulate(cfg, TiltingScheme.identity()).dynamic_cost == 0.0
    # the kernel has no tau at delta > 0 that is numpy's to the bit
    assert kl.simulate(cfg, TiltingScheme.pairwise(1.0, 0.2)).dynamic_cost is None
    # and a run keeps no cost once one tracked interval has delta > 0
    mixed = TiltingScheme(breakpoints=np.array([0.0, 0.25, 0.5]), coeffs=np.array([1.2, 1.5]),
                          deltas=np.array([0.3, 0.0]), frozen_sets=[np.array([], int)] * 2)
    assert kl.simulate(cfg, mixed).dynamic_cost is None


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_distances_run_alike(monkeypatch):
    # two velocities whose distance overflows.  Maxwell molecules at delta =
    # 0 read no distance, so the ledger's compensator is the counts' closed
    # form, finite, and so is the cost, in both loops and in the replay.
    # Hard spheres read B = inf on that pair, so S_live and S_all are
    # infinite and the ledger's and the cost's sums NaN, in C and in numpy
    v0 = REF.sample(kl.make_rng(425), 40)
    v0[0] = (math.sqrt(0.8e308), 0.0, 0.0)
    v0[1] = -v0[0]
    scheme = TiltingScheme(coeffs=np.array([1.5]), frozen_sets=[np.array([2, 7])])
    cfg = kl.SimConfig(n=40, t_max=1.0, kernel=Kernel.MAXWELL, seed=425, checkpoint_times=(0.0, 0.5, 1.0))

    def run():
        return kl.simulate(cfg, scheme, initial_state=kl.ParticleState(v0))

    traj = run()
    closed = (0.5 * 38**2 - (40**2 - 38**2)) / 40  # T = 1
    assert traj.rn_ledger.compensator_term == pytest.approx(closed, rel=1e-12, abs=0.0)
    assert math.isfinite(traj.dynamic_cost)
    assert float(traj.dynamic_cost).hex() == float(dynamic_cost(traj, scheme, mode="exact")[0]).hex()
    hard = _BSums(v0, scheme, 0, 1.0)
    with monkeypatch.context() as m:
        m.setattr(engine._kloop, "_lib", None)
        python = run()
        hard_numpy = _BSums(v0, scheme, 0, 1.0)
    assert _cost_outputs(python) == _cost_outputs(traj)
    assert (hard.lib is None) == (shutil.which("gcc") is None) and hard_numpy.lib is None
    for sums in (hard, hard_numpy):
        assert sums.s_live == sums.s_all == math.inf
        assert math.isnan(sums.total) and math.isnan(sums.cost)
