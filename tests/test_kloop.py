"""The compiled proposal loop against the Python loop it compiles.

Every comparison runs the same seed twice: once as shipped, with the
compiled loop live wherever there is no ledger pair sum, and once with the
kernel handle set to None, which runs `_Engine.propose` everywhere.
"""

import json
import shutil

import numpy as np
import pytest

import kaclab as kl
from kaclab import _kloop
from kaclab.engine import MajorantViolationError, _Draws, _Engine, _EventBuffer
from kaclab.girsanov import RNLedger, TiltingScheme
from kaclab.kinetics import Kernel

HAVE_GCC = shutil.which("gcc") is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no C compiler")


@pytest.fixture
def compiled_calls(monkeypatch):
    """Count the segments run by the compiled loop."""
    calls = []
    original = _Engine._run_compiled

    def counted(self, lib, t_end):
        calls.append(t_end)
        return original(self, lib, t_end)

    monkeypatch.setattr(_Engine, "_run_compiled", counted)
    return calls


def _python_loop(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(_kloop, "_lib", None)
        return fn()


def _outputs(traj) -> dict:
    out = {"final": traj.final_state.velocities.tobytes(),
           "ledger": json.dumps(traj.rn_ledger.to_dict()),
           "checkpoints": json.dumps([cp.to_dict() for cp in traj.checkpoints])}
    if traj.log is not None:
        for name in ("t", "i", "j", "sigma", "assignment", "fictitious"):
            out[name] = getattr(traj.log, name).tobytes()
    return out


def _freeze_run():
    ref = kl.ReferenceMeasure(3)
    th = kl.ThetaSchedule(jump_times=(0.5,), levels=(1.0, 2.0), horizon=1.0)
    plan = kl.design_freeze_experiment(ref, th, M=2.0, r=2)
    rng = kl.make_rng(405, 0)
    v0 = kl.sample_tilted_initial(ref, TiltingScheme(initial_tilt=plan.initial_tilt), 60, rng)
    cfg = kl.SimConfig(n=60, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=405,
                       checkpoint_times=(0.0, 0.25, 0.5, 0.75, 1.0), truncation_thresholds=(1.0, 2.0))
    return kl.simulate(cfg, kl.build_freeze_scheme(v0, plan), rng=rng,
                       initial_state=kl.ParticleState(v0))


MIXTURE = kl.InitialCondition(kind="scale_mixture", weights=(0.2, 0.8), scales=(3.0, 0.5))
CASES = {
    **{f"{kernel.value}_n{n}": dict(n=n, kernel=kernel)
       for kernel in (Kernel.MAXWELL, Kernel.HARD_SPHERE) for n in (1, 2, 200)},
    "inflation": dict(n=50, kernel=Kernel.HARD_SPHERE, majorant_inflation=1.7),
    "scale_mixture": dict(n=80, kernel=Kernel.HARD_SPHERE, initial=MIXTURE),
    "no_log": dict(n=80, kernel=Kernel.HARD_SPHERE, store_log=False),
}


@needs_gcc
@pytest.mark.parametrize("name", sorted(CASES) + ["freeze"])
def test_compiled_loop_is_byte_identical(name, monkeypatch, compiled_calls):
    if name == "freeze":
        def run():
            return _freeze_run()
    else:
        cfg = kl.SimConfig(t_max=1.5, seed=91, checkpoint_times=(0.0, 0.5, 1.5),
                           truncation_thresholds=(1.0,), **CASES[name])

        def run():
            return kl.simulate(cfg)
    compiled = _outputs(run())
    assert compiled_calls, "the compiled loop did not run"
    n_compiled = len(compiled_calls)
    assert _outputs(_python_loop(monkeypatch, run)) == compiled
    assert len(compiled_calls) == n_compiled


@needs_gcc
def test_refills_and_buffer_growth_are_byte_identical(monkeypatch, compiled_calls):
    # 37 draws per buffer: every buffer refills many times, and the normals
    # discard the tail of their buffer; the event buffer grows from 1 row
    def run():
        rng = kl.make_rng(23)
        state = kl.ParticleState(kl.ReferenceMeasure(3).sample(rng, 50))
        eng = _Engine(state, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                      RNLedger(), _Draws(rng, chunk=37), _EventBuffer(3, capacity=1))
        for t_end in (0.3, 0.7, 2.0):
            eng.run_segment(t_end)
        log = eng.events.to_log(eng.n, eng.t)
        return [eng.t, eng.n_events, eng.n_collisions, eng.V.tobytes(), eng.fen.tree.tobytes(),
                eng.draws._iu, eng.draws._ie, eng.draws._in,
                *(getattr(log, name).tobytes() for name in ("t", "i", "j", "sigma", "assignment", "fictitious"))]

    compiled = run()
    assert len(compiled_calls) == 3 and compiled[1] > 200
    assert _python_loop(monkeypatch, run) == compiled


@needs_gcc
def test_compiled_loop_is_live(monkeypatch):
    """With a C compiler on the path the simulation must not fall back."""
    assert _kloop.kernel(3) is not None

    def refuse(self, t_end):
        raise AssertionError("Python proposal loop ran")

    monkeypatch.setattr(_Engine, "propose", refuse)
    cfg = kl.SimConfig(n=100, t_max=0.5, kernel=Kernel.HARD_SPHERE, seed=3)
    assert len(kl.simulate(cfg).log) > 0


@needs_gcc
def test_kernel_builds_without_warnings(tmp_path):
    proc = _kloop.compile_kernel(str(tmp_path / "kloop.so"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_in_place_refills_draw_fresh_arrays():
    draws = _Draws(kl.make_rng(8), chunk=64)
    buffers = (draws._u, draws._e, draws._n)
    for which in (0, 2, 1, 0):
        draws.refill(which)
    # the same stream drawn into fresh arrays: initial fills, then the refills
    rng = kl.make_rng(8)
    rng.random(64), rng.standard_exponential(64), rng.standard_normal(64)
    _, n_last, e_last, u_last = (rng.random(64), rng.standard_normal(64),
                                 rng.standard_exponential(64), rng.random(64))
    assert all(a is b for a, b in zip(buffers, (draws._u, draws._e, draws._n)))
    assert np.array_equal(draws._u, u_last)
    assert np.array_equal(draws._e, e_last)
    assert np.array_equal(draws._n, n_last)


# ---------------------------------------------------------------------------
# error parity: the same exception, message and engine state on both paths


def _failing_segment(v, corrupt_speeds=False):
    state = kl.ParticleState(np.array(v, dtype=float))
    eng = _Engine(state, Kernel.HARD_SPHERE, TiltingScheme.identity(), None,
                  RNLedger(), _Draws(kl.make_rng(14), chunk=64), _EventBuffer(3))
    eng.enter_segment(0.0)
    if corrupt_speeds:  # the cached speeds lie, so the majorant is too small
        eng.speeds[:] = 1e-9
        for idx in range(eng.n):
            eng.fen.update(idx, 1e-9)
    with pytest.raises(Exception) as info:
        eng.run_segment(50.0)
    return (type(info.value), str(info.value), eng.t, eng.n_events, eng.n_collisions,
            eng.V.tobytes(), eng.speeds.tobytes(), eng.fen.tree.tobytes(),
            eng.draws._iu, eng.draws._ie, eng.draws._in, eng.events.size)


ERROR_CASES = {
    # a collision sends one speed^2 past the largest double: the Fenwick
    # update refuses the infinite weight
    "infinite_speed": ([[1e154, 0.5e154, 0.0], [1e154, -0.5e154, 0.0]], False, ValueError),
    # |v_i - v_j|^2 overflows, so K*B = inf exceeds the finite majorant
    "infinite_distance": ([[1.2e154, 0.0, 0.0], [-1.2e154, 0.0, 0.0]], False, MajorantViolationError),
    "corrupt_speeds": (np.random.default_rng(14).normal(size=(16, 3)) + 3.0, True,
                       MajorantViolationError),
}


@needs_gcc
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_errors_match_python_loop(name, monkeypatch, compiled_calls):
    v, corrupt, exc_type = ERROR_CASES[name]
    compiled = _failing_segment(v, corrupt)
    assert compiled_calls
    assert compiled[0] is exc_type
    assert _python_loop(monkeypatch, lambda: _failing_segment(v, corrupt)) == compiled


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_huge_velocity_fails_alike(monkeypatch):
    # a velocity of 1e200 has an infinite speed, which no Fenwick tree takes
    cfg = kl.SimConfig(n=3, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=2)
    state = kl.ParticleState(np.array([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    messages = []
    for force_python in (False, True):
        with monkeypatch.context() as m:
            if force_python:
                m.setattr(_kloop, "_lib", None)
            with pytest.raises(ValueError) as info:
                kl.simulate(cfg, initial_state=state)
            messages.append(str(info.value))
    assert messages[0] == messages[1] == "weights must be finite and nonnegative"


# ---------------------------------------------------------------------------
# tracked segments: the tilt rows, their sum, and the ledger in the kernel

from kaclab.engine import _k_itself, _k_minus_1, _TiltRows  # noqa: E402
from kaclab.rate_function import tau  # noqa: E402


def _frozen_scheme(delta):
    return TiltingScheme(breakpoints=np.array([0.0, 0.5, 1.0]), coeffs=np.array([1.25, 0.8]),
                         deltas=np.array([delta, delta]),
                         frozen_sets=[np.array([0, 3, 5]), np.array([], int)],
                         multiplier_bound=2.0)


@needs_gcc
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("f", ["k_minus_1", "k", "tau"])
def test_row_kernel_matches_numpy_rows(f, frozen, beta, d):
    func = {"k_minus_1": _k_minus_1, "k": _k_itself, "tau": tau}[f]
    rng = np.random.default_rng(7 * d)
    # a table f serves delta = 0 only; K - 1 and K run in C for every delta
    deltas = (0.0,) if f == "tau" else (0.0, 0.3)
    for delta in deltas:
        scheme = _frozen_scheme(delta)
        for n in (1, 7, 300):
            v = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
            rows = _TiltRows(v, scheme, 0 if frozen else 1, beta, func)
            assert rows.lib is not None
            for sel in (slice(0, n), slice(n // 2, n + 5), slice(n - 1, None), slice(-1, 0)):
                assert rows(sel).tobytes() == rows.numpy(sel).tobytes(), (delta, n, sel)


@needs_gcc
def test_pair_sum_matches_numpy_sum():
    lib = _kloop.kernel(3)
    rng = np.random.default_rng(31)
    for n in (*range(1, 301), 12345):
        a = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8.0, 9.0, (2, n))
        assert lib.kac_sum(a.ctypes.data, 2 * n) == float(a.sum()), n
    zeros = -np.zeros((2, 8))  # the reduction starts from +0.0
    assert str(lib.kac_sum(zeros.ctypes.data, 16)) == str(float(zeros.sum())) == "0.0"


@needs_gcc
def test_sum_check_gates_only_the_pair_sum_rows(monkeypatch, tracked_calls):
    lib = _kloop.kernel(3)
    assert lib is not None and _kloop.kernel(3, sums=True) is lib
    monkeypatch.setattr(_kloop, "_sum_ok", False)
    assert _kloop.kernel(3) is lib and _kloop.kernel(3, sums=True) is None
    # the tracked interval runs in Python, the K = 1 one still compiled
    scheme = TiltingScheme(breakpoints=np.array([0.0, 0.5, 1.0]), coeffs=np.array([1.25, 1.0]),
                           deltas=np.zeros(2), frozen_sets=[np.array([0, 3, 5]), np.array([], int)],
                           multiplier_bound=2.0)
    eng = _tracked_engine(scheme=scheme)
    eng.run_segment(0.5)
    assert eng.tracker.h.lib is None
    eng.run_segment(1.0)
    assert tracked_calls == [False] and eng.n_events > 0


@pytest.fixture
def tracked_calls(monkeypatch):
    """For each segment run by the compiled loop: did it carry a ledger pair sum?"""
    calls = []
    original = _Engine._run_compiled

    def counted(self, lib, t_end):
        calls.append(self.tracker is not None)
        return original(self, lib, t_end)

    monkeypatch.setattr(_Engine, "_run_compiled", counted)
    return calls


def _hit_zero_run():
    # measure P collides the particles the ledger scheme freezes: hit_zero
    cfg = kl.SimConfig(n=40, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=77, measure="P",
                       checkpoint_times=(0.0, 0.25, 0.5, 1.0))
    traj = kl.simulate(cfg, _frozen_scheme(0.0))
    assert traj.rn_ledger.hit_zero
    return traj


PAIRWISE = TiltingScheme.pairwise(1.0, 0.2)
TRACKED = {
    **{f"pairwise_{m}_n{n}": (dict(n=n, measure=m, kernel=Kernel.MAXWELL), PAIRWISE)
       for m in ("P", "Q") for n in (1, 2, 200)},
    "constant": (dict(n=150, kernel=Kernel.MAXWELL), TiltingScheme.constant(1.5)),
    "constant_hs": (dict(n=60, kernel=Kernel.HARD_SPHERE), TiltingScheme.constant(1.5)),
    "frozen_q": (dict(n=60, kernel=Kernel.HARD_SPHERE), _frozen_scheme(0.0)),
    "frozen_maxwell_delta": (dict(n=60, kernel=Kernel.MAXWELL), _frozen_scheme(0.3)),
}


@needs_gcc
@pytest.mark.parametrize("name", sorted(TRACKED) + ["hit_zero", "freeze"])
def test_tracked_runs_are_byte_identical(name, monkeypatch, tracked_calls):
    if name == "hit_zero":
        run = _hit_zero_run
    elif name == "freeze":
        run = _freeze_run
    else:
        kwargs, scheme = TRACKED[name]
        cfg = kl.SimConfig(t_max=1.0, seed=93, checkpoint_times=(0.0, 0.3, 1.0),
                           truncation_thresholds=(1.0,), **kwargs)

        def run():
            return kl.simulate(cfg, scheme)
    compiled = run()
    assert any(tracked_calls), "no tracked segment ran in the compiled loop"
    n_calls = len(tracked_calls)
    python = _python_loop(monkeypatch, run)
    assert len(tracked_calls) == n_calls
    assert _outputs(python) == _outputs(compiled)
    # all four ledger terms, to the bit
    for term in ("initial_term", "jump_term", "compensator_term"):
        assert float(getattr(python.rn_ledger, term)).hex() == float(getattr(compiled.rn_ledger, term)).hex()
    assert python.rn_ledger.hit_zero is compiled.rn_ledger.hit_zero


def _tracked_engine(chunk=37, capacity=1, scheme=None):
    rng = kl.make_rng(29)
    state = kl.ParticleState(kl.ReferenceMeasure(3).sample(rng, 50))
    scheme = scheme if scheme is not None else _frozen_scheme(0.0)
    return _Engine(state, Kernel.HARD_SPHERE, TiltingScheme.identity(), scheme,
                   RNLedger(), _Draws(rng, chunk=chunk), _EventBuffer(3, capacity=capacity))


@needs_gcc
def test_tracked_refills_and_buffer_growth_are_byte_identical(monkeypatch, tracked_calls):
    # a 1-row event buffer and 37-draw buffers, through a tracked interval
    # and into the K = 1 one
    scheme = TiltingScheme(breakpoints=np.array([0.0, 0.5, 1.0]), coeffs=np.array([1.25, 1.0]),
                           deltas=np.zeros(2), frozen_sets=[np.array([0, 3, 5]), np.array([], int)],
                           multiplier_bound=2.0)

    def run():
        eng = _tracked_engine(scheme=scheme)
        out = []
        for t_end in (0.2, 0.5, 0.8, 1.0):
            eng.run_segment(t_end)
            out.append(float(eng.tracker.total).hex() if eng.tracker is not None else None)
        log = eng.events.to_log(eng.n, eng.t)
        columns = ("t", "i", "j", "sigma", "assignment", "fictitious")
        return [*out, eng.t, eng.n_events, eng.n_collisions, eng.V.tobytes(), eng.fen.tree.tobytes(),
                eng.draws._iu, eng.draws._ie, eng.draws._in, json.dumps(eng.ledger.to_dict()),
                *(getattr(log, name).tobytes() for name in columns)]

    compiled = run()
    assert tracked_calls == [True, True, False, False] and compiled[5] > 100
    assert _python_loop(monkeypatch, run) == compiled


@needs_gcc
def test_tracked_majorant_violation_matches_python_loop(monkeypatch, tracked_calls):
    def fail():
        eng = _tracked_engine(chunk=64, capacity=16)
        eng.enter_segment(0.0)
        eng.speeds[:] = 1e-9  # the cached speeds lie, so the majorant is too small
        for idx in range(eng.n):
            eng.fen.update(idx, 1e-9)
        with pytest.raises(MajorantViolationError) as info:
            eng.run_segment(0.5)
        return (str(info.value), eng.t, eng.n_events, eng.n_collisions, eng.V.tobytes(),
                float(eng.tracker.total).hex(), json.dumps(eng.ledger.to_dict()), eng.events.size)

    compiled = fail()
    assert tracked_calls == [True]
    assert _python_loop(monkeypatch, fail) == compiled


@needs_gcc
def test_freeze_run_calls_no_python_propose(monkeypatch):
    """With a C compiler on the path, tracked segments do not fall back."""
    def refuse(self, t_end):
        raise AssertionError("Python proposal loop ran")

    monkeypatch.setattr(_Engine, "propose", refuse)
    traj = _freeze_run()
    assert traj.log.n_collisions > 0 and traj.rn_ledger.compensator_term != 0.0
