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
