"""The compiled proposal loop against the Python loop it compiles.

Every comparison runs the same seed twice: once as shipped, with the
compiled loop live wherever there is no ledger pair sum, and once with the
kernel handle set to None, which runs `_Engine.propose` everywhere.
"""

import ctypes
import json
import math
import os
import shutil

import numpy as np
import pytest

import kaclab as kl
from kaclab import _kloop
from kaclab.engine import MajorantViolationError, _Draws, _Engine, _EventBuffer, replay_rows
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
    grown_from = []
    monkeypatch.setattr(_EventBuffer, "_grow",
                        lambda self, grow=_EventBuffer._grow: grown_from.append(len(self.t)) or grow(self))

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
    assert grown_from[:3] == [1, 2, 4]
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
    # both libraries as loaded, and with the clones compiled out
    for source in (_kloop.SOURCE, _kloop.TOOLS_SOURCE):
        for extra in ((), ("-DKAC_NO_CLONES",)):
            proc = _kloop.compile_kernel(str(tmp_path / "kloop.so"), *extra, source=source)
            assert proc.returncode == 0, (source, extra)
            assert proc.stderr == "", (source, extra)


@needs_gcc
def test_a_build_removes_the_older_libraries_of_its_source(tmp_path, monkeypatch):
    # the libraries of other versions of either source go; nothing else does
    monkeypatch.setattr(_kloop, "BUILD_DIR", str(tmp_path))
    stale = ["_kloop_0123456789abcdef.so", "_ktools_0123456789abcdef.so"]
    kept = ["_kloop.so", "_kloop_notes.txt", "_kloopx_0123456789abcdef.so", "other.so"]
    for name in stale + kept:
        (tmp_path / name).write_bytes(b"")
    lib = _kloop._load()
    assert lib is not None and lib.kac_sum(None, 0) == 0.0
    built = _kloop._build([_kloop.SOURCE, _kloop.TOOLS_SOURCE])
    assert sorted(os.listdir(tmp_path)) == sorted(kept + [os.path.basename(p) for p in built])


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


@needs_gcc
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_maxwell_accepts_pairs_at_an_overflowing_distance(monkeypatch):
    # K B is c on every pair of Maxwell molecules, so an untilted run accepts
    # every proposal, and a delta = 0 ledger's K is c: |v_i - v_j|^2
    # overflows on the pair (0, 1), and c (1 + 0 inf) would be NaN
    v0 = np.array([[math.sqrt(0.8e308), 0.0, 0.0], [-math.sqrt(0.8e308), 0.0, 0.0], [0.0, 1.0, 0.0]])
    runs = {"untilted": (None, "Q"), "constant_p": (TiltingScheme.constant(1.5), "P"),
            "constant_q": (TiltingScheme.constant(1.5), "Q")}

    def run(name):
        scheme, measure = runs[name]
        cfg = kl.SimConfig(n=3, t_max=200.0, kernel=Kernel.MAXWELL, seed=1, measure=measure)
        return kl.simulate(cfg, scheme, initial_state=kl.ParticleState(v0))

    for name in runs:
        traj = run(name)
        log = traj.log
        assert not np.any(log.fictitious), name
        before = replay_rows(v0.copy(), log, pairs=True)[:, :2]
        overflowing = (log.i != log.j) & np.isinf(np.sum((before[:, 0] - before[:, 1]) ** 2, axis=1))
        assert np.count_nonzero(overflowing) > 100, name
        ledger = traj.rn_ledger
        assert math.isfinite(ledger.jump_term) and math.isfinite(ledger.compensator_term), name
        if name != "untilted":
            assert ledger.jump_term == pytest.approx(len(log) * math.log(1.5), rel=1e-12)
            assert math.isfinite(traj.dynamic_cost)
        assert _outputs(_python_loop(monkeypatch, lambda: run(name))) == _outputs(traj), name


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

from test_pair_sums import tilt_sum  # noqa: E402

from kaclab.engine import _k_itself, _k_minus_1, _TiltPairSum  # noqa: E402
from kaclab.rate_function import tau  # noqa: E402


def _frozen_scheme(delta):
    return TiltingScheme(breakpoints=np.array([0.0, 0.5, 1.0]), coeffs=np.array([1.25, 0.8]),
                         deltas=np.array([delta, delta]),
                         frozen_sets=[np.array([0, 3, 5]), np.array([], int)])


@needs_gcc
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("f", ["k_minus_1", "k", "tau"])
def test_row_kernel_matches_numpy_rows(f, frozen, beta, d):
    # the kernel makes the K - 1 rows of delta > 0 and the two rows of B of
    # delta = 0 (at beta = 0 the engine asks for none: they are 1 and live_a
    # live_b); every pair sum of f(K) B at delta = 0 is affine in the latter
    func = {"k_minus_1": _k_minus_1, "k": _k_itself, "tau": tau}[f]
    rng = np.random.default_rng(7 * d)
    for delta in (0.0, 0.3) if f == "k_minus_1" else (0.0,):
        scheme = _frozen_scheme(delta)
        for n in (1, 7, 300):
            v = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
            pair_sum, read = tilt_sum(v, scheme, 0 if frozen else 1, beta, func)
            assert pair_sum.lib is not None
            got = _rows_of(pair_sum.lib, pair_sum, n)[0]  # one block of every row
            for sel in (slice(0, n), slice(n // 2, n + 5), slice(n - 1, None), slice(-1, 0)):
                assert got[:, sel].tobytes() == _numpy_rows(pair_sum, sel).tobytes(), (delta, n, sel)
            # the numpy rows of f(K) B itself
            oracle = _TiltPairSum(v, scheme, 0 if frozen else 1, beta, func)
            assert oracle.lib is None or delta > 0.0
            assert read() == pytest.approx(oracle.total, rel=1e-10, abs=0.0), (delta, n)


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
                           deltas=np.zeros(2), frozen_sets=[np.array([0, 3, 5]), np.array([], int)])
    eng = _tracked_engine(scheme=scheme)
    eng.run_segment(0.5)
    assert eng.tracker.lib is None
    eng.run_segment(1.0)
    assert tracked_calls == [False] and eng.n_events > 0
    # a Maxwell interval at delta = 0 has no rows, so it runs compiled
    eng = _tracked_engine(scheme=scheme, kernel=Kernel.MAXWELL)
    eng.run_segment(0.5)
    assert eng.tracker.lib is lib
    eng.run_segment(1.0)
    assert tracked_calls == [False, True, False] and eng.n_collisions > 0


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


def _hit_zero_run(d=3):
    # measure P collides the particles the ledger scheme freezes: hit_zero
    cfg = kl.SimConfig(n=40, t_max=1.0, kernel=Kernel.HARD_SPHERE, seed=77, measure="P", d=d,
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
    # the rows at d != 3: the same element arithmetic with d read at run time;
    # the hard-sphere runs at delta = 0 carry the cost
    **{f"frozen_q_d{d}": (dict(n=60, d=d, kernel=Kernel.HARD_SPHERE), _frozen_scheme(0.0))
       for d in (1, 2, 5)},
    **{f"frozen_maxwell_delta_d{d}": (dict(n=60, d=d, kernel=Kernel.MAXWELL), _frozen_scheme(0.3))
       for d in (1, 2, 5)},
}


@needs_gcc
@pytest.mark.parametrize("name", sorted(TRACKED) + ["hit_zero", "hit_zero_d2", "freeze"])
def test_tracked_runs_are_byte_identical(name, monkeypatch, tracked_calls):
    if name == "hit_zero":
        run = _hit_zero_run
    elif name == "hit_zero_d2":
        def run():
            return _hit_zero_run(d=2)
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
    assert repr(python.dynamic_cost) == repr(compiled.dynamic_cost)
    if name.startswith("frozen_q"):  # delta = 0: the run integrates the cost
        assert compiled.dynamic_cost > 0.0


def _tracked_engine(chunk=37, capacity=1, scheme=None, kernel=Kernel.HARD_SPHERE):
    rng = kl.make_rng(29)
    state = kl.ParticleState(kl.ReferenceMeasure(3).sample(rng, 50))
    scheme = scheme if scheme is not None else _frozen_scheme(0.0)
    return _Engine(state, kernel, TiltingScheme.identity(), scheme,
                   RNLedger(), _Draws(rng, chunk=chunk), _EventBuffer(3, capacity=capacity))


@needs_gcc
def test_tracked_refills_and_buffer_growth_are_byte_identical(monkeypatch, tracked_calls):
    # a 1-row event buffer and 37-draw buffers, through a tracked interval
    # and into the K = 1 one
    scheme = TiltingScheme(breakpoints=np.array([0.0, 0.5, 1.0]), coeffs=np.array([1.25, 1.0]),
                           deltas=np.zeros(2), frozen_sets=[np.array([0, 3, 5]), np.array([], int)])

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


@needs_gcc
@pytest.mark.parametrize("name", ["pairwise_Q_n200", "frozen_q"])
def test_python_loop_writes_python_floats(name, monkeypatch):
    # the compiled loop writes Python floats; the Python loop must too, or a
    # ledger's repr would say which loop ran (np.float64(...))
    kwargs, scheme = TRACKED[name]
    cfg = kl.SimConfig(t_max=1.0, seed=95, checkpoint_times=(0.0, 0.3, 1.0), **kwargs)

    def ledgers(traj):
        return [traj.rn_ledger] + [cp.ledger for cp in traj.checkpoints]

    compiled = kl.simulate(cfg, scheme)
    python = _python_loop(monkeypatch, lambda: kl.simulate(cfg, scheme))
    for a, b in zip(ledgers(python), ledgers(compiled), strict=True):
        for term in ("initial_term", "jump_term", "compensator_term"):
            assert type(getattr(a, term)) is float and repr(getattr(a, term)) == repr(getattr(b, term))
    # the clock between events, which only the Python loop's step() returns
    state, event = kl.step(kl.ParticleState(compiled.final_state.velocities), cfg.kernel, scheme, kl.make_rng(95))
    assert type(state.time) is float and state.time == event.time > 0.0


# ---------------------------------------------------------------------------
# the baseline build of the proposal loop and the rows, which a host with
# AVX2 and FMA never runs from the library as loaded (there the loader picks
# the x86-64-v3 clones)


@pytest.fixture(scope="module")
def baseline_lib(tmp_path_factory):
    """_kloop.c built with its clones compiled out, and _ktools.c with the
    same flag."""
    libs = []
    for source in (_kloop.SOURCE, _kloop.TOOLS_SOURCE):
        path = tmp_path_factory.mktemp("baseline") / "lib.so"
        proc = _kloop.compile_kernel(str(path), "-DKAC_NO_CLONES", source=source)
        assert proc.returncode == 0, proc.stderr
        libs.append(ctypes.CDLL(str(path)))
    return _kloop.bind(*libs)


def _kinds(pair_sum):
    """The kinds of row of a tilt pair sum: (K - 1) B, or at delta = 0 B live_a live_b and B."""
    return 2 if pair_sum.delta == 0.0 else 1


def _numpy_rows(pair_sum, sel):
    """numpy's rows of a tilt pair sum, (kinds, rows, n)."""
    return pair_sum.rows(sel).reshape(_kinds(pair_sum), -1, len(pair_sum.v))


def _rows_of(lib, pair_sum, step):
    """kac_rows of one library in blocks of step rows: the last block's
    rows of each kind, (kinds, rows, n), and the two sums of each block."""
    n = len(pair_sum.v)
    out, sums = np.empty((2, step, n)), np.empty((-(-n // step), 2))
    lib.kac_rows(pair_sum.spec, step, out.ctypes.data, sums.ctypes.data)
    last = (n - 1) // step * step
    return out[: _kinds(pair_sum), : n - last], sums


@needs_gcc
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("f", ["k_minus_1", "table"])
def test_baseline_rows_match_dispatched_and_numpy(baseline_lib, f, frozen, beta, d):
    # "k_minus_1": the K - 1 rows of delta > 0; "table": the two rows of B of
    # delta = 0, which every pair sum there is made of
    rng = np.random.default_rng(13 * d)
    n = 41
    v = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
    v[4, min(1, d - 1)] = np.inf  # row and column 4 hold non-finite distances
    scheme = _frozen_scheme(0.3 if f == "k_minus_1" else 0.0)
    pair_sum = tilt_sum(v, scheme, 0 if frozen else 1, beta, _k_minus_1)[0]
    lib, kinds = pair_sum.lib, _kinds(pair_sum)
    assert lib is not None and lib is not baseline_lib
    for step in (n, n // 2, 1):
        got = [[x.tobytes() for x in _rows_of(each, pair_sum, step)] for each in (baseline_lib, lib)]
        assert got[0] == got[1], step
        # the last block's rows, and each block summed as numpy sums it
        last = slice((n - 1) // step * step, n)
        assert got[0][0] == _numpy_rows(pair_sum, last).tobytes()
        want = [[float(part.sum()) for part in _numpy_rows(pair_sum, slice(a, a + step))] + [0.0] * (2 - kinds)
                for a in range(0, n, step)]
        assert got[0][1] == np.array(want).tobytes(), step
    # a collision's rows and update: (4, 0) crosses the non-finite row,
    # (3, 5) is a frozen pair in interval 0
    for i, j in ((4, 0), (3, 5), (10, 27)):
        saved = []
        for each in (baseline_lib, lib):
            each.kac_pair_rows(pair_sum.spec, i, j)
            saved.append(pair_sum.scratch[4 * n:].tobytes())
        assert saved[0] == saved[1] == v[[i, j]].tobytes(), (i, j)
        old = _numpy_rows(pair_sum, np.array([i, j]))
        v[i] += 0.25
        v[j] -= 0.5
        updates = []
        for each in (baseline_lib, lib):  # the saved velocities stay as they are
            change = np.zeros(2)
            each.kac_pair_update(pair_sum.spec, i, j, change.ctypes.data)
            updates.append((change.tobytes(), pair_sum.scratch[: 2 * kinds * n].tobytes()))
        dh = _numpy_rows(pair_sum, np.array([i, j])) - old
        change = [kl.engine._settle(part, i, j) for part in dh] + [0.0] * (2 - kinds)
        assert updates[0] == updates[1] == (np.array(change).tobytes(), dh.tobytes()), (i, j)


def _pair_updates(f, delta, beta, d, lib):
    """Collide pairs at the ends and side by side, frozen or not, and across
    a distance that overflows, with the pair sum's update in `lib` and with
    numpy's update; the pair sum of f (hex) and dh (bytes) after each."""
    rng = np.random.default_rng(17 + d)
    n = 12
    v = rng.standard_normal((n, d))
    v[8, 0], v[9, 0] = 0.9e154, -0.9e154  # |v_8 - v_9|^2 overflows: K or B is not finite there
    pair_sum, read = tilt_sum(v, _frozen_scheme(delta), 0, beta, f)  # 0, 3 and 5 frozen on interval 0
    assert (pair_sum.lib is not None) == (lib is not None)
    rows = delta > 0.0 or beta > 0.0  # Maxwell molecules at delta = 0 have none
    out = [float(read()).hex()]
    for i, j in ((0, n - 1), (n - 1, 0), (5, 6), (6, 5), (0, 3), (4, 3), (8, 9), (9, 2), (7, 8)):
        old = _numpy_rows(pair_sum, np.array([i, j])) if rows else None
        pre = pair_sum.pre_collision(i, j)
        sigma = rng.standard_normal(d)
        kl.engine.apply_collision(v, i, j, sigma / np.sqrt(sigma @ sigma))
        pair_sum.post_collision(i, j, pre)
        dh = _numpy_rows(pair_sum, np.array([i, j])) - old if rows else np.empty(0)
        if lib is not None:  # the kernel's dh, left in its scratch
            assert pair_sum.scratch[: dh.size].tobytes() == dh.tobytes(), (i, j)
        out.append((float(read()).hex(), dh.tobytes()))
    return out


@needs_gcc
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("f, delta, beta", [("k_minus_1", 0.0, 1.0), ("k_minus_1", 0.3, 0.0),
                                            ("tau", 0.0, 1.0), ("tau", 0.0, 0.0)])
def test_pair_update_matches_numpy_on_the_patched_entries(f, delta, beta, d, monkeypatch):
    # a collision's pass over the row of i or j reads the new v_i and v_j at
    # b in {i, j}; those four entries are made again from the saved
    # velocities, and the update must still be numpy's to the bit
    func = {"k_minus_1": _k_minus_1, "tau": tau}[f]
    compiled = _pair_updates(func, delta, beta, d, _kloop.kernel(d, sums=True))
    with monkeypatch.context() as m:
        m.setattr(_kloop, "_lib", None)
        assert _pair_updates(func, delta, beta, d, None) == compiled


def _swapped_cost_run():
    """Hard spheres at delta = 0 on 8 particles, measure P, with 0, 3 and 5
    frozen by the ledger's scheme until t = 2: the run integrates the cost."""
    scheme = TiltingScheme(breakpoints=np.array([0.0, 2.0, 4.0]), coeffs=np.array([1.25, 0.8]),
                           deltas=np.zeros(2), frozen_sets=[np.array([0, 3, 5]), np.array([], int)])
    cfg = kl.SimConfig(n=8, t_max=4.0, kernel=Kernel.HARD_SPHERE, seed=431, measure="P",
                       checkpoint_times=(0.0, 1.0, 2.0, 4.0))
    return kl.simulate(cfg, scheme), scheme


@needs_gcc
def test_swapped_collisions_keep_the_in_run_cost_exact(monkeypatch, tracked_calls):
    # kac_run moves the pair sums at the recorded pair, (j, i) when the
    # assignment swaps it, as the replay does; the in-run cost is the exact
    # replay's
    from kaclab.rate_function import dynamic_cost

    traj, scheme = _swapped_cost_run()
    assert all(tracked_calls)
    log = traj.log
    hit = ~log.fictitious & (log.i != log.j)
    swapped = hit & (log.assignment >= 2)
    pairs = {(int(a), int(b)) for a, b in zip(log.i[swapped], log.j[swapped])}
    frozen = {0, 3, 5}
    assert any(abs(a - b) == 1 for a, b in pairs)  # side by side
    assert pairs & {(0, 7), (7, 0)}  # the two ends
    assert any(a in frozen or b in frozen for a, b in pairs)
    assert traj.rn_ledger.hit_zero and traj.dynamic_cost > 0.0
    assert float(traj.dynamic_cost).hex() == float(dynamic_cost(traj, scheme, mode="exact")[0]).hex()
    python, _ = _python_loop(monkeypatch, _swapped_cost_run)
    assert float(python.dynamic_cost).hex() == float(traj.dynamic_cost).hex()
    assert _outputs(python) == _outputs(traj)


def _untilted_engine_run(kernel, d):
    """An untilted run of 200 particles in R^d, in two segments: its log
    columns, final velocities and Fenwick tree (None without one)."""
    rng = kl.make_rng(98, d)
    state = kl.ParticleState(kl.ReferenceMeasure(d).sample(rng, 200))
    eng = _Engine(state, kernel, TiltingScheme.identity(), None, RNLedger(),
                  _Draws.sized_for(rng, 200, 1.0, d), _EventBuffer(d))
    for t_end in (0.4, 1.0):
        eng.run_segment(t_end)
    log = eng.events.to_log(eng.n, eng.t)
    return {"final": eng.V.tobytes(), "fenwick": None if eng.fen is None else eng.fen.tree.tobytes(),
            **{name: getattr(log, name).tobytes() for name in ("t", "i", "j", "sigma", "assignment", "fictitious")}}


UNTILTED = {**{f"untilted_hs_d{d}": (Kernel.HARD_SPHERE, d) for d in (1, 2, 3, 5, 15)},
            "untilted_maxwell_d3": (Kernel.MAXWELL, 3)}


@needs_gcc
@pytest.mark.parametrize("name", ["freeze", "frozen_q", "frozen_maxwell_delta", "pairwise_Q_n200",
                                  *UNTILTED])
def test_baseline_build_runs_byte_identical(name, baseline_lib, monkeypatch, tracked_calls):
    # the proposal loop's clone against the baseline build, whose dot products
    # call glibc's fma; and the ledger's rows in kac_run: K - 1 at delta > 0,
    # at delta = 0 the two rows of B, which also give the cost
    def outputs(traj):
        return {**_outputs(traj), "cost": repr(traj.dynamic_cost),
                **{term: float(getattr(traj.rn_ledger, term)).hex()
                   for term in ("initial_term", "jump_term", "compensator_term")}}

    if name in UNTILTED:
        def run():
            return _untilted_engine_run(*UNTILTED[name])
    elif name == "freeze":
        def run():
            return outputs(_freeze_run())
    else:
        kwargs, scheme = TRACKED[name]
        cfg = kl.SimConfig(t_max=1.0, seed=97, checkpoint_times=(0.0, 0.3, 1.0), **kwargs)

        def run():
            return outputs(kl.simulate(cfg, scheme))

    dispatched = run()
    assert tracked_calls and any(tracked_calls) == (name not in UNTILTED)
    n_calls = len(tracked_calls)
    with monkeypatch.context() as m:
        m.setattr(_kloop, "_lib", baseline_lib)
        baseline = run()
    assert len(tracked_calls) == 2 * n_calls  # the baseline build ran every segment too
    if name in UNTILTED:
        assert (baseline["fenwick"] is None) == (UNTILTED[name][0] is Kernel.MAXWELL)
    else:
        assert (baseline["cost"] != "None") == (name in ("freeze", "frozen_q"))  # delta = 0
    assert baseline == dispatched


@needs_gcc
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_baseline_pairs_match_dispatched(baseline_lib, d):
    # kac_transport prices its pairs uncloned and unfused: a clone of it or a
    # flag that fused its sums of squares would move the costs off cdist's
    # bytes.  One atom a side at weight 1 costs the pair's distance below the
    # cap, 2, and exactly 2 at or above it, on either library
    from scipy.spatial.distance import cdist
    from test_metrics import cap_pairs_points

    from kaclab.metrics import _simplex_route

    p1, p2 = cap_pairs_points(d, np.random.default_rng(120 + d))
    lib = _kloop.library()
    assert lib is not None and lib is not baseline_lib
    dense = cdist(p1, p2)
    want = np.where(dense < 2.0, dense, 2.0)
    one = np.ones(1)
    for each in (lib, baseline_lib):
        got = [[_simplex_route(each, a[None], one, b[None], one) for b in p2] for a in p1]
        assert np.array(got).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the compiled log walk, kac_replay, against the Python walker

from test_engine import GOLDEN_DIGESTS, _golden_run  # noqa: E402

from kaclab import config_io  # noqa: E402
from kaclab.engine import final_state_from_log, replay_events  # noqa: E402
from kaclab.rate_function import TestFunctionDescriptor, dynamic_cost, xi_functionals  # noqa: E402


def _small_run(d):
    # five particles: diagonal proposals are one in five, and hard spheres
    # reject some, so the log has fictitious and diagonal rows
    cfg = kl.SimConfig(n=5, t_max=6.0, d=d, kernel=Kernel.HARD_SPHERE, seed=400 + d)
    return kl.simulate(cfg)


REPLAY_CASES = {**{name: lambda name=name: _golden_run(name) for name in GOLDEN_DIGESTS},
                "small_d2": lambda: _small_run(2), "small_d3": lambda: _small_run(3),
                "maxwell_d2": lambda: kl.simulate(kl.SimConfig(n=30, t_max=1.0, d=2, seed=406))}


@needs_gcc
@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_compiled_walk_is_byte_identical(name, monkeypatch):
    traj = REPLAY_CASES[name]()
    log, m = traj.log, len(traj.log)
    if name.startswith("small"):
        real = ~log.fictitious
        assert np.any(log.fictitious) and np.any(real & (log.i == log.j)) and np.any(real & (log.i != log.j))
    assert _kloop.kernel(traj.initial_state.d) is not None
    # consecutive sub-ranges, an empty one and an overlong stop among them
    bounds = [(0, m // 3), (m // 3, m // 3), (m // 3, m // 2), (m // 2, m + 7)]
    v_c, v_p, v_o = (traj.initial_state.velocities.copy() for _ in range(3))
    for start, stop in bounds:
        pairs = replay_rows(v_c, log, start, stop, pairs=True)
        want = _python_loop(monkeypatch, lambda: replay_rows(v_p, log, start, stop, pairs=True))
        for _ in replay_events(v_o, log, start, stop):
            pass
        assert pairs.shape == (np.count_nonzero(~log.fictitious[start:stop]), 4, log.sigma.shape[1])
        assert pairs.tobytes() == want.tobytes()
        assert v_c.tobytes() == v_p.tobytes() == v_o.tobytes()
    assert v_c.tobytes() == traj.final_state.velocities.tobytes()
    assert replay_rows(traj.initial_state.velocities.copy(), log) is None


def _readers(traj, tmp_path):
    """Every reader of a log that walks it without a pair sum, and Xi_2."""
    ref = kl.ReferenceMeasure(traj.initial_state.d)
    flux = kl.flux_measure(traj)
    out = {"final": final_state_from_log(traj.initial_state, traj.log).velocities.tobytes(),
           "flux": flux.points.tobytes() + flux.weights.tobytes()}
    paths = config_io.save_trajectory(str(tmp_path), traj)
    out["replay"] = json.dumps(config_io.replay(paths["sidecar"], paths["events"])[1])
    g = TestFunctionDescriptor(kind="flux_test", coeff=0.5, sigma_coupling=0.3)
    for b_kind in ("constant", "coordinate", "energy", "radial_bump"):
        for a_kind, a_param in (("sin", 1.7), ("poly", 2.0)):
            f = TestFunctionDescriptor(kind="product", coeff=0.8, axis=1, radius=1.5,
                                       a_kind=a_kind, a_param=a_param, b_kind=b_kind)
            out[b_kind, a_kind] = [x.hex() for x in xi_functionals(traj, None, f, None, ref)]
            out[b_kind, a_kind, "g"] = [x.hex() for x in xi_functionals(traj, None, f, g, ref)]
    scheme = TiltingScheme(breakpoints=np.array([0.0, 0.4, 0.7, 1.0]), coeffs=np.array([1.0, 1.3, 1.0]),
                           deltas=np.zeros(3), frozen_sets=[np.array([], int), np.array([1, 2]),
                                                            np.array([], int)])
    out["dynamic_cost"] = [x.hex() for x in dynamic_cost(traj, scheme)]
    return out


@needs_gcc
@pytest.mark.parametrize("name", ["hard_sphere", "maxwell_d2"])
def test_log_readers_match_on_both_walks(name, monkeypatch, tmp_path):
    traj = REPLAY_CASES[name]()
    compiled = _readers(traj, tmp_path / "compiled")
    assert _python_loop(monkeypatch, lambda: _readers(traj, tmp_path / "python")) == compiled


@needs_gcc
def test_untracked_readers_run_the_compiled_walk(monkeypatch, tmp_path):
    """With a C compiler on the path, no untracked walk of a log falls back."""
    from kaclab import engine, rate_function

    traj = _golden_run("hard_sphere")
    paths = config_io.save_trajectory(str(tmp_path), traj)
    f = TestFunctionDescriptor(kind="product", a_kind="poly", a_param=1.0, b_kind="energy")

    def refuse(*args, **kwargs):
        raise AssertionError("the Python log walk ran")

    for module in (engine, rate_function, config_io):
        monkeypatch.setattr(module, "replay_events", refuse, raising=False)
    assert final_state_from_log(traj.initial_state, traj.log).velocities.tobytes() == \
        traj.final_state.velocities.tobytes()
    assert len(kl.flux_measure(traj).points) == traj.log.n_collisions
    assert len(config_io.replay(paths["sidecar"], paths["events"])[1]) == len(traj.checkpoints)
    assert abs(xi_functionals(traj, None, f, None, kl.ReferenceMeasure(3))[1]) < 1e-12


@needs_gcc
@pytest.mark.parametrize("index", [-1, 5, 1 << 40])
def test_replay_kernel_refuses_bad_indices(index):
    lib = _kloop.kernel(3)
    v = np.random.default_rng(3).standard_normal((5, 3))
    sigma = np.tile([[0.6, 0.8, 0.0]], (3, 1))
    i, j = np.array([0, index, 3], dtype=np.int64), np.array([1, 2, index], dtype=np.int64)
    fict = np.zeros(3, dtype=np.uint8)
    cols = [a.ctypes.data for a in (i, j, sigma, fict)]
    assert lib.kac_replay(v.ctypes.data, 5, 3, *cols, 0, 1, None) == _kloop.DONE
    assert lib.kac_replay(v.ctypes.data, 5, 3, *cols, 0, 3, None) == _kloop.ERR_INDEX
    assert lib.kac_replay(v.ctypes.data, 5, 3, *cols, 2, 3, None) == _kloop.ERR_INDEX
    fict[1:] = 1  # a fictitious row names no particle the walk touches
    assert lib.kac_replay(v.ctypes.data, 5, 3, *cols, 0, 3, None) == _kloop.DONE
    log = kl.EventLog([0.1, 0.2, 0.3], i, j, sigma, np.zeros(3), [False, False, True], 5, 1.0)
    with pytest.raises(IndexError, match="out of bounds for 5 particles"):
        replay_rows(v.copy(), log)


# ---------------------------------------------------------------------------
# a build of the tools without 128-bit integers, where the fast float paths
# of the event CSV and the sidecar compile out

from test_config_io import _battery, _log_of, _repr_cases, _with_velocities  # noqa: E402


@needs_gcc
def test_a_build_without_128_bit_integers_gives_the_python_bytes(tmp_path, monkeypatch):
    path = tmp_path / "tools.so"
    proc = _kloop.compile_kernel(str(path), "-U__SIZEOF_INT128__", source=_kloop.TOOLS_SOURCE)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lib = _kloop.bind(ctypes.CDLL(_kloop._build([_kloop.SOURCE])[0]), ctypes.CDLL(str(path)))
    log = _log_of(_battery(np.random.default_rng(9)), 3)
    traj = kl.simulate(kl.SimConfig(n=24, t_max=0.8, kernel=Kernel.HARD_SPHERE, seed=3))
    traj = _with_velocities(traj, np.resize(_repr_cases(np.random.default_rng(9), 300, 20),
                                            (100, 3)))
    v = traj.initial_state.velocities
    out = {}
    for name, route in (("no_int128", lib), ("python", None)):
        with monkeypatch.context() as m:
            m.setattr(_kloop, "_lib", route)
            config_io.write_event_csv(str(tmp_path / f"{name}.csv"), log, 3)
            read = config_io.read_event_csv(str(tmp_path / f"{name}.csv"), 30, 1.0)
            config_io.write_sidecar(str(tmp_path / f"{name}.json"), traj)
            sidecar, _, state = config_io._read_sidecar(str(tmp_path / f"{name}.json"))
            velocities = sidecar.pop("initial_velocities")
            assert velocities is state.velocities
            out[name] = ((tmp_path / f"{name}.csv").read_bytes(), read.t.tobytes(),
                         read.sigma.tobytes(), (tmp_path / f"{name}.json").read_bytes(),
                         sidecar, velocities.dtype.str, velocities.shape, velocities.tobytes())
    assert out["no_int128"] == out["python"]
    assert out["python"][7] == v.tobytes()
    # the CSV and the sidecar's reader run on glibc's conversions; the
    # sidecar's writer declines
    rows = np.empty(len(log) * (25 * 4 + 58), np.uint8)
    cols = [np.ascontiguousarray(c) for c in (log.t, log.i, log.j, log.sigma, log.assignment,
                                              log.fictitious.view(np.uint8))]
    assert lib.kac_write_events(*(c.ctypes.data for c in cols), len(log), 3, rows.ctypes.data,
                                len(rows)) > 0
    buf, slow = np.empty(100 * (28 * 3 + 9) + 4, np.uint8), np.empty(300, np.uint8)
    assert lib.kac_write_velocities(v.ctypes.data, 100, 3, buf.ctypes.data, len(buf),
                                    slow.ctypes.data) == -1
    with monkeypatch.context() as m:
        m.setattr(_kloop, "_lib", lib)
        assert config_io._parse_rows((tmp_path / "python.csv").read_bytes(), 3) is not None
        assert config_io._parse_sidecar((tmp_path / "python.json").read_bytes()) is not None
