"""Exact event-driven simulation of the (possibly tilted) collision process.

Simulation is by majorant thinning.  On each scheme interval the effective
pair rate factorises as

    K(t, v_i, v_j) B(v_i - v_j) = c (1 + gamma u_ij) 1[pair not frozen],
    u_ij = |v_i - v_j|,

which is dominated by the product-form majorant c (1 + gamma |v_i| +
gamma |v_j|).  Candidate ordered pairs (diagonal included) are drawn from
the three-component mixture {uniform x uniform, speed-weighted x uniform,
uniform x speed-weighted} with weights (N^2, gamma N A, gamma N A),
A = sum_i |v_i|, and accepted with probability (true rate)/(majorant).
Speed-weighted sampling is maintained in a Fenwick tree, so each proposal
costs O(log N).

Holding times are exponential at the total majorant rate c (N + 2 gamma A)
and are truncated at segment boundaries (checkpoints and scheme interval
ends); by memorylessness this leaves the law of the process unchanged and
makes runs exactly decomposable across segments.  Event times accumulate in
compensated (Kahan) summation.

`run_segment` runs the proposals in the compiled loop of `_kloop.c`, which
repeats `propose` operation by operation, so the two give the same bytes;
on a tracked segment it also keeps the ledger pair sum and settles the
ledger.  `propose` runs `step()` and everything where no compiler is
available.

Every proposal is logged: accepted proposals become flux atoms of mass 1/N
(diagonal pairs are state no-ops but still carry flux mass, matching the
product-measure form of the generator), rejected proposals are retained as
fictitious events so the thinning chain can be replayed.

Under a ledger scheme the compensator rate (1/N) sum_{ij} (K - 1) B is a
`_PairSum`: built in row blocks once per scheme interval (none where K = 1),
in O(N) memory, and updated exactly in O(N) per collision.  The same pair
sum serves the exact dynamic cost, Xi_2 and `total_rate`, each with its own
pair function: a `_TiltPairSum` of f(K) B at delta > 0, and at delta = 0
two sums of B, `_BSums`, in which every tilt pair sum there is affine.
Either gives the ledger's jump term its K and moves at each collision's
recorded pair, as a replay of the log moves it.  At delta = 0 the run
integrates the exact dynamic cost over the spans between its events, as
`dynamic_cost` replays it (`Trajectory.dynamic_cost`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kloop
from .fenwick import BAD_WEIGHT, ZERO_TOTAL, FenwickSampler
from .girsanov import RNLedger, TiltingScheme, sample_tilted_initial, tau
from .kinetics import Kernel, _collide, _dot
from .metrics import WeightedMeasure, _distances
from .reference import ReferenceMeasure

__all__ = [
    "ParticleState",
    "CollisionEvent",
    "EventLog",
    "CheckpointSummary",
    "Trajectory",
    "InitialCondition",
    "SimConfig",
    "MajorantViolationError",
    "SimulationError",
    "total_rate",
    "step",
    "simulate",
    "empirical_measure",
    "flux_measure",
    "replay_events",
    "replay_rows",
    "apply_collision",
    "state_moments",
    "make_rng",
]


class MajorantViolationError(RuntimeError):
    """The factorised bound was exceeded: the tilting scheme is invalid."""


class SimulationError(ValueError, RuntimeError):
    """A ValueError raised while `simulate` runs its segments, such as a
    speed that overflowed into the Fenwick tree: a failure of the run, not
    of its configuration.  It stays a ValueError for callers that catch one."""


def _majorant_violation(kb, majorant, i, j) -> MajorantViolationError:
    return MajorantViolationError(
        f"K*B = {kb} exceeds majorant {majorant} at pair ({i},{j}); "
        "the tilting scheme's multiplier bound is invalid"
    )


_IDENTITY_SCHEME = TiltingScheme.identity()


# ---------------------------------------------------------------------------
# state and records


@dataclass
class ParticleState:
    """N velocities in R^d, each carrying empirical mass 1/N."""

    velocities: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        # C order: the compiled loop reads the engine's velocities in place
        self.velocities = np.atleast_2d(np.ascontiguousarray(self.velocities, dtype=float))
        if not np.all(np.isfinite(self.velocities)):
            raise ValueError("velocities must be finite")

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    @property
    def d(self) -> int:
        return self.velocities.shape[1]

    def momentum(self) -> np.ndarray:
        return self.velocities.mean(axis=0)

    def energy(self) -> float:
        return float(np.mean(np.sum(self.velocities**2, axis=1)))

    def copy(self) -> "ParticleState":
        return ParticleState(self.velocities.copy(), self.time)

    @classmethod
    def _unchecked(cls, velocities: np.ndarray, time: float) -> "ParticleState":
        """A state around velocities that a state already validated: no copy,
        no check."""
        state = cls.__new__(cls)
        state.velocities, state.time = velocities, time
        return state


@dataclass(frozen=True)
class CollisionEvent:
    """One proposal of the thinning chain.

    (i, j, sigma) are already expressed in the recorded assignment, drawn
    uniformly among the four symmetric labellings of the collision; the
    state transition itself is assignment-independent.
    """

    time: float
    i: int
    j: int
    sigma: np.ndarray
    assignment: int
    pre_v: np.ndarray
    pre_v_star: np.ndarray
    fictitious: bool


class EventLog:
    """Columnar, time-ordered log of proposals.

    As a measure on [0,T] x R^d x R^d x S^{d-1}, each non-fictitious row
    carries mass 1/N; the pre-collision velocities of a row are recovered
    by replaying the log from the initial state.
    """

    __slots__ = ("t", "i", "j", "sigma", "assignment", "fictitious", "n_particles", "horizon")

    def __init__(self, t, i, j, sigma, assignment, fictitious, n_particles, horizon):
        self.t = np.asarray(t, dtype=float)
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.sigma = np.asarray(sigma, dtype=float)
        self.assignment = np.asarray(assignment, dtype=np.int8)
        self.fictitious = np.asarray(fictitious, dtype=bool)
        self.n_particles = int(n_particles)
        self.horizon = float(horizon)
        if not np.all(np.diff(self.t) >= 0.0):
            raise ValueError("event times must be nondecreasing")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def n_collisions(self) -> int:
        return int(np.sum(~self.fictitious))

    def flux_mass(self) -> float:
        return self.n_collisions / self.n_particles


class _EventBuffer:
    def __init__(self, d: int, capacity: int = 1024):
        self.d = d
        self.size = 0
        self.t = np.empty(capacity)
        self.i = np.empty(capacity, dtype=np.int64)
        self.j = np.empty(capacity, dtype=np.int64)
        self.sigma = np.empty((capacity, d))
        self.assignment = np.empty(capacity, dtype=np.int8)
        self.fictitious = np.empty(capacity, dtype=bool)

    def _grow(self):
        cap = len(self.t) * 2
        self.t = np.resize(self.t, cap)
        self.i = np.resize(self.i, cap)
        self.j = np.resize(self.j, cap)
        sig = np.empty((cap, self.d))
        sig[: self.size] = self.sigma[: self.size]
        self.sigma = sig
        self.assignment = np.resize(self.assignment, cap)
        self.fictitious = np.resize(self.fictitious, cap)

    def append(self, t, i, j, sigma, assignment, fictitious):
        if self.size == len(self.t):
            self._grow()
        k = self.size
        self.t[k] = t
        self.i[k] = i
        self.j[k] = j
        self.sigma[k] = sigma
        self.assignment[k] = assignment
        self.fictitious[k] = fictitious
        self.size = k + 1

    def to_log(self, n_particles: int, horizon: float) -> EventLog:
        """The first `size` rows as a log: views of the buffer where its
        unused rows are at most 1/8 of them, copies where there are more."""
        k = self.size
        cols = [a[:k] for a in (self.t, self.i, self.j, self.sigma, self.assignment, self.fictitious)]
        if 8 * (len(self.t) - k) > k:
            cols = [a.copy() for a in cols]
        return EventLog(*cols, n_particles, horizon)


_MAX_RESERVED_ROWS = 1 << 20  # a run that proposes more grows its buffer by doubling


def _reserved_rows(eng: "_Engine", t_max: float) -> int:
    """The rows a run of `eng` from t = 0 to t_max is expected to propose:
    the proposal loop's rate at t = 0, c inflation (N + 2 gamma sum |v_i|),
    times t_max, plus 8 Poisson standard deviations; at most
    _MAX_RESERVED_ROWS, and 1 where a speed is not finite (the run fails)."""
    dyn = eng.dynamics
    k = dyn.interval_index(0.0)
    gamma = float(dyn.deltas[k]) + eng.beta
    rate = float(dyn.coeffs[k]) * eng.inflation * (eng.n + 2.0 * gamma * float(eng.speeds.sum()))
    mean = rate * t_max
    if not math.isfinite(mean):
        return 1
    return int(min(mean + 8.0 * math.sqrt(mean), _MAX_RESERVED_ROWS - 1)) + 1


@dataclass
class CheckpointSummary:
    time: float
    mass: float
    momentum: np.ndarray
    m2: float
    m4: float
    truncated_m2: dict
    n_events: int
    n_collisions: int
    ledger: RNLedger
    state: ParticleState | None = None

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "mass": self.mass,
            "momentum": [float(x) for x in self.momentum],
            "m2": self.m2,
            "m4": self.m4,
            "truncated_m2": {str(k): float(v) for k, v in self.truncated_m2.items()},
            "n_events": self.n_events,
            "n_collisions": self.n_collisions,
            "ledger": self.ledger.to_dict(),
        }


@dataclass
class Trajectory:
    """One run: its initial and final states, checkpoints, event log and
    Radon-Nikodym ledger.

    dynamic_cost is int tau(K) dmbar over [0, T] under the scheme passed to
    `simulate`, integrated during the run from the two sums of `_BSums` in
    the spans and the arithmetic of `rate_function.dynamic_cost`, so it is
    that replay's exact value to the bit.  It is 0.0 with no scheme, and
    None where a tracked interval has delta > 0 (tau rows are numpy's
    there) or on a trajectory `simulate` did not make.
    """

    initial_state: ParticleState
    final_state: ParticleState
    checkpoints: list
    log: EventLog | None
    rn_ledger: RNLedger
    seed: int
    config: "SimConfig"
    dynamic_cost: float | None = None


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class InitialCondition:
    """gaussian | scale_mixture (centred isotropic Gaussians of given scales)."""

    kind: str = "gaussian"
    weights: tuple = ()
    scales: tuple = ()

    def sample(self, reference: ReferenceMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return reference.sample(rng, n)
        if self.kind == "scale_mixture":
            w = np.asarray(self.weights, dtype=float)
            s = np.asarray(self.scales, dtype=float)
            if len(w) != len(s) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("mixture weights must match scales and sum to 1")
            comp = rng.choice(len(w), size=n, p=w)
            return reference.sample(rng, n) * s[comp, None]
        raise ValueError(f"unknown initial condition {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    n: int
    t_max: float
    kernel: Kernel = Kernel.MAXWELL
    d: int = 3
    seed: int = 0
    checkpoint_times: tuple = None
    record_full_states: bool = False
    truncation_thresholds: tuple = ()
    initial: InitialCondition = field(default_factory=InitialCondition)
    measure: str = "Q"  # "Q": simulate tilted dynamics; "P": base dynamics, ledger still tracked
    store_log: bool = True
    majorant_inflation: float = 1.0  # testing hook: loosen the majorant, law unchanged

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t_max < 0.0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        cps = self.checkpoint_times
        if cps is None:
            cps = (0.0, self.t_max)
        cps = tuple(sorted(float(t) for t in cps))
        if cps and (cps[0] < 0.0 or cps[-1] > self.t_max):
            raise ValueError("checkpoint times must lie in [0, t_max]")
        object.__setattr__(self, "checkpoint_times", cps)
        if self.measure not in ("P", "Q"):
            raise ValueError("measure must be 'P' or 'Q'")
        if self.majorant_inflation < 1.0:
            raise ValueError("majorant inflation must be >= 1")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t_max": self.t_max,
            "kernel": self.kernel.value,
            "d": self.d,
            "seed": self.seed,
            "checkpoint_times": list(self.checkpoint_times),
            "record_full_states": self.record_full_states,
            "truncation_thresholds": list(self.truncation_thresholds),
            "initial": {
                "kind": self.initial.kind,
                "weights": list(self.initial.weights),
                "scales": list(self.initial.scales),
            },
            "measure": self.measure,
            "store_log": self.store_log,
            "majorant_inflation": self.majorant_inflation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """The inverse of `to_dict`: every key it writes is required, and no
        other key is accepted (ValueError)."""
        _check_keys("config", data, [f.name for f in fields(cls)])
        initial = data["initial"]
        _check_keys("config.initial", initial, [f.name for f in fields(InitialCondition)])
        return cls(**dict(data, kernel=Kernel(data["kernel"]),
                          checkpoint_times=tuple(data["checkpoint_times"]),
                          truncation_thresholds=tuple(data["truncation_thresholds"]),
                          initial=InitialCondition(initial["kind"], tuple(initial["weights"]),
                                                   tuple(initial["scales"]))))


def _check_keys(what: str, data, keys: list) -> None:
    got = set(data) if isinstance(data, dict) else set()
    if got != set(keys):
        raise ValueError(f"{what}: missing keys {sorted(set(keys) - got)}, "
                         f"unknown keys {sorted(got - set(keys))}")


def make_rng(master_seed: int, run_index: int = 0) -> np.random.Generator:
    """Splittable counter-based stream for (master seed, run index)."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(run_index),))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# buffered draws: one numpy call per few thousand variates, consumed scalar-
# by-scalar so the RNG stream is a deterministic function of the algorithm


class _Draws:
    __slots__ = ("rng", "_u", "_iu", "_e", "_ie", "_n", "_in", "_chunk")

    def __init__(self, rng: np.random.Generator, chunk: int = 8192):
        self.rng = rng
        self._chunk = chunk
        self._u = rng.random(chunk)
        self._iu = 0
        self._e = rng.standard_exponential(chunk)
        self._ie = 0
        self._n = rng.standard_normal(chunk)
        self._in = 0

    @staticmethod
    def sized_for(rng: np.random.Generator, n: int, t_max: float, d: int) -> "_Draws":
        # ~8 draws per proposal; proposal rates are a few times N; the
        # normals buffer holds at least one sigma
        expect = 8.0 * (4.0 * n * t_max + 16.0)
        chunk = max(d, int(min(8192, max(64, expect))))
        return _Draws(rng, chunk)

    def refill(self, which: int) -> None:
        """Redraw buffer 0 (uniforms), 1 (exponentials) or 2 (normals) in
        place: the same variates as a fresh array, and buffer addresses the
        compiled loop can keep."""
        if which == 0:
            self.rng.random(out=self._u)
        elif which == 1:
            self.rng.standard_exponential(out=self._e)
        else:
            self.rng.standard_normal(out=self._n)

    def uniform(self) -> float:
        i = self._iu
        if i == self._chunk:
            self.refill(0)
            i = 0
        self._iu = i + 1
        return float(self._u[i])

    def exponential(self) -> float:
        i = self._ie
        if i == self._chunk:
            self.refill(1)
            i = 0
        self._ie = i + 1
        return float(self._e[i])

    def normals(self, d: int) -> np.ndarray:
        i = self._in
        if i + d > self._chunk:
            self.refill(2)
            i = 0
        self._in = i + d
        return self._n[i : i + d]


# ---------------------------------------------------------------------------
# incremental pair sums

_BLOCK_PAIRS = 1 << 16  # pairs evaluated at once while a pair sum is built


def _blocks(n: int) -> list:
    """The row ranges a pair sum is built in, each of at most _BLOCK_PAIRS pairs."""
    step = max(1, _BLOCK_PAIRS // n)
    return [slice(a, a + step) for a in range(0, n, step)]


def _settle(dh: np.ndarray, i: int, j: int) -> float:
    """The change of a pair sum at a collision of i and j, from dh, the
    change of their two rows: 2 dR_i + 2 dR_j - dh(i, i) - dh(j, j) - 2 dh(i, j)."""
    return float(2.0 * dh.sum() - dh[0, i] - dh[1, j] - 2.0 * dh[0, j])


class _PairSum:
    """S = sum_{a,b} h(a, b) over ordered pairs, diagonal included.

    rows(rows) returns the rows [h(a, b) for every b] for a in rows (a
    slice or an index array), for a symmetric pair function h of the live
    velocities: h(rows) itself, or a subclass's own `rows` (h = None).  S is
    built in row blocks, so no N x N array exists, and a collision of i and
    j updates it exactly from the old and new rows of its two particles
    (`_settle`).
    """

    __slots__ = ("h", "total")

    def __init__(self, n: int, h):
        self.h = h
        self.total = self._build(n)

    def _build(self, n: int) -> float:
        return sum(float(self.rows(sel).sum()) for sel in _blocks(n))

    def rows(self, rows) -> np.ndarray:
        return self.h(rows)

    def pre_collision(self, i: int, j: int) -> np.ndarray:
        return self.rows(np.array((i, j)))

    def post_collision(self, i: int, j: int, old: np.ndarray):
        self.total += _settle(self.rows(np.array((i, j))) - old, i, j)


def _k_minus_1(kk):
    return kk - 1.0


def _k_itself(kk):
    return kk


class _TiltPairSum(_PairSum):
    """The pair sum of h = f(K) B on a delta > 0 interval k of a scheme,
    K = c (1 + delta u) on live pairs and 0 on the others, B = 1 + beta u.

    `rows` (a method, so the object holds no reference to itself) is the
    numpy reference.  The kernel makes the ledger's rows (f = K - 1) to the
    bit: `_build` is one call of `kac_rows`, which sums each block of rows
    in numpy's order, and a collision saves its pair's velocities in the
    kernel's scratch and makes the change of its two rows there in one pass
    per particle.  Other f (tau, K) run in numpy.
    """

    __slots__ = ("v", "scheme", "k", "beta", "f", "c", "delta", "alive", "lib", "spec", "live", "scratch")

    def __init__(self, v: np.ndarray, scheme: TiltingScheme, k: int, beta: float, f):
        self.f = f
        self._describe(v, scheme, k, beta, f is _k_minus_1 and scheme.deltas[k] > 0.0)
        super().__init__(len(v), None)

    def _describe(self, v, scheme, k, beta, compiled: bool) -> None:
        self.h = None
        self.v, self.scheme, self.k, self.beta = v, scheme, k, beta
        self.c, self.delta = float(scheme.coeffs[k]), float(scheme.deltas[k])
        self.alive = ~scheme.frozen_mask(k, len(v)) if len(scheme.frozen_sets[k]) else None
        self.lib = self.spec = self.live = self.scratch = None
        if compiled and v.flags.c_contiguous and v.dtype == np.float64:
            # rows that read no distance (Maxwell at delta = 0) are never summed
            self.lib = _kloop.kernel(sums=self.delta > 0.0 or beta > 0.0)
        if self.lib is not None:
            # the kernel multiplies by live_a live_b, each 1.0 or 0.0, as numpy
            # multiplies by the boolean alive_a & alive_b, and by 1.0 (exactly)
            # where nothing is frozen, so its loops have no branch
            self.live = np.ones(len(v)) if self.alive is None else self.alive.astype(float)
            self.scratch = np.empty(4 * len(v) + 2 * v.shape[1])  # dh of a pair's rows, its velocities
            # the spec points into v, live and scratch, which this object keeps
            self.spec = _kloop.RowSpec(v.ctypes.data, self.live.ctypes.data, self.scratch.ctypes.data,
                                       len(v), v.shape[1], self.c, self.delta, beta)

    def _build(self, n: int) -> float:
        return sum(sums[0] for sums in self._block_sums(n))

    def _block_sums(self, n: int) -> list:
        """Each kind of row summed over each block of rows, by `kac_rows` or numpy."""
        blocks = _blocks(n)
        if self.lib is None:
            return [[float(part.sum()) for part in rows.reshape(-1, *rows.shape[-2:])]
                    for rows in map(self.rows, blocks)]
        step = min(n, blocks[0].stop)
        out, sums = np.empty((2, step, n)), np.empty((len(blocks), 2))
        self.lib.kac_rows(self.spec, step, out.ctypes.data, sums.ctypes.data)
        return sums.tolist()

    def rows(self, rows) -> np.ndarray:
        # factors that are 1 on every pair (nothing frozen, B = 1) are skipped
        alive = self.alive
        u = _distances(self.v[rows], self.v)
        fk = self.f(self.scheme.pair_k(self.k, u, True if alive is None else alive[rows, None] & alive))
        return fk * (1.0 + self.beta * u) if self.beta else fk

    def pre_collision(self, i: int, j: int):
        # an index outside [0, N) takes numpy's indexing rules, or its IndexError
        if self.lib is not None and 0 <= i < len(self.v) and 0 <= j < len(self.v):
            self.lib.kac_pair_rows(self.spec, i, j)
            return None
        return _PairSum.pre_collision(self, i, j)

    def _change(self, i: int, j: int, old) -> list:
        """Each kind's change at a collision: from `kac_pair_update` (dh left in the scratch) or numpy."""
        if old is None:
            change = np.zeros(2)
            self.lib.kac_pair_update(self.spec, i, j, change.ctypes.data)
            return change.tolist()
        dh = self.rows(np.array((i, j))) - old
        return [_settle(part, i, j) for part in dh.reshape(-1, 2, len(self.v))]

    def post_collision(self, i: int, j: int, old) -> None:
        self.total += self._change(i, j, old)[0]


class _BSums(_TiltPairSum):
    """S_live = sum B live_a live_b and S_all = sum B over ordered pairs on a
    delta = 0 interval k of a scheme, where K is c on live pairs and 0 on
    the others: the ledger's sum (K - 1) B is (c - 1) S_live - (S_all -
    S_live) (`total`), the cost's tau(c) S_live + (S_all - S_live) (`cost`)
    and `total_rate`'s c S_live.  For Maxwell molecules (B = 1) they are
    N_t^2 and N^2, exact, and no row is made.  Otherwise `rows` is the pair
    (B live_a live_b, B), (2, m, n), which the kernel makes from one
    distance.  A distance that overflows makes B infinite: with hard spheres
    the ledger and the cost are then NaN; Maxwell molecules read no distance.
    """

    __slots__ = ("s_live", "s_all", "tau_c")

    def __init__(self, v: np.ndarray, scheme: TiltingScheme, k: int, beta: float):
        self._describe(v, scheme, k, beta, True)
        self.tau_c = tau(self.c)
        n = len(v)
        if beta == 0.0:
            live = n if self.alive is None else int(np.count_nonzero(self.alive))
            self.s_live, self.s_all = float(live * live), float(n * n)
            return
        self.s_live, self.s_all = (sum(s) for s in zip(*self._block_sums(n)))

    @property
    def total(self) -> float:
        return (self.c - 1.0) * self.s_live - (self.s_all - self.s_live)

    @property
    def cost(self) -> float:
        return self.tau_c * self.s_live + (self.s_all - self.s_live)

    def rows(self, rows) -> np.ndarray:
        b = 1.0 + self.beta * _distances(self.v[rows], self.v)
        return np.stack((b if self.alive is None else b * (self.alive[rows, None] & self.alive), b))

    def pre_collision(self, i: int, j: int):
        return None if self.beta == 0.0 else _TiltPairSum.pre_collision(self, i, j)

    def post_collision(self, i: int, j: int, old) -> None:
        if self.beta != 0.0:
            d_live, d_all = self._change(i, j, old)
            self.s_live += d_live
            self.s_all += d_all


# ---------------------------------------------------------------------------
# the proposal kernel: single code path shared by step() and simulate()


class _Engine:
    def __init__(self, state: ParticleState, kernel: Kernel, dynamics: TiltingScheme,
                 ledger_scheme: TiltingScheme | None, ledger: RNLedger,
                 draws: _Draws, events: _EventBuffer | None, inflation: float = 1.0):
        self.V = state.velocities
        self.n, self.d = self.V.shape
        self.beta = kernel.slope
        self.dynamics = dynamics
        self.ledger_scheme = ledger_scheme
        self.ledger = ledger
        self.draws = draws
        self.events = events
        self.inflation = float(inflation)
        self.speeds = np.sqrt(_dot(self.V))
        self.fen = None
        self.t = state.time
        self._t_comp = 0.0  # Kahan compensation for the clock
        self.n_events = 0
        self.n_collisions = 0
        # per-segment dynamic parameters, set by enter_segment
        self.c_dyn = 1.0
        self.gamma = 0.0
        self.frozen_dyn = np.zeros(self.n, dtype=bool)
        self.any_frozen_dyn = False
        self.k_led = None
        self.tracker = None
        self.cost = 0.0  # the dynamic cost so far; None once an interval has delta > 0
        self.cost_t = 0.0  # the time it reaches

    # -- time bookkeeping ------------------------------------------------

    def _advance_clock(self, dt: float):
        y = dt - self._t_comp
        s = self.t + y
        self._t_comp = (s - self.t) - y
        self.t = s

    def set_clock(self, t: float):
        self.t = t
        self._t_comp = 0.0

    # -- segment setup -----------------------------------------------------

    def enter_segment(self, t0: float):
        dyn = self.dynamics
        k = dyn.interval_index(t0)
        self.c_dyn = float(dyn.coeffs[k])
        delta_dyn = float(dyn.deltas[k])
        self.gamma = delta_dyn + self.beta
        if len(dyn.frozen_sets[k]):
            self.frozen_dyn = dyn.frozen_mask(k, self.n)
            self.any_frozen_dyn = True
        else:
            self.any_frozen_dyn = False
        if self.gamma > 0.0 and self.fen is None:
            self.fen = FenwickSampler(self.speeds)
        led = self.ledger_scheme
        kl = led.interval_index(t0) if led is not None else None
        if kl != self.k_led:
            # one ledger pair sum per scheme interval, carried across
            # checkpoints; none where K = 1, as log K = K - 1 = tau(K) = 0
            # there.  At delta = 0 it is `_BSums`, which also gives the cost.
            self.integrate_cost(self.t)  # the end of the last interval
            self.k_led = kl
            self.tracker = None
            if not led.is_unit(kl):
                if led.deltas[kl] > 0.0:
                    self.cost = None
                    self.tracker = _TiltPairSum(self.V, led, kl, self.beta, _k_minus_1)
                else:
                    self.tracker = _BSums(self.V, led, kl, self.beta)
                self.cost_t = self.t

    def integrate_cost(self, t: float):
        """Add the span up to t, an event or the end of an interval, to the
        dynamic cost, in the spans and the arithmetic of `dynamic_cost`."""
        if self.cost is None or self.tracker is None:
            return
        dt = t - self.cost_t
        self.cost_t = t
        if dt > 0.0:
            self.cost += dt * self.tracker.cost / self.n**2

    # -- one proposal -------------------------------------------------------

    def propose(self, t_end: float) -> bool:
        """Advance by one proposal, truncated at t_end.

        Returns False when the segment boundary was reached (no proposal).
        """
        n = self.n
        draws = self.draws
        gamma = self.gamma
        a_sum = self.fen.total if gamma > 0.0 else 0.0
        rate = self.c_dyn * self.inflation * (n + 2.0 * gamma * a_sum)
        if rate <= 0.0:
            self._settle_compensator(t_end - self.t)
            self.set_clock(t_end)
            return False
        dt = draws.exponential() / rate
        if self.t + dt >= t_end:
            self._settle_compensator(t_end - self.t)
            self.set_clock(t_end)
            return False
        self._settle_compensator(dt)
        self._advance_clock(dt)
        self.integrate_cost(self.t)

        # mixture component, then the ordered pair
        pick = draws.uniform() * (n + 2.0 * gamma * a_sum)
        if pick < n:
            i = int(draws.uniform() * n)
            j = int(draws.uniform() * n)
        elif pick < n + gamma * a_sum:
            i = self.fen.sample(draws.uniform())
            j = int(draws.uniform() * n)
        else:
            j = self.fen.sample(draws.uniform())
            i = int(draws.uniform() * n)

        nrm = 0.0
        while nrm < 1e-300:
            raw = draws.normals(self.d)
            nrm = math.sqrt(_dot(raw))
        sigma = raw / nrm
        assignment = int(draws.uniform() * 4.0)
        u_accept = draws.uniform()

        u_dist = 0.0 if i == j else math.sqrt(_dot(self.V[i] - self.V[j]))
        frozen_pair = self.any_frozen_dyn and bool(self.frozen_dyn[i] or self.frozen_dyn[j])
        # K B and the majorant are c and c inflation where gamma = 0, whatever
        # the distance and the speeds (ones that overflow too)
        kb = 0.0 if frozen_pair else self.c_dyn if gamma == 0.0 else self.c_dyn * (1.0 + gamma * u_dist)
        majorant = self.c_dyn * self.inflation
        if gamma != 0.0:
            majorant *= 1.0 + gamma * (self.speeds[i] + self.speeds[j])
        if kb > majorant * (1.0 + 1e-12):
            raise _majorant_violation(kb, majorant, i, j)
        accepted = u_accept * majorant < kb

        # recorded assignment view: 0 (i,j,s) 1 (i,j,-s) 2 (j,i,s) 3 (j,i,-s)
        if assignment >= 2:
            ri, rj = j, i
        else:
            ri, rj = i, j
        rsigma = sigma if assignment % 2 == 0 else -sigma

        tracker = self.tracker
        if accepted:
            self.n_collisions += 1
            if tracker is not None:
                if tracker.alive is not None and not (tracker.alive[i] and tracker.alive[j]):
                    self.ledger.hit_zero = True
                else:
                    kk = tracker.c if tracker.delta == 0.0 else tracker.c * (1.0 + tracker.delta * u_dist)
                    self.ledger.jump_term += math.log(kk)
            if i != j:
                # the pair sums move at the recorded pair, as in a replay
                pre = tracker.pre_collision(ri, rj) if tracker is not None else None
                # apply the collision in the recorded parametrisation so a
                # replay of the log reproduces the arithmetic bit for bit
                apply_collision(self.V, ri, rj, rsigma)
                self.speeds[i] = math.sqrt(_dot(self.V[i]))
                self.speeds[j] = math.sqrt(_dot(self.V[j]))
                if self.fen is not None:
                    self.fen.update(i, self.speeds[i])
                    self.fen.update(j, self.speeds[j])
                if tracker is not None:
                    tracker.post_collision(ri, rj, pre)
        if self.events is not None:
            self.events.append(self.t, ri, rj, rsigma, assignment, not accepted)
        self.n_events += 1
        return True

    def _settle_compensator(self, dt: float):
        # the compensator rate is (1/N) sum_{ij} (K - 1) B
        if self.tracker is not None and dt > 0.0:
            self.ledger.compensator_term += dt * (self.tracker.total / self.n)

    def run_segment(self, t_end: float):
        self.enter_segment(self.t)
        lib = _kloop.kernel()
        # a ledger pair sum runs compiled where its rows do (the row sum
        # check passed) or where it has none (Maxwell at delta = 0)
        if lib is not None and (self.tracker is None or self.tracker.lib is not None):
            self._run_compiled(lib, t_end)
        else:
            while self.propose(t_end):
                pass

    def _run_compiled(self, lib, t_end: float):
        """`propose` up to t_end in the compiled loop, on this engine's arrays.

        The loop keeps the ledger's pair sums (S_live and S_all at delta =
        0), compensator, jump term and hit_zero flag, and the cost's
        integral, carried in and out through the scalar slots.  It returns to
        grow the event buffer, and on an error, which is raised here as the
        Python loop raises it.
        """
        draws, ev, fen, tracker, ledger = self.draws, self.events, self.fen, self.tracker, self.ledger
        two = isinstance(tracker, _BSums)
        sums = ((tracker.s_live, tracker.s_all, tracker.tau_c) if two
                else (0.0 if tracker is None else tracker.total, 0.0, 0.0))
        # scalars in and out, in the slots of the F_* and K_* enums of _kloop.c
        f = np.array([self.t, self._t_comp, t_end, self.c_dyn, self.inflation, self.gamma, 0.0, 0.0,
                      *sums, ledger.compensator_term, ledger.jump_term, self.cost or 0.0, self.cost_t])
        k = np.array([draws._iu, draws._ie, draws._in, self.n_events, self.n_collisions,
                      ev.size if ev is not None else 0, 0, 0, 0, ledger.hit_zero], dtype=np.int64)
        raised = []

        def refill(which):
            try:
                draws.refill(which)
            except BaseException as exc:  # re-raised below, not across C
                raised.append(exc)
                return 1
            return 0

        callback = _kloop.REFILL(refill)
        sigma = np.empty(self.d)  # the proposal's sigma where no log is kept
        status = _kloop.GROW
        while status == _kloop.GROW:
            if ev is not None:
                if k[5] == len(ev.t):
                    ev.size = int(k[5])
                    ev._grow()
                k[6] = len(ev.t)
                cols = [a.ctypes.data for a in (ev.t, ev.i, ev.j, ev.sigma, ev.assignment, ev.fictitious)]
            else:
                cols = [None] * 6
            status = lib.kac_run(
                f.ctypes.data, k.ctypes.data, self.n, self.d, draws._chunk,
                self.V.ctypes.data, self.speeds.ctypes.data,
                fen.tree.ctypes.data if fen is not None else None,
                fen.weights.ctypes.data if fen is not None else None,
                self.frozen_dyn.ctypes.data if self.any_frozen_dyn else None,
                draws._u.ctypes.data, draws._e.ctypes.data, draws._n.ctypes.data, callback,
                sigma.ctypes.data, *cols, None if tracker is None else tracker.spec)
        self.t, self._t_comp = float(f[0]), float(f[1])
        draws._iu, draws._ie, draws._in, self.n_events, self.n_collisions = (int(x) for x in k[:5])
        if ev is not None:
            ev.size = int(k[5])
        if tracker is not None:
            if two:
                tracker.s_live, tracker.s_all = float(f[8]), float(f[9])
            else:
                tracker.total = float(f[8])
            ledger.compensator_term, ledger.jump_term = float(f[11]), float(f[12])
            ledger.hit_zero = bool(k[9])
        if self.cost is not None:
            self.cost, self.cost_t = float(f[13]), float(f[14])
        if status == _kloop.DONE:
            return
        if status == _kloop.ERR_MAJORANT:
            raise _majorant_violation(float(f[6]), f[7], int(k[7]), int(k[8]))
        if status == _kloop.ERR_WEIGHT:
            raise ValueError(BAD_WEIGHT)
        if status == _kloop.ERR_ZERO_TOTAL:
            raise ValueError(ZERO_TOTAL)
        if status == _kloop.ERR_LOG:
            raise ValueError("math domain error")
        if status == _kloop.ERR_REFILL:
            raise raised[0]
        raise IndexError(f"particle index out of bounds for {self.n} particles")


# ---------------------------------------------------------------------------
# public operations


def total_rate(state: ParticleState, kernel: Kernel, tilt: TiltingScheme | None = None) -> float:
    """Total event rate N int K B dmu dmu dsigma = (1/N) sum_{ij} K_ij B_ij.

    Exact pair sum (sigma-independent K), built in row blocks in O(N)
    memory; diagonal pairs included.  At delta = 0 it is c S_live / N.
    """
    tilt = tilt if tilt is not None else _IDENTITY_SCHEME
    k_idx = tilt.interval_index(state.time)
    if tilt.deltas[k_idx] > 0.0:
        return _TiltPairSum(state.velocities, tilt, k_idx, kernel.slope, _k_itself).total / state.n
    sums = _BSums(state.velocities, tilt, k_idx, kernel.slope)
    return sums.c * sums.s_live / state.n


def step(state: ParticleState, kernel: Kernel, tilt: TiltingScheme | None, rng: np.random.Generator):
    """One proposal of the thinning chain; returns (new state, event).

    The returned event is fictitious on rejections and on nothing-happens
    diagonal draws the state is returned unchanged.
    """
    dynamics = tilt if tilt is not None else _IDENTITY_SCHEME
    dynamics.validate_kernel(kernel)
    new_state = state.copy()
    eng = _Engine(new_state, kernel, dynamics, None, RNLedger(), _Draws(rng), _EventBuffer(state.d, 1))
    eng.enter_segment(state.time)
    if eng.c_dyn <= 0.0:
        raise ValueError("dynamics have zero total rate: there is no next event")
    while not eng.propose(np.inf):
        pass
    log = eng.events.to_log(state.n, eng.t)
    k = len(log) - 1
    ii, jj = int(log.i[k]), int(log.j[k])
    event = CollisionEvent(
        time=float(log.t[k]), i=ii, j=jj, sigma=log.sigma[k].copy(),
        assignment=int(log.assignment[k]),
        pre_v=state.velocities[ii].copy(), pre_v_star=state.velocities[jj].copy(),
        fictitious=bool(log.fictitious[k]),
    )
    new_state.time = eng.t
    return new_state, event


def _sums_kernel(v: np.ndarray):
    """The kernel with numpy's row sums where it can read v in place (a C
    order float64 (N, d) array), else None."""
    ok = v.dtype == np.float64 and v.ndim == 2 and v.flags.c_contiguous
    return _kloop.kernel(sums=True) if ok else None


def _squared_speeds(v: np.ndarray) -> np.ndarray:
    """|v_a|^2 of each row, `np.sum(v * v, axis=1)` to the bit."""
    lib = _sums_kernel(v)
    if lib is None:
        return np.sum(v * v, axis=1)
    s, row = np.empty(len(v)), np.empty(v.shape[1])
    lib.kac_squares(v.ctypes.data, len(v), v.shape[1], s.ctypes.data, row.ctypes.data)
    return s


def state_moments(v: np.ndarray, thresholds) -> tuple:
    """(momentum, m2, m4, {threshold: m2 of particles with |v| <= threshold}).

    One compiled pass (`kac_moments`) gives the bits of the numpy formula
    below, which runs where the kernel does not load or cannot read v in
    place, and which the tests hold it to."""
    lib = _sums_kernel(v)
    if lib is None:
        s = np.sum(v * v, axis=1)
        trunc = {float(thr): float(np.mean(s * (np.sqrt(s) <= thr))) for thr in thresholds}
        return v.mean(axis=0), float(np.mean(s)), float(np.mean(s * s)), trunc
    n, d = v.shape
    thr = np.array(thresholds, dtype=float)
    s, terms, out = np.empty(n), np.empty(max(n, d)), np.empty(d + 2 + len(thr))
    lib.kac_moments(v.ctypes.data, n, d, thr.ctypes.data, len(thr), s.ctypes.data,
                    terms.ctypes.data, out.ctypes.data)
    trunc = {float(t): float(x) for t, x in zip(thr, out[d + 2:])}
    return out[:d], float(out[d]), float(out[d + 1]), trunc


def _checkpoint(eng: _Engine, cfg: SimConfig, t: float) -> CheckpointSummary:
    v = eng.V
    momentum, m2, m4, trunc = state_moments(v, cfg.truncation_thresholds)
    return CheckpointSummary(
        time=t,
        mass=1.0,
        momentum=momentum,
        m2=m2,
        m4=m4,
        truncated_m2=trunc,
        n_events=eng.n_events,
        n_collisions=eng.n_collisions,
        ledger=eng.ledger.copy(),
        state=ParticleState._unchecked(v.copy(), t) if cfg.record_full_states else None,
    )


def simulate(config: SimConfig, scheme: TiltingScheme | None = None,
             rng: np.random.Generator | None = None,
             initial_state: ParticleState | None = None) -> Trajectory:
    """Simulate on [0, t_max]; identical (config, scheme, seed) give a
    bit-identical trajectory.

    Under measure "Q" the dynamics run at rates K*B and the initial data are
    drawn from the scheme's tilted reference measure; under "P" the base
    process is simulated while the same scheme's Radon-Nikodym ledger is
    still accumulated along the path.
    """
    if rng is None:
        rng = make_rng(config.seed)
    reference = ReferenceMeasure(config.d)
    if scheme is not None:
        scheme.validate_kernel(config.kernel)
        scheme.validate_normalisation(reference)

    if initial_state is not None:
        v0 = initial_state.velocities.copy()
    elif scheme is not None and config.measure == "Q" and scheme.initial_tilt is not None:
        v0 = sample_tilted_initial(reference, scheme, config.n, rng)
    else:
        v0 = config.initial.sample(reference, config.n, rng)
    state = ParticleState(v0, 0.0)

    ledger = RNLedger()
    if scheme is not None and scheme.initial_tilt is not None:
        ledger.initial_term = float(np.sum(scheme.initial_tilt.phi(state.velocities)))

    dynamics = scheme if (scheme is not None and config.measure == "Q") else _IDENTITY_SCHEME
    boundaries = {0.0, config.t_max}
    boundaries.update(config.checkpoint_times)
    for sch in (scheme, dynamics):
        if sch is not None:
            boundaries.update(float(b) for b in sch.breakpoints if 0.0 < b < config.t_max)
    boundaries = sorted(boundaries)
    checkpoint_set = set(config.checkpoint_times)

    initial = ParticleState._unchecked(state.velocities.copy(), 0.0)
    checkpoints = []
    try:
        eng = _Engine(state, config.kernel, dynamics, scheme, ledger,
                      _Draws.sized_for(rng, config.n, config.t_max, config.d), None,
                      inflation=config.majorant_inflation)
        if config.store_log:
            eng.events = _EventBuffer(config.d, _reserved_rows(eng, config.t_max))
        if 0.0 in checkpoint_set:
            eng.enter_segment(0.0)
            checkpoints.append(_checkpoint(eng, config, 0.0))
        for t0, t1 in zip(boundaries[:-1], boundaries[1:]):
            if t1 <= t0:
                continue
            eng.run_segment(t1)
            if t1 in checkpoint_set:
                checkpoints.append(_checkpoint(eng, config, t1))
    except ValueError as exc:
        raise SimulationError(str(exc)) from exc
    eng.integrate_cost(eng.t)
    final = ParticleState._unchecked(state.velocities.copy(), config.t_max)
    log = eng.events.to_log(config.n, config.t_max) if config.store_log else None
    return Trajectory(
        initial_state=initial, final_state=final, checkpoints=checkpoints,
        log=log, rn_ledger=ledger, seed=config.seed, config=config, dynamic_cost=eng.cost,
    )


def empirical_measure(state: ParticleState) -> WeightedMeasure:
    """Atoms at each velocity, weight 1/N each; total mass exactly 1."""
    n = state.n
    return WeightedMeasure(state.velocities.copy(), np.full(n, 1.0 / n))


def apply_collision(V: np.ndarray, i: int, j: int, sigma: np.ndarray) -> None:
    """Collide rows i and j of V in place, in the (i, j, sigma) labelling."""
    V[i], V[j] = _collide(V[i], V[j], sigma)


def replay_events(v: np.ndarray, log: EventLog, start: int = 0, stop: int | None = None,
                  tracker: _PairSum | None = None):
    """Walk rows start..stop-1 of a log, applying each to v in place.

    Yields each row index k while v holds the state just before row k; the
    row is applied when the caller resumes.  Fictitious and diagonal rows
    leave v unchanged; a tracker's pre/post_collision hooks bracket every
    row that does change it.  The arithmetic is the engine's, so the final
    v is bit-identical to the simulated state.

    This is the tracked walk, for pair sums that move with the path (the
    exact dynamic cost, Xi_2), and the fallback of `replay_rows` where no
    kernel is compiled; every walk that keeps no pair sum is `replay_rows`.
    """
    stop = len(log) if stop is None else stop
    rows = zip(range(start, stop), log.i[start:stop].tolist(), log.j[start:stop].tolist(),
               log.fictitious[start:stop].tolist())
    for k, i, j, fict in rows:
        yield k
        if fict or i == j:
            continue
        pre = tracker.pre_collision(i, j) if tracker is not None else None
        apply_collision(v, i, j, log.sigma[k])
        if tracker is not None:
            tracker.post_collision(i, j, pre)


def replay_rows(v: np.ndarray, log: EventLog, start: int = 0, stop: int | None = None,
                pairs: bool = False) -> np.ndarray | None:
    """Apply rows start..stop-1 of a log to v in place, as `replay_events`.

    The walk runs in the compiled `kac_replay` where the kernel is loaded,
    else through `replay_events`; both give v bit for bit.  With `pairs`,
    returns the (m, 4, d) array of (v_i, v_j) before and (v_i, v_j) after
    each of the m non-fictitious rows, in log order.
    """
    start, stop, _ = slice(start, stop).indices(len(log))
    n, d = v.shape
    real = ~log.fictitious[start:stop]
    out = np.empty((int(np.count_nonzero(real)), 4, d)) if pairs else None
    lib = _kloop.kernel()
    # the kernel reads v and the columns through raw pointers: check their shapes
    if (lib is not None and v.flags.c_contiguous and v.dtype == np.float64
            and len(log.i) == len(log.j) == len(log.fictitious) == len(log)
            and log.sigma.shape == (len(log), d)):
        cols = [np.ascontiguousarray(c) for c in (log.i, log.j, log.sigma, log.fictitious.view(np.uint8))]
        status = lib.kac_replay(v.ctypes.data, n, d, *(c.ctypes.data for c in cols), start, stop,
                                None if out is None else out.ctypes.data)
        if status != _kloop.DONE:
            raise IndexError(f"particle index out of bounds for {n} particles")
        return out
    if out is None:
        for _ in replay_events(v, log, start, stop):
            pass
        return None
    ij = np.stack((log.i[start:stop], log.j[start:stop]), axis=1)[real]
    real = real.tolist()
    atom = 0
    # v holds a collision's outcome when the walk yields the next row, or ends
    for k in replay_events(v, log, start, stop):
        if real[k - start]:
            if atom:
                out[atom - 1, 2:] = v[ij[atom - 1]]
            out[atom, :2] = v[ij[atom]]
            atom += 1
    if atom:
        out[atom - 1, 2:] = v[ij[atom - 1]]
    return out


def final_state_from_log(initial_state: ParticleState, log: EventLog) -> ParticleState:
    v = initial_state.velocities.copy()
    replay_rows(v, log)
    return ParticleState(v, log.horizon)


def flux_measure(trajectory: Trajectory) -> WeightedMeasure:
    """The empirical flux as an atomic measure on [0,T] x R^d x R^d x S^{d-1}.

    Each non-fictitious event contributes one atom (t, v, v_star, sigma) of
    mass 1/N, in the recorded assignment.
    """
    if trajectory.log is None:
        raise ValueError("trajectory was run without an event log")
    log = trajectory.log
    v = trajectory.initial_state.velocities.copy()
    pre = replay_rows(v, log, pairs=True)[:, :2]
    real = ~log.fictitious
    pts = np.concatenate((log.t[real, None], pre.reshape(len(pre), -1), log.sigma[real]), axis=1)
    w = np.full(len(pts), 1.0 / log.n_particles)
    return WeightedMeasure(pts, w)
