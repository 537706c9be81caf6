"""Numerical evaluation of the candidate large-deviation rate function.

The rate of a measure-flux pair is the Sanov cost of its initial datum plus
the dynamic cost

    J = int tau(K) dmbar,   tau(k) = k log k - k + 1,

where K is the density of the flux w against the reference collision
intensity mbar = B dt mu_t mu_t dsigma, all measures normalised (mbar has
O(1) total mass; the flux carries 1/N per collision).  The variational form
evaluates, for test functions (phi, f, g),

    Xi_0 = <phi, mu_0> - log <e^phi, mu_star>
    Xi_1 = <f_T, mu_T> - int <d_s f, mu_s> ds - int Delta f dw
    Xi_2 = <g, w> - int (e^g - 1) dmbar

whose supremum over admissible triples is the rate; on a simulated pair
Xi_1 vanishes identically (the continuity equation holds by construction),
which is the sharpest self-test the simulator has.

Empirical paths are piecewise constant between events, so every time
integral here is computed exactly interval by interval; no time grid is
involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import _BSums, _PairSum, _TiltPairSum, replay_events, replay_rows
from .girsanov import InitialTilt, TiltingScheme, _tail_law, tau
from .kinetics import post_collision, sphere_quadrature
from .metrics import WeightedMeasure, _distances
from .reference import ReferenceMeasure


# ---------------------------------------------------------------------------
# test function descriptors


@dataclass(frozen=True)
class TestFunctionDescriptor:
    """Closed family of test functions used against simulated paths.

    kind:
      "constant"     b(v) = coeff
      "coordinate"   b(v) = coeff * v[axis]
      "energy"       b(v) = coeff * |v|^2
      "radial_bump"  b(v) = coeff * max(0, 1 - |v|^2/r^2)^2   (C^1, compact)
      "product"      f(t, v) = a(t) * b(v) with a(0) = 0, where a is
                     "sin" (sin(omega t)) or "poly" (t^k); b as above
      "flux_test"    g(v, v_star, sigma) = coeff * bump(v) bump(v_star)
                     * (1 + sigma_coupling * (sigma . e1)^2), compact in
                     (v, v_star), constant in t (the time axis is compact)
    """

    __test__ = False  # keep pytest collection away from the Test* name

    kind: str
    coeff: float = 1.0
    axis: int = 0
    radius: float = 2.0
    a_kind: str = "sin"
    a_param: float = 1.0
    b_kind: str = "energy"
    sigma_coupling: float = 0.0

    def __post_init__(self):
        spatial = self.b_kind if self.kind == "product" else self.kind
        if (spatial == "radial_bump" or self.kind == "flux_test") and not self.radius > 0.0:
            raise ValueError(f"radius = {self.radius}: a bump needs a radius above 0")
        if self.kind == "product" and self.a_kind == "poly" and self.a_param < 0.0:
            raise ValueError(f"a_param = {self.a_param}: t^k is undefined at t = 0 for k < 0")

    # ---- spatial part -------------------------------------------------

    def _b(self, v: np.ndarray, kind: str | None = None) -> np.ndarray:
        kind = kind or self.kind
        v = np.asarray(v, dtype=float)
        s = np.sum(v * v, axis=-1)
        if kind == "constant":
            return self.coeff * np.ones_like(s)
        if kind == "coordinate":
            if not 0 <= self.axis < v.shape[-1]:
                raise ValueError(f"axis = {self.axis}: R^{v.shape[-1]} has axes 0 to {v.shape[-1] - 1}")
            return self.coeff * v[..., self.axis]
        if kind == "energy":
            return self.coeff * s
        if kind == "radial_bump":
            return self.coeff * np.maximum(0.0, 1.0 - s / self.radius**2) ** 2
        raise ValueError(f"unknown spatial kind {kind!r}")

    def phi(self, v: np.ndarray) -> np.ndarray:
        """As a time-free observable on R^d (for Xi_0 or plug-in entropy)."""
        if self.kind == "product":
            raise ValueError("time-modulated descriptors are not admissible phi")
        return self._b(v)

    def log_mgf(self, reference: ReferenceMeasure) -> float:
        """log <e^phi, mu_star>, closed form where available else quadrature."""
        if self.kind == "constant":
            return self.coeff
        if self.kind == "coordinate":
            # e^{c v_axis} against N(0, 1/d)
            return 0.5 * self.coeff**2 / reference.d
        if self.kind == "energy":
            if self.coeff >= reference.z2:
                return math.inf
            return math.log(reference.gaussian_moment(self.coeff))
        if self.kind == "radial_bump":
            from scipy.integrate import quad

            a, th = reference.shape, reference.scale

            def integrand(s):
                b = self.coeff * max(0.0, 1.0 - s / self.radius**2) ** 2
                return math.exp(b) * s ** (a - 1.0) * math.exp(-s / th)

            val = quad(integrand, 0.0, self.radius**2, limit=200)[0]
            val += quad(integrand, self.radius**2, np.inf, limit=200)[0]
            return math.log(val / (math.gamma(a) * th**a))
        raise ValueError(f"{self.kind!r} has no initial-tilt interpretation")

    # ---- time modulation ----------------------------------------------

    def a_of_t(self, t: float) -> float:
        return float(self.a_of_times(np.array([t], dtype=float))[0])

    def a_of_times(self, times: np.ndarray) -> np.ndarray:
        """a at each of an array of times, by the scalar libm call per time
        (math.sin, float **): numpy's sin and power are not promised to give
        libm's bits."""
        if self.kind != "product":
            return np.ones(len(times))
        if self.a_kind == "sin":
            values = map(math.sin, (self.a_param * times).tolist())
        elif self.a_kind == "poly":
            values = (t**self.a_param for t in times.tolist())
        else:
            raise ValueError(f"unknown time kind {self.a_kind!r}")
        return np.fromiter(values, float, len(times))

    def delta_b(self, v: np.ndarray, v_star: np.ndarray, sigma: np.ndarray) -> float:
        """Collisional increment of the spatial part, via the collision map."""
        vp, vsp = post_collision(v, v_star, sigma)
        kind = self.b_kind if self.kind == "product" else self.kind
        return float(self._b(vp, kind) + self._b(vsp, kind) - self._b(v, kind) - self._b(v_star, kind))

    # ---- flux test ------------------------------------------------------

    def g(self, v, v_star, sigma) -> np.ndarray:
        if self.kind != "flux_test":
            raise ValueError("g is only defined for flux_test descriptors")
        bump = lambda x: np.maximum(0.0, 1.0 - np.sum(np.asarray(x, dtype=float) ** 2, axis=-1) / self.radius**2) ** 2
        val = self.coeff * bump(v) * bump(v_star)
        if self.sigma_coupling != 0.0:
            sig = np.asarray(sigma, dtype=float)
            val = val * (1.0 + self.sigma_coupling * sig[..., 0] ** 2)
        return val


# ---------------------------------------------------------------------------
# relative entropy


def relative_entropy(mu, reference: ReferenceMeasure, log_density_ratio=None) -> float:
    """H(mu | mu_star) = int (dmu/dmu_star) log(dmu/dmu_star) dmu_star.

    Parametric tail tilts have the closed form lam * <|v|^2 1[|v| >= M],
    tilted> - psi (the mean of phi under the tilted measure).  For an
    empirical measure, supply `log_density_ratio(points) -> array`; the
    plug-in estimator is its empirical mean.  Without an evaluator the
    entropy of an atomic measure against a density is +inf (not absolutely
    continuous in this representation).
    """
    if isinstance(mu, TiltingScheme):
        mu = mu.initial_tilt
        if mu is None:
            return 0.0
    if isinstance(mu, InitialTilt):
        if mu.lam == 0.0:
            return 0.0
        if mu.lam >= reference.z2:
            return math.inf
        m2, scale_t, growth = _tail_law(reference, mu.M, mu.lam)
        tail_energy = math.exp(-mu.psi) * growth * float(
            reference.shape * scale_t - reference.partial_m2(m2, scale=scale_t)
        )
        return mu.lam * tail_energy - mu.psi
    if isinstance(mu, WeightedMeasure):
        if log_density_ratio is None:
            return math.inf
        vals = np.asarray(log_density_ratio(mu.points), dtype=float)
        return float(np.dot(mu.weights, vals) / mu.total_mass)
    raise TypeError(f"cannot compute entropy of {type(mu)!r}")


# ---------------------------------------------------------------------------
# dynamic cost


def dynamic_cost(trajectory, scheme: TiltingScheme, mode: str = "exact",
                 pairs_per_interval: int = 64, seed: int = 0) -> tuple[float, float]:
    """int tau(K) dmbar along a simulated path; returns (value, stderr).

    The integrand is piecewise constant in time between events and scheme
    breakpoints, so the integral splits exactly over those spans.  K = 0
    regions contribute tau(0) = 1 times their mbar mass.  "exact" keeps
    the pair sum sum_{ij} tau(K) B (from `_BSums`' two sums at delta = 0),
    built once per scheme interval in O(N) memory and updated in O(N) per
    collision; intervals where K = 1 cost nothing (tau(1) = 0) and build
    none.  "subsample" is an unbiased uniform pair-subsampling estimate with
    reported standard error.  stderr is 0 for exact evaluations.

    This replays the log.  A run under a scheme with delta = 0 already
    carries this exact value for its own scheme, integrated in the same
    spans and arithmetic as it ran (`Trajectory.dynamic_cost`); the replay
    serves any other scheme, and is the test oracle of the in-run value.
    """
    if mode not in ("exact", "subsample"):
        raise ValueError(f"unknown dynamic cost mode {mode!r}: use 'exact' or 'subsample'")
    if trajectory.log is None:
        raise ValueError("trajectory was run without an event log")
    beta = trajectory.config.kernel.slope
    n = trajectory.initial_state.n
    log = trajectory.log
    t_max = trajectory.config.t_max
    rng = np.random.default_rng(seed)
    exact = mode == "exact"

    v = trajectory.initial_state.velocities.copy()
    edges = [0.0] + [float(b) for b in scheme.breakpoints if 0.0 < b < t_max] + [t_max]
    total = 0.0
    var = 0.0
    # one scheme interval [b0, b1) at a time; a row stamped at b0 belongs to it
    for b0, b1 in zip(edges[:-1], edges[1:]):
        k_idx = scheme.interval_index(b0)
        lo, hi = np.searchsorted(log.t, (b0, b1))
        if b1 <= b0 or (exact and scheme.is_unit(k_idx)):
            # no span, or tau(1) = 0 on every pair: only the path moves on
            replay_rows(v, log, lo, hi)
            continue
        alive = ~scheme.frozen_mask(k_idx, n)
        two, pair_sum = scheme.deltas[k_idx] == 0.0, None
        if exact:
            pair_sum = _BSums(v, scheme, k_idx, beta) if two else _TiltPairSum(v, scheme, k_idx, beta, tau)
        t_prev = b0
        for k in itertools.chain(replay_events(v, log, lo, hi, pair_sum), (None,)):
            t = b1 if k is None else float(log.t[k])
            dt = t - t_prev
            t_prev = t
            if dt <= 0.0:
                continue
            if exact:
                total += dt * (pair_sum.cost if two else pair_sum.total) / n**2
            else:
                ii = rng.integers(0, n, size=pairs_per_interval)
                jj = rng.integers(0, n, size=pairs_per_interval)
                u = np.linalg.norm(v[ii] - v[jj], axis=1)
                b_kernel = 1.0 + beta * u
                kvals = scheme.pair_k(k_idx, u, alive[ii] & alive[jj])
                samples = tau(kvals) * b_kernel
                total += dt * float(samples.mean())
                if pairs_per_interval > 1:
                    var += dt * dt * float(samples.var(ddof=1)) / pairs_per_interval
    return total, math.sqrt(var)


# ---------------------------------------------------------------------------
# variational functionals


def _xi2_pair_sum(v: np.ndarray, g: TestFunctionDescriptor, beta: float) -> _PairSum:
    """The pair sum of the sigma-averaged (e^g - 1) B over the live velocities v."""
    if g.sigma_coupling == 0.0:
        pts, wts = (None,), (1.0,)
    else:
        pts, wts = sphere_quadrature(v.shape[1])

    def h(rows):
        va = v[rows, None, :]
        acc = sum(wq * (np.exp(g.g(va, v[None, :, :], p)) - 1.0) for p, wq in zip(pts, wts))
        return acc * (1.0 + beta * _distances(v[rows], v))

    return _PairSum(len(v), h)


def xi_functionals(trajectory, phi: TestFunctionDescriptor | None,
                   f: TestFunctionDescriptor | None,
                   g: TestFunctionDescriptor | None,
                   reference: ReferenceMeasure) -> tuple[float, float, float]:
    """(Xi_0, Xi_1, Xi_2) on a simulated trajectory.

    f must vanish at time 0 (reject otherwise); time integrals are exact
    piecewise between events.  Xi_1 reads every collision's velocities
    before and after it from one `replay_rows` walk.  The Xi_2 compensator
    int (e^g - 1) dmbar keeps its pair sum as a `_PairSum`, built once and
    updated in O(N) per collision.
    """
    v0 = trajectory.initial_state.velocities

    xi0 = 0.0
    if phi is not None:
        xi0 = float(np.mean(phi.phi(v0))) - phi.log_mgf(reference)
    if f is not None and abs(f.a_of_t(0.0)) > 0.0:
        raise ValueError("admissible f must vanish at t = 0")
    if f is None and g is None:
        return xi0, 0.0, 0.0
    if trajectory.log is None:
        raise ValueError("trajectory was run without an event log")
    xi1 = _xi1(trajectory, f) if f is not None else 0.0
    xi2 = _xi2(trajectory, g) if g is not None else 0.0
    return xi0, xi1, xi2


def _xi1(trajectory, f: TestFunctionDescriptor) -> float:
    """<f_T, mu_T> - int <d_s f, mu_s> ds - int Delta f dw for f = a(t) b(v).

    The mean of b moves by db / N at each collision, db the change of b over
    its two particles; the time integral runs span by span between rows,
    with a span term only where the span is longer than 0.  Array
    arithmetic in the order of a walk over the rows: each sum is an
    `np.add.accumulate`, which adds left to right (np.sum adds pairwise).
    """
    n = trajectory.initial_state.n
    log = trajectory.log
    v = trajectory.initial_state.velocities.copy()
    b_kind = f.b_kind if f.kind == "product" else f.kind
    b_mean0 = float(np.mean(f._b(v, b_kind)))
    b = f._b(replay_rows(v, log, pairs=True), b_kind)  # (m, 4): before i, j; after i, j
    db = ((b[:, 2] + b[:, 3]) - b[:, 0]) - b[:, 1]
    live = ~log.fictitious
    times = np.append(log.t, trajectory.config.t_max)  # the end of each span
    a = f.a_of_times(times)
    b_mean = np.add.accumulate(np.concatenate(([b_mean0], db / n)))  # after each collision
    collisions = np.concatenate(([0], np.cumsum(live)))  # before each row, and at t_max
    span = np.diff(times, prepend=0.0) > 0.0
    spans = np.diff(a, prepend=f.a_of_t(0.0))[span] * b_mean[collisions[span]]
    time_integral = np.add.accumulate(np.concatenate(([0.0], spans)))[-1]
    event_sum = np.add.accumulate(np.concatenate(([0.0], a[:-1][live] * db / n)))[-1]
    return float(a[-1] * b_mean[-1] - time_integral - event_sum)


def _xi2(trajectory, g: TestFunctionDescriptor) -> float:
    """<g, w> - int (e^g - 1) dmbar, the compensator a tracked pair sum."""
    n = trajectory.initial_state.n
    t_max = trajectory.config.t_max
    log = trajectory.log
    v = trajectory.initial_state.velocities.copy()
    g_pairs = _xi2_pair_sum(v, g, trajectory.config.kernel.slope)
    g_flux = 0.0
    g_compensator = 0.0
    t0 = 0.0
    for k in itertools.chain(replay_events(v, log, tracker=g_pairs), (None,)):
        t1 = t_max if k is None else float(log.t[k])
        dt = t1 - t0
        if dt > 0.0:
            g_compensator += dt * g_pairs.total / n**2
        t0 = t1
        if k is None or log.fictitious[k]:
            continue
        g_flux += float(g.g(v[log.i[k]], v[log.j[k]], log.sigma[k])) / n
    return g_flux - g_compensator
