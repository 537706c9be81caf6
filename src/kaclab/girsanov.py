"""Change-of-measure machinery for the collision process.

A tilting scheme has two parts:

* an *initial tilt* ``phi(v) = lam |v|^2 1[|v| >= M] - psi`` reweighting the
  reference measure of the initial data (``int exp(phi) dmu = 1``), and
* a *dynamic tilt* ``K`` multiplying the collision kernel.  Every scheme in
  scope is sigma-independent, symmetric, and piecewise constant in time:

      K(t, v, v_star) = c_k * (1 + delta_k |v - v_star|)

  on the k-th time interval, forced to 0 whenever either participant index
  belongs to that interval's frozen set.  Frozen sets are index sets fixed
  by the initial data, matching the requirement that the dynamic tilt is a
  function of the time-zero configuration only.

The log Radon-Nikodym derivative of the tilted path measure accumulates as

    log dQ/dP = sum_i phi(v_i(0))                     (initial term)
              + sum_{events} log K(t, v, v_star)      (jump term)
              - int_0^T (1/N) sum_{i,j} (K - 1) B dt  (compensator term)

with the convention that the derivative is 0 (log = -inf) if any recorded
event lands where K = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import Kernel
from .reference import ReferenceMeasure

_NORMALISATION_TOL = 1e-8


@dataclass(frozen=True)
class InitialTilt:
    """Descriptor of phi(v) = lam |v|^2 1[|v| >= M] - psi."""

    lam: float
    M: float
    psi: float

    def phi(self, velocities: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(np.asarray(velocities, dtype=float))
        s = np.sum(v * v, axis=-1)
        return self.lam * s * (np.sqrt(s) >= self.M) - self.psi


def _tail_law(reference: ReferenceMeasure, M: float, lam: float) -> tuple:
    """(m2, scale_t, growth) of the law of s = |v|^2 under exp(lam |v|^2
    1[|v| >= M]) dmu, for lam < z2 of either sign and 0 <= M <= inf: below
    m2 = M^2 the base Gamma(shape, scale), above it growth = (scale_t/scale)^shape
    times the widened Gamma(shape, scale_t), scale_t = 1/(1/scale - lam)."""
    m2 = M * M
    scale_t = 1.0 / (1.0 / reference.scale - lam)
    return m2, scale_t, (scale_t / reference.scale) ** reference.shape


def _tail_mass(reference: ReferenceMeasure, M: float, lam: float) -> float:
    """That law's mass F(m2) + growth S_t(m2) = int exp(lam |v|^2 1[|v| >= M]) dmu."""
    m2, scale_t, growth = _tail_law(reference, M, lam)
    return float(reference.speed2_cdf(m2)) + growth * float(reference.speed2_sf(m2, scale=scale_t))


class TiltingSchemeError(ValueError):
    pass


@dataclass
class TiltingScheme:
    """Initial tilt plus piecewise-in-time dynamic tilt.

    ``breakpoints`` has length m+1 with breakpoints[0] = 0; interval k is
    [breakpoints[k], breakpoints[k+1]).  ``frozen_sets[k]`` is a sorted int
    array of particle indices excluded from collisions (K = 0) on interval k.
    """

    initial_tilt: InitialTilt | None = None
    breakpoints: np.ndarray = field(default_factory=lambda: np.array([0.0, np.inf]))
    coeffs: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    deltas: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    frozen_sets: list = field(default_factory=lambda: [np.array([], dtype=np.int64)])

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.deltas = np.asarray(self.deltas, dtype=float)
        m = len(self.coeffs)
        if len(self.breakpoints) != m + 1 or len(self.deltas) != m or len(self.frozen_sets) != m:
            raise TiltingSchemeError("inconsistent interval structure")
        if np.any(np.diff(self.breakpoints) < 0) or self.breakpoints[0] != 0.0:
            raise TiltingSchemeError("breakpoints must start at 0 and be sorted")
        if np.any(self.coeffs < 0.0) or np.any(self.deltas < 0.0):
            raise TiltingSchemeError("K must be nonnegative")
        self.frozen_sets = [np.asarray(f, dtype=np.int64) for f in self.frozen_sets]

    # ---- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "TiltingScheme":
        return cls()

    @classmethod
    def constant(cls, kappa: float) -> "TiltingScheme":
        """K identically equal to kappa."""
        return cls(coeffs=np.array([float(kappa)]))

    @classmethod
    def pairwise(cls, a: float, b: float, initial_tilt: InitialTilt | None = None) -> "TiltingScheme":
        """K = a + b |v - v_star| with a > 0, b >= 0."""
        if a <= 0.0 or b < 0.0:
            raise TiltingSchemeError("pairwise tilt requires a > 0, b >= 0")
        return cls(initial_tilt=initial_tilt, coeffs=np.array([a]), deltas=np.array([b / a]))

    # ---- evaluation ----------------------------------------------------

    def validate_normalisation(self, reference: ReferenceMeasure) -> None:
        """Check int exp(phi) dmu = e^{-psi} `_tail_mass` = 1 in closed form;
        a NaN anywhere fails it."""
        if self.initial_tilt is None:
            return
        tilt = self.initial_tilt
        if tilt.lam >= reference.z2:
            raise TiltingSchemeError(
                f"initial tilt lam = {tilt.lam} >= z2 = {reference.z2}: not normalisable"
            )
        try:
            scale = math.exp(-tilt.psi)
        except OverflowError:
            raise TiltingSchemeError(
                f"initial tilt psi = {tilt.psi}: e^(-psi) overflows, so it is not normalised"
            ) from None
        val = scale * _tail_mass(reference, tilt.M, tilt.lam)
        if not abs(val - 1.0) <= _NORMALISATION_TOL:
            raise TiltingSchemeError(f"initial tilt is not normalised: int e^phi = {val!r}")

    def validate_kernel(self, kernel: Kernel) -> None:
        # K*B must stay below the engine's majorant c(1 + gamma(|v| + |v_star|));
        # a pairwise-growing K combined with a growing kernel is quadratic
        if kernel.slope > 0.0 and np.any(self.deltas > 0.0):
            raise TiltingSchemeError(
                "pairwise tilt with a growing kernel has no linear majorant"
            )

    def n_intervals(self) -> int:
        return len(self.coeffs)

    def interval_index(self, t: float) -> int:
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(k, 0), self.n_intervals() - 1)

    def frozen_mask(self, k: int, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        idx = self.frozen_sets[k]
        mask[idx[idx < n]] = True
        return mask

    def pair_k(self, k: int, u, alive) -> np.ndarray:
        """K on interval k for pairs at distances u; alive is True for the
        pairs with no frozen particle.  Broadcasts."""
        return self.coeffs[k] * (1.0 + self.deltas[k] * u) * alive

    def is_unit(self, k: int) -> bool:
        """K = 1 on every pair of interval k."""
        return self.coeffs[k] == 1.0 and self.deltas[k] == 0.0 and len(self.frozen_sets[k]) == 0

    def k_value(self, t: float, u_dist: float, i_frozen: bool = False, j_frozen: bool = False) -> float:
        """K at a collision point with pair distance u_dist = |v - v_star|."""
        return float(self.pair_k(self.interval_index(t), u_dist, not (i_frozen or j_frozen)))

    def is_trivial(self) -> bool:
        return self.initial_tilt is None and all(map(self.is_unit, range(self.n_intervals())))


def tau(k) -> np.ndarray | float:
    """Entropic jump cost k log k - k + 1; tau(0) = 1 by continuity.

    int tau(K) dmbar is the dynamic cost of a tilt K (`rate_function`).
    """
    arr = np.asarray(k, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("tau is defined on [0, inf)")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 0.0, arr * np.log(np.maximum(arr, 1e-300)) - arr + 1.0, 1.0)
    return float(out) if np.isscalar(k) else out


# ---------------------------------------------------------------------------
# Radon-Nikodym ledger


@dataclass
class RNLedger:
    """Additive pieces of log dQ/dP, kept separate for auditability."""

    initial_term: float = 0.0
    jump_term: float = 0.0
    compensator_term: float = 0.0
    hit_zero: bool = False

    def log_rn(self) -> float:
        if self.hit_zero:
            return -np.inf
        return self.initial_term + self.jump_term - self.compensator_term

    def to_dict(self) -> dict:
        return {
            "initial_term": float(self.initial_term),
            "jump_term": float(self.jump_term),
            "compensator_term": float(self.compensator_term),
            "hit_zero": bool(self.hit_zero),
        }

    def copy(self) -> "RNLedger":
        return RNLedger(self.initial_term, self.jump_term, self.compensator_term, self.hit_zero)


# ---------------------------------------------------------------------------
# Tilted initial data


def sample_tilted_initial(
    reference: ReferenceMeasure,
    scheme: TiltingScheme | None,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n i.i.d. draws from exp(phi) dmu, shape (n, d).

    For the tail tilt phi = lam |v|^2 1[|v| >= M] - psi over the Gaussian
    base, the tilted law is an exact two-component mixture: the base law
    conditioned on |v| < M, and the widened Gaussian (per-coordinate
    variance 1/(d - 2 lam)) conditioned on |v| >= M.  Radial inverse-CDF
    sampling in s = |v|^2 keeps both components exact.
    """
    if scheme is None or scheme.initial_tilt is None or scheme.initial_tilt.lam == 0.0:
        return reference.sample(rng, n)
    tilt = scheme.initial_tilt
    if tilt.lam >= reference.z2:
        raise TiltingSchemeError(
            f"lam = {tilt.lam} >= z2 = {reference.z2}: tilted measure not normalisable"
        )
    m2, scale_t, _ = _tail_law(reference, tilt.M, tilt.lam)
    # exact mixture weights from closed-form Gaussian integrals
    f_in = float(reference.speed2_cdf(m2))
    w_in = math.exp(-tilt.psi) * f_in
    s = np.empty(n)
    inside = rng.random(n) < w_in
    n_in = int(inside.sum())
    if n_in:
        q = rng.random(n_in) * f_in
        s[inside] = reference.speed2_ppf(q)
    n_out = n - n_in
    if n_out:
        q = rng.random(n_out) * float(reference.speed2_sf(m2, scale=scale_t))
        s[~inside] = reference.speed2_isf(q, scale=scale_t)
    dirs = reference.sample_direction(rng, n)
    return dirs * np.sqrt(s)[:, None]
