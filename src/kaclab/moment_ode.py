"""Collisional moment production and the closed fourth-moment relaxation.

For the unit kernel the sigma-averaged production of |v|^4 is a quadratic
form in two rotation invariants of the pair, so under an isotropic second-
moment matrix the fourth moment obeys a closed linear law

    d/dt m4 = a m2^2 + b m4,   a > 0 > b,

with coefficients fixed by the collision geometry alone.  The coefficients
are extracted numerically from ``sigma_avg_delta`` on a family of pair
configurations (machine-derived, not hard-coded) and cached per dimension.
Hard-sphere-type kernels do not close; for those the Povzner-shaped
envelope check below is the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinetics import sphere_quadrature

_SUPPORTED_P = (2, 4, 6)
# povzner_check flags m_p above this multiple of its running minimum
_SPIKE_FACTOR = 2.0
_coeff_cache: dict = {}


def sigma_avg_delta(p: int, v: np.ndarray, v_star: np.ndarray) -> float:
    """Uniform-sphere average of |v'|^p + |v_star'|^p - |v|^p - |v_star|^p.

    Supported p in {2, 4, 6}.  The integrand is a polynomial of degree
    <= p in sigma, so `kinetics.sphere_quadrature` averages it exactly (the
    26-point rule for d = 3, 26 equispaced angles for d = 2).  d = 1
    collisions swap velocities (zero).
    """
    if p not in _SUPPORTED_P:
        raise ValueError(f"unsupported moment order p = {p}; supported: {_SUPPORTED_P}")
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    d = v.shape[-1]
    u = v - v_star
    if np.linalg.norm(u) == 0.0 or d == 1:
        return 0.0
    sig, wts = sphere_quadrature(d)  # NotImplementedError above d = 3
    # |v'|^2 = |v|^2 - P, |v_star'|^2 = |v_star|^2 + P, P = (u.s)(w.s)
    pvals = (sig @ u) * (sig @ (v + v_star))
    sv = float(v @ v)
    svs = float(v_star @ v_star)
    half = p // 2
    return float(np.dot(wts, (sv - pvals) ** half + (svs + pvals) ** half
                        - sv**half - svs**half))


def maxwell_m4_coeffs(d: int = 3) -> tuple[float, float]:
    """(a, b) of the closed law d/dt m4 = a m2^2 + b m4 for the unit kernel.

    The sigma-averaged production is alpha (u.w)^2 + beta |u|^2 |w|^2 in
    the pair invariants; alpha and beta are fitted (with residual check)
    from sigma_avg_delta on a spread of pair configurations and the closure
    integrals over an isotropic-covariance law convert them to (a, b).
    """
    if d in _coeff_cache:
        return _coeff_cache[d]
    if d != 3:
        raise NotImplementedError("coefficients implemented for d = 3")
    configs = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 1.0), (2.0, 3.0), (1.5, 0.5)]
    rows, ys = [], []
    for a_len, b_len in configs:
        v = np.array([a_len, 0.0, 0.0])
        v_star = np.array([0.0, b_len, 0.0])
        u = v - v_star
        w = v + v_star
        rows.append([float(u @ w) ** 2, float(u @ u) * float(w @ w)])
        ys.append(sigma_avg_delta(4, v, v_star))
    rows = np.asarray(rows)
    ys = np.asarray(ys)
    (alpha, beta), res, *_ = np.linalg.lstsq(rows, ys, rcond=None)
    fit_residual = float(np.max(np.abs(rows @ np.array([alpha, beta]) - ys)))
    if fit_residual > 1e-9:
        raise AssertionError(f"two-invariant representation failed: residual {fit_residual}")
    # int (u.w)^2 dmu dmu = 2 m4 - 2 m2^2; int |u|^2|w|^2 = 2 m4 + 2 m2^2 - 4 m2^2/d
    b_coef = 2.0 * alpha + 2.0 * beta
    a_coef = -2.0 * alpha + beta * (2.0 - 4.0 / d)
    _coeff_cache[d] = (float(a_coef), float(b_coef))
    return _coeff_cache[d]


def maxwell_m4_curve(m2: float, m4_0: float, times, d: int = 3) -> np.ndarray:
    """The closed m4 law solved from m4_0 at the given checkpoint times.

    m2 is conserved, so the law is linear with constant coefficients and
    m4(t) = m4_0 e^{bt} - m4_inf expm1(bt), m4_inf = -a m2^2 / b; at t = 0
    this is m4_0 bit for bit.  Requires the Cauchy-Schwarz-feasible
    m4_0 >= m2^2.
    """
    if m4_0 < m2 * m2 * (1.0 - 1e-12):
        raise ValueError(f"infeasible m4_0 = {m4_0} < m2^2 = {m2 * m2}")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("checkpoint times must be nonnegative")
    a_coef, b_coef = maxwell_m4_coeffs(d)
    m4_inf = -a_coef * m2 * m2 / b_coef
    bt = b_coef * times
    return m4_0 * np.exp(bt) - m4_inf * np.expm1(bt)


# ---------------------------------------------------------------------------
# ensemble moment tracks and the moment-growth envelope diagnostic


@dataclass
class MomentTrack:
    """Ensemble moment summaries along checkpoint times."""

    times: np.ndarray
    m2: np.ndarray
    m2_se: np.ndarray
    m4: np.ndarray
    m4_se: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.m2 = np.asarray(self.m2, dtype=float)
        self.m4 = np.asarray(self.m4, dtype=float)
        self.m2_se = np.asarray(self.m2_se, dtype=float)
        self.m4_se = np.asarray(self.m4_se, dtype=float)
        slack = 3.0 * (self.m4_se + 2.0 * np.abs(self.m2) * self.m2_se)
        if np.any(self.m4 < self.m2**2 - slack - 1e-12):
            raise ValueError("m4 < m2^2 beyond statistical slack: inconsistent track")


@dataclass
class PovznerReport:
    c_fit: float
    fitted_exponent: float
    violations: list
    envelope: np.ndarray


def povzner_check(track: MomentTrack, p: float = 4.0) -> PovznerReport:
    """Fit the smallest C with m_p(s) <= C (1 + T) s^{2-p} m2(0) on the track.

    Purely diagnostic (the constant is not prescribed).  The moment-growth
    shape admits creation from heavy initial data followed by a plateau or
    decay; what it rules out is late-time growth, so checkpoints where m_p
    exceeds twice its running minimum are flagged as violations.  A factor
    2 sits far above the ensemble noise of m_p and well below an injected
    late spike (the negative control).  Also reports the log-log slope of
    m_p against s, near 0 for p = 2.
    """
    mask = track.times > 0.0
    s_grid = track.times[mask]
    m_p = track.m4[mask] if p == 4.0 else track.m2[mask]
    horizon = float(track.times.max())
    m2_0 = float(track.m2[0])
    ratios = m_p * s_grid ** (p - 2.0) / ((1.0 + horizon) * m2_0)
    c_fit = float(ratios.max())
    running_min = np.minimum.accumulate(m_p)
    violations = [float(s) for s, m, lo in zip(s_grid, m_p, running_min)
                  if m > _SPIKE_FACTOR * lo]
    slope = float(np.polyfit(np.log(s_grid), np.log(np.maximum(m_p, 1e-300)), 1)[0])
    return PovznerReport(c_fit=c_fit, fitted_exponent=slope, violations=violations, envelope=ratios)
