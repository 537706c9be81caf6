"""Collision geometry and collision kernels.

Velocities are plain float arrays of length ``d``.  The binary collision
parametrised by a unit vector ``sigma`` maps an ordered pair ``(v, v_star)``
to

    v'      = v      - ((v - v_star) . sigma) sigma
    v_star' = v_star + ((v - v_star) . sigma) sigma

which conserves momentum and kinetic energy exactly (up to float rounding),
is an involution, and is invariant under ``sigma -> -sigma``.  ``_collide``
is the one Python copy of this arithmetic: the Python proposal loop, the
Python log walk and the rate-function increments all call it, and the
compiled loop and log walk of ``_kloop.c`` repeat it operation by
operation, so a replayed path reproduces the simulated one bit for bit.
Its dot product, as every dot product of the engine, is ``_dot``: the
unfused sum in coordinate order, in Python and in C, whatever BLAS numpy uses.

Two kernels are supported: Maxwell molecules ``B = 1`` and regularised hard
spheres ``B = 1 + |v - v_star|``; both are bounded below by 1 and independent
of ``sigma``.  The sphere integral ``d sigma`` is taken against the uniform
*probability* measure on ``S^{d-1}`` throughout the package.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

_UNIT_TOL = 1e-12


class Kernel(enum.Enum):
    MAXWELL = "maxwell"
    HARD_SPHERE = "hard_sphere"  # regularised: 1 + |v - v_star|

    @property
    def slope(self) -> float:
        """Coefficient q of |v - v_star| in B = 1 + q |v - v_star|."""
        return 0.0 if self is Kernel.MAXWELL else 1.0


def eval_kernel(kernel: Kernel, v: np.ndarray, v_star: np.ndarray) -> float:
    """Collision kernel B(v - v_star); always >= 1."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    if v.shape != v_star.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {v_star.shape}")
    if kernel is Kernel.MAXWELL:
        return 1.0
    return 1.0 + float(np.linalg.norm(v - v_star))


def post_collision(v: np.ndarray, v_star: np.ndarray, sigma: np.ndarray):
    """Apply the collision map; returns (v', v_star')."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (v.shape == v_star.shape == sigma.shape):
        raise ValueError("dimension mismatch between velocities and sigma")
    nrm = np.linalg.norm(sigma)
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"sigma is not a unit vector: |sigma| = {nrm!r}")
    return _collide(v, v_star, sigma)


def _dot(x: np.ndarray, y: np.ndarray | None = None):
    """x . y (x . x without y) over the last axis in the engine's one order:
    s = x_0 y_0, then s += x_k y_k, each product and sum rounded (no fused
    multiply-add), as `dot` in _kloop.c; a float for vectors, an array for
    rows of them."""
    p = x * (x if y is None else y)
    terms = p.tolist() if p.ndim == 1 else p.T
    s = terms[0]
    for term in terms[1:]:
        s = s + term
    return s


def _collide(v: np.ndarray, v_star: np.ndarray, sigma: np.ndarray):
    """The collision map on float arrays, unchecked; returns (v', v_star')."""
    a = _dot(v - v_star, sigma)
    step = a * sigma
    return v - step, v_star + step


def sample_sigma(rng: np.random.Generator, d: int = 3) -> np.ndarray:
    """Uniform unit vector on S^{d-1} (normalised standard normals)."""
    while True:
        u = rng.standard_normal(d)
        nrm = np.linalg.norm(u)
        if nrm > 1e-300:
            return u / nrm


# ---------------------------------------------------------------------------
# Deterministic sphere quadrature, used to sigma-average integrands that do
# depend on sigma (the sigma-coupled flux test function of Xi_2); for d = 3
# the rule is the 26-point octahedral (Lebedev) rule, exact for polynomials
# of degree 7.

_LEBEDEV26_A = (1.0 / 21.0, 4.0 / 105.0, 27.0 / 840.0)


@functools.cache
def sphere_quadrature(d: int, n_azimuth: int = 26):
    """Nodes and weights for the uniform probability measure on S^{d-1}.

    d = 1 is the exact two-point rule, d = 2 an equispaced angular rule
    (exact for trigonometric polynomials of degree < n_azimuth), d = 3 the
    26-point Lebedev rule.  Each rule is built once; the arrays returned
    are shared and read-only.
    """
    pts, wts = _build_sphere_rule(d, n_azimuth)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def _build_sphere_rule(d: int, n_azimuth: int):
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return pts, np.full(n_azimuth, 1.0 / n_azimuth)
    if d == 3:
        pts, wts = [], []
        # octahedron vertices
        for i in range(3):
            for s in (1.0, -1.0):
                p = np.zeros(3)
                p[i] = s
                pts.append(p)
                wts.append(_LEBEDEV26_A[0])
        # edge midpoints
        r = 1.0 / np.sqrt(2.0)
        for i in range(3):
            for j in range(i + 1, 3):
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        p = np.zeros(3)
                        p[i], p[j] = si * r, sj * r
                        pts.append(p)
                        wts.append(_LEBEDEV26_A[1])
        # cube vertices
        r = 1.0 / np.sqrt(3.0)
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                for sz in (1.0, -1.0):
                    pts.append(np.array([sx, sy, sz]) * r)
                    wts.append(_LEBEDEV26_A[2])
        return np.array(pts), np.array(wts)
    raise NotImplementedError(f"no deterministic sphere rule for d = {d}")
