"""Distances between atomic measures and moment statistics.

The distance implemented is the bounded-Lipschitz dual

    sup { sum_k f_k (mu_k - nu_k) : |f_k| <= 1, |f_k - f_l| <= |x_k - x_l| }

over the combined support.  Its primal is a partial optimal-transport
problem: move mass at cost min(distance, 2) or pay 1 per unit destroyed and
1 per unit created.  We solve the primal exactly on the transport network of
the pairs closer than the cap, with an "abstain" node on each side at cost 1
from everything.  Pairs at the cap drop out: moving a unit costs c_ij
against 2 for destroying and creating it, so some optimum leaves them empty.
There is one route, whatever the weights, and a fallback:

* wherever the compiled kernel loads, one call of `kac_transport` in
  `_ktools.c` lists the pairs closer than the cap from the points, with their
  distances, straight into its arc arrays (O(pairs) memory, no copy), and
  solves the network by a network simplex.  It prices each atom's 8 nearest
  listed partners and the abstain arcs until none is left to enter, then
  prices every other listed pair once at those potentials, brings in the
  violators and goes on; a pass that brings in none certifies the basic
  solution: every reduced cost is nonnegative, an exact optimum up to a
  1e-11 pricing tolerance on costs of order 1.  No scipy module is loaded;
* without the kernel, a sparse LP (HiGHS, interior point with crossover) on
  the same pairs, taken from a dense distance matrix.  Its feasibility
  tolerances are 1e-10 and its interior-point optimality tolerance 1e-12,
  the smallest HiGHS accepts, and where costs nearly tie it misses the
  optimum by up to 1e-11 relative.

Both routes see the same costs, the bytes of scipy's `cdist`.  The dual
formulation and an assignment on equal-unit atoms are kept in the test
suite as independent oracles.  The same machinery with unequal masses
(abstain soaking up the difference) gives the flux-space metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kloop

DISTANCE_CAP = 2.0
# the network simplex gives up after this many pivots per arc: a guard
# against cycling, far above the 0.05-0.25 a solve takes
_PIVOTS_PER_ARC = 20
_SIMPLEX_ERRORS = {_kloop.ERR_MEMORY: "out of memory or 2^31 arcs",
                   _kloop.ERR_PIVOTS: "pivot cap reached",
                   _kloop.ERR_ARTIFICIAL: "artificial flow left"}


@dataclass
class WeightedMeasure:
    """Finite atomic measure: points (n, k) and nonnegative weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.weights))):
            raise ValueError("points and weights must be finite")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.weights)

    def merge_atoms(self) -> "WeightedMeasure":
        """Sum weights of exactly-equal points (no epsilon snapping) and drop
        atoms of weight 0; the atoms come out in `np.unique`'s row order."""
        if self.points.shape[1] > 0:
            # one stable sort on the first coordinate: where no two are equal,
            # no two rows are, and this is the lexicographic order
            order = np.argsort(self.points[:, 0], kind="stable")
            first = self.points[order, 0]
            if np.all(first[1:] != first[:-1]):
                order = order[self.weights[order] > 0.0]
                return WeightedMeasure(self.points[order], self.weights[order])
        uniq, inverse = np.unique(self.points, axis=0, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse.ravel(), self.weights)
        keep = w > 0.0
        return WeightedMeasure(uniq[keep], w[keep])

    def subsample(self, n_atoms: int, seed: int) -> "WeightedMeasure":
        """i.i.d. subsample of the normalised measure, n_atoms uniform atoms."""
        rng = np.random.default_rng(seed)
        p = self.weights / self.total_mass
        idx = rng.choice(len(self.weights), size=n_atoms, p=p)
        return WeightedMeasure(self.points[idx], np.full(n_atoms, self.total_mass / n_atoms))


def moment(mu: WeightedMeasure, p: float, threshold: float | None = None) -> float:
    """sum_k w_k |x_k|^p, optionally restricted to |x_k| <= threshold."""
    r = np.linalg.norm(mu.points, axis=1)
    vals = r**p if p != 0 else np.ones_like(r)
    if threshold is not None:
        vals = vals * (r <= threshold)
    return float(np.dot(mu.weights, vals))


# ---------------------------------------------------------------------------
# the capped-cost partial transport solve


def _distances(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """The dense n1 x n2 matrix of |p1_a - p2_b|: sums of squares in
    coordinate order, then sqrt, the bytes of `cdist`.  The transport route
    without the kernel, and the pair sums' rows as `_distances(v[rows], v)`.

    One coordinate at a time, so each operation runs along n2; an
    (n1, n2, d) difference array would run its inner loops over d.  Points
    with no coordinates are all at distance 0.
    """
    acc = np.zeros((len(p1), len(p2)))
    for k in range(p1.shape[1]):
        acc += (p1[:, k, None] - p2[None, :, k]) ** 2
    return np.sqrt(acc, out=acc)


def _lp_route(cost: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """Sparse HiGHS LP on the pairs closer than the cap: the route where the
    compiled kernel is missing, and the tests' reference.

    m1 + m2 + min sum (c_ij - 2) pi_ij, row sums <= w1, column sums <= w2.
    Interior point with crossover, which ends on a vertex: dual simplex
    took 4x as long once a sixth of 4M pairs fell below the cap.  HiGHS's
    tolerances are absolute, so the weights are solved at the power of two
    that brings the larger maximum into [0.5, 1), an exact rescale, and
    they are set below the defaults (1e-7) to the smallest values HiGHS
    accepts (it ignores smaller ones): 1e-10 on primal and dual feasibility
    and 1e-12 on the interior point's optimality.  Its error bar: on 30
    problems where costs nearly tie (30 + 17 lattice atoms of units 1/30
    and 1/17, each moved by 1e-9) it misses the network simplex by at most
    9.5e-12 relative, and the exact assignment of the tests' ten near ties
    by at most 9.1e-12.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    n1, n2 = cost.shape
    base = float(w1.sum() + w2.sum())
    ii, jj = np.nonzero(cost < DISTANCE_CAP)
    if len(ii) == 0:
        return base
    scale = 2.0 ** -np.frexp(max(w1.max(), w2.max()))[1]
    # column k has a unit entry in row ii[k] (w1) and in row n1 + jj[k] (w2)
    a_ub = csc_matrix((np.ones(2 * len(ii)), np.stack([ii, n1 + jj], axis=1).ravel(),
                       np.arange(0, 2 * len(ii) + 1, 2)), shape=(n1 + n2, len(ii)))
    res = linprog(cost[ii, jj] - DISTANCE_CAP, A_ub=a_ub, b_ub=np.concatenate([w1, w2]) * scale,
                  bounds=(0, None), method="highs-ipm",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10,
                           "ipm_optimality_tolerance": 1e-12})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return base + float(res.fun) / scale


def _simplex_route(lib, p1: np.ndarray, w1: np.ndarray, p2: np.ndarray, w2: np.ndarray) -> float:
    """Compiled network simplex on the pairs closer than the cap, which the
    kernel lists from the points; the costs are the distances, whatever the
    weights' scale."""
    p1, w1, p2, w2 = (np.ascontiguousarray(a, dtype=float) for a in (p1, w1, p2, w2))
    value, pairs, pivots = np.zeros(1), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    status = lib.kac_transport(p1.ctypes.data, w1.ctypes.data, len(p1),
                               p2.ctypes.data, w2.ctypes.data, len(p2), p1.shape[1], DISTANCE_CAP,
                               _PIVOTS_PER_ARC, value.ctypes.data, pairs.ctypes.data,
                               pivots.ctypes.data)
    if status != _kloop.DONE:
        raise RuntimeError(f"transport LP failed: {_SIMPLEX_ERRORS[status]} "
                           f"after {pivots[0]} pivots")
    if pairs[0] == 0:
        return float(w1.sum() + w2.sum())
    return float(value[0])


def _flat_distance(p1: np.ndarray, w1: np.ndarray, p2: np.ndarray, w2: np.ndarray) -> float:
    """Bounded-Lipschitz distance between two atomic measures."""
    if len(p1) == 0 and len(p2) == 0:
        return 0.0
    if len(p1) == 0:
        return float(w2.sum())
    if len(p2) == 0:
        return float(w1.sum())
    if p1.shape[1] != p2.shape[1]:
        raise ValueError(f"points in R^{p1.shape[1]} and R^{p2.shape[1]}: the dimensions differ")
    lib = _kloop.library()
    if lib is None:
        return _lp_route(_distances(p1, p2), w1, w2)
    return _simplex_route(lib, p1, w1, p2, w2)


def bl_distance(mu: WeightedMeasure, nu: WeightedMeasure, support_cap: int = 4000,
                subsample_seed: int = 0) -> float:
    """Bounded-Lipschitz (flat) distance between probability measures.

    `flux_distance` after a check that the masses agree; always <= 2.
    """
    if abs(mu.total_mass - nu.total_mass) > 1e-9 * max(mu.total_mass, 1.0):
        raise ValueError(
            f"mass mismatch: {mu.total_mass} vs {nu.total_mass}; use flux_distance for unequal masses"
        )
    return flux_distance(mu, nu, support_cap, subsample_seed)


def flux_distance(w1: WeightedMeasure, w2: WeightedMeasure, support_cap: int = 4000,
                  subsample_seed: int = 0) -> float:
    """Same dual metric on the flux space E in R^{3d+1}; masses may differ.

    Exact LP optimum on the combined support.  The |g| <= 1 cap keeps the
    value finite: excess mass costs 1 per unit.  Inputs whose combined
    support exceeds `support_cap` are i.i.d.-subsampled (seeded) to the cap
    before solving; the cap is at least 2, one atom a side.
    """
    if support_cap < 2:
        raise ValueError(f"support_cap = {support_cap}: at least 2 atoms are needed, one a side")
    w1 = w1.merge_atoms()
    w2 = w2.merge_atoms()
    if len(w1) + len(w2) > support_cap:
        half = support_cap // 2
        if len(w1) > half:
            w1 = w1.subsample(half, subsample_seed)
        if len(w2) > half:
            w2 = w2.subsample(half, subsample_seed + 1)
    return _flat_distance(w1.points, w1.weights, w2.points, w2.weights)


# ---------------------------------------------------------------------------
# empirical large-deviation slope


def fit_ldp_slope(levels) -> tuple[float, float]:
    """Weighted least-squares slope of log p-hat against N.

    `levels` is a sequence of (N, log p-hat, Var log p-hat), one per level,
    from any estimator of p; each level is weighted by the inverse
    of its variance.  Returns (slope, stderr); the empirical rate is -slope.
    """
    levels = [(float(n), float(y), float(v)) for (n, y, v) in levels]
    if len(levels) < 3:
        raise ValueError(f"need at least 3 levels, got {len(levels)}")
    if not all(math.isfinite(y) and 0.0 < v < math.inf for _, y, v in levels):
        raise ValueError(f"log p-hat must be finite and its variance positive: {levels}")
    n_arr = np.array([n for n, _, _ in levels])
    y = np.array([y for _, y, _ in levels])
    w = 1.0 / np.array([v for _, _, v in levels])
    nbar = np.sum(w * n_arr) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (n_arr - nbar) ** 2)
    slope = float(np.sum(w * (n_arr - nbar) * (y - ybar)) / sxx)
    stderr = float(1.0 / math.sqrt(sxx))
    return slope, stderr


def estimate_ldp_rate(counts) -> tuple[float, float]:
    """Weighted least-squares slope of log(hits/trials) against N.

    `counts` is a sequence of (N, hits, trials).  Each level's log p-hat
    gets the binomial variance 1/hits (small-p limit) and the fit is
    `fit_ldp_slope`.  Returns (slope, stderr); the empirical rate is -slope.
    """
    counts = [(float(n), float(h), float(m)) for (n, h, m) in counts]
    if all(h == 0.0 for _, h, _ in counts):
        raise ValueError("all hit counts are zero: no exceedances observed")
    usable = [(n, h, m) for (n, h, m) in counts if h > 0.0]
    if len(usable) < 3:
        raise ValueError(
            f"need at least 3 levels with nonzero hits, got {len(usable)} "
            f"(hit counts: {[(int(n), h) for n, h, _ in counts]})"
        )
    return fit_ldp_slope([(n, math.log(h / m), 1.0 / h) for n, h, m in usable])
