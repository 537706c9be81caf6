import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist


def dual_lp_oracle(mu, nu) -> float:
    """Independent route to the bounded-Lipschitz distance: solve the dual
    potential LP sup f.(mu - nu) over |f| <= 1, |f_k - f_l| <= |x_k - x_l|
    directly on the combined support."""
    pts = np.vstack([mu.points, nu.points])
    sign = np.concatenate([mu.weights, -nu.weights])
    n = len(pts)
    d = cdist(pts, pts)
    rows, rhs = [], []
    for k in range(n):
        for l in range(k + 1, n):
            r = np.zeros(n)
            r[k], r[l] = 1.0, -1.0
            rows.append(r.copy())
            rhs.append(d[k, l])
            rows.append(-r)
            rhs.append(d[k, l])
    res = linprog(-sign, A_ub=np.array(rows) if rows else None,
                  b_ub=np.array(rhs) if rows else None,
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    assert res.success
    return -res.fun


def assignment_oracle(cost, unit: float) -> float:
    """Exact bounded-Lipschitz distance when every atom carries the weight
    `unit`: the transportation polytope has integral vertices, so it is one
    square assignment (scipy's `linear_sum_assignment`) of the n1 x n2
    distances capped at 2, each side padded with the other's count of
    abstain copies (cost 1 against real atoms, 0 against each other)."""
    n1, n2 = cost.shape
    big = np.ones((n1 + n2, n1 + n2))
    big[:n1, :n2] = np.minimum(cost, 2.0)
    big[n1:, n2:] = 0.0
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum() * unit)


def vertex_enumeration_oracle(mu, nu) -> float:
    """True brute force for tiny supports: enumerate all vertices of the
    feasible polytope {|f| <= 1, Lipschitz} by choosing n tight constraints."""
    import itertools

    pts = np.vstack([mu.points, nu.points])
    sign = np.concatenate([mu.weights, -nu.weights])
    n = len(pts)
    d = cdist(pts, pts)
    constraints = []  # (normal, offset) rows of A f <= b
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        constraints.append((e.copy(), 1.0))
        constraints.append((-e, 1.0))
    for k in range(n):
        for l in range(k + 1, n):
            r = np.zeros(n)
            r[k], r[l] = 1.0, -1.0
            constraints.append((r.copy(), d[k, l]))
            constraints.append((-r, d[k, l]))
    best = 0.0
    a_mat = np.array([c[0] for c in constraints])
    b_vec = np.array([c[1] for c in constraints])
    for combo in itertools.combinations(range(len(constraints)), n):
        a = a_mat[list(combo)]
        b = b_vec[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        f = np.linalg.solve(a, b)
        if np.all(a_mat @ f <= b_vec + 1e-9):
            best = max(best, float(sign @ f))
    return best


def weighted_ks_statistic(x, y, wy):
    """Two-sample KS distance between the empirical law of x and the
    weighted empirical law of (y, wy); returns (D, effective sample size)."""
    x = np.sort(np.asarray(x, dtype=float))
    order = np.argsort(y)
    y = np.asarray(y, dtype=float)[order]
    wy = np.asarray(wy, dtype=float)[order]
    wy = wy / wy.sum()
    grid = np.unique(np.concatenate([x, y]))
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.cumsum(wy)[np.minimum(np.searchsorted(y, grid, side="right") - 1, len(y) - 1)]
    fy = np.where(np.searchsorted(y, grid, side="right") == 0, 0.0, fy)
    n_eff = 1.0 / np.sum((wy) ** 2)
    return float(np.max(np.abs(fx - fy))), n_eff


def ks_threshold(n1, n2, alpha=0.01):
    c = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return c * np.sqrt((n1 + n2) / (n1 * n2))


# ---------------------------------------------------------------------------
# O(N^2) reference implementations of the Girsanov ledger: the engine keeps
# the same quantities incrementally, and the tests cross-check it here


def compensator_rate(state_velocities, scheme, kernel, t) -> float:
    """(1/N) sum_{i,j} (K - 1) B at a frozen state; exact, O(N^2)."""
    v = np.asarray(state_velocities, dtype=float)
    n = len(v)
    k_idx = scheme.interval_index(t)
    c = scheme.coeffs[k_idx]
    delta = scheme.deltas[k_idx]
    frozen = scheme.frozen_mask(k_idx, n)
    diff = v[:, None, :] - v[None, :, :]
    u = np.sqrt(np.sum(diff * diff, axis=-1))
    b = 1.0 + kernel.slope * u
    kmat = c * (1.0 + delta * u)
    alive = ~frozen
    kmat *= np.outer(alive, alive)
    return float(np.sum((kmat - 1.0) * b)) / n


def accumulate_compensator(ledger, state, scheme, kernel, dt):
    """Advance the compensator term by dt at a frozen state."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    ledger.compensator_term += dt * compensator_rate(state.velocities, scheme, kernel, state.time)
    return ledger


def record_jump(ledger, event, scheme):
    """Add log K at a recorded (non-fictitious) event point."""
    if event.fictitious:
        raise ValueError("fictitious events carry no flux mass")
    k_idx = scheme.interval_index(event.time)
    frozen = scheme.frozen_sets[k_idx]
    i_frozen = bool(np.isin(event.i, frozen, assume_unique=False))
    j_frozen = bool(np.isin(event.j, frozen, assume_unique=False))
    u = float(np.linalg.norm(np.asarray(event.pre_v) - np.asarray(event.pre_v_star)))
    k_val = scheme.k_value(event.time, u, i_frozen, j_frozen)
    if k_val == 0.0:
        ledger.hit_zero = True
    else:
        ledger.jump_term += math.log(k_val)
    return ledger
