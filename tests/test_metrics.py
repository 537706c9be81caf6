import ctypes
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import kaclab as kl
from conftest import assignment_oracle, dual_lp_oracle, vertex_enumeration_oracle
from kaclab import _kloop, metrics
from kaclab.engine import ParticleState
from kaclab.metrics import (WeightedMeasure, bl_distance, estimate_ldp_rate,
                            fit_ldp_slope, flux_distance, moment)

needs_kernel = pytest.mark.skipif(_kloop.library() is None, reason="no compiled kernel")


class TestWeightedMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedMeasure([[0.0, 0]], [-1.0])
        with pytest.raises(ValueError):
            WeightedMeasure([[np.inf, 0]], [1.0])
        with pytest.raises(ValueError):
            WeightedMeasure([[0.0, 0]], [1.0, 2.0])

    def test_merge_exact_only(self):
        m = WeightedMeasure([[1.0, 0], [1.0, 0], [1.0 + 1e-15, 0]], [0.25, 0.25, 0.5])
        merged = m.merge_atoms()
        assert len(merged) == 2
        assert merged.total_mass == pytest.approx(1.0)

    @staticmethod
    def _unique_merge(m):
        """The merge as `np.unique` on rows does it, every input down one path."""
        uniq, inverse = np.unique(m.points, axis=0, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse.ravel(), m.weights)
        keep = w > 0.0
        return uniq[keep], w[keep]

    @pytest.mark.parametrize("case", ["distinct", "first_coordinate_ties", "duplicates",
                                      "signed_zeros", "zero_weights", "empty"])
    def test_merge_is_the_unique_merge_to_the_byte(self, case):
        rng = np.random.default_rng(60)
        pts, w = rng.normal(size=(200, 4)), rng.random(200) + 0.01
        if case == "first_coordinate_ties":
            pts[::3, 0] = pts[0, 0]  # equal first coordinates, distinct rows
        elif case == "duplicates":
            pts[100:150] = pts[:50]
        elif case == "signed_zeros":
            # one +0.0 and one -0.0 first coordinate: equal as floats, so the
            # rows are one atom, though their bytes differ
            pts[7, 0], pts[150, 0] = 0.0, -0.0
            pts[150, 1:] = pts[7, 1:]
        elif case == "zero_weights":
            w[rng.random(200) < 0.3] = 0.0
        elif case == "empty":
            pts, w = pts[:0], w[:0]
        m = WeightedMeasure(pts, w)
        merged = m.merge_atoms()
        want_points, want_weights = self._unique_merge(m)
        assert merged.points.shape == want_points.shape
        assert merged.points.tobytes() == want_points.tobytes()
        assert merged.weights.tobytes() == want_weights.tobytes()
        if case in ("duplicates", "signed_zeros"):
            assert len(merged) < len(m)
        if case == "zero_weights":
            assert len(merged) == np.count_nonzero(w)


class TestMoment:
    def test_mass(self):
        m = WeightedMeasure(np.random.default_rng(0).normal(size=(7, 3)), np.full(7, 1.0 / 7))
        assert moment(m, 0.0) == pytest.approx(1.0)

    def test_point_mass_p4(self):
        m = WeightedMeasure([[3.0, 0.0, 0.0]], [1.0])
        assert moment(m, 4.0) == pytest.approx(81.0)

    def test_threshold_below_support(self):
        m = WeightedMeasure([[3.0, 0.0, 0.0]], [1.0])
        assert moment(m, 2.0, threshold=1.0) == 0.0
        assert moment(m, 2.0, threshold=3.0) == pytest.approx(9.0)


class TestBLDistance:
    def test_identical_measures(self):
        m = WeightedMeasure(np.random.default_rng(1).normal(size=(5, 3)), np.full(5, 0.2))
        assert bl_distance(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_formula(self):
        a = WeightedMeasure([[0.0, 0, 0]], [1.0])
        for gap in (0.4, 1.0, 1.7, 2.0, 5.0):
            b = WeightedMeasure([[gap, 0, 0]], [1.0])
            assert bl_distance(a, b) == pytest.approx(min(gap, 2.0), abs=1e-12)

    def test_mass_mismatch_rejected(self):
        a = WeightedMeasure([[0.0, 0, 0]], [1.0])
        b = WeightedMeasure([[0.0, 0, 0]], [0.5])
        with pytest.raises(ValueError):
            bl_distance(a, b)

    def test_matches_dual_lp_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n1, n2 = rng.integers(1, 6, size=2)
            mu = WeightedMeasure(rng.normal(size=(n1, 3)) * rng.uniform(0.5, 2),
                                 rng.random(n1) + 0.05)
            nu = WeightedMeasure(rng.normal(size=(n2, 3)) * rng.uniform(0.5, 2),
                                 rng.random(n2) + 0.05)
            mu = WeightedMeasure(mu.points, mu.weights * (nu.total_mass / mu.total_mass))
            assert bl_distance(mu, nu) == pytest.approx(dual_lp_oracle(mu, nu), abs=1e-9)

    def test_matches_vertex_enumeration_tiny(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            mu = WeightedMeasure(rng.normal(size=(1, 2)), [1.0])
            nu = WeightedMeasure(rng.normal(size=(2, 2)), [0.6, 0.4])
            assert bl_distance(mu, nu) == pytest.approx(vertex_enumeration_oracle(mu, nu), abs=1e-9)

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        ms = [WeightedMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25)) for _ in range(3)]
        d01 = bl_distance(ms[0], ms[1])
        d10 = bl_distance(ms[1], ms[0])
        assert d01 == pytest.approx(d10, abs=1e-12)
        d02 = bl_distance(ms[0], ms[2])
        d12 = bl_distance(ms[1], ms[2])
        assert d02 <= d01 + d12 + 1e-9
        assert d01 > 0.0

    def test_dominated_by_tv_and_two(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = WeightedMeasure(rng.normal(size=(4, 3)), np.full(4, 0.25))
            nu = WeightedMeasure(rng.normal(size=(4, 3)) * 3, np.full(4, 0.25))
            d = bl_distance(mu, nu)
            assert d <= 2.0 + 1e-12
            # disjoint supports: TV = 2 here; shared atoms only reduce it
            assert d <= 2.0

    def test_assignment_and_lp_routes_agree(self, monkeypatch):
        # equal atom counts with one unit, and unequal uniform counts, on the
        # one route: both must match the independent dual oracle, and the
        # equal units the assignment oracle too
        rng = np.random.default_rng(6)
        pts1, pts2 = rng.normal(size=(14, 3)), rng.normal(size=(10, 3)) + 0.5
        fast_mu = WeightedMeasure(pts1[:10], np.full(10, 0.1))
        fast_nu = WeightedMeasure(pts2, np.full(10, 0.1))
        fast_want = dual_lp_oracle(fast_mu, fast_nu)
        assert assignment_oracle(cdist(pts1[:10], pts2), 0.1) == pytest.approx(fast_want, abs=1e-9)
        lp_mu = WeightedMeasure(pts1, np.full(14, 1.0 / 14))
        lp_nu = WeightedMeasure(pts2, np.full(10, 0.1))
        want = pytest.approx(dual_lp_oracle(lp_mu, lp_nu), abs=1e-9)
        # the compiled network simplex where the kernel loads, HiGHS without it
        for lib in (_kloop.library(), None):
            with monkeypatch.context() as m:
                m.setattr(_kloop, "_lib", lib)
                assert bl_distance(fast_mu, fast_nu) == pytest.approx(fast_want, abs=1e-9)
                assert bl_distance(lp_mu, lp_nu) == want

    @pytest.mark.parametrize("transform", ["shift", "scale"])
    def test_subsampling_stability(self, transform):
        # doubling the support cap moves the estimate by less than 3x the
        # seed-to-seed subsampling spread (for pairs whose distance is
        # resolved at the cap; nearly identical pairs are dominated by the
        # cap-dependent resolution bias instead)
        ref = kl.ReferenceMeasure(3)
        v1 = ref.sample(kl.make_rng(7), 10_000)
        v2 = ref.sample(kl.make_rng(8), 10_000)
        v2 = v2 + np.array([1.5, 0, 0]) if transform == "shift" else v2 * 1.5
        mu = kl.empirical_measure(ParticleState(v1))
        nu = kl.empirical_measure(ParticleState(v2))
        reps = np.array([bl_distance(mu, nu, support_cap=1000, subsample_seed=s)
                         for s in range(6)])
        doubled = bl_distance(mu, nu, support_cap=2000, subsample_seed=100)
        se = reps.std(ddof=1)
        assert abs(doubled - reps.mean()) < 3 * se


class TestFluxDistance:
    def test_identical(self):
        w = WeightedMeasure(np.random.default_rng(9).normal(size=(6, 10)), np.full(6, 0.1))
        assert flux_distance(w, w) == pytest.approx(0.0, abs=1e-12)

    def test_time_shift_formula(self):
        n = 50
        base = np.zeros(10)
        for dt in (0.3, 1.2, 2.0, 3.5):
            p1 = base.copy()
            p2 = base.copy()
            p2[0] = dt
            w1 = WeightedMeasure([p1], [1.0 / n])
            w2 = WeightedMeasure([p2], [1.0 / n])
            assert flux_distance(w1, w2) == pytest.approx(min(dt, 2.0) / n, abs=1e-12)

    def test_empty_versus_mass(self):
        empty = WeightedMeasure(np.empty((0, 10)), np.empty(0))
        w = WeightedMeasure(np.random.default_rng(10).normal(size=(4, 10)), np.full(4, 0.25 * 0.7))
        assert flux_distance(empty, w) == pytest.approx(0.7, abs=1e-12)

    def test_unequal_masses_finite(self):
        w1 = WeightedMeasure(np.zeros((1, 4)), [2.0])
        w2 = WeightedMeasure(np.ones((1, 4)), [0.5])
        d = flux_distance(w1, w2)
        assert d == pytest.approx(0.5 * 2.0 + 1.5, abs=1e-9)  # transport 0.5 at cost 2, dump 1.5

    @pytest.mark.parametrize("distance", [flux_distance, bl_distance])
    @pytest.mark.parametrize("cap", [-1, 0, 1])
    def test_support_cap_below_two_is_a_value_error(self, distance, cap):
        # small enough to need no subsampling: the cap is refused whatever the sizes
        w1 = WeightedMeasure([[0.0, 0]], [1.0])
        w2 = WeightedMeasure([[1.0, 0]], [1.0])
        with pytest.raises(ValueError, match=f"support_cap = {cap}"):
            distance(w1, w2, support_cap=cap)

    def test_support_cap_of_two_keeps_one_atom_a_side(self):
        w1 = WeightedMeasure([[0.0, 0], [0.0, 1]], [0.5, 0.5])
        w2 = WeightedMeasure([[1.0, 0], [1.0, 1]], [0.5, 0.5])
        sub1, sub2 = w1.subsample(1, 0), w2.subsample(1, 1)
        expected = min(float(np.linalg.norm(sub1.points[0] - sub2.points[0])), 2.0)
        assert bl_distance(w1, w2, support_cap=2) == pytest.approx(expected, abs=1e-12)


class TestPrunedLP:
    """The LP route carries only the pairs closer than the cap."""

    @staticmethod
    def _unequal_pair(rng, d, spread):
        # uniform units 1/n1 and 0.8/n2 differ, so the LP route runs
        n1, n2 = rng.integers(3, 10, size=2)
        centres = rng.normal(size=(3, d)) * spread
        p1 = centres[rng.integers(0, 3, n1)] + rng.normal(size=(n1, d)) * 0.3
        p2 = centres[rng.integers(0, 3, n2)] + rng.normal(size=(n2, d)) * 0.3
        return (WeightedMeasure(p1, np.full(n1, 1.0 / n1)),
                WeightedMeasure(p2, np.full(n2, 0.8 / n2)))

    @pytest.mark.parametrize("d, small", [(3, False), (10, False), (10, True)],
                             ids=["3", "10", "10-small-weights"])
    def test_near_and_far_pairs_match_dual_oracle(self, d, small):
        rng = np.random.default_rng(20 + d)
        seen_near = seen_far = False
        for _ in range(40 if small else 25):
            mu, nu = self._unequal_pair(rng, d, spread=1.2)
            if small:
                # weights near HiGHS's absolute 1e-7 tolerances; the oracle
                # solves the same problem with every weight 2^20 times larger
                mu, nu = (WeightedMeasure(m.points, rng.uniform(2e-8, 1e-6, len(m))) for m in (mu, nu))
                big = [WeightedMeasure(m.points, m.weights * 2.0**20) for m in (mu, nu)]
                want = pytest.approx(dual_lp_oracle(*big) / 2.0**20, rel=1e-9)
            else:
                want = pytest.approx(dual_lp_oracle(mu, nu), abs=1e-9)
            dist = cdist(mu.points, nu.points)
            seen_near |= bool(np.any(dist < 2.0))
            seen_far |= bool(np.any(dist >= 2.0))
            assert flux_distance(mu, nu) == want
        assert seen_near and seen_far

    def test_pairs_at_exactly_the_cap(self):
        mu = WeightedMeasure([[0.0, 0, 0], [4.0, 0, 0], [1.0, 1, 0]], [0.3, 0.5, 0.15])
        nu = WeightedMeasure([[2.0, 0, 0], [0.0, 2, 0], [4.0, 1, 0]], [0.2, 0.25, 0.4])
        dist = cdist(mu.points, nu.points)
        assert np.sum(dist == 2.0) == 3 and np.any(dist < 2.0)
        assert flux_distance(mu, nu) == pytest.approx(dual_lp_oracle(mu, nu), abs=1e-9)

    def test_duplicated_atoms_after_subsampling(self):
        rng = np.random.default_rng(31)
        mu = WeightedMeasure(rng.normal(size=(8, 3)) * 0.8, rng.random(8) + 0.1)
        nu = WeightedMeasure(rng.normal(size=(7, 3)) * 0.8, rng.random(7) + 0.1)
        cap, seed = 10, 4
        # flux_distance merges equal atoms, then draws each side with replacement
        sub_mu = mu.merge_atoms().subsample(cap // 2, seed)
        sub_nu = nu.merge_atoms().subsample(cap // 2, seed + 1)
        assert len(np.unique(sub_mu.points, axis=0)) < len(sub_mu)
        assert len(np.unique(sub_nu.points, axis=0)) < len(sub_nu)
        got = flux_distance(mu, nu, support_cap=cap, subsample_seed=seed)
        assert got == pytest.approx(dual_lp_oracle(sub_mu, sub_nu), abs=1e-9)

    def test_all_pairs_at_the_cap_skip_the_solver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("the LP solver was called")

        monkeypatch.setattr("scipy.optimize.linprog", no_solver)
        lib, counted = _kloop.library(), []
        if lib is not None:
            transport = lib.kac_transport

            def count_only(*args):
                # a solve writes its pivot count: a sentinel left in that
                # slot shows that the kernel returned after counting pairs
                pairs, pivots = (ctypes.c_int64.from_address(a) for a in args[-2:])
                pivots.value = -1
                status = transport(*args)
                counted.append((status, pairs.value, pivots.value))
                return status

            monkeypatch.setattr(lib, "kac_transport", count_only)
        # dyadic weights: m1 + m2 is exact in any summation order
        mu = WeightedMeasure([[0.0, 0, 0], [0.0, 5, 0], [0.0, 0, 9]], [0.25, 0.5, 0.125])
        nu = WeightedMeasure([[2.0, 0, 0], [3.0, 3, 3]], [0.375, 0.25])
        assert np.all(cdist(mu.points, nu.points) >= 2.0)
        assert flux_distance(mu, nu) == 1.5
        assert counted == ([] if lib is None else [(_kloop.DONE, 0, -1)])

    def test_repeat_calls_identical(self):
        mu, nu = self._unequal_pair(np.random.default_rng(40), 10, spread=0.8)
        assert flux_distance(mu, nu) == flux_distance(mu, nu)

    # the network simplex meets the assignment to the last bits; HiGHS only
    # within its optimality tolerance
    EQUAL_UNIT_REL = 1e-12

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_equal_units_match_the_assignment(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(15):
            n1, n2 = rng.integers(1, 25, size=2)
            unit = 1.0 / max(n1, n2)
            p1 = rng.normal(size=(n1, d)) * rng.uniform(0.3, 1.5)
            p2 = rng.normal(size=(n2, d)) * rng.uniform(0.3, 1.5) + 0.3
            mu, nu = WeightedMeasure(p1, np.full(n1, unit)), WeightedMeasure(p2, np.full(n2, unit))
            want = assignment_oracle(cdist(p1, p2), unit)
            assert flux_distance(mu, nu) == pytest.approx(want, rel=self.EQUAL_UNIT_REL)
            if n1 == n2:
                assert bl_distance(mu, nu) == pytest.approx(want, rel=self.EQUAL_UNIT_REL)

    def test_equal_units_on_lattice_ties(self):
        # whole lattices: most costs tie exactly, and some pairs sit at the cap
        rng = np.random.default_rng(75)
        grid = np.array([(x, y) for x in range(4) for y in range(4)], dtype=float) * 0.5
        for n1, n2 in ((16, 16), (9, 20), (20, 9)):
            p1, p2 = grid[rng.integers(0, 16, n1)], grid[rng.integers(0, 16, n2)] + [0.5, 0.0]
            mu, nu = WeightedMeasure(p1, np.full(n1, 0.05)), WeightedMeasure(p2, np.full(n2, 0.05))
            want = assignment_oracle(cdist(p1, p2), 0.05)
            assert flux_distance(mu, nu) == pytest.approx(want, rel=self.EQUAL_UNIT_REL)


class TestPrunedLPWithoutKernel(TestPrunedLP):
    """The same cases on HiGHS, the route of hosts without the kernel."""

    EQUAL_UNIT_REL = 1e-9

    @pytest.fixture(autouse=True)
    def _no_kernel(self, monkeypatch):
        monkeypatch.setattr(_kloop, "_lib", None)


def test_equal_unit_route_is_relative_below_unit_one():
    # units 1e-13 and 5e-13 differ by less than 1e-12 but are not equal:
    # the value must be the one of the weights as given, not of unit 1e-13
    mu = WeightedMeasure([[0.0, 0, 0], [1.0, 0, 0]], [1e-13, 1e-13])
    nu = WeightedMeasure([[0.0, 0.5, 0], [3.0, 0, 0]], [5e-13, 5e-13])
    big = [WeightedMeasure(m.points, m.weights * 1e12) for m in (mu, nu)]
    assert flux_distance(mu, nu) == pytest.approx(dual_lp_oracle(*big) / 1e12, rel=1e-9)


def _agree(p1, w1, p2, w2):
    """The compiled network simplex and HiGHS on one problem, within 1e-12."""
    p1, p2 = np.atleast_2d(np.asarray(p1, dtype=float)), np.atleast_2d(np.asarray(p2, dtype=float))
    got = metrics._simplex_route(_kloop.library(), p1, w1, p2, w2)
    want = metrics._lp_route(metrics._distances(p1, p2), w1, w2)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15 * (w1.sum() + w2.sum()))
    return got


def cap_pairs_points(d, rng):
    """Random points in R^d, with pairs at exactly the cap, 2: rows of p2
    that are rows of p1 moved by 2 along an axis, or by (1.2, 1.6)."""
    p1, p2 = rng.normal(size=(60, d)) * 0.8, rng.normal(size=(45, d)) * 0.8
    p2[:10] = p1[:10]
    p2[:10, 0] += 2.0
    if d > 1:
        p2[10:15] = p1[10:15]
        p2[10:15, :2] += [1.2, 1.6]
        p2[15:20] = np.round(p2[15:20])  # small integers: more exact distances
        p1[15:20] = p2[15:20]
        p1[15:20, 1] -= 2.0
    return np.ascontiguousarray(p1), np.ascontiguousarray(p2)


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_distances_are_the_bytes_of_cdist(d):
    # the dense matrix of the route without the kernel
    p1, p2 = cap_pairs_points(d, np.random.default_rng(80 + d))
    dense = cdist(p1, p2)
    assert np.any(dense == 2.0) and np.any(dense < 2.0) and np.any(dense > 2.0)
    assert metrics._distances(p1, p2).tobytes() == dense.tobytes()


def _kernel_pairs(p1, w1, p2, w2):
    """kac_transport's value and its count of pairs closer than the cap."""
    lib = _kloop.library()
    value, pairs, pivots = np.zeros(1), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    status = lib.kac_transport(
        p1.ctypes.data, w1.ctypes.data, len(p1), p2.ctypes.data, w2.ctypes.data, len(p2),
        p1.shape[1], metrics.DISTANCE_CAP, metrics._PIVOTS_PER_ARC, value.ctypes.data,
        pairs.ctypes.data, pivots.ctypes.data)
    assert status == _kloop.DONE
    return value[0], int(pairs[0])


@needs_kernel
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_kernel_pairs_are_the_bytes_of_cdist_in_row_major_order(d):
    # the kernel lists its pairs from the points: row by row, it counts the
    # columns closer than the cap, the pairs at the cap left out, and one atom
    # a side at weight 1 costs the pair's distance, cdist's bytes
    p1, p2 = cap_pairs_points(d, np.random.default_rng(80 + d))
    dense = cdist(p1, p2)
    one = np.ones(1)
    rows = [_kernel_pairs(p1[i:i + 1], one, p2, np.ones(len(p2)))[1] for i in range(len(p1))]
    assert rows == np.count_nonzero(dense < 2.0, axis=1).tolist()
    assert _kernel_pairs(p1, np.ones(len(p1)), p2, np.ones(len(p2)))[1] == sum(rows)
    want_i, want_j = np.nonzero(dense < 2.0)  # row-major
    cost = np.array([_kernel_pairs(p1[i:i + 1], one, p2[j:j + 1], one)[0]
                     for i, j in zip(want_i, want_j)])
    assert cost.tobytes() == dense[want_i, want_j].tobytes()
    assert cost.tobytes() == metrics._distances(p1, p2)[want_i, want_j].tobytes()


def test_distances_need_points_of_one_dimension():
    mu = WeightedMeasure(np.zeros((2, 3)), [0.5, 0.5])
    nu = WeightedMeasure(np.zeros((2, 4)), [0.5, 0.5])
    with pytest.raises(ValueError, match="dimensions differ"):
        bl_distance(mu, nu)


@needs_kernel
class TestNetworkSimplex:
    """`kac_transport` against `_lp_route` (HiGHS) and the brute-force oracles."""

    def test_identical_measures_with_unequal_counts(self):
        # nu is mu with its first atom split in two: the same measure
        rng = np.random.default_rng(50)
        pts, w = rng.normal(size=(6, 3)), rng.random(6) + 0.1
        pts2 = np.vstack([pts, pts[:1]])
        w2 = np.concatenate([[w[0] / 3], w[1:], [2 * w[0] / 3]])
        assert _agree(pts, w, pts2, w2) == pytest.approx(0.0, abs=1e-15)

    def test_one_atom_a_side(self):
        for gap, m1, m2 in ((0.0, 0.3, 0.3), (0.7, 0.3, 0.5), (1.9, 1.0, 0.25), (2.0, 0.5, 0.5)):
            got = _agree([0.0, 0.0], np.array([m1]), [gap, 0.0], np.array([m2]))
            assert got == pytest.approx(min(m1, m2) * min(gap, 2.0) + abs(m1 - m2), rel=1e-15)

    @pytest.mark.parametrize("n1, n2", [(7, 12), (30, 17)])
    def test_heavy_ties(self, n1, n2):
        # lattice points: many pairs share a distance; uniform units 1/n
        rng = np.random.default_rng(n1 * n2)
        grid = np.array([(x, y) for x in range(4) for y in range(4)], dtype=float) * 0.5
        p1, p2 = grid[rng.integers(0, 16, n1)], grid[rng.integers(0, 16, n2)] + [0.5, 0.0]
        _agree(p1, np.full(n1, 1.0 / n1), p2, np.full(n2, 1.0 / n2))

    def test_near_ties_match_the_exact_assignment(self):
        # lattice points moved by 1e-9: many pairs nearly tie.  Units 1/12
        # and 1/8 are 2 and 3 copies of 1/24, so the assignment on the
        # copies is the exact optimum; HiGHS at its default tolerances was
        # off here by about 1e-10.  At the tolerances _lp_route sets, 1e-11
        # is the smallest HiGHS accepts and its worst miss of the ten was
        # 9.1e-12, so a failure of the 1e-11 bound below points to a change
        # in HiGHS, not in kaclab
        for seed in range(10):
            rng = np.random.default_rng(seed)
            grid = np.array([(x, y) for x in range(3) for y in range(3)], dtype=float) * 0.5
            p1 = grid[rng.integers(0, 9, 12)] + rng.normal(size=(12, 2)) * 1e-9
            p2 = grid[rng.integers(0, 9, 8)] + [0.5, 0.0] + rng.normal(size=(8, 2)) * 1e-9
            cost = cdist(p1, p2)
            exact = assignment_oracle(np.repeat(np.repeat(cost, 2, axis=0), 3, axis=1), 1.0 / 24)
            got = metrics._simplex_route(_kloop.library(), p1, np.full(12, 1.0 / 12),
                                         p2, np.full(8, 0.125))
            assert got == pytest.approx(exact, rel=1e-12)
            lp = metrics._lp_route(cost, np.full(12, 1.0 / 12), np.full(8, 0.125))
            assert lp == pytest.approx(exact, rel=1e-11)

    def test_equal_units_500_a_side(self):
        # a bl_distance of two 1000-atom velocity samples at support cap 1000:
        # 500 atoms a side with one unit, about 1/500, most pairs below the cap
        ref = kl.ReferenceMeasure(3)
        mu = kl.empirical_measure(ParticleState(ref.sample(kl.make_rng(90), 1000)))
        nu = kl.empirical_measure(ParticleState(ref.sample(kl.make_rng(91), 1000) * 1.2))
        sub_mu, sub_nu = mu.merge_atoms().subsample(500, 3), nu.merge_atoms().subsample(500, 4)
        unit = sub_mu.weights[0]
        assert np.all(sub_mu.weights == unit) and np.all(sub_nu.weights == unit)
        cost = cdist(sub_mu.points, sub_nu.points)
        assert np.mean(cost < 2.0) > 0.5
        want = assignment_oracle(cost, unit)
        assert bl_distance(mu, nu, support_cap=1000, subsample_seed=3) == pytest.approx(want, rel=1e-12)

    def test_optimum_on_a_pair_no_atom_lists_near(self):
        # the kernel first prices each atom's 8 nearest partners; the pair
        # (A, 0) is on neither list, as 30 decoys of tiny weight sit nearer to
        # each end, yet the optimum moves A's unit to 0 at cost 0.5 rather
        # than destroy and create it at cost 2
        rng = np.random.default_rng(54)
        p1 = np.concatenate([[0.5], rng.uniform(-0.05, 0.05, 30)])[:, None]  # A, then decoys
        p2 = np.concatenate([[0.0], 0.5 + rng.uniform(-0.05, 0.05, 30)])[:, None]
        w1 = np.concatenate([[1.0], np.full(30, 1e-3)])
        w2 = np.concatenate([[1.0], np.full(30, 1e-3)])
        cost = metrics._distances(p1, p2)
        assert np.sum(cost[0] < cost[0, 0]) >= 30 and np.sum(cost[:, 0] < cost[0, 0]) >= 30
        got = _agree(p1, w1, p2, w2)
        assert got < 0.5 + 0.1  # moved, not destroyed: that would cost about 2

    @pytest.mark.parametrize("d", [3, 10])
    def test_log_pipeline_sized_problems(self, d):
        # 500 atoms a side, as log_pipeline's subsamples: the velocities' bl
        # in R^3 with equal units against the exact assignment, and the
        # flux's in R^10 with unequal masses against HiGHS
        rng = np.random.default_rng(60 + d)
        p1, p2 = rng.normal(size=(500, d)) * 0.6, rng.normal(size=(500, d)) * 0.7 + 0.1
        if d == 3:
            unit = 1.0 / 500
            got = metrics._simplex_route(_kloop.library(), p1, np.full(500, unit),
                                         p2, np.full(500, unit))
            assert got == pytest.approx(assignment_oracle(cdist(p1, p2), unit), rel=1e-12)
        else:
            _agree(p1, rng.random(500) / 500, p2, rng.random(500) / 400)

    def test_unequal_masses(self):
        rng = np.random.default_rng(51)
        for scale in (0.1, 3.0, 40.0):
            p1, p2 = rng.normal(size=(9, 4)), rng.normal(size=(13, 4)) * 0.7
            _agree(p1, rng.random(9) * scale, p2, rng.random(13))

    def test_pairs_at_exactly_the_cap(self):
        p1 = np.array([[0.0, 0, 0], [4.0, 0, 0], [1.0, 1, 0]])
        p2 = np.array([[2.0, 0, 0], [0.0, 2, 0], [4.0, 1, 0]])
        assert np.sum(cdist(p1, p2) == 2.0) == 3
        _agree(p1, np.array([0.3, 0.5, 0.15]), p2, np.array([0.2, 0.25, 0.4]))

    def test_random_general_weights(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n1, n2 = rng.integers(1, 40, size=2)
            p1, p2 = rng.normal(size=(n1, 3)), rng.normal(size=(n2, 3)) * rng.uniform(0.5, 2)
            _agree(p1, rng.random(n1) + 1e-3, p2, rng.random(n2) + 1e-3)

    def test_weights_spanning_nine_decades(self):
        rng = np.random.default_rng(53)
        for _ in range(12):
            mu = WeightedMeasure(rng.normal(size=(2, 2)), 10.0 ** rng.uniform(-9, 0, 2))
            nu = WeightedMeasure(rng.normal(size=(2, 2)), 10.0 ** rng.uniform(-9, 0, 2))
            got = _agree(mu.points, mu.weights, nu.points, nu.weights)
            assert got == pytest.approx(vertex_enumeration_oracle(mu, nu), rel=1e-9, abs=1e-18)

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(metrics, "_PIVOTS_PER_ARC", 0)
        mu = WeightedMeasure([[0.0, 0], [1.0, 0]], [0.25, 0.75])
        nu = WeightedMeasure([[0.5, 0], [1.0, 1.0]], [0.5, 0.125])
        with pytest.raises(RuntimeError, match="pivot cap"):
            flux_distance(mu, nu)

    def test_leftover_artificial_flow_is_an_error(self):
        # a negative weight of mu is a demand no arc can reach
        p1, p2 = np.array([[0.0]]), np.array([[0.5]])
        w1, w2 = np.array([-0.5]), np.array([0.25])
        value, pairs, pivots = np.zeros(1), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        status = _kloop.library().kac_transport(
            p1.ctypes.data, w1.ctypes.data, 1, p2.ctypes.data, w2.ctypes.data, 1, 1, 2.0,
            metrics._PIVOTS_PER_ARC, value.ctypes.data, pairs.ctypes.data, pivots.ctypes.data)
        assert status == _kloop.ERR_ARTIFICIAL and pairs[0] == 1


class TestEstimateLdpRate:
    def test_exact_exponential_decay(self):
        counts = [(n, 1e6 * np.exp(-0.5 * n), 1e6) for n in (50, 100, 200, 400)]
        slope, se = estimate_ldp_rate(counts)
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_constant_ratio_zero_slope(self):
        counts = [(n, 500, 1000) for n in (50, 100, 200, 400)]
        slope, _ = estimate_ldp_rate(counts)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            estimate_ldp_rate([(50, 0, 1000), (100, 0, 1000)])

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            estimate_ldp_rate([(50, 10, 1000), (100, 5, 1000), (200, 0, 1000)])

    def test_variance_form_matches_count_form(self):
        counts = [(50, 75, 10**6), (100, 12, 10**6), (200, 3, 10**6), (400, 0, 10**6)]
        levels = [(n, math.log(h / m), 1.0 / h) for n, h, m in counts if h > 0]
        assert fit_ldp_slope(levels) == estimate_ldp_rate(counts)

    def test_variance_form_rejects_degenerate_levels(self):
        with pytest.raises(ValueError):
            fit_ldp_slope([(50, -9.0, 0.01), (100, -20.0, 0.01)])
        with pytest.raises(ValueError):
            fit_ldp_slope([(50, -9.0, 0.01), (100, -np.inf, 0.01), (200, -40.0, 0.01)])
        with pytest.raises(ValueError):
            fit_ldp_slope([(50, -9.0, 0.01), (100, -20.0, 0.0), (200, -40.0, 0.01)])
