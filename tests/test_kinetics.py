import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaclab import engine, kinetics
from kaclab.kinetics import (Kernel, _dot, eval_kernel, post_collision, sample_sigma,
                             sphere_quadrature)

finite_vec = st.lists(st.floats(-50, 50), min_size=3, max_size=3).map(np.array)


def unit(v):
    return v / np.linalg.norm(v)


class TestEvalKernel:
    def test_maxwell_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v, vs = rng.normal(size=3), rng.normal(size=3)
            assert eval_kernel(Kernel.MAXWELL, v, vs) == 1.0

    def test_hard_sphere_coincident(self):
        v = np.array([0.3, -0.2, 1.0])
        assert eval_kernel(Kernel.HARD_SPHERE, v, v) == 1.0

    def test_hard_sphere_value(self):
        assert eval_kernel(Kernel.HARD_SPHERE, np.array([3.0, 0, 0]), np.zeros(3)) == pytest.approx(4.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(Kernel.MAXWELL, np.zeros(3), np.zeros(2))

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for kernel in Kernel:
            for _ in range(50):
                assert eval_kernel(kernel, rng.normal(size=3), rng.normal(size=3)) >= 1.0


class TestPostCollision:
    def test_coincident_unchanged(self):
        v = np.array([1.0, 2.0, 3.0])
        sigma = unit(np.array([0.3, -1.0, 0.2]))
        vp, vsp = post_collision(v, v, sigma)
        assert np.array_equal(vp, v) and np.array_equal(vsp, v)

    def test_orthogonal_sigma_unchanged(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        vp, vsp = post_collision(v, vs, np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(vp, v) and np.array_equal(vsp, vs)

    def test_head_on_exchange(self):
        v, vs = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        vp, vsp = post_collision(v, vs, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(vp, [-1, 0, 0]) and np.allclose(vsp, [1, 0, 0])

    def test_non_unit_sigma_rejected(self):
        with pytest.raises(ValueError):
            post_collision(np.zeros(3), np.ones(3), np.array([1.0, 1.0, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(finite_vec, finite_vec, finite_vec)
    def test_conservation(self, v, vs, raw):
        nrm = np.linalg.norm(raw)
        if nrm < 1e-3:
            raw = np.array([1.0, 0.0, 0.0])
            nrm = 1.0
        sigma = raw / nrm
        vp, vsp = post_collision(v, vs, sigma)
        scale = 1.0 + np.linalg.norm(v) + np.linalg.norm(vs)
        assert np.max(np.abs((vp + vsp) - (v + vs))) <= 1e-12 * scale
        e0 = v @ v + vs @ vs
        e1 = vp @ vp + vsp @ vsp
        assert abs(e1 - e0) <= 1e-12 * (1.0 + e0)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec, finite_vec, finite_vec)
    def test_involution_and_symmetries(self, v, vs, raw):
        nrm = np.linalg.norm(raw)
        if nrm < 1e-3:
            raw = np.array([0.0, 1.0, 0.0])
            nrm = 1.0
        sigma = raw / nrm
        vp, vsp = post_collision(v, vs, sigma)
        # involution in the recorded parametrisation
        v2, vs2 = post_collision(vp, vsp, sigma)
        scale = 1.0 + np.linalg.norm(v) + np.linalg.norm(vs)
        assert np.max(np.abs(v2 - v)) <= 1e-12 * scale
        assert np.max(np.abs(vs2 - vs)) <= 1e-12 * scale
        # sigma sign invariance is exact
        vneg, vsneg = post_collision(v, vs, -sigma)
        assert np.array_equal(vneg, vp) and np.array_equal(vsneg, vsp)
        # swap symmetry
        wp, wsp = post_collision(vs, v, sigma)
        assert np.max(np.abs(wp - vsp)) <= 1e-12 * scale
        assert np.max(np.abs(wsp - vp)) <= 1e-12 * scale


class TestDot:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 20])
    def test_unfused_coordinate_order(self, d):
        # s = x_0 y_0, then s += x_k y_k, each rounded: for vectors a float,
        # for rows the same bits row by row
        rng = np.random.default_rng(40 + d)
        x, y = rng.standard_normal((2, 64, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 64, d))
        want = []
        for a, b in zip(x.tolist(), y.tolist()):
            s = a[0] * b[0]
            for k in range(1, d):
                s = s + a[k] * b[k]
            want.append(s)
        got = [_dot(a, b) for a, b in zip(x, y)]
        assert all(type(s) is float for s in got)
        assert np.array(got).tobytes() == np.array(want).tobytes() == _dot(x, y).tobytes()
        assert _dot(x).tobytes() == _dot(x, x).tobytes()

    def test_engine_collision_has_no_matmul(self):
        # one convention for every dot product of the engine: numpy's `@`
        # follows the BLAS it was built with, which may fuse or reorder
        for func in (kinetics._collide, engine._Engine.propose):
            tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
            ops = [node.op for node in ast.walk(tree) if isinstance(node, ast.BinOp)]
            assert not any(isinstance(op, ast.MatMult) for op in ops), func.__qualname__


class TestSampleSigma:
    def test_d1_two_points(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_sigma(rng, 1)[0] for _ in range(4000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        # each sign with probability 1/2: 4 sigma binomial window
        assert abs(np.mean(draws > 0) - 0.5) < 4 * 0.5 / np.sqrt(4000)

    def test_d3_moments(self):
        rng = np.random.default_rng(3)
        n = 100_000
        sig = np.array([sample_sigma(rng, 3) for _ in range(n)])
        assert np.max(np.abs(np.linalg.norm(sig, axis=1) - 1.0)) <= 1e-12
        # coordinate means: Var(sigma_i) = 1/3
        se_mean = np.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(sig.mean(axis=0)) < 3 * se_mean)
        # sigma_z^2 has mean 1/3, Var = E[s^4] - 1/9 = 1/5 - 1/9
        se_sq = np.sqrt((1.0 / 5.0 - 1.0 / 9.0) / n)
        assert abs(np.mean(sig[:, 2] ** 2) - 1.0 / 3.0) < 3 * se_sq


class TestSphereQuadrature:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_probability_normalisation(self, d):
        pts, wts = sphere_quadrature(d)
        assert abs(wts.sum() - 1.0) < 1e-14
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rule_is_built_once_and_read_only(self, d):
        pts, wts = sphere_quadrature(d)
        again = sphere_quadrature(d)
        assert again[0] is pts and again[1] is wts
        for arr in (pts, wts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_d3_polynomial_moments(self):
        pts, wts = sphere_quadrature(3)
        # uniform-sphere moments: E[x] = 0, E[x^2] = 1/3, E[x^4] = 1/5,
        # E[x^2 y^2] = 1/15 (Lebedev 26 is exact through degree 7)
        assert np.max(np.abs(wts @ pts)) < 1e-14
        assert wts @ pts[:, 0] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert wts @ pts[:, 0] ** 4 == pytest.approx(1.0 / 5.0, abs=1e-13)
        assert wts @ (pts[:, 0] ** 2 * pts[:, 1] ** 2) == pytest.approx(1.0 / 15.0, abs=1e-13)
