"""Tensor algebra, discrete operators, transport, and ZJ rate parts."""

import numpy as np
import pytest

from paleomag import kinematics as kin
from paleomag.grid import make_grid


class TestAlgebra:
    def test_sym_skw_split(self, rng):
        T = rng.normal(size=(5, 2, 2))
        np.testing.assert_allclose(kin.sym(T) + kin.skw(T), T, atol=1e-15)
        np.testing.assert_allclose(kin.sym(T), np.swapaxes(kin.sym(T), -1, -2))
        np.testing.assert_allclose(kin.skw(T), -np.swapaxes(kin.skw(T), -1, -2))

    def test_dev_sph_split(self, rng):
        T = rng.normal(size=(5, 2, 2))
        np.testing.assert_allclose(kin.dev(T) + kin.sph(T), T, atol=1e-15)
        np.testing.assert_allclose(kin.tensor_trace(kin.dev(T)), 0.0, atol=1e-15)
        np.testing.assert_allclose(
            kin.tensor_trace(kin.sph(T)), kin.tensor_trace(T), atol=1e-15
        )

    def test_sph_uses_two_components(self):
        # d = 2 in-plane components always, so sph(I) = I
        np.testing.assert_allclose(kin.sph(np.eye(2)), np.eye(2))

    def test_ddot(self, rng):
        A = rng.normal(size=(3, 2, 2))
        B = rng.normal(size=(3, 2, 2))
        np.testing.assert_allclose(kin.ddot(A, B), np.sum(A * B, axis=(-2, -1)))


class TestOperators:
    def test_dim0_derivatives_vanish(self, grid0, rng):
        f = np.asarray(rng.normal())
        assert np.all(kin.grad_tensor(f, grid0) == 0.0)
        assert np.all(kin.laplacian(f, grid0) == 0.0)
        v = rng.normal(size=(2,))
        assert np.all(kin.upwind_advect(f, v, grid0) == 0.0)

    def test_grad_scalar_linear_interior(self):
        g = make_grid(1, (1.0,), (32,))
        (x,) = g.cell_centers()
        grad = kin.grad_tensor(3.0 * x, g)
        np.testing.assert_allclose(grad[1:-1, 0], 3.0, atol=1e-12)
        assert np.all(grad[..., 1] == 0.0)

    def test_laplacian_quadratic_interior(self):
        g = make_grid(1, (1.0,), (32,))
        (x,) = g.cell_centers()
        lap = kin.laplacian(x * x, g)
        np.testing.assert_allclose(lap[1:-1], 2.0, atol=1e-10)

    def test_velocity_ghosts_zero_wall_normal(self):
        # odd ghosts: d(v_x)/dx at the wall sees v_x antisymmetric
        g = make_grid(1, (1.0,), (8,))
        v = np.zeros((8, 2))
        v[..., 0] = 1.0
        G = kin.grad_vector(v, g, kind="velocity")
        h = g.spacing[0]
        # ghost = -edge, so the edge-cell derivative is (v1 + v0)/(2h)
        assert G[0, 0, 0] == pytest.approx(2.0 / (2.0 * h))
        np.testing.assert_allclose(G[1:-1, 0, 0], 0.0, atol=1e-14)

    def test_upwind_direction(self):
        g = make_grid(1, (1.0,), (16,))
        (x,) = g.cell_centers()
        f = 2.0 * x
        v = np.zeros((16, 2))
        v[..., 0] = 1.0
        adv = kin.upwind_advect(f, v, g)
        np.testing.assert_allclose(adv[1:], 2.0, atol=1e-12)  # backward difference

    def test_upwind_constant_field(self, rng):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        v = rng.normal(size=(8, 8, 2))
        assert np.max(np.abs(kin.upwind_advect(np.full((8, 8), 1.3), v, g))) == 0.0


class TestAdvectScalar:
    def test_conservation(self, rng):
        g = make_grid(2, (1.0, 1.0), (12, 12))
        w = rng.uniform(1.0, 2.0, size=(12, 12))
        v = 0.1 * rng.normal(size=(12, 12, 2))
        div = kin.advect_scalar(w, v, g)
        assert abs(g.integrate(div)) < 1e-13


class TestZjRates:
    def test_vector_rate_spin(self, grid0):
        grad_v = np.array([[0.0, -2.0], [2.0, 0.0]])
        m = np.array([1.0, 0.0])
        rate = kin.bzj_vector(np.zeros(2), grad_v, m, grid0)
        # -W m with W = skw(grad_v)
        np.testing.assert_allclose(rate, [0.0, -2.0], atol=1e-15)

    def test_tensor_rate_symmetry(self, rng):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        v = 0.1 * rng.normal(size=(8, 8, 2))
        L = kin.grad_vector(v, g, kind="velocity")
        A = kin.sym(rng.normal(size=(8, 8, 2, 2)))
        rate = kin.bzj_tensor(v, L, A, g)
        np.testing.assert_allclose(rate, np.swapaxes(rate, -1, -2), atol=1e-13)
