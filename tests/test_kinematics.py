"""Tensor algebra, discrete operators, transport, and ZJ rate parts."""

import numpy as np
import pytest

from paleomag import kinematics as kin
from paleomag.energetics import exchange_energy
from paleomag.grid import make_grid

from conftest import material


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


# 0D, 1D with n = 1 and n = 7, 2D at 5x4 and 32x32
_SHAPES = [(), (1,), (7,), (5, 4), (32, 32)]
_GRIDS = [
    make_grid(0),
    make_grid(1, (1.0,), (1,)),
    make_grid(1, (1.0,), (7,)),
    make_grid(2, (1.0, 0.8), (5, 4)),
    make_grid(2, (1.0, 1.0), (32, 32)),
]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _draws(rng, shape):
    """Fields of this shape: normal values mixed with exact 0.0 and -0.0, then all -0.0."""
    for _ in range(6):
        x = np.asarray(rng.normal(size=shape) * rng.choice([1.0, 1e-300, 1e16], size=shape))
        kind = rng.integers(0, 3, size=shape)
        x[kind == 1] = 0.0
        x[kind == 2] = -0.0
        yield x
    yield np.full(shape, -0.0)


def _upwind_max_min(f, v, grid):
    """(v.grad)f from two padded differences weighted by max(v, 0) and min(v, 0)."""
    out = np.zeros_like(f)
    for a in range(grid.dim):
        h = grid.spacing[a]
        va = v[..., a].reshape(v.shape[:-1] + (1,) * (f.ndim - grid.dim))
        p = np.pad(f, [(1, 1) if i == a else (0, 0) for i in range(f.ndim)], mode="edge")
        lo = tuple(slice(None, -2) if i == a else slice(None) for i in range(f.ndim))
        hi = tuple(slice(2, None) if i == a else slice(None) for i in range(f.ndim))
        out += np.maximum(va, 0.0) * ((f - p[lo]) / h) + np.minimum(va, 0.0) * ((p[hi] - f) / h)
    return out


def _grad_vector_loop(vf, grid, kind):
    """d_a v_i one component at a time from edge ghosts, negated for v_a under kind 'velocity'."""
    out = np.zeros(vf.shape[:-1] + (2, 2))
    for a in range(grid.dim):
        for i in range(2):
            f = np.moveaxis(vf[..., i], a, 0)
            p = np.concatenate((f[:1], f, f[-1:]))
            if kind == "velocity" and i == a:
                p[0], p[-1] = -p[0], -p[-1]
            out[..., i, a] = np.moveaxis((p[2:] - p[:-2]) / (2.0 * grid.spacing[a]), 0, a)
    return out


class TestBitForBit:
    """The term-by-term kernels return the bits of the NumPy calls they replaced."""

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("helper, axes", [
        (kin.sum_vector, (-1,)),
        (kin.sum_matrix, (-2, -1)),
        (kin.sum_rank3, (-3, -2, -1)),
    ])
    def test_component_sums_are_np_sum(self, rng, shape, helper, axes):
        for x in _draws(rng, shape + (2,) * len(axes)):
            _assert_same_bits(helper(x), np.sum(x, axis=axes))
            _assert_same_bits(helper(x * x[::-1]), np.sum(x * x[::-1], axis=axes))

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_matmat_is_einsum(self, rng, shape):
        for A, B in zip(_draws(rng, shape + (2, 2)), _draws(rng, shape + (2, 2))):
            _assert_same_bits(kin.matmat(A, B), np.einsum("...ik,...kj->...ij", A, B))
            # the transposed product of stress_structural
            _assert_same_bits(kin.matmat(np.swapaxes(A, -1, -2), A),
                              np.einsum("...ki,...kj->...ij", A, A))

    @pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: "x".join(map(str, g.spatial_shape)) or "0d")
    @pytest.mark.parametrize("comps", [(), (2,), (2, 2)])
    def test_upwind_advect_is_the_max_min_formula(self, rng, grid, comps):
        shape = grid.spatial_shape
        for f in _draws(rng, shape + comps):
            # each velocity component 0, -0, positive or negative
            v = rng.choice([0.0, -0.0, 0.7, -1.3], size=shape + (2,)) * rng.uniform(
                0.5, 2.0, size=shape + (2,))
            _assert_same_bits(kin.upwind(v, grid)(f), _upwind_max_min(f, v, grid))

    @pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: "x".join(map(str, g.spatial_shape)) or "0d")
    def test_one_upwind_operator_transports_every_rank(self, rng, grid):
        # one operator per velocity, applied to a rank-0, a rank-1 and a
        # rank-2 field in turn; velocities with 0.0 and -0.0 components, and
        # each negated, so every cell takes both of its faces
        shape = grid.spatial_shape
        for draw in _draws(rng, shape + (2,)):
            for v in (draw, -draw):
                transport = kin.upwind(v, grid)
                for comps in [(), (2,), (2, 2)]:
                    f = np.asarray(rng.normal(size=shape + comps) * rng.choice([1.0, 1e-300, 1e16]))
                    f[rng.integers(0, 2, size=f.shape) == 1] = -0.0
                    adv = transport(f)
                    _assert_same_bits(adv, _upwind_max_min(f, v, grid))
                    if grid.dim == 0:
                        assert np.all(adv == 0.0)

    @pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: "x".join(map(str, g.spatial_shape)) or "0d")
    @pytest.mark.parametrize("kind", ["even", "velocity"])
    def test_grad_vector_is_the_per_component_loop(self, rng, grid, kind):
        for vf in _draws(rng, grid.spatial_shape + (2,)):
            _assert_same_bits(kin.grad_vector(vf, grid, kind), _grad_vector_loop(vf, grid, kind))


class TestOperators:
    def test_dim0_derivatives_vanish(self, grid0, rng):
        f = np.asarray(rng.normal())
        assert np.all(kin.grad_tensor(f, grid0) == 0.0)
        assert np.all(kin.laplacian(f, grid0) == 0.0)
        v = rng.normal(size=(2,))
        assert np.all(kin.upwind(v, grid0)(f) == 0.0)

    @pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: "x".join(map(str, g.spatial_shape)) or "0d")
    @pytest.mark.parametrize("comps", [(), (2,), (2, 2)])
    def test_laplacian_is_the_three_point_formula(self, rng, grid, comps):
        # the face divergence rounds differently from (f[i+1] - 2 f[i] + f[i-1]) / h^2
        # with edge ghosts: a few roundings of each term's size apart
        for f in _draws(rng, grid.spatial_shape + comps):
            want, size = np.zeros_like(f), np.zeros_like(f)
            for a in range(grid.dim):
                p = np.pad(f, [(1, 1) if k == a else (0, 0) for k in range(f.ndim)], mode="edge")
                lo = tuple(slice(None, -2) if k == a else slice(None) for k in range(f.ndim))
                hi = tuple(slice(2, None) if k == a else slice(None) for k in range(f.ndim))
                h2 = grid.spacing[a] ** 2
                want += (p[hi] - 2.0 * f + p[lo]) / h2
                size += (np.abs(p[hi]) + 2.0 * np.abs(f) + np.abs(p[lo])) / h2
            err = np.abs(kin.laplacian(f, grid) - want)
            assert np.all(err <= 16.0 * np.finfo(np.float64).eps * size)

    def test_dirichlet_density_splits_each_face_between_its_cells(self):
        # faces d = (0, 1, 2, 0) and (0, 0, 1, 0): each cell takes half of
        # d^2 on each of its two faces, summed over the components
        g = make_grid(1, (3.0,), (3,))
        f = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
        np.testing.assert_array_equal(kin.dirichlet_density(f, g), [0.5, 3.0, 2.5])

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
        adv = kin.upwind(v, g)(f)
        np.testing.assert_allclose(adv[1:], 2.0, atol=1e-12)  # backward difference

    def test_upwind_constant_field(self, rng):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        v = rng.normal(size=(8, 8, 2))
        assert np.max(np.abs(kin.upwind(v, g)(np.full((8, 8), 1.3)))) == 0.0


# 1D and 2D, n = 1, odd and even n, unequal spacings
_PAIRING_GRIDS = [
    make_grid(1, (1.0,), (1,)),
    make_grid(1, (2.0,), (7,)),
    make_grid(1, (1.0,), (16,)),
    make_grid(2, (1.0, 1.0), (1, 1)),
    make_grid(2, (1.0, 0.5), (1, 6)),
    make_grid(2, (1.0, 0.5), (7, 5)),
    make_grid(2, (3.0, 0.7), (12, 9)),
    make_grid(2, (1.0, 1.0), (16, 16)),
]


class TestAdjointPairs:
    @pytest.mark.parametrize("grid", _PAIRING_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_stress_divergence_is_minus_the_velocity_gradient_adjoint(self, rng, grid):
        # int v . div S = -int S : grad v, for a non-symmetric S: the wall
        # rule of div_tensor mirrors the free-slip ghosts of the velocity
        for _ in range(3):
            v = rng.normal(size=grid.spatial_shape + (2,))
            S = rng.normal(size=grid.spatial_shape + (2, 2))
            work = kin.sum_vector(v * kin.div_tensor(S, grid))
            power = kin.ddot(S, kin.grad_vector(v, grid, kind="velocity"))
            scale = grid.integrate(np.abs(work)) + grid.integrate(np.abs(power))
            assert abs(grid.integrate(work) + grid.integrate(power)) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", _PAIRING_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_exchange_energy_change_is_the_laplacian_pairing(self, rng, grid):
        # E(m1) - E(m0) = -kappa mu0 int lap m1 . dm - (kappa mu0/2) int density(dm):
        # the m block's field kappa mu0 lap m is the exact negative gradient of
        # the ledger's exchange entry, and the rest is its quadratic defect
        params = material(kappa=0.3, mu0=1.7)
        k = params.kappa * params.mu0
        for size in (1.0, 1e-3, 1e-6):
            m0 = rng.normal(size=grid.spatial_shape + (2,))
            m1 = m0 + size * rng.normal(size=m0.shape)
            e0, e1 = exchange_energy(m0, grid, params), exchange_energy(m1, grid, params)
            pairing = -k * grid.integrate(kin.sum_vector(kin.laplacian(m1, grid) * (m1 - m0)))
            defect = -0.5 * k * grid.integrate(kin.dirichlet_density(m1 - m0, grid))
            scale = abs(e0) + abs(e1) + abs(pairing) + abs(defect)
            assert abs(e1 - e0 - pairing - defect) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", _PAIRING_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_rate_gradient_pairs_with_its_dissipation(self, rng, grid):
        # int R : varkappa lap R = -varkappa int density(R), xi's varkappa term
        varkappa = 0.7
        for _ in range(3):
            R = rng.normal(size=grid.spatial_shape + (2, 2))
            work = grid.integrate(kin.sum_matrix(R * (varkappa * kin.laplacian(R, grid))))
            dissipation = varkappa * grid.integrate(kin.dirichlet_density(R, grid))
            assert abs(work + dissipation) <= 1e-13 * (abs(work) + abs(dissipation))


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
