"""Demagnetizing-field solver: lattice Green's function, factors, duality, residuals."""

import math

import numpy as np
import pytest

from paleomag import demag
from paleomag.demag import _lattice_green, h_dem_from_u, poisson_residual, solve_demag
from paleomag.energetics import demag_energy
from paleomag.errors import ConfigError
from paleomag.grid import make_grid


def disk_magnetization(grid, radius=0.3, m=(1.0, 0.0)):
    x, y = grid.cell_centers()
    cx, cy = 0.5 * grid.extents[0], 0.5 * grid.extents[1]
    inside = (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2 <= radius**2
    mm = np.zeros(grid.spatial_shape + (2,))
    mm[inside] = np.asarray(m)
    return mm, inside


class TestDim0:
    def test_zero_solution(self, grid0):
        m = np.array([1.0, 2.0])
        sol = solve_demag(m, grid0)
        assert np.all(sol.h_dem == 0.0)
        assert demag_energy(m, sol.u, grid0, 1.0) == 0.0
        assert sol.residual == 0.0


class TestDim1:
    def test_slab_interior_field(self):
        g = make_grid(1, (1.0,), (32,))
        m = np.zeros((32, 2))
        m[..., 0] = 0.7
        sol = solve_demag(m, g)
        # 1D slab: h_dem = -m_x inside (demag factor 1 along the axis)
        np.testing.assert_allclose(sol.h_dem[1:-1, 0], -0.7, atol=1e-12)
        assert np.all(sol.h_dem[..., 1] == 0.0)
        # the edge cells read h_dem = -3/4 m_x: E = (1/2) 0.7^2 (1 - h/2)
        energy = demag_energy(m, sol.u, g, 1.0)
        assert energy == pytest.approx(0.5 * 0.7**2 * (1.0 - 0.5 / 32), rel=1e-12)
        assert sol.residual < 1e-12

    def test_h_dem_consistent_with_u(self):
        g = make_grid(1, (1.0,), (16,))
        rng = np.random.default_rng(3)
        m = np.zeros((16, 2))
        m[..., 0] = rng.normal(size=16)
        sol = solve_demag(m, g)
        np.testing.assert_allclose(sol.h_dem, h_dem_from_u(sol.u, g), atol=0.0)

    def test_unknown_boundary(self):
        g = make_grid(1, (1.0,), (8,))
        with pytest.raises(ConfigError):
            solve_demag(np.zeros((8, 2)), g, boundary="periodic")


class TestDim2:
    def test_disk_factor(self):
        g = make_grid(2, (1.0, 1.0), (48, 48))
        m, inside = disk_magnetization(g, radius=0.3)
        sol = solve_demag(m, g)
        x, y = g.cell_centers()
        core = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2 <= (0.6 * 0.3) ** 2
        mean_hx = float(np.mean(sol.h_dem[core, 0]))
        # uniformly magnetized disk: interior h_dem = -m/2
        assert mean_hx == pytest.approx(-0.5, rel=0.02)
        assert abs(float(np.mean(sol.h_dem[core, 1]))) < 0.01
        assert sol.residual < 1e-9

    def test_farfield_duality_approximate(self):
        # summation by parts: the pairing -mu0 int u div_c(chi m), summed
        # over Omega and its halo, is twice the ledger's field energy
        g = make_grid(2, (1.0, 1.0), (16, 16))
        m, _ = disk_magnetization(g, radius=0.25, m=(0.8, 0.3))
        sol = solve_demag(m, g, boundary="farfield")
        pairing = -float(np.sum(demag._div_central(m, g) * sol.u)) * g.cell_volume
        assert pairing == pytest.approx(2.0 * demag_energy(m, sol.u, g, 1.0), rel=1e-12)

    def test_energy_nonnegative(self):
        g = make_grid(2, (1.0, 1.0), (16, 16))
        rng = np.random.default_rng(5)
        m = rng.normal(size=(16, 16, 2))
        assert demag_energy(m, solve_demag(m, g).u, g, 1.0) >= 0.0

    def test_unknown_boundary(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        with pytest.raises(ConfigError):
            solve_demag(np.zeros((8, 8, 2)), g, boundary="periodic")

    def test_bad_shape(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        with pytest.raises(ConfigError):
            solve_demag(np.zeros((4, 4, 2)), g)


def random_magnetization(grid, seed=11):
    return np.random.default_rng(seed).normal(size=grid.spatial_shape + (2,))


class TestLatticeGreen:
    """G(p, q) - G(0, 0) of the 5-point Laplacian on the infinite lattice."""

    @pytest.mark.parametrize("h", [1.0, 0.125])
    def test_exact_values_on_square_cells(self, h):
        G = _lattice_green((h, h), (2, 2))
        assert G[0, 0] == 0.0
        assert G[1, 0] == pytest.approx(h * h / 4.0, rel=1e-15)
        assert G[0, 1] == pytest.approx(h * h / 4.0, rel=1e-15)
        assert G[1, 1] == pytest.approx(h * h / math.pi, rel=1e-15)

    def test_asymptote(self):
        # (ln r + gamma + (3/2) ln 2) / 2 pi - cos(4 phi) / (24 pi r^2), on an axis
        r = 50
        G = _lattice_green((1.0, 1.0), (r + 1, 1))
        want = (math.log(r) + np.euler_gamma + 1.5 * math.log(2.0)) / (2.0 * math.pi)
        want -= 1.0 / (24.0 * math.pi * r * r)
        assert abs(G[r, 0] - want) <= 1e-8

    def test_laplacian_is_delta_on_anisotropic_cells(self):
        hx, hy = 0.7, 0.23
        G = _lattice_green((hx, hy), (12, 12))
        full = np.concatenate([G[:0:-1], G])
        full = np.concatenate([full[:, :0:-1], full], axis=1)  # offsets -11..11
        lap = (full[2:, 1:-1] - 2.0 * full[1:-1, 1:-1] + full[:-2, 1:-1]) / hx**2 + (
            full[1:-1, 2:] - 2.0 * full[1:-1, 1:-1] + full[1:-1, :-2]
        ) / hy**2
        delta = np.zeros_like(lap)
        delta[10, 10] = 1.0
        np.testing.assert_allclose(lap, delta, rtol=0.0, atol=1e-12)


# The ids are those of the cases first written for the retired padded
# solve, whose "padN" and "odd-offset" parts named where Omega sat in the
# padded grid; the halo grid has no such setting, so they only name cases.
RING_GEOMETRIES = {
    "square-pad4": ((1.0, 1.0), (32, 32)),
    # the same cells at twice the spacing: G scales as h^2, div_c as 1/h
    "square-pad2": ((2.0, 2.0), (32, 32)),
    "flat-pad2": ((1.0, 0.2), (40, 8)),
    # non-square cells
    "odd-offset": ((1.0, 1.0), (7, 13)),
    "flat-cells-odd-offset": ((1.0, 0.2), (41, 16)),
    # Omega one cell thick along one or both axes
    "line-x-pad2": ((1.0, 1.0), (1, 8)),
    "line-y-pad2": ((1.0, 1.0), (8, 1)),
    "cell-pad2": ((1.0, 1.0), (1, 1)),
}


def ring_magnetization(kind, grid):
    if kind == "random":
        return random_magnetization(grid)
    if kind == "uniform":
        return np.broadcast_to([0.5, 0.2], grid.spatial_shape + (2,)).copy()
    # vortex about the centre of Omega: net moment zero
    x, y = grid.cell_centers()
    X, Y = np.meshgrid(x - 0.5 * grid.extents[0], y - 0.5 * grid.extents[1], indexing="ij")
    return np.stack([-Y, X], axis=-1)


def direct_sum(m, grid):
    """Oracle: u(x) = sum_s G(x - s) div_c(chi m)(s), every cell of Omega and
    its halo against every other."""
    f = demag._div_central(m, grid)
    nx, ny = grid.halo_cells
    G = _lattice_green(grid.spacing, (nx, ny))
    dx = np.abs(np.arange(nx)[:, None] - np.arange(nx)[None, :])
    dy = np.abs(np.arange(ny)[:, None] - np.arange(ny)[None, :])
    return np.einsum("iajb,ab->ij", G[dx][:, :, dy], f)


class TestFarfieldRing:
    """u on Omega and its halo ring, vanishing at infinity ("farfield")."""

    @pytest.mark.parametrize("kind", ["random", "uniform", "vortex"])
    @pytest.mark.parametrize("geometry", RING_GEOMETRIES.values(), ids=RING_GEOMETRIES.keys())
    def test_matches_direct_sum(self, geometry, kind):
        g = make_grid(2, *geometry)
        m = ring_magnetization(kind, g)
        got = solve_demag(m, g).u
        want = direct_sum(m, g)
        assert got.shape == want.shape == g.halo_cells
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
        # the halo ring on its own
        ring = np.ones(g.halo_cells, dtype=bool)
        ring[1:-1, 1:-1] = False
        assert float(np.max(np.abs(got[ring] - want[ring]))) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["random", "uniform", "vortex"])
    @pytest.mark.parametrize("geometry", RING_GEOMETRIES.values(), ids=RING_GEOMETRIES.keys())
    def test_h_dem_is_minus_grad_u(self, geometry, kind):
        # -grad u by central differences over the whole halo grid, on Omega,
        # bit for bit
        g = make_grid(2, *geometry)
        sol = solve_demag(ring_magnetization(kind, g), g)
        assert sol.u.shape == g.halo_cells
        want = np.stack(
            [-np.gradient(sol.u, h, axis=a)[1:-1, 1:-1] for a, h in enumerate(g.spacing)],
            axis=-1,
        )
        np.testing.assert_array_equal(sol.h_dem, want)
        np.testing.assert_array_equal(h_dem_from_u(sol.u, g), want)


class TestConvolution:
    @pytest.mark.parametrize("cells", [(8, 8), (16, 16), (7, 13)], ids=["8", "16", "7x13"])
    def test_self_adjoint(self, cells):
        g = make_grid(2, (1.0, 1.0), cells)
        m1, m2 = random_magnetization(g, 1), random_magnetization(g, 2)
        h1, h2 = solve_demag(m1, g).h_dem, solve_demag(m2, g).h_dem
        a, b = float(np.sum(m1 * h2)), float(np.sum(m2 * h1))
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    def test_residual_reads_a_wrong_u(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        m = random_magnetization(g)
        sol = solve_demag(m, g)
        assert sol.residual == poisson_residual(sol.u, m, g) < 1e-11
        assert poisson_residual(sol.u, 1.01 * m, g) > 1e-3


def _clear_demag_caches():
    for f in vars(demag).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


class TestGeometryCache:
    @pytest.mark.parametrize(
        "other", [((1.0, 0.5), (8, 8)), ((1.0, 1.0), (8, 16))], ids=["extents", "cells"]
    )
    def test_solve_independent_of_order(self, other):
        grids = {"A": make_grid(2, (1.0, 1.0), (8, 8)), "B": make_grid(2, *other)}
        m = {name: random_magnetization(grid) for name, grid in grids.items()}

        def solve_in_order(order):
            _clear_demag_caches()
            return [solve_demag(m[name], grids[name]).u for name in order]

        a1, b1, a2 = solve_in_order("ABA")
        b0, a0 = solve_in_order("BA")
        for got, want in ((a1, a0), (a2, a0), (b1, b0)):
            np.testing.assert_array_equal(got, want)
