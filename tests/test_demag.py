"""Demagnetizing-field solver: factors, duality, residuals."""

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg

from paleomag import demag
from paleomag.demag import (
    _farfield_ring,
    _omega_slices,
    demag_energy_pairing,
    h_dem_from_u,
    solve_demag,
)
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
        sol = solve_demag(np.array([1.0, 2.0]), grid0)
        assert np.all(sol.h_dem == 0.0)
        assert sol.energy == 0.0


class TestDim1:
    def test_slab_interior_field(self):
        g = make_grid(1, (1.0,), (32,))
        m = np.zeros((32, 2))
        m[..., 0] = 0.7
        sol = solve_demag(m, g)
        # 1D slab: h_dem = -m_x inside (demag factor 1 along the axis)
        np.testing.assert_allclose(sol.h_dem[1:-1, 0], -0.7, atol=1e-12)
        assert np.all(sol.h_dem[..., 1] == 0.0)
        assert sol.energy == pytest.approx(0.5 * 0.7**2, rel=1e-12)

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

    def test_zero_boundary_duality(self):
        # zero Dirichlet ghosts: the discrete summation-by-parts identity
        # pairing = 2 * energy holds to roundoff
        g = make_grid(2, (1.0, 1.0), (16, 16))
        m, _ = disk_magnetization(g, radius=0.25, m=(0.8, 0.3))
        sol = solve_demag(m, g, boundary="zero")
        pairing = demag_energy_pairing(sol, m, g)
        assert pairing == pytest.approx(2.0 * sol.energy, rel=1e-10)

    def test_farfield_duality_approximate(self):
        g = make_grid(2, (1.0, 1.0), (16, 16))
        m, _ = disk_magnetization(g, radius=0.25, m=(0.8, 0.3))
        sol = solve_demag(m, g, boundary="farfield")
        pairing = demag_energy_pairing(sol, m, g)
        assert pairing == pytest.approx(2.0 * sol.energy, rel=0.05)

    def test_energy_nonnegative(self):
        g = make_grid(2, (1.0, 1.0), (16, 16))
        rng = np.random.default_rng(5)
        m = rng.normal(size=(16, 16, 2))
        assert solve_demag(m, g).energy >= 0.0

    def test_unknown_boundary(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        with pytest.raises(ConfigError):
            solve_demag(np.zeros((8, 8, 2)), g, boundary="periodic")

    def test_bad_shape(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        with pytest.raises(ConfigError):
            solve_demag(np.zeros((4, 4, 2)), g)


def direct_ring(m, grid):
    """Oracle: the dipole far field summed directly, every ghost against every cell."""
    hx, hy = grid.spacing
    Px, Py = grid.padded_cells
    sx, sy = _omega_slices(grid)
    xs = (np.arange(Px) + 0.5) * hx
    ys = (np.arange(Py) + 0.5) * hy
    X, Y = np.meshgrid(xs[sx], ys[sy], indexing="ij")
    src = np.stack([X.ravel(), Y.ravel()], axis=-1)
    mom = m.reshape(-1, 2) * grid.cell_volume

    def u_at(points):
        d = points[:, None, :] - src[None, :, :]
        r2 = np.sum(d * d, axis=-1)
        return np.sum(np.sum(d * mom[None, :, :], axis=-1) / r2, axis=-1) / (2.0 * np.pi)

    left = u_at(np.stack([np.full(Py, -0.5 * hx), ys], axis=-1))
    right = u_at(np.stack([np.full(Py, (Px + 0.5) * hx), ys], axis=-1))
    bottom = u_at(np.stack([xs, np.full(Px, -0.5 * hy)], axis=-1))
    top = u_at(np.stack([xs, np.full(Px, (Py + 0.5) * hy)], axis=-1))
    return left, right, bottom, top


RING_GEOMETRIES = {
    "square-pad4": ((1.0, 1.0), (32, 32), 4),
    "square-pad2": ((1.0, 1.0), (32, 32), 2),
    # the ring passes within 0.2 of the centre, sources reach 0.51
    "flat-pad2": ((1.0, 0.2), (40, 8), 2),
    # non-square cells; (pad - 1) * n odd, so the Omega offset is floored
    "odd-offset": ((1.0, 1.0), (7, 13), 4),
    "flat-cells-odd-offset": ((1.0, 0.2), (41, 16), 2),
    # Omega touches the edge of the padded grid (offset 0) along one or both axes
    "line-x-pad2": ((1.0, 1.0), (1, 8), 2),
    "line-y-pad2": ((1.0, 1.0), (8, 1), 2),
    "cell-pad2": ((1.0, 1.0), (1, 1), 2),
}


def ring_magnetization(kind, grid):
    if kind == "random":
        return np.random.default_rng(11).normal(size=grid.spatial_shape + (2,))
    if kind == "uniform":
        return np.broadcast_to([0.5, 0.2], grid.spatial_shape + (2,)).copy()
    # vortex about the centre of Omega: net moment zero
    x, y = grid.cell_centers()
    X, Y = np.meshgrid(x - 0.5 * grid.extents[0], y - 0.5 * grid.extents[1], indexing="ij")
    return np.stack([-Y, X], axis=-1)


class TestFarfieldRing:
    @pytest.mark.parametrize("kind", ["random", "uniform", "vortex"])
    @pytest.mark.parametrize("geometry", RING_GEOMETRIES.values(), ids=RING_GEOMETRIES.keys())
    def test_matches_direct_sum(self, geometry, kind):
        g = make_grid(2, *geometry)
        m = ring_magnetization(kind, g)
        got = _farfield_ring(m, g)
        want = direct_ring(m, g)
        scale = max(float(np.max(np.abs(w))) for w in want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert float(np.max(np.abs(a - b))) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["random", "uniform", "vortex"])
    @pytest.mark.parametrize("geometry", RING_GEOMETRIES.values(), ids=RING_GEOMETRIES.keys())
    def test_h_dem_is_minus_grad_u(self, geometry, kind):
        # h_dem is formed on Omega only; it is -grad u on the padded grid bit for bit
        g = make_grid(2, *geometry)
        sol = solve_demag(ring_magnetization(kind, g), g)
        want = padded_minus_grad(sol.u, g)
        np.testing.assert_allclose(h_dem_from_u(sol.u, g), want, rtol=0.0, atol=0.0)
        np.testing.assert_allclose(sol.h_dem, want, rtol=0.0, atol=0.0)


def padded_minus_grad(u, grid):
    """Reference: -grad u by central differences over the whole padded grid, on Omega.

    Cells on the edge of the padded grid get a zero gradient along that axis.
    """
    out = []
    for a, h in enumerate(grid.spacing):
        ua = np.moveaxis(u, a, 0)
        g = np.zeros_like(ua)
        g[1:-1] = (ua[2:] - ua[:-2]) / (2.0 * h)
        out.append(-np.moveaxis(g, 0, a)[_omega_slices(grid)])
    return np.stack(out, axis=-1)


def direct_solve(m, grid):
    """Oracle: sparse direct solve of the 5-point problem with direct_ring ghosts."""
    hx, hy = grid.spacing
    Px, Py = grid.padded_cells
    sx, sy = _omega_slices(grid)
    # div(chi m) by central differences, zero outside Omega
    full = np.zeros((Px + 2, Py + 2, 2))
    full[sx.start + 1 : sx.stop + 1, sy.start + 1 : sy.stop + 1] = m
    b = (full[2:, 1:-1, 0] - full[:-2, 1:-1, 0]) / (2.0 * hx) + (
        full[1:-1, 2:, 1] - full[1:-1, :-2, 1]
    ) / (2.0 * hy)
    left, right, bottom, top = direct_ring(m, grid)
    b[0, :] -= left / hx**2
    b[-1, :] -= right / hx**2
    b[:, 0] -= bottom / hy**2
    b[:, -1] -= top / hy**2

    def second_difference(P, h):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(P, P)) / h**2

    A = sp.kron(second_difference(Px, hx), sp.identity(Py)) + sp.kron(
        sp.identity(Px), second_difference(Py, hy)
    )
    return scipy.sparse.linalg.spsolve(A.tocsc(), b.ravel()).reshape(Px, Py)


class TestSolveOracle:
    @pytest.mark.parametrize(
        "geometry", [((1.0, 1.0), (8, 8), 4), ((1.0, 1.0), (7, 13), 4)], ids=["8x8-pad4", "7x13-pad4"]
    )
    def test_matches_sparse_direct_solve(self, geometry):
        g = make_grid(2, *geometry)
        m = ring_magnetization("random", g)
        sol = solve_demag(m, g)
        want = direct_solve(m, g)
        assert float(np.max(np.abs(sol.u - want))) <= 1e-12 * float(np.max(np.abs(want)))
        assert sol.residual < 1e-9


def _clear_demag_caches():
    for f in vars(demag).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


class TestGeometryCache:
    @pytest.mark.parametrize(
        "other", [((1.0, 0.5), (8, 8), 4), ((1.0, 1.0), (8, 8), 2)], ids=["extents", "pad_factor"]
    )
    def test_solve_independent_of_order(self, other):
        grids = {"A": make_grid(2, (1.0, 1.0), (8, 8), 4), "B": make_grid(2, *other)}
        m = ring_magnetization("random", grids["A"])

        def solve_in_order(order):
            _clear_demag_caches()
            return [solve_demag(m, grids[name]).u for name in order]

        a1, b1, a2 = solve_in_order("ABA")
        b0, a0 = solve_in_order("BA")
        for got, want in ((a1, a0), (a2, a0), (b1, b0)):
            np.testing.assert_array_equal(got, want)


class TestTransformLength:
    @pytest.mark.parametrize("cells", [(32, 32), (64, 64), (128, 128), (7, 13)],
                             ids=["32", "64", "128", "7x13"])
    def test_ghost_lines_pad_lengths_apart(self, cells):
        # ghosts at index -1 and P: P + 1 cells span pad_factor * L
        g = make_grid(2, (1.0, 1.0), cells, 4)
        for P, n in zip(g.padded_cells, g.cells):
            assert P + 1 == 4 * n

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_dst_fft_length_is_fast(self, n):
        # SciPy runs a DST-I of P points as an FFT of length 2 (P + 1)
        for P in make_grid(2, (1.0, 1.0), (n, n), 4).padded_cells:
            assert scipy.fft.next_fast_len(2 * (P + 1)) == 2 * (P + 1)


def eager_checks(u, m, grid, mu0=1.0):
    """Oracle: energy and residual as every 2D solve once formed them (far-field ghosts)."""
    hx, hy = grid.spacing
    rhs = demag._div_central(m, grid)
    left, right, bottom, top = _farfield_ring(m, grid)
    up = np.pad(u, 1)
    up[0, 1:-1], up[-1, 1:-1] = left, right
    up[1:-1, 0], up[1:-1, -1] = bottom, top
    fx = (up[1:, 1:-1] - up[:-1, 1:-1]) / hx
    fy = (up[1:-1, 1:] - up[1:-1, :-1]) / hy
    lap = (fx[1:] - fx[:-1]) / hx + (fy[:, 1:] - fy[:, :-1]) / hy
    residual = float(np.max(np.abs(lap - rhs)))
    energy = 0.5 * mu0 * (float(np.vdot(fx, fx)) + float(np.vdot(fy, fy))) * grid.cell_volume
    return energy, residual


class TestChecksOnRead:
    def test_equal_the_eager_formula(self):
        g = make_grid(2, (1.0, 1.0), (7, 13), 4)
        m = ring_magnetization("random", g)
        sol = solve_demag(m, g, mu0=1.3)
        energy, residual = eager_checks(sol.u, m, g, mu0=1.3)
        assert sol.residual == residual
        assert sol.energy == energy

    def test_built_once_on_first_read(self, monkeypatch):
        builds, build = [], demag._poisson_checks
        monkeypatch.setattr(demag, "_poisson_checks", lambda *a: builds.append(a) or build(*a))
        g = make_grid(2, (1.0, 1.0), (8, 8), 4)
        sol = solve_demag(ring_magnetization("vortex", g), g)
        assert builds == []
        first = (sol.energy, sol.residual)
        assert (sol.energy, sol.residual) == first
        assert len(builds) == 1
