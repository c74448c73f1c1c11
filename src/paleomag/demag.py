"""Demagnetizing field: Delta u = div(chi_Omega m) on a padded grid.

The whole-space Poisson problem is approximated on a grid extended by
``pad_factor`` in every direction: P = pad_factor * n - 1 cells per axis,
so the Dirichlet ghost lines at index -1 and P lie pad_factor * L apart.
In 2D the discrete 5-point problem is solved exactly (to roundoff) by a
type-I discrete sine transform, whose FFT length 2 (P + 1) = 2 pad_factor n
is a power of two at the usual sizes, with Dirichlet ghost values taken
either as zero or from the continuum dipole far field of the magnetization
(default), which sharply reduces the domain-truncation error of the pad.
h_dem = -grad u on Omega.

The far-field ghosts and the cells of Omega lie on one lattice, so the
values on each of the four ghost lines are a sum, over the source rows
(or columns) of Omega, of 1D Toeplitz convolutions along the line with
the kernel 1 / (dx + i dy) of the lattice offsets (lattice Green's
function convolution, Hockney & Eastwood 1988).  They are evaluated
exactly, to roundoff, by FFTs along each line with kernel spectra that
are computed once per grid (``_farfield_ring``).

div(chi m) vanishes outside Omega and its one-cell halo, and h_dem is
needed on Omega only, so neither is formed on the rest of the padded grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft

from .errors import ConfigError
from .grid import NCOMP, Grid

_BOUNDARIES = ("farfield", "zero")


@dataclass
class DemagSolution:
    """u on the padded grid and h_dem = -grad u on Omega.

    ``energy`` (the field energy, >= 0) and ``residual`` (the largest
    5-point Poisson residual) are checks the sweep never reads, so they
    are built on first read and kept; in 2D from u and the ghost ring and
    div(chi m) of the solve.  The energy counts the faces to the ghost
    ring, which the audit ledger's ``energetics.demag_energy_from_u``
    leaves out.
    """

    u: np.ndarray
    h_dem: np.ndarray
    _checks: Callable[[], tuple[float, float]]

    @functools.cached_property
    def _energy_residual(self) -> tuple[float, float]:
        return self._checks()

    @property
    def energy(self) -> float:
        return self._energy_residual[0]

    @property
    def residual(self) -> float:
        return self._energy_residual[1]


def _omega_slices(grid: Grid) -> tuple[slice, ...]:
    return tuple(
        slice((P - n) // 2, (P - n) // 2 + n)
        for P, n in zip(grid.padded_cells, grid.cells)
    )


def _line_spectra(n: int, P: int, o: int, step: complex, across: np.ndarray) -> np.ndarray:
    """Spectra of the kernels 1 / (d step + across) of one pair of ghost lines.

    ``n`` source cells start at padded index ``o`` of an axis of ``P``
    padded cells, ``step`` is one cell along that axis as a complex
    number, and ``across`` (side, source row) is the offset of each
    side's ghost line from each source row.  Kernel entry e is the offset
    d = e - o - n + 1 along the line, so entry t + n - 1 of the linear
    convolution is target index t.  The transform is at least as long as
    the kernel, so the circular wrap-around reaches no target.
    """
    along = (np.arange(P + n - 1) - o - n + 1) * step
    kern = 1.0 / (along + across[..., None])
    spec = scipy.fft.fft(kern, scipy.fft.next_fast_len(P + n - 1), axis=-1)
    spec.flags.writeable = False
    return spec


# Keyed by the whole geometry: cells, extents and pad_factor all enter.
@functools.lru_cache(maxsize=4)
def _ring_spectra(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Kernel spectra of the (left, right) and the (bottom, top) ghost lines.

    Shapes (2, nx, Ly) and (2, ny, Lx): the left and right lines run
    along y and see source row i of Omega at x offset (-1 - i) hx and
    (Px - i) hx; the bottom and top lines likewise run along x.
    """
    hx, hy = grid.spacing
    nx, ny = grid.cells
    Px, Py = grid.padded_cells
    sx, sy = _omega_slices(grid)
    ix = np.arange(sx.start, sx.stop)
    iy = np.arange(sy.start, sy.stop)
    across_x = np.stack([-1 - ix, Px - ix]) * hx
    across_y = np.stack([-1 - iy, Py - iy]) * (1j * hy)
    return (
        _line_spectra(ny, Py, sy.start, 1j * hy, across_x),
        _line_spectra(nx, Px, sx.start, hx, across_y),
    )


def _farfield_ring(m: np.ndarray, grid: Grid):
    """Continuum dipole-potential values at the four ghost-cell lines (2D).

    u(x) = sum_j m_j . (x - x_j) / (2 pi |x - x_j|^2) * cell_volume,
    the far field of Delta u = div(chi m) in the plane.  With z = x + i y
    and mu = m_x + i m_y, m . d / |d|^2 = Re(mu / d), so

        u(z) = cell_volume / (2 pi) * Re sum_j mu_j / (z - z_j).

    Ghosts (lattice index -1 and P per axis) and sources (the cells of
    Omega) sit on one lattice.  Along the left ghost line (x index -1),
    source row a of Omega (x index i_a) is at the fixed x offset
    -1 - i_a, so the line values are sum_a (mu[a, :] conv k_a)(j), a sum
    of 1D convolutions along y with the kernels
    k_a(d) = 1 / ((-1 - i_a) hx + i d hy); likewise for the other three
    lines.  mu is transformed once along y and once
    along x, multiplied by the cached kernel spectra of the grid
    (``_ring_spectra``), summed over the source rows and transformed back
    once per side (Hockney & Eastwood 1988).  The result is the direct
    sum to roundoff; no ghost is within a cell of a source.
    """
    nx, ny = grid.cells
    Px, Py = grid.padded_cells
    spec_lr, spec_bt = _ring_spectra(grid)
    mu = m[..., 0] + 1j * m[..., 1]
    mu_y = scipy.fft.fft(mu, spec_lr.shape[-1], axis=1)
    mu_x = scipy.fft.fft(mu.T, spec_bt.shape[-1], axis=1)
    lr = scipy.fft.ifft((spec_lr * mu_y).sum(axis=1), axis=-1)
    bt = scipy.fft.ifft((spec_bt * mu_x).sum(axis=1), axis=-1)
    c = grid.cell_volume / (2.0 * np.pi)
    left, right = lr.real[:, ny - 1 : ny - 1 + Py] * c
    bottom, top = bt.real[:, nx - 1 : nx - 1 + Px] * c
    return left, right, bottom, top


@functools.lru_cache(maxsize=4)
def _dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """lambda_x + lambda_y of the 5-point Laplacian on the padded grid."""
    hx, hy = grid.spacing
    Px, Py = grid.padded_cells
    kx = np.arange(1, Px + 1)
    ky = np.arange(1, Py + 1)
    lam_x = (2.0 * np.cos(np.pi * kx / (Px + 1)) - 2.0) / (hx * hx)
    lam_y = (2.0 * np.cos(np.pi * ky / (Py + 1)) - 2.0) / (hy * hy)
    lam = lam_x[:, None] + lam_y[None, :]
    lam.flags.writeable = False
    return lam


def _solve_dirichlet_2d(rhs: np.ndarray, ghosts, grid: Grid) -> np.ndarray:
    """Exact 5-point Dirichlet solve on the padded grid via DST-I."""
    hx, hy = grid.spacing
    left, right, bottom, top = ghosts
    b = rhs.copy()
    b[0, :] -= left / (hx * hx)
    b[-1, :] -= right / (hx * hx)
    b[:, 0] -= bottom / (hy * hy)
    b[:, -1] -= top / (hy * hy)
    bhat = scipy.fft.dstn(b, type=1, overwrite_x=True)
    bhat /= _dirichlet_eigenvalues(grid)
    return scipy.fft.idstn(bhat, type=1, overwrite_x=True)


def _div_central(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Central divergence of chi_Omega m on the padded grid (2D).

    It vanishes outside Omega and its one-cell halo, so only that block
    is computed, from m framed by two zero cells: the padded grid holds
    zeros there, and at its edge the difference reads a zero beyond it.
    """
    hx, hy = grid.spacing
    mp = np.pad(m, ((2, 2), (2, 2), (0, 0)))
    div = (mp[2:, 1:-1, 0] - mp[:-2, 1:-1, 0]) / (2.0 * hx) + (
        mp[1:-1, 2:, 1] - mp[1:-1, :-2, 1]
    ) / (2.0 * hy)
    out = np.zeros(grid.padded_cells)
    # the halo block, clipped where Omega touches the edge of the padded grid
    dst, src = [], []
    for s, P in zip(_omega_slices(grid), grid.padded_cells):
        lo, hi = max(s.start - 1, 0), min(s.stop + 1, P)
        dst.append(slice(lo, hi))
        src.append(slice(lo - s.start + 1, hi - s.start + 1))
    out[tuple(dst)] = div[tuple(src)]
    return out


def solve_demag(
    m: np.ndarray, grid: Grid, mu0: float = 1.0, boundary: str = "farfield"
) -> DemagSolution:
    """Solve the demag Poisson problem for the magnetization m on Omega."""
    if m.shape != grid.spatial_shape + (NCOMP,):
        raise ConfigError(f"m has shape {m.shape}, expected {grid.spatial_shape + (NCOMP,)}")
    if grid.dim == 0:
        # A material point has no stray-field self-interaction in this model.
        return DemagSolution(np.zeros(()), np.zeros((NCOMP,)), lambda: (0.0, 0.0))
    if boundary not in _BOUNDARIES:
        raise ConfigError(f"unknown demag boundary mode {boundary!r}")
    if grid.dim == 1:
        return _solve_1d(m, grid, mu0)
    return _solve_2d(m, grid, mu0, boundary)


def _solve_1d(m: np.ndarray, grid: Grid, mu0: float) -> DemagSolution:
    """1D: u' = chi m_x (u' -> 0 at infinity); h_dem = -grad u discretely.

    The cell-centered antiderivative gives u' = m_x exactly in the
    interior; h_dem is the same central gradient the audit reconstructs,
    so the discrete field is self-consistent through the edge cells.
    """
    (h,) = grid.spacing
    (sx,) = _omega_slices(grid)
    mx_full = np.zeros(grid.padded_cells)
    mx_full[sx] = m[..., 0]
    u = np.cumsum(mx_full) * h - 0.5 * h * mx_full  # midpoint antiderivative
    return DemagSolution(
        u, h_dem_from_u(u, grid), lambda: (0.5 * mu0 * float(np.sum(mx_full**2)) * h, 0.0)
    )


def h_dem_from_u(u: np.ndarray, grid: Grid) -> np.ndarray:
    """-grad u restricted to Omega (central differences on the padded grid).

    Cells on the edge of the padded grid have one neighbour only and get
    a zero gradient along that axis.
    """
    h_dem = np.zeros(grid.spatial_shape + (NCOMP,))
    if grid.dim == 0 or not np.any(u):
        return h_dem
    slices = _omega_slices(grid)
    for a, (s, P, h) in enumerate(zip(slices, grid.padded_cells, grid.spacing)):
        lo, hi = max(s.start, 1), min(s.stop, P - 1)
        plus, minus, out = list(slices), list(slices), [slice(None)] * grid.dim
        plus[a], minus[a] = slice(lo + 1, hi + 1), slice(lo - 1, hi - 1)
        out[a] = slice(lo - s.start, hi - s.start)
        h_dem[(*out, a)] = -((u[tuple(plus)] - u[tuple(minus)]) / (2.0 * h))
    return h_dem


def _solve_2d(m: np.ndarray, grid: Grid, mu0: float, boundary: str) -> DemagSolution:
    rhs = _div_central(m, grid)
    if boundary == "farfield":
        ghosts = _farfield_ring(m, grid)
    else:
        Px, Py = grid.padded_cells
        ghosts = (np.zeros(Py), np.zeros(Py), np.zeros(Px), np.zeros(Px))
    u = _solve_dirichlet_2d(rhs, ghosts, grid)
    return DemagSolution(
        u, h_dem_from_u(u, grid), lambda: _poisson_checks(u, ghosts, rhs, grid, mu0)
    )


def _poisson_checks(
    u: np.ndarray, ghosts, rhs: np.ndarray, grid: Grid, mu0: float
) -> tuple[float, float]:
    """(field energy, max |5-point Laplacian of u - rhs|) of a 2D solve.

    u is framed by its ghost ring; the energy sums the squared face
    gradients, the faces to the ring included.
    """
    hx, hy = grid.spacing
    left, right, bottom, top = ghosts
    up = np.pad(u, 1)
    up[0, 1:-1], up[-1, 1:-1] = left, right
    up[1:-1, 0], up[1:-1, -1] = bottom, top
    fx = (up[1:, 1:-1] - up[:-1, 1:-1]) / hx  # face gradients incl. wall faces
    fy = (up[1:-1, 1:] - up[1:-1, :-1]) / hy
    # the 5-point Laplacian is the divergence of the face gradients
    lap = (fx[1:] - fx[:-1]) / hx + (fy[:, 1:] - fy[:, :-1]) / hy
    residual = float(np.max(np.abs(lap - rhs)))
    energy = 0.5 * mu0 * (float(np.vdot(fx, fx)) + float(np.vdot(fy, fy))) * grid.cell_volume
    return energy, residual


def demag_energy_pairing(sol: DemagSolution, m: np.ndarray, grid: Grid, mu0: float = 1.0) -> float:
    """mu0 int_Omega m . grad u, the weak-form pairing dual to the energy."""
    return -mu0 * float(np.sum(m * sol.h_dem)) * grid.cell_volume


__all__ = [
    "DemagSolution",
    "solve_demag",
    "demag_energy_pairing",
    "h_dem_from_u",
]
