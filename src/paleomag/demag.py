"""Demagnetizing field: Delta u = div(chi_Omega m) on a padded grid.

The whole-space Poisson problem is approximated on a grid extended by
``pad_factor`` in every direction.  In 2D the discrete 5-point problem is
solved exactly (to roundoff) by a type-I discrete sine transform with
Dirichlet ghost values taken either as zero or from the continuum
dipole far field of the magnetization (default), which sharply reduces
the domain-truncation error of the pad.  h_dem = -grad u on Omega.

The far-field ghosts and the cells of Omega lie on one lattice, so the
dipole sum over the cells is a discrete convolution with the kernel
1 / (dx + i dy) of the lattice offsets; it is evaluated exactly, to
roundoff, by one zero-padded complex FFT (lattice Green's function
convolution, Hockney & Eastwood 1988).  Kernel offsets that no ghost
can see, the near field around dz = 0, are zeroed, which changes no
ghost value and keeps the FFT roundoff at the scale of the ghost values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigError
from .grid import NCOMP, Grid


@dataclass
class DemagSolution:
    """u on the padded grid, h_dem = -grad u on Omega, field energy (>= 0)."""

    u: np.ndarray
    h_dem: np.ndarray
    energy: float
    residual: float


def _omega_slices(grid: Grid) -> tuple[slice, ...]:
    return tuple(
        slice((P - n) // 2, (P - n) // 2 + n)
        for P, n in zip(grid.padded_cells, grid.cells)
    )


def _embed(m: np.ndarray, grid: Grid) -> np.ndarray:
    full = np.zeros(grid.padded_cells + (NCOMP,))
    full[_omega_slices(grid)] = m
    return full


def _farfield_ring(m: np.ndarray, grid: Grid):
    """Continuum dipole-potential values at the four ghost-cell rings (2D).

    u(x) = sum_j m_j . (x - x_j) / (2 pi |x - x_j|^2) * cell_volume,
    the far field of Delta u = div(chi m) in the plane.  With z = x + i y
    and mu = m_x + i m_y, m . d / |d|^2 = Re(mu / d), so

        u(z) = cell_volume / (2 pi) * Re sum_j mu_j / (z - z_j).

    Ghosts (lattice index -1 and P per axis) and sources (the cells of
    Omega) sit on one lattice, so the sum is a discrete convolution of mu
    with the kernel 1 / dz over lattice offsets, evaluated exactly (to
    roundoff) by one zero-padded FFT (Hockney & Eastwood 1988).  Offsets
    with |di| <= sx.start and |dj| <= sy.start (dz = 0 among them) are
    zeroed: every ghost lies beyond that box, so the ring values do not
    change, and the FFT roundoff stays at the scale of the ring values.
    """
    hx, hy = grid.spacing
    nx, ny = grid.cells
    Px, Py = grid.padded_cells
    sx, sy = _omega_slices(grid)
    # offsets (target index -1..P) - (source index in Omega), ascending
    di = np.arange(-sx.start - nx, Px - sx.start + 1)
    dj = np.arange(-sy.start - ny, Py - sy.start + 1)
    near = (np.abs(di)[:, None] <= sx.start) & (np.abs(dj)[None, :] <= sy.start)
    dz = np.where(near, 1.0, di[:, None] * hx + 1j * (dj[None, :] * hy))
    kern = np.where(near, 0.0, 1.0 / dz)
    mu = m[..., 0] + 1j * m[..., 1]
    # at least the kernel's size: the circular wrap-around lands only on
    # targets below index -1, never on the ring
    shape = [scipy.fft.next_fast_len(s) for s in kern.shape]
    conv = scipy.fft.ifft2(scipy.fft.fft2(kern, shape) * scipy.fft.fft2(mu, shape))
    # conv[a, b] holds target index (a - nx, b - ny)
    u = conv.real[nx - 1 : nx + Px + 1, ny - 1 : ny + Py + 1]
    u *= grid.cell_volume / (2.0 * np.pi)
    return u[0, 1:-1], u[-1, 1:-1], u[1:-1, 0], u[1:-1, -1]


def _solve_dirichlet_2d(rhs: np.ndarray, ghosts, grid: Grid) -> np.ndarray:
    """Exact 5-point Dirichlet solve on the padded grid via DST-I."""
    hx, hy = grid.spacing
    left, right, bottom, top = ghosts
    b = rhs.copy()
    b[0, :] -= left / (hx * hx)
    b[-1, :] -= right / (hx * hx)
    b[:, 0] -= bottom / (hy * hy)
    b[:, -1] -= top / (hy * hy)
    Px, Py = rhs.shape
    kx = np.arange(1, Px + 1)
    ky = np.arange(1, Py + 1)
    lam_x = (2.0 * np.cos(np.pi * kx / (Px + 1)) - 2.0) / (hx * hx)
    lam_y = (2.0 * np.cos(np.pi * ky / (Py + 1)) - 2.0) / (hy * hy)
    bhat = scipy.fft.dstn(b, type=1)
    uhat = bhat / (lam_x[:, None] + lam_y[None, :])
    return scipy.fft.idstn(uhat, type=1)


def _div_central(mfull: np.ndarray, grid: Grid) -> np.ndarray:
    """Central divergence on the padded grid; m is compactly supported."""
    out = np.zeros(mfull.shape[:-1])
    for a in range(grid.dim):
        h = grid.spacing[a]
        comp = np.moveaxis(mfull[..., a], a, 0)
        d = np.zeros_like(comp)
        d[1:-1] = (comp[2:] - comp[:-2]) / (2.0 * h)
        d[0] = comp[1] / (2.0 * h)
        d[-1] = -comp[-2] / (2.0 * h)
        out += np.moveaxis(d, 0, a)
    return out


def solve_demag(
    m: np.ndarray, grid: Grid, mu0: float = 1.0, boundary: str = "farfield"
) -> DemagSolution:
    """Solve the demag Poisson problem for the magnetization m on Omega."""
    if m.shape != grid.spatial_shape + (NCOMP,):
        raise ConfigError(f"m has shape {m.shape}, expected {grid.spatial_shape + (NCOMP,)}")
    if grid.dim == 0:
        # A material point has no stray-field self-interaction in this model.
        return DemagSolution(
            u=np.zeros(()), h_dem=np.zeros((NCOMP,)), energy=0.0, residual=0.0
        )
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
    h_dem = h_dem_from_u(u, grid)
    energy = 0.5 * mu0 * float(np.sum(mx_full**2)) * h
    return DemagSolution(u=u, h_dem=h_dem, energy=energy, residual=0.0)


def h_dem_from_u(u: np.ndarray, grid: Grid) -> np.ndarray:
    """-grad u restricted to Omega (central differences on the padded grid)."""
    h_dem = np.zeros(grid.spatial_shape + (NCOMP,))
    if grid.dim == 0 or not np.any(u):
        return h_dem
    slices = _omega_slices(grid)
    for a in range(grid.dim):
        h = grid.spacing[a]
        ua = np.moveaxis(u, a, 0)
        g = np.zeros_like(ua)
        g[1:-1] = (ua[2:] - ua[:-2]) / (2.0 * h)
        h_dem[..., a] = -np.moveaxis(g, 0, a)[slices]
    return h_dem


def _solve_2d(m: np.ndarray, grid: Grid, mu0: float, boundary: str) -> DemagSolution:
    hx, hy = grid.spacing
    mfull = _embed(m, grid)
    rhs = _div_central(mfull, grid)
    if boundary == "farfield":
        ghosts = _farfield_ring(m, grid)
    elif boundary == "zero":
        Px, Py = grid.padded_cells
        ghosts = (np.zeros(Py), np.zeros(Py), np.zeros(Px), np.zeros(Px))
    else:
        raise ConfigError(f"unknown demag boundary mode {boundary!r}")
    u = _solve_dirichlet_2d(rhs, ghosts, grid)

    left, right, bottom, top = ghosts
    up = np.pad(u, 1)
    up[0, 1:-1], up[-1, 1:-1] = left, right
    up[1:-1, 0], up[1:-1, -1] = bottom, top
    lap = (
        (up[2:, 1:-1] - 2.0 * u + up[:-2, 1:-1]) / (hx * hx)
        + (up[1:-1, 2:] - 2.0 * u + up[1:-1, :-2]) / (hy * hy)
    )
    residual = float(np.max(np.abs(lap - rhs)))

    gx = np.zeros_like(u)
    gx[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * hx)
    gy = np.zeros_like(u)
    gy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * hy)
    sx, sy = _omega_slices(grid)
    h_dem = np.zeros_like(m)
    h_dem[..., 0] = -gx[sx, sy]
    h_dem[..., 1] = -gy[sx, sy]

    fx = (up[1:, 1:-1] - up[:-1, 1:-1]) / hx  # face gradients incl. wall faces
    fy = (up[1:-1, 1:] - up[1:-1, :-1]) / hy
    energy = 0.5 * mu0 * (float(np.sum(fx**2)) + float(np.sum(fy**2))) * grid.cell_volume
    return DemagSolution(u=u, h_dem=h_dem, energy=energy, residual=residual)


def demag_energy_pairing(sol: DemagSolution, m: np.ndarray, grid: Grid, mu0: float = 1.0) -> float:
    """mu0 int_Omega m . grad u, the weak-form pairing dual to the energy."""
    return -mu0 * float(np.sum(m * sol.h_dem)) * grid.cell_volume


__all__ = [
    "DemagSolution",
    "solve_demag",
    "demag_energy_pairing",
    "h_dem_from_u",
]
