"""Demagnetizing field: Delta u = div(chi_Omega m) on the infinite lattice.

u solves the 5-point Poisson problem L u = div_c(chi_Omega m) on the whole
unbounded lattice of the grid, with div_c the central divergence and u
vanishing at infinity up to a constant.  div_c(chi m) is supported on
Omega and its one-cell halo, so u is kept there, n + 2 cells per axis,
and h_dem = -grad_c u on Omega (central differences).

In 2D, u = G * div_c(chi m) with G = L^{-1} delta, the Green's function
of the 5-point Laplacian on the infinite lattice (lattice Green's
function convolution: Hockney & Eastwood 1988; Martinsson & Rodin 2002,
Proc. R. Soc. A 458:2609).  G follows from a 1D integral per offset
(``_lattice_green``) and is mirrored, so G(d) = G(-d) exactly; the
convolution is one zero-padded real FFT with G's spectrum cached per grid.
In 1D, u' = chi m_x, the midpoint antiderivative, is the same operator.

The map m -> h_dem is then symmetric, -grad_c being the adjoint of
div_c, and the field energy has one formula,

    E = -(mu0/2) int_Omega m . h_dem >= 0,

which the audit ledger books (``energetics.energy_ledger``): for any two
magnetizations, E(m1) - E(m0) + E(m1 - m0) = -mu0 int h_dem(m1) . (m1 - m0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.special

from .errors import ConfigError
from .grid import NCOMP, Grid

# the one boundary condition, u -> 0 at infinity, by the name a config
# or a caller may still pass
BOUNDARY = "farfield"


@dataclass
class DemagSolution:
    """u on Omega plus its halo and h_dem = -grad u on Omega, for m.

    ``residual``, the largest 5-point Poisson residual of u on Omega
    (``poisson_residual``), is a check the sweep never reads, so it is
    formed on read.
    """

    u: np.ndarray
    h_dem: np.ndarray
    m: np.ndarray
    grid: Grid

    @property
    def residual(self) -> float:
        return poisson_residual(self.u, self.m, self.grid)


def _shifted(dim: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...], tuple[slice, ...]]:
    """(plus, centre, minus): Omega in the halo grid, and Omega moved +-1 along axis."""
    centre = (slice(1, -1),) * dim
    plus, minus = list(centre), list(centre)
    plus[axis], minus[axis] = slice(2, None), slice(None, -2)
    return tuple(plus), centre, tuple(minus)


def _div_central(m: np.ndarray, grid: Grid) -> np.ndarray:
    """div_c(chi_Omega m) on Omega and its halo, from m framed by two zero cells."""
    mp = np.zeros(tuple(n + 4 for n in grid.spatial_shape) + (NCOMP,))
    mp[(slice(2, -2),) * grid.dim] = m
    div = np.zeros(grid.halo_cells)
    for a, h in enumerate(grid.spacing):
        plus, _, minus = _shifted(grid.dim, a)
        div += (mp[(*plus, a)] - mp[(*minus, a)]) / (2.0 * h)
    return div


def poisson_residual(u: np.ndarray, m: np.ndarray, grid: Grid) -> float:
    """max over Omega of |L u - div_c(chi m)|, L the 5-point Laplacian."""
    if grid.dim == 0:
        return 0.0
    lap = 0.0
    for a, h in enumerate(grid.spacing):
        plus, centre, minus = _shifted(grid.dim, a)
        lap = lap + (u[plus] - 2.0 * u[centre] + u[minus]) / (h * h)
    return float(np.max(np.abs(lap - _div_central(m, grid)[centre])))


def _lattice_green(spacing: tuple[float, float], shape: tuple[int, int]) -> np.ndarray:
    """G(p, q) - G(0, 0) of the 2D 5-point Laplacian, 0 <= p < P, 0 <= q < Q.

    Along y the equation is diagonalized by e^{i q theta}; along x it
    leaves g(p+1) - 2 g(p) + g(p-1) = 4 sinh^2(t/2) g(p) with
    sinh(t/2) = (h_x/h_y) sin(theta/2), whose decaying solution is
    e^{-|p| t}.  Hence

        G(p, q) - G(0, 0)
            = (h_x^2 / 2 pi) int_0^pi [1 - e^{-|p| t} cos(q theta)] / sinh t dtheta,

    evaluated by Gauss-Legendre with 4 max(P, Q) + 70 nodes, the
    numerator as -expm1(-p t) + e^{-p t} 2 sin^2(q theta / 2) so no
    digit cancels: a matrix-vector and a matrix-matrix product, O(n N)
    memory.
    """
    hx, hy = spacing
    P, Q = shape
    x, w = scipy.special.roots_legendre(4 * max(P, Q) + 70)
    theta = 0.5 * np.pi * (x + 1.0)
    t = 2.0 * np.arcsinh(hx / hy * np.sin(0.5 * theta))
    c = 0.5 * np.pi * w / np.sinh(t)
    pt = np.arange(P)[:, None] * t
    q_theta = np.arange(Q)[:, None] * (0.5 * theta)
    G = ((-np.expm1(-pt)) @ c)[:, None] + np.exp(-pt) @ (2.0 * np.sin(q_theta) ** 2 * c).T
    return hx * hx / (2.0 * np.pi) * G


@functools.lru_cache(maxsize=4)
def _green_spectrum(grid: Grid) -> tuple[np.ndarray, tuple[int, int]]:
    """(real spectrum, shape) of G on the circular FFT lattice of the 2D convolution.

    Sources and targets both span the halo grid, n + 2 cells per axis, so
    offsets run over |d| <= n + 1 and a transform of length
    next_fast_len(2 n + 3) holds each at its own index d mod length.  G is
    written once for |d| and mirrored, so G(d) = G(-d) exactly and its
    spectrum is real.
    """
    nx, ny = grid.halo_cells
    G = _lattice_green(grid.spacing, (nx, ny))
    Mx, My = (scipy.fft.next_fast_len(2 * n - 1, real=True) for n in (nx, ny))
    kern = np.zeros((Mx, My))
    kern[:nx, :ny] = G
    kern[Mx - nx + 1 :, :ny] = G[:0:-1]
    kern[:, My - ny + 1 :] = kern[:, ny - 1 : 0 : -1]
    spec = scipy.fft.rfft2(kern).real
    spec.flags.writeable = False
    return spec, (Mx, My)


def solve_demag(
    m: np.ndarray, grid: Grid, _mu0: float = 1.0, boundary: str = BOUNDARY
) -> DemagSolution:
    """u and h_dem of the magnetization m on Omega.

    The third argument, mu0, is accepted for callers that pass it; u and
    h_dem do not depend on it.  ``boundary`` may only be "farfield".
    """
    if m.shape != grid.spatial_shape + (NCOMP,):
        raise ConfigError(f"m has shape {m.shape}, expected {grid.spatial_shape + (NCOMP,)}")
    if boundary != BOUNDARY:
        raise ConfigError(f"demag boundary must be {BOUNDARY!r}, got {boundary!r}")
    if grid.dim == 0:
        # A material point has no stray-field self-interaction in this model.
        return DemagSolution(np.zeros(()), np.zeros((NCOMP,)), m, grid)
    if grid.dim == 1:
        # u' = chi m_x: the midpoint antiderivative, whose second
        # difference is div_c(chi m) exactly
        (h,) = grid.spacing
        mx = np.pad(m[..., 0], 1)
        u = np.cumsum(mx) * h - 0.5 * h * mx
    else:
        spec, shape = _green_spectrum(grid)
        fhat = scipy.fft.rfft2(_div_central(m, grid), shape)
        u = scipy.fft.irfft2(fhat * spec, shape)[tuple(slice(n) for n in grid.halo_cells)]
    return DemagSolution(u, h_dem_from_u(u, grid), m, grid)


def h_dem_from_u(u: np.ndarray, grid: Grid) -> np.ndarray:
    """-grad_c u on Omega, u given on Omega and its halo."""
    h_dem = np.zeros(grid.spatial_shape + (NCOMP,))
    if grid.dim == 0 or not np.any(u):
        return h_dem
    for a, h in enumerate(grid.spacing):
        plus, _, minus = _shifted(grid.dim, a)
        h_dem[..., a] = -((u[plus] - u[minus]) / (2.0 * h))
    return h_dem


__all__ = [
    "BOUNDARY",
    "DemagSolution",
    "solve_demag",
    "poisson_residual",
    "h_dem_from_u",
]
