"""Tensor algebra and discrete differential/transport operators.

Objective rates follow the Zaremba-Jaumann (ZJ) convention with the
material spin W = skw(grad v):

    vector:  m°  = dm/dt + (v.grad)m - W m
    tensor:  A°  = dA/dt + (v.grad)A - W A + A W

Spatial gradients are second-order central differences with one ghost
layer.  One Neumann face difference d = (f[i+1] - f[i]) / h, 0 on both
walls, builds the upwind transport, the 5-point Laplacian (its face
divergence) and the Dirichlet density (half of |d|^2 on each face of a
cell), so int f . laplacian(f) = -int dirichlet_density(f) exactly.  The
transport is built once per velocity, by upwind(v, grid): it keeps each
cell's upwind neighbour and |v| per axis, and each field it transports
is one gather of the upwind face difference.  On a dim=0 grid every
spatial derivative operator returns exactly zero, so the same code paths
drive the homogeneous material-point mode.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .grid import EYE, NCOMP, Grid

# ---------------------------------------------------------------------------
# pointwise tensor algebra


def sym(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def skw(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T - np.swapaxes(T, -1, -2))


def tensor_trace(T: np.ndarray) -> np.ndarray:
    return T[..., 0, 0] + T[..., 1, 1]


def sph(T: np.ndarray) -> np.ndarray:
    """Spherical part (tr T / d) I with d = NCOMP in-plane components."""
    return (tensor_trace(T) / NCOMP)[..., None, None] * EYE


def dev(T: np.ndarray) -> np.ndarray:
    """Deviatoric part T - sph(T)."""
    return T - sph(T)


def matvec(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", T, x)


def matmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B per cell as two broadcast terms, with the bits of einsum "...ik,...kj->...ij"."""
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :] + 0.0


def ddot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Double contraction A:B summed over the two trailing axes."""
    return np.einsum("...ij,...ij->...", A, B)


# Sums over the component axes, written term by term.  Each adds its terms
# in the order np.sum does over the same axes, and np.sum's reduction
# starts from +0.0, which the trailing + 0.0 repeats (a sum of -0.0 terms is
# +0.0), so each returns np.sum's bits.  On these length-2 axes np.sum's
# per-call set-up costs more than the additions.


def sum_vector(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1) of 2-vectors."""
    return x[..., 0] + x[..., 1] + 0.0


def sum_matrix(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=(-2, -1)) of 2x2 matrices, in row-major order."""
    return x[..., 0, 0] + x[..., 0, 1] + x[..., 1, 0] + x[..., 1, 1] + 0.0


def sum_rank3(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=(-3, -2, -1)) of 2x2x2 arrays, pairwise as np.sum adds 8 terms.

    With the terms 0..7 in row-major order: ((0+1)+(2+3)) + ((4+5)+(6+7)).
    """
    pairs = x[..., 0] + x[..., 1]
    quads = pairs[..., 0] + pairs[..., 1]
    return quads[..., 0] + quads[..., 1] + 0.0


# ---------------------------------------------------------------------------
# ghost-cell padding and stencils

def _pad1(f: np.ndarray, axis: int, mode: str | np.ndarray) -> np.ndarray:
    """Pad one ghost layer on both ends of a spatial axis.

    mode 'even': ghost = edge value (zero normal derivative at the wall);
    mode 'odd' : ghost = -edge value (zero value at the wall face);
    an array of signs: ghost = sign * edge value, per trailing component.
    """
    lo = _take(f, axis, slice(0, 1))
    hi = _take(f, axis, slice(-1, None))
    if isinstance(mode, np.ndarray):
        lo, hi = mode * lo, mode * hi
    elif mode == "odd":
        lo, hi = -lo, -hi
    return np.concatenate((lo, f, hi), axis=axis)


def _take(f: np.ndarray, axis: int, sl: slice) -> np.ndarray:
    idx = [slice(None)] * f.ndim
    idx[axis] = sl
    return f[tuple(idx)]


def _central_diff(f: np.ndarray, grid: Grid, axis: int, mode: str | np.ndarray) -> np.ndarray:
    h = grid.spacing[axis]
    p = _pad1(f, axis, mode)
    return (_take(p, axis, slice(2, None)) - _take(p, axis, slice(None, -2))) / (2.0 * h)


def _face_diff(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i+1] - f[i]) / h on the n + 1 faces of an axis (cell i has i, i + 1), 0 on the walls."""
    d = np.zeros(f.shape[:axis] + (f.shape[axis] + 1,) + f.shape[axis + 1:])
    inner = _take(d, axis, slice(1, -1))
    np.subtract(_take(f, axis, slice(1, None)), _take(f, axis, slice(None, -1)), out=inner)
    inner /= grid.spacing[axis]
    return d


# ---------------------------------------------------------------------------
# gradients / divergences / Laplacians


def grad_vector(vf: np.ndarray, grid: Grid, kind: str = "even") -> np.ndarray:
    """Gradient G[..., i, j] = d_j v_i of a vector field.

    kind 'velocity' uses free-slip wall ghosts: across the axis-a walls v_a
    is odd (v.n = 0) and the other component even (traction-free), the
    wall rule under which div_tensor is its exact negative adjoint.
    """
    out = np.zeros(vf.shape[:-1] + (NCOMP, NCOMP))
    for a in range(grid.dim):
        mode = 1.0 - 2.0 * EYE[a] if kind == "velocity" else "even"
        out[..., a] = _central_diff(vf, grid, a, mode)
    return out


def grad_tensor(A: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient G[..., i, j, a] = d_a A_ij of a tensor field.

    The trailing axis is added to a field of any rank, so a scalar field
    gets its gradient, shape f.shape + (NCOMP,).
    """
    out = np.zeros(A.shape + (NCOMP,))
    for a in range(grid.dim):
        out[..., a] = _central_diff(A, grid, a, "even")
    return out


def div_tensor(S: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise divergence (div S)_i = d_a S_ia.

    Wall rule: across the axis-a walls S_aa takes even ghosts and S_ia,
    i != a, odd ones (no shear traction at a free-slip wall).  A central
    difference with ghost sign s is minus the transpose of one with sign -s,
    so this mirror of grad_vector(kind='velocity') makes the two exact
    negative adjoints: sum v . div S = -sum S : grad v for every v and S.
    """
    out = np.zeros(S.shape[:-1])
    for a in range(grid.dim):
        out += _central_diff(S[..., a], grid, a, 2.0 * EYE[a] - 1.0)
    return out


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Componentwise 5-point Neumann Laplacian, the face divergence of _face_diff."""
    out = np.zeros_like(f)
    for a in range(grid.dim):
        d = _face_diff(f, grid, a)
        out += (_take(d, a, slice(1, None)) - _take(d, a, slice(None, -1))) / grid.spacing[a]
    return out


def dirichlet_density(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Half of |_face_diff(f)|^2 on each face of a cell, summed over axes and components."""
    out = np.zeros_like(f)
    for a in range(grid.dim):
        d2 = _face_diff(f, grid, a) ** 2
        out += 0.5 * (_take(d2, a, slice(None, -1)) + _take(d2, a, slice(1, None)))
    return out.reshape(out.shape[:grid.dim] + (-1,)).sum(axis=-1)


# ---------------------------------------------------------------------------
# transport


@functools.lru_cache(maxsize=8)
def _neighbours(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flat (backward, forward) neighbour of each cell per axis, shape (dim, cells); read-only.

    Across a wall a cell is its own neighbour, so f - f[nbr] is the wall's
    zero face difference.
    """
    shape = grid.spatial_shape
    pos = np.indices(shape).reshape(grid.dim, -1)
    stride = np.array([math.prod(shape[a + 1:]) for a in range(grid.dim)])[:, None]
    cell = np.arange(math.prod(shape))
    backward = cell - stride * (pos > 0)
    forward = cell + stride * (pos < np.array(shape)[:, None] - 1)
    backward.flags.writeable = forward.flags.writeable = False
    return backward, forward


def upwind(v: np.ndarray, grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """The first-order upwind transport f -> (v.grad)f of the velocity v, for any trailing rank.

    Built once per velocity and applied to every field it transports.  Per
    axis, v > 0 takes the backward face difference of a cell and v <= 0 the
    forward one: d[i] and d[i+1] of d = _face_diff(f).  The operator keeps,
    per axis, the flat index nbr of each cell's upwind neighbour and |v|,
    and forms |v| (f - f[nbr]) / h.  Where v > 0 that is v d[i]; where
    v <= 0 it is v d[i+1] with both factors negated, the same bits up to
    the sign of a zero.  The closing + 0.0 turns a sum of -0.0 terms into
    +0.0, so the result never depends on that sign.  On a dim=0 grid the
    transport is zero.
    """
    if grid.dim == 0:
        return np.zeros_like
    n_cells = math.prod(grid.spatial_shape)
    va = v.reshape(n_cells, NCOMP)[:, :grid.dim].T
    nbr = np.where(va > 0.0, *_neighbours(grid))
    speed = np.abs(va)[..., None]
    weights = {}  # speed repeated over the components of each field rank transported

    def transport(f: np.ndarray) -> np.ndarray:
        F = f.reshape(n_cells, -1)
        w = weights.get(F.shape[1])
        if w is None:
            w = weights[F.shape[1]] = np.repeat(speed, F.shape[1], axis=-1)
        for a, h in enumerate(grid.spacing):
            d = F.take(nbr[a], axis=0)
            np.subtract(F, d, out=d)
            d /= h
            d *= w[a]
            if a == 0:
                out = d
            else:
                out += d
        out += 0.0
        return out.reshape(f.shape)

    return transport


def upwind_advect(f: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Non-conservative first-order upwind (v.grad)f for any trailing rank: upwind(v, grid)(f)."""
    return upwind(v, grid)(f)


def advect_scalar(w: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative upwind flux divergence div(v w) with v.n = 0 walls.

    Returns the divergence-form transport term (per unit time); its integral
    over Omega vanishes identically, so total w changes only by sources.
    """
    out = np.zeros_like(w)
    for a in range(grid.dim):
        h = grid.spacing[a]
        va = v[..., a]
        wa = np.moveaxis(w, a, 0)
        ua = np.moveaxis(va, a, 0)
        vface = 0.5 * (ua[1:] + ua[:-1])
        wup = np.where(vface > 0.0, wa[:-1], wa[1:])
        flux = np.zeros((wa.shape[0] + 1,) + wa.shape[1:])
        flux[1:-1] = vface * wup
        out += np.moveaxis((flux[1:] - flux[:-1]) / h, 0, a)
    return out


# ---------------------------------------------------------------------------
# Zaremba-Jaumann rates (convective-corotational parts)


def bzj_vector(
    v: np.ndarray, grad_v: np.ndarray, m: np.ndarray, grid: Grid, advect: Callable | None = None
) -> np.ndarray:
    """(v.grad)m - W m, the transport part of the ZJ vector rate.

    advect is upwind(v, grid) where the caller has built it.
    """
    W = skw(grad_v)
    if advect is None:
        advect = upwind(v, grid)
    return advect(m) - matvec(W, m)


def bzj_tensor(
    v: np.ndarray, grad_v: np.ndarray, A: np.ndarray, grid: Grid, advect: Callable | None = None
) -> np.ndarray:
    """(v.grad)A - W A + A W, the transport part of the ZJ tensor rate.

    advect is upwind(v, grid) where the caller has built it.
    """
    W = skw(grad_v)
    if advect is None:
        advect = upwind(v, grid)
    return advect(A) - matmat(W, A) + matmat(A, W)


__all__ = [
    "sym",
    "skw",
    "dev",
    "sph",
    "tensor_trace",
    "matvec",
    "matmat",
    "ddot",
    "sum_vector",
    "sum_matrix",
    "sum_rank3",
    "grad_vector",
    "grad_tensor",
    "div_tensor",
    "laplacian",
    "dirichlet_density",
    "upwind",
    "upwind_advect",
    "advect_scalar",
    "bzj_vector",
    "bzj_tensor",
]
