"""Spatial discretization, state container, and load sampling.

Conventions used across the whole package:

* fields are cell-centered ``float64`` arrays whose spatial shape is
  ``()`` (dim 0), ``(nx,)`` (dim 1) or ``(nx, ny)`` (dim 2);
* vectors and tensors always carry two in-plane components regardless of
  ``dim`` (a 0D "material point" is a 2-component point, a 1D line embeds
  full vectors/tensors varying along one axis), so the tensor algebra is
  identical in every mode;
* trailing axes are the component axes: vectors ``(..., 2)``,
  tensors ``(..., 2, 2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ScenarioError

NCOMP = 2  # in-plane vector/tensor components, independent of grid.dim
EYE = np.eye(NCOMP)  # the component identity, shared read-only
EYE.flags.writeable = False


@dataclass(frozen=True)
class Grid:
    """Structured rectangular discretization of Omega.

    dim = 0 is the homogeneous material-point mode: all fields are single
    values and every spatial derivative operator returns zero.
    """

    dim: int
    extents: tuple[float, ...]
    cells: tuple[int, ...]

    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.cells))

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return tuple(self.cells)

    @functools.cached_property
    def cell_volume(self) -> float:
        """Cell measure; the material point carries unit volume."""
        vol = 1.0
        for h in self.spacing:
            vol *= h
        return vol

    @property
    def total_volume(self) -> float:
        vol = 1.0
        for L in self.extents:
            vol *= L
        return vol if self.dim > 0 else 1.0

    @property
    def halo_cells(self) -> tuple[int, ...]:
        """n + 2 cells per axis for the demag potential u: Omega and a one-cell halo."""
        return tuple(n + 2 for n in self.cells)

    @property
    def boundary_area(self) -> float:
        """Total measure of the boundary of Omega (unit area for dim 0)."""
        if self.dim == 0:
            return 1.0
        if self.dim == 1:
            return 2.0
        Lx, Ly = self.extents
        return 2.0 * (Lx + Ly)

    def scalar_field(self, fill: float = 0.0) -> np.ndarray:
        return np.full(self.spatial_shape, fill, dtype=np.float64)

    def vector_field(self) -> np.ndarray:
        return np.zeros(self.spatial_shape + (NCOMP,), dtype=np.float64)

    def tensor_field(self) -> np.ndarray:
        return np.zeros(self.spatial_shape + (NCOMP, NCOMP), dtype=np.float64)

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates per axis, origin at the domain corner."""
        return tuple(
            (np.arange(n) + 0.5) * h for n, h in zip(self.cells, self.spacing)
        )

    def integrate(self, density: np.ndarray) -> float:
        """Midpoint quadrature of a density field over Omega."""
        return float(np.add.reduce(density, axis=None)) * self.cell_volume


def make_grid(
    dim: int,
    extents: Sequence[float] = (),
    cells: Sequence[int] = (),
) -> Grid:
    """Validate and build a :class:`Grid`."""
    if dim not in (0, 1, 2):
        raise ConfigError(f"dim must be 0, 1, or 2, got {dim}")
    extents, cells = tuple(extents), tuple(cells)
    if len(extents) != dim or len(cells) != dim:
        raise ConfigError(
            f"need {dim} extents and cell counts, got {extents} / {cells}"
        )
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
               for n in cells):
        raise ConfigError(f"cell counts must be integers >= 1, got {cells}")
    extents, cells = tuple(float(L) for L in extents), tuple(int(n) for n in cells)
    if not all(0.0 < L < np.inf for L in extents):
        raise ConfigError(f"extents must be finite and positive, got {extents}")
    return Grid(dim=dim, extents=extents, cells=cells)


@dataclass
class FieldState:
    """All unknowns at one time level.

    v: velocity (m/s); Ee: elastic strain; Ep: inelastic strain (trace-free);
    m: magnetization (A/m); u: demag potential on Omega and its halo (A);
    w: enthalpy density (J/m^3); t: time (s).
    """

    v: np.ndarray
    Ee: np.ndarray
    Ep: np.ndarray
    m: np.ndarray
    u: np.ndarray
    w: np.ndarray
    t: float = 0.0

    @staticmethod
    def zeros(grid: Grid, w0: float = 0.0) -> "FieldState":
        return FieldState(
            v=grid.vector_field(),
            Ee=grid.tensor_field(),
            Ep=grid.tensor_field(),
            m=grid.vector_field(),
            u=np.zeros(grid.halo_cells),
            w=grid.scalar_field(w0),
            t=0.0,
        )

    def copy(self) -> "FieldState":
        return FieldState(
            v=self.v.copy(),
            Ee=self.Ee.copy(),
            Ep=self.Ep.copy(),
            m=self.m.copy(),
            u=self.u.copy(),
            w=self.w.copy(),
            t=self.t,
        )

    def validate(self, grid: Grid) -> None:
        """Check shapes and the state invariants (symmetry, trace, w >= 0)."""
        shp = grid.spatial_shape
        expect = {
            "v": shp + (NCOMP,),
            "Ee": shp + (NCOMP, NCOMP),
            "Ep": shp + (NCOMP, NCOMP),
            "m": shp + (NCOMP,),
            "u": grid.halo_cells,
            "w": shp,
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
        # written so that NaN fails each check
        asym = np.max(np.abs(self.Ee - np.swapaxes(self.Ee, -1, -2)))
        if not asym <= 1e-12:
            raise ConfigError(f"Ee asymmetry {asym:.3e} exceeds 1e-12")
        trp = np.max(np.abs(np.trace(self.Ep, axis1=-2, axis2=-1)))
        if not trp <= 1e-10:
            raise ConfigError(f"trace(Ep) {trp:.3e} exceeds 1e-10")
        if not np.min(self.w) >= 0.0:
            raise ConfigError(f"w has negative values (min {np.min(self.w):.3e})")


VectorSampler = Callable[[float], np.ndarray]
ScalarSampler = Callable[[float], float]
TensorSampler = Callable[[float], np.ndarray]


@dataclass
class Loads:
    """Time-dependent external data sampled once per step.

    g: gravity acceleration (constant vector); h_ext: external field
    sampler; j_ext: boundary heat influx sampler, constrained >= 0.
    Optional drives: grad_v prescribes the velocity gradient (the momentum
    block is skipped), stress_dev prescribes a deviatoric stress
    (quasi-static strain-rate control), theta prescribes the temperature
    (the heat equation is replaced by an audited control flux).
    """

    g: np.ndarray = field(default_factory=lambda: np.zeros(NCOMP))
    h_ext: Optional[VectorSampler] = None
    j_ext: Optional[ScalarSampler] = None
    grad_v: Optional[TensorSampler] = None
    stress_dev: Optional[TensorSampler] = None
    theta: Optional[ScalarSampler] = None


@dataclass
class LoadsSample:
    """Per-step load values: h at t_k and t_{k-1}, and the rest at t_k."""

    g: np.ndarray
    h_ext_k: np.ndarray
    h_ext_prev: np.ndarray
    j_ext_k: float
    grad_v_k: Optional[np.ndarray] = None
    stress_dev_k: Optional[np.ndarray] = None
    theta_k: Optional[float] = None

    def validate(self, t: float, dt: float) -> None:
        """Refuse the sample of the step of length dt ending at t where a step cannot take it.

        t and dt must be finite and dt > 0; each load must have its shape
        and finite values, j_ext >= 0 and theta >= 0.  A failure raises
        ScenarioError; a value that is not a number raises TypeError.
        """
        if not (math.isfinite(t) and math.isfinite(dt) and dt > 0.0):
            raise ScenarioError(f"invalid sampling time t={t}, dt={dt}")
        vector, tensor = (NCOMP,), (NCOMP, NCOMP)
        for name, shape in (("g", vector), ("h_ext_k", vector), ("h_ext_prev", vector),
                            ("j_ext_k", ()), ("grad_v_k", tensor), ("stress_dev_k", tensor),
                            ("theta_k", ())):
            value = getattr(self, name)
            if value is None and name in ("grad_v_k", "stress_dev_k", "theta_k"):
                continue
            arr = np.asarray(value)
            if arr.shape != shape or not np.isfinite(arr).all():
                raise ScenarioError(
                    f"load {name} at t={t} must be finite with shape {shape}, got {value!r}"
                )
        if self.j_ext_k < 0.0:
            raise ScenarioError(
                f"j_ext(t={t}) = {self.j_ext_k} violates the positivity assumption j_ext >= 0"
            )
        if self.theta_k is not None and self.theta_k < 0.0:
            raise ScenarioError(f"theta control negative at t={t}: {self.theta_k}")


def sample_loads(loads: Loads, t: float, dt: float) -> LoadsSample:
    """Evaluate all load samplers for the step ending at time t, and validate the sample."""

    def tensor(sampler):
        return None if sampler is None else np.asarray(sampler(t), dtype=np.float64)

    h_ext = loads.h_ext if loads.h_ext is not None else (lambda _: np.zeros(NCOMP))
    sample = LoadsSample(
        g=np.asarray(loads.g, dtype=np.float64),
        h_ext_k=np.asarray(h_ext(t), dtype=np.float64),
        h_ext_prev=np.asarray(h_ext(t - dt), dtype=np.float64),
        j_ext_k=float(loads.j_ext(t)) if loads.j_ext is not None else 0.0,
        grad_v_k=tensor(loads.grad_v),
        stress_dev_k=tensor(loads.stress_dev),
        theta_k=float(loads.theta(t)) if loads.theta is not None else None,
    )
    sample.validate(t, dt)
    return sample


__all__ = [
    "NCOMP",
    "EYE",
    "Grid",
    "make_grid",
    "FieldState",
    "Loads",
    "LoadsSample",
    "sample_loads",
]
