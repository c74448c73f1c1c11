"""Reference experiments and the scenario run driver.

A scenario is a JSON-able :class:`ScenarioConfig` (grid, material, load
schedules, dt policy, initial data).  ``run_scenario`` integrates it with
step rejection / dt halving, audits every accepted step, and optionally
writes a run directory (config copy, time-series CSV, audit CSV, snapshot
pairs for offline re-auditing).

Shipped scenarios are nondimensional 0D material-point experiments:

* ``trm``  -- controlled cooling through the Curie and blocking
  temperatures under a small bias field (thermoremanence acquisition);
* ``irm``  -- isothermal cycling of a strong external field (hysteresis);
* ``vrm``  -- weak field just above the sticking threshold (viscous creep);
* ``melt`` -- controlled heating across the melting window under fixed
  strain (viscosity collapse and remanence erasure).

Temperature-controlled runs prescribe theta(t); the audited control flux
(the heat-equation residual) enters the energy and entropy books, so the
balances remain exact.  A j_ext-feedback thermostat cannot realize
cooling under the model's j_ext >= 0 assumption.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import constitutive as con
from . import kinematics as kin
from .demag import solve_demag
from .energetics import BalanceReport, audit_step
from .errors import CflViolation, ConfigError, ScenarioError
from .grid import NCOMP, FieldState, Grid, Loads, make_grid, sample_loads
from .snapshots import pair_record, write_snapshot
from .stepper import (
    _CFL_MAX, _MAX_SWEEPS, _TOL_ABS, _TOL_REL, StepOptions, _potential_residual,
    _within_tolerance, step,
)

# ---------------------------------------------------------------------------
# schedules


def _clamp_interp(t, times, values):
    return float(np.interp(t, times, values))


def make_scalar_schedule(spec: Optional[dict]) -> Optional[Callable[[float], float]]:
    """Build a scalar sampler from a schedule dict (const/linear/sine/piecewise)."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "const":
        value = float(spec["value"])
        return lambda t: value
    if kind == "linear":
        t0, t1 = float(spec.get("t0", 0.0)), float(spec["t1"])
        a, b = float(spec["start"]), float(spec["end"])
        if not t1 > t0:
            raise ConfigError(f"linear schedule needs t1 > t0, got {t0}..{t1}")
        return lambda t: a + (b - a) * min(max((t - t0) / (t1 - t0), 0.0), 1.0)
    if kind == "sine":
        amp = float(spec["amplitude"])
        period = float(spec["period"])
        off = float(spec.get("offset", 0.0))
        phase = float(spec.get("phase", 0.0))
        if period <= 0.0:
            raise ConfigError("sine schedule needs period > 0")
        return lambda t: off + amp * math.sin(2.0 * math.pi * t / period + phase)
    if kind == "piecewise":
        times = [float(x) for x in spec["times"]]
        values = [float(x) for x in spec["values"]]
        if len(times) != len(values) or sorted(times) != times:
            raise ConfigError("piecewise schedule needs sorted times matching values")
        return lambda t: _clamp_interp(t, times, values)
    raise ConfigError(f"unknown scalar schedule kind {kind!r}")


def make_vector_schedule(spec: Optional[dict]) -> Optional[Callable[[float], np.ndarray]]:
    """Vector sampler: const, sine along an axis, or per-component scalar."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "const":
        value = np.asarray(spec["value"], dtype=np.float64)
        if value.shape != (NCOMP,):
            raise ConfigError(f"vector schedule value must have {NCOMP} components")
        return lambda t: value
    if kind == "sine":
        axis = np.asarray(spec.get("axis", [1.0, 0.0]), dtype=np.float64)
        base = make_scalar_schedule({k: v for k, v in spec.items() if k != "axis"})
        return lambda t: base(t) * axis
    if kind == "components":
        fx = make_scalar_schedule(spec["x"])
        fy = make_scalar_schedule(spec["y"])
        return lambda t: np.array([fx(t), fy(t)])
    raise ConfigError(f"unknown vector schedule kind {kind!r}")


def make_tensor_schedule(spec: Optional[dict]) -> Optional[Callable[[float], np.ndarray]]:
    """Tensor sampler: zero, const, or a rigid-rotation window."""
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "zero":
        Z = np.zeros((NCOMP, NCOMP))
        return lambda t: Z
    if kind == "const":
        value = np.asarray(spec["value"], dtype=np.float64)
        if value.shape != (NCOMP, NCOMP):
            raise ConfigError(f"tensor schedule value must be {NCOMP}x{NCOMP}")
        return lambda t: value
    if kind == "rotation":
        rate = float(spec["rate"])
        t0 = float(spec.get("t0", 0.0))
        t1 = float(spec.get("t1", math.inf))
        W = rate * np.array([[0.0, -1.0], [1.0, 0.0]])
        Z = np.zeros((NCOMP, NCOMP))
        return lambda t: W if t0 <= t <= t1 else Z
    raise ConfigError(f"unknown tensor schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration


# Solver settings that are now constants of the stepper (relaxation: the
# sweep takes each new iterate as it stands).  Archived config.json files
# name them, so each still loads at its fixed value.
_RETIRED_KEYS = {
    "max_iters": _MAX_SWEEPS, "tol_rel": _TOL_REL, "tol_abs": _TOL_ABS,
    "relaxation": 1.0, "cfl_max": _CFL_MAX,
}


@dataclass
class ScenarioConfig:
    """Complete, JSON-able description of one run."""

    name: str = "custom"
    experiment: Optional[str] = None     # trm / irm / vrm / melt report hook
    dim: int = 0
    extents: tuple = ()
    cells: tuple = ()
    pad_factor: int = 4
    material: con.MaterialParams = field(default_factory=con.MaterialParams)
    duration: float = 1.0
    dt: float = 0.01
    dt_min: float = 1e-9
    dt_growth: float = 1.2
    output_every: int = 50
    eps: float = 0.0
    demag: bool = False
    demag_boundary: str = "farfield"
    theta_schedule: Optional[dict] = None
    j_ext_schedule: Optional[dict] = None
    h_ext_schedule: Optional[dict] = None
    grad_v_schedule: Optional[dict] = None
    stress_dev_schedule: Optional[dict] = None
    g: tuple = (0.0, 0.0)
    theta0: float = 1.0
    m0: tuple = (0.0, 0.0)
    v0: tuple = (0.0, 0.0)
    Ee0: tuple = ((0.0, 0.0), (0.0, 0.0))
    Ep0: tuple = ((0.0, 0.0), (0.0, 0.0))

    def validate(self) -> None:
        self.material.validate()
        if not self.duration >= 0.0:
            raise ConfigError(f"duration must be >= 0, got {self.duration}")
        if not 0.0 < self.dt_min <= self.dt:
            raise ConfigError(f"need 0 < dt_min <= dt, got {self.dt_min} / {self.dt}")
        if self.dt_growth < 1.0:
            raise ConfigError(f"dt_growth must be >= 1, got {self.dt_growth}")
        if self.theta0 < 0.0:
            raise ConfigError(f"theta0 must be >= 0, got {self.theta0}")
        if self.grad_v_schedule is not None and self.stress_dev_schedule is not None:
            raise ConfigError("grad_v and stress_dev drives are mutually exclusive")
        self.step_options(self.dt).validate()
        make_grid(self.dim, self.extents, self.cells, self.pad_factor)
        # build every schedule once so bad specs fail at config time
        theta_s = make_scalar_schedule(self.theta_schedule)
        j_s = make_scalar_schedule(self.j_ext_schedule)
        make_vector_schedule(self.h_ext_schedule)
        make_tensor_schedule(self.grad_v_schedule)
        make_tensor_schedule(self.stress_dev_schedule)
        # spot-check sign constraints on the sampled schedules
        probes = np.linspace(0.0, self.duration, 17)
        if j_s is not None and any(j_s(t) < 0.0 for t in probes):
            raise ConfigError("j_ext schedule must be nonnegative")
        if theta_s is not None and any(theta_s(t) < 0.0 for t in probes):
            raise ConfigError("theta schedule must be nonnegative")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["material"] = self.material.to_dict()
        for key in ("extents", "cells", "g", "m0", "v0"):
            d[key] = list(d[key])
        d["Ee0"] = [list(row) for row in self.Ee0]
        d["Ep0"] = [list(row) for row in self.Ep0]
        return d

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        data = dict(data)
        for key, fixed in _RETIRED_KEYS.items():
            if key in data and data.pop(key) != fixed:
                raise ConfigError(
                    f"{key} is fixed at {fixed!r}; a config may name it at no other value"
                )
        known = {f.name for f in dataclasses.fields(ScenarioConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario config keys: {sorted(unknown)}")
        if "material" in data:
            data["material"] = con.MaterialParams.from_dict(data["material"])
        for key in ("extents", "cells", "g", "m0", "v0", "Ee0", "Ep0"):
            if key in data:
                data[key] = tuple(
                    tuple(row) if isinstance(row, (list, tuple)) else row
                    for row in data[key]
                )
        cfg = ScenarioConfig(**data)
        cfg.validate()
        return cfg

    def build_grid(self) -> Grid:
        return make_grid(self.dim, self.extents, self.cells, self.pad_factor)

    def build_loads(self) -> Loads:
        return Loads(
            g=np.asarray(self.g, dtype=np.float64),
            h_ext=make_vector_schedule(self.h_ext_schedule),
            j_ext=make_scalar_schedule(self.j_ext_schedule),
            grad_v=make_tensor_schedule(self.grad_v_schedule),
            stress_dev=make_tensor_schedule(self.stress_dev_schedule),
            theta=make_scalar_schedule(self.theta_schedule),
        )

    def step_options(self, dt: float) -> StepOptions:
        return StepOptions(
            dt=dt,
            eps=self.eps,
            demag=self.demag,
            demag_boundary=self.demag_boundary,
        )

    def initial_state(self, grid: Grid, thermal: con.ThermalLaw) -> FieldState:
        state = FieldState.zeros(grid)
        theta0 = self.theta0
        if self.theta_schedule is not None:
            theta0 = float(make_scalar_schedule(self.theta_schedule)(0.0))
        state.w[...] = thermal.w_of_theta(theta0)
        state.m[...] = np.asarray(self.m0, dtype=np.float64)
        state.v[...] = np.asarray(self.v0, dtype=np.float64)
        state.Ee[...] = np.asarray(self.Ee0, dtype=np.float64)
        state.Ep[...] = np.asarray(self.Ep0, dtype=np.float64)
        if self.demag and grid.dim >= 1:
            # u solved at t = 0, so step 1 does not book the demag energy as a jump
            state.u[...] = solve_demag(state.m, grid, self.material.mu0, self.demag_boundary).u
        state.validate(grid)
        return state


# ---------------------------------------------------------------------------
# trajectory container and run driver


@dataclass
class Trajectory:
    """In-memory result of one run."""

    config: ScenarioConfig
    times: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)       # BalanceReport per step
    final_state: Optional[FieldState] = None
    n_steps: int = 0
    n_rejections: int = 0

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.series[name])


SERIES_COLUMNS = (
    "t", "dt", "m_x", "m_y", "m_norm", "theta", "h_ext_x", "h_ext_y",
    "Ee_xx", "Ee_yy", "Ee_xy", "Ep_xx", "Ep_xy", "Sdev_xx", "Sdev_xy",
    "v_x", "v_y", "w_total", "theta_min", "trace_ep_max", "iterations",
)

AUDIT_COLUMNS = (
    "t", "dt", "kinetic", "stored", "demag", "zeeman", "heat", "entropy",
    "r_mech", "r_tot", "r_tot_printed", "entropy_margin", "r_tot_rel",
    "entropy_margin_rel", "scale", "xi_total", "p_drive", "p_grav",
    "p_ext_mag", "boundary_heat", "q_ctrl", "theta_min", "trace_ep_max",
)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _series_row(state, report, loads_s, grid, params, dt):
    vol = grid.total_volume

    def mean(f):
        return grid.integrate(f) / vol

    Sdev = kin.dev(con.stress_elastic(state.Ee, params))
    theta = np.asarray(con.thermal_law_for(params).theta_of_w(state.w))
    return {
        "t": state.t,
        "dt": dt,
        "m_x": mean(state.m[..., 0]),
        "m_y": mean(state.m[..., 1]),
        "m_norm": mean(np.hypot(state.m[..., 0], state.m[..., 1])),
        "theta": mean(theta),
        "h_ext_x": float(loads_s.h_ext_k[0]),
        "h_ext_y": float(loads_s.h_ext_k[1]),
        "Ee_xx": mean(state.Ee[..., 0, 0]),
        "Ee_yy": mean(state.Ee[..., 1, 1]),
        "Ee_xy": mean(state.Ee[..., 0, 1]),
        "Ep_xx": mean(state.Ep[..., 0, 0]),
        "Ep_xy": mean(state.Ep[..., 0, 1]),
        "Sdev_xx": mean(Sdev[..., 0, 0]),
        "Sdev_xy": mean(Sdev[..., 0, 1]),
        "v_x": mean(state.v[..., 0]),
        "v_y": mean(state.v[..., 1]),
        "w_total": grid.integrate(state.w),
        "theta_min": float(theta.min()),
        "trace_ep_max": float(abs(kin.tensor_trace(state.Ep)).max()),
        "iterations": report.iterations,
    }


def _audit_row(rep: BalanceReport, row: dict) -> dict:
    """The audit.csv row of a step; theta_min and trace_ep_max from its series row."""
    return {
        "t": rep.t,
        "dt": rep.dt,
        "kinetic": rep.ledger_new.kinetic,
        "stored": rep.ledger_new.stored,
        "demag": rep.ledger_new.demag,
        "zeeman": rep.ledger_new.zeeman,
        "heat": rep.ledger_new.heat,
        "entropy": rep.ledger_new.entropy,
        "r_mech": rep.r_mech,
        "r_tot": rep.r_tot,
        "r_tot_printed": rep.r_tot_printed,
        "entropy_margin": rep.entropy_margin,
        "r_tot_rel": rep.r_tot_rel,
        "entropy_margin_rel": rep.entropy_margin_rel,
        "scale": rep.scale,
        "xi_total": rep.xi_total,
        "p_drive": rep.p_drive,
        "p_grav": rep.p_grav,
        "p_ext_mag": rep.p_ext_mag,
        "boundary_heat": rep.boundary_heat,
        "q_ctrl": rep.q_ctrl_total,
        "theta_min": row["theta_min"],
        "trace_ep_max": row["trace_ep_max"],
    }


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    initial_state: Optional[FieldState] = None,
) -> Trajectory:
    """Integrate a scenario over [0, duration]; audit every accepted step.

    Rejected steps halve dt (down to dt_min, then ScenarioError); accepted
    steps let dt recover by dt_growth up to the configured dt.  A supplied
    ``initial_state`` whose u fails the stepper's potential residual gate
    against its m raises ConfigError.
    """
    config.validate()
    grid = config.build_grid()
    params = config.material
    loads = config.build_loads()
    if initial_state is None:
        state = config.initial_state(grid, con.thermal_law_for(params))
    else:
        state = initial_state.copy()
        opts = config.step_options(config.dt)
        res, scale = _potential_residual(state.u, state.m, grid, params, opts)
        if not _within_tolerance(res, scale):
            raise ConfigError(
                f"{config.name}: initial u does not match its m "
                f"(potential residual {res:.3e}, scale {scale:.3e})"
            )
    t0 = state.t

    traj = Trajectory(config=config, series={k: [] for k in SERIES_COLUMNS})
    out = Path(out_dir) if out_dir is not None else None
    pair_meta = []
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "snapshots").mkdir(exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        write_snapshot(out / "snapshots" / "initial.bin", state, grid)

    audit_rows = []
    # (h_ext_k, ledger_new) of the last accepted step: the ledger of `state`
    carried = None
    dt = min(config.dt, config.duration) if config.duration > 0.0 else config.dt
    step_index = 0
    t_end = t0 + config.duration
    while state.t < t_end - 1e-12 * max(1.0, abs(t_end)):
        dt = min(dt, t_end - state.t)
        loads_s = sample_loads(loads, state.t + dt, dt)
        opts = config.step_options(dt)
        try:
            new_state, report = step(state, loads_s, grid, params, opts)
        except CflViolation:
            report = None
            new_state = state
        if report is None or not report.accepted:
            traj.n_rejections += 1
            dt *= 0.5
            if dt < config.dt_min:
                msg = report.message if report is not None else "CFL violation"
                raise ScenarioError(
                    f"{config.name}: step at t={state.t:.6g} rejected below "
                    f"dt_min={config.dt_min:g} ({msg})"
                )
            continue

        step_index += 1
        ledger_prev = None
        if carried is not None and np.array_equal(carried[0], loads_s.h_ext_prev):
            ledger_prev = carried[1]
        rep = audit_step(state, new_state, loads_s, dt, grid, params, config.eps, ledger_prev)
        carried = (loads_s.h_ext_k, rep.ledger_new)
        traj.reports.append(rep)
        row = _series_row(new_state, report, loads_s, grid, params, dt)
        audit_rows.append(_audit_row(rep, row))
        for key in SERIES_COLUMNS:
            traj.series[key].append(row[key])
        traj.times.append(new_state.t)

        if out is not None and config.output_every > 0 and step_index % config.output_every == 0:
            tag = f"{step_index:08d}"
            write_snapshot(out / "snapshots" / f"pair_{tag}_a.bin", state, grid)
            write_snapshot(out / "snapshots" / f"pair_{tag}_b.bin", new_state, grid)
            pair_meta.append(pair_record(step_index, new_state.t, dt, loads_s))

        state = new_state
        dt = min(dt * config.dt_growth, config.dt)

    traj.final_state = state
    traj.n_steps = step_index
    if out is not None:
        write_snapshot(out / "snapshots" / "final.bin", state, grid)
        (out / "pairs.json").write_text(json.dumps(pair_meta, indent=1) + "\n")
        _write_csv(out / "series.csv", SERIES_COLUMNS, traj.series, step_index)
        audit_series = {k: [row[k] for row in audit_rows] for k in AUDIT_COLUMNS}
        _write_csv(out / "audit.csv", AUDIT_COLUMNS, audit_series, step_index)
    return traj


def _write_csv(path, columns, series, nrows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i in range(nrows):
            writer.writerow(_fmt(series[c][i]) for c in columns)


# ---------------------------------------------------------------------------
# shipped configurations

_BASE_MATERIAL = dict(
    rho=1.0, K_E=1.0, G_E=1.0, a0=1.0, b0=1.0, theta_c=1.0, c_v=100.0,
    tau_c=0.05, eps_reg=1e-6, r_exp=3.0, p=4.0, nu1=1.0, nu2=1e-6,
    M_solid=1e4, M_magma=1e-2, theta_melt=1.5, melt_width=0.2, K_cond=1.0,
    mu0=1.0, kappa=0.0, varkappa=0.0,
)

SHIPPED_SCENARIOS = ("trm", "irm", "vrm", "melt")


def builtin_config(name: str) -> ScenarioConfig:
    """The four shipped nondimensional 0D scenarios."""
    if name == "trm":
        material = con.MaterialParams(
            **_BASE_MATERIAL, theta_b=0.31, h_c_high=0.5, h_c_low=0.0, hc_width=0.005
        )
        # start at the paramagnetic equilibrium so the run opens without a
        # fast relaxation transient (tightens the per-step audit residuals)
        m0 = con.equilibrium_m(1.3, 0.01, material)
        return ScenarioConfig(
            name="trm", experiment="trm", dim=0, material=material,
            duration=100.0, dt=0.01, m0=(m0, 0.0),
            theta_schedule={"kind": "linear", "start": 1.3, "end": 0.3, "t0": 0.0, "t1": 100.0},
            h_ext_schedule={"kind": "const", "value": [0.01, 0.0]},
        )
    if name == "irm":
        material = con.MaterialParams(
            **_BASE_MATERIAL, theta_b=2.0, h_c_high=0.2, h_c_low=0.0, hc_width=0.02
        )
        return ScenarioConfig(
            name="irm", experiment="irm", dim=0, material=material,
            duration=20.0, dt=1e-3,
            theta_schedule={"kind": "const", "value": 1.2},
            h_ext_schedule={"kind": "sine", "axis": [1.0, 0.0], "amplitude": 0.5, "period": 20.0},
        )
    if name == "vrm":
        material = con.MaterialParams(
            **_BASE_MATERIAL, theta_b=1.5, h_c_high=0.1, h_c_low=0.0, hc_width=0.02
        )
        return ScenarioConfig(
            name="vrm", experiment="vrm", dim=0, material=material,
            duration=5.0, dt=0.005,
            theta_schedule={"kind": "const", "value": 1.05},
            h_ext_schedule={"kind": "const", "value": [0.102, 0.0]},
        )
    if name == "melt":
        material = con.MaterialParams(
            **_BASE_MATERIAL, theta_b=0.6, h_c_high=0.1, h_c_low=0.0, hc_width=0.02
        )
        m0 = float(con.m_sat(0.5, material))
        return ScenarioConfig(
            name="melt", experiment="melt", dim=0, material=material,
            duration=100.0, dt=0.01,
            theta_schedule={"kind": "linear", "start": 0.5, "end": 2.0, "t0": 0.0, "t1": 100.0},
            grad_v_schedule={"kind": "zero"},
            m0=(m0, 0.0),
            Ee0=((5e-4, 0.0), (0.0, -5e-4)),
        )
    raise ConfigError(f"unknown builtin scenario {name!r}; choose from {SHIPPED_SCENARIOS}")


# ---------------------------------------------------------------------------
# hysteresis loops


@dataclass
class HysteresisLoop:
    """One extracted (h_applied, m_parallel) cycle."""

    points: np.ndarray            # (n, 2): h along the drive axis, m parallel
    coercivity: float             # |h| at the m zero crossings (mean), >= 0
    remanence: float              # |m| at the h zero crossings (mean)
    area: float                   # mu0 * closed-loop integral h dm
    closed: bool                  # start/end m agree within 1% of max |m|
    dissipation: float = 0.0      # cycle-integrated mu0 * zeta-dissipation


def _crossings(x: np.ndarray, y: np.ndarray) -> list:
    """Linear-interpolated values of y at the zero crossings of x."""
    vals = []
    for i in range(len(x) - 1):
        a, b = x[i], x[i + 1]
        if a == 0.0:
            # isolated zero: count only a genuine sign change through it
            if 0 < i and x[i - 1] * b < 0.0:
                vals.append(y[i])
        elif a * b < 0.0:
            s = a / (a - b)
            vals.append(y[i] + s * (y[i + 1] - y[i]))
    return vals


def extract_loop(
    h: np.ndarray, m: np.ndarray, mu0: float = 1.0, diss: Optional[np.ndarray] = None
) -> HysteresisLoop:
    """Build a HysteresisLoop from sampled (h, m) traces of one cycle."""
    h = np.asarray(h, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    coercs = [abs(v) for v in _crossings(m, h)]
    remans = [abs(v) for v in _crossings(h, m)]
    area = mu0 * float(np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(m)))
    mmax = float(np.max(np.abs(m))) if len(m) else 0.0
    closed = bool(len(m) > 1 and abs(m[-1] - m[0]) <= 0.01 * max(mmax, 1e-30))
    return HysteresisLoop(
        points=np.stack([h, m], axis=-1),
        coercivity=float(np.mean(coercs)) if coercs else 0.0,
        remanence=float(np.mean(remans)) if remans else 0.0,
        area=abs(area),
        closed=closed,
        dissipation=float(np.sum(diss)) if diss is not None else 0.0,
    )


def _trajectory_loop(traj: Trajectory, out=None, since: float = -math.inf) -> HysteresisLoop:
    """The (h_ext_x, m_x) loop of the steps ending after ``since``.

    The loop's dissipation sums the audited dt * xi_total of those steps;
    with ``out`` set, the loop points are written to ``out/loop.csv``.
    """
    keep = np.asarray(traj.times) > since
    diss = np.array([rep.dt * rep.xi_total for rep in traj.reports])[keep]
    loop = extract_loop(
        traj.column("h_ext_x")[keep], traj.column("m_x")[keep], traj.config.material.mu0, diss
    )
    if out is not None:
        with open(out / "loop.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("h_applied", "m_parallel"))
            for hh, mm in loop.points:
                writer.writerow((_fmt(hh), _fmt(mm)))
    return loop


def irm_loop(
    theta_fixed: float,
    h_amplitude: float,
    cycles: int,
    config: Optional[ScenarioConfig] = None,
    period: float = 20.0,
) -> HysteresisLoop:
    """Run an isothermal field cycle and extract the final-cycle loop."""
    cfg = copy.deepcopy(config) if config is not None else builtin_config("irm")
    cfg.name = f"irm_loop_theta{theta_fixed:g}"
    cfg.experiment = None
    cfg.theta_schedule = {"kind": "const", "value": float(theta_fixed)}
    cfg.h_ext_schedule = {
        "kind": "sine", "axis": [1.0, 0.0], "amplitude": float(h_amplitude),
        "period": float(period),
    }
    cfg.duration = float(cycles) * float(period)
    return _trajectory_loop(run_scenario(cfg), since=(cycles - 1) * period + 1e-12)


# ---------------------------------------------------------------------------
# experiment drivers


def _continue_config(base: ScenarioConfig, **changes) -> ScenarioConfig:
    cfg = copy.deepcopy(base)
    cfg.experiment = None
    for key, value in changes.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _report_dir(out_dir) -> Optional[Path]:
    """The experiment's output directory, created; None when not writing."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _restart(state: FieldState) -> FieldState:
    """A phase's final state as the t = 0 state of the next phase.

    run_scenario samples the loads at absolute t, so each phase's schedules
    start from their own t = 0.
    """
    return dataclasses.replace(state, t=0.0)


def trm_experiment(traj1: Trajectory, out_dir=None) -> dict:
    """Thermoremanence end-to-end: cool under bias, rotate rigidly, reheat.

    Phases: (1) controlled cooling 1.3 -> 0.3 under a small bias field
    (remanence acquisition and blocking), the finished run ``traj1`` of the
    trm scenario; then, integrated here, (2) bias removed (sticking);
    (3) rigid 90-degree rotation (remanence co-rotates); (4) controlled
    reheating above the Curie point (remanence erased).  Each phase starts
    from the previous phase's final state, its clock reset to t = 0.
    """
    base = traj1.config
    params = base.material
    theta_sched = make_scalar_schedule(base.theta_schedule)
    theta_final = float(theta_sched(base.duration))

    out = _report_dir(out_dir)
    def sub(name):
        return None if out is None else out / name

    m_acquired = traj1.final_state.m.reshape(-1, NCOMP)[0].copy()
    m_sat_final = float(con.m_sat(theta_final, params))

    cfg2 = _continue_config(
        base, name="trm_phase2_hold", duration=5.0, dt=0.01,
        theta_schedule={"kind": "const", "value": theta_final},
        h_ext_schedule=None,
    )
    traj2 = run_scenario(
        cfg2, initial_state=_restart(traj1.final_state), out_dir=sub("phase2_hold")
    )

    rate = 0.1
    dur3 = 0.5 * math.pi / rate
    cfg3 = _continue_config(
        cfg2, name="trm_phase3_rotate", duration=dur3,
        grad_v_schedule={"kind": "rotation", "rate": rate},
    )
    traj3 = run_scenario(
        cfg3, initial_state=_restart(traj2.final_state), out_dir=sub("phase3_rotate")
    )
    m_rot = traj3.final_state.m.reshape(-1, NCOMP)[0].copy()
    ang = math.degrees(
        math.atan2(
            m_acquired[0] * m_rot[1] - m_acquired[1] * m_rot[0],
            float(np.dot(m_acquired, m_rot)),
        )
    )

    cfg4 = _continue_config(
        cfg3, name="trm_phase4_reheat", duration=50.0, grad_v_schedule=None,
        theta_schedule={"kind": "linear", "start": theta_final, "end": 1.3, "t0": 0.0, "t1": 50.0},
    )
    traj4 = run_scenario(
        cfg4, initial_state=_restart(traj3.final_state), out_dir=sub("phase4_reheat")
    )
    m_erased = float(np.linalg.norm(traj4.final_state.m.reshape(-1, NCOMP)[0]))

    report = {
        "theta_final": theta_final,
        "m_sat_final": m_sat_final,
        "m_acquired": [float(x) for x in m_acquired],
        "m_acquired_norm": float(np.linalg.norm(m_acquired)),
        "m_rotated": [float(x) for x in m_rot],
        "rotation_deg": ang,
        "m_erased_norm": m_erased,
        "erased_ratio": m_erased / max(m_sat_final, 1e-30),
    }
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def irm_experiment(traj: Trajectory, out_dir=None) -> dict:
    """Extract the loop of a finished IRM cycling run."""
    out = _report_dir(out_dir)
    loop = _trajectory_loop(traj, out)
    report = {
        "coercivity": loop.coercivity,
        "remanence": loop.remanence,
        "loop_area": loop.area,
        "cycle_dissipation": loop.dissipation,
        "closed": loop.closed,
    }
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def vrm_experiment(traj: Trajectory, out_dir=None) -> dict:
    """Viscous creep under a field just above the sticking threshold."""
    cfg = traj.config
    t = np.asarray(traj.times)
    mx = traj.column("m_x")
    # first-step secant: the anisotropy back-reaction is still negligible
    drift_rate = float(mx[0] / t[0]) if len(t) else 0.0
    # resolvent prediction of the initial drift rate at m = m0
    theta0 = float(make_scalar_schedule(cfg.theta_schedule)(0.0))
    h0 = make_vector_schedule(cfg.h_ext_schedule)(0.0)
    m0 = np.asarray(cfg.m0, dtype=np.float64)
    h_eff0 = con.h_anisotropy(m0, theta0, cfg.material, cfg.eps) + h0
    r0 = con.zeta_resolvent(theta0, h_eff0, cfg.material)
    report = {
        "drift_rate_measured": drift_rate,
        "drift_rate_oracle": float(np.linalg.norm(r0)),
        "m_final": [float(x) for x in traj.final_state.m.reshape(-1, NCOMP)[0]],
        "h_c": float(con.h_c(theta0, cfg.material)),
        "h_applied": float(np.linalg.norm(np.asarray(h0))),
    }
    out = _report_dir(out_dir)
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _relaxation_fixture(
    base: ScenarioConfig, theta_hold: float, lam_tau: float = 0.025, n_steps: int = 60
) -> tuple:
    """Fixed-strain stress relaxation at one viscosity plateau.

    dt is chosen so lambda*dt is the same at both plateaus; the implicit
    Euler decay factor 1/(1 + lambda dt) then cancels in the ratio of
    fitted relaxation times.
    """
    params = base.material
    M_theta = float(con.maxwell_viscosity(theta_hold, params))
    lam = 2.0 * params.G_E / M_theta
    dt = lam_tau / lam
    cfg = _continue_config(
        base, name=f"melt_plateau_theta{theta_hold:g}", duration=n_steps * dt, dt=dt,
        theta_schedule={"kind": "const", "value": theta_hold},
        grad_v_schedule={"kind": "zero"},
        h_ext_schedule=None,
        m0=(0.0, 0.0),
        Ee0=((5e-4, 0.0), (0.0, -5e-4)),
        dt_growth=1.0,
    )
    traj = run_scenario(cfg)
    s = traj.column("Sdev_xx")
    t = np.asarray(traj.times)
    # log-linear fit of the decay gives the effective relaxation time
    good = s > 0.0
    slope = np.polyfit(t[good], np.log(s[good]), 1)[0]
    return -1.0 / slope, traj


def melt_experiment(traj: Trajectory, out_dir=None) -> dict:
    """Viscosity collapse across the melting window plus remanence erasure."""
    base = traj.config
    params = base.material

    theta_cold, theta_hot = 0.5, 2.0
    tau_cold, _ = _relaxation_fixture(base, theta_cold)
    tau_hot, _ = _relaxation_fixture(base, theta_hot)
    ratio = tau_cold / tau_hot
    expected = float(
        con.maxwell_viscosity(theta_cold, params) / con.maxwell_viscosity(theta_hot, params)
    )
    m0 = float(np.linalg.norm(np.asarray(base.m0)))
    m_final = float(np.linalg.norm(traj.final_state.m.reshape(-1, NCOMP)[0]))
    report = {
        "relaxation_time_cold": tau_cold,
        "relaxation_time_hot": tau_hot,
        "plateau_ratio": ratio,
        "expected_ratio": expected,
        "m_initial_norm": m0,
        "m_final_norm": m_final,
    }
    out = _report_dir(out_dir)
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


EXPERIMENTS = {
    "trm": trm_experiment,
    "irm": irm_experiment,
    "vrm": vrm_experiment,
    "melt": melt_experiment,
}


__all__ = [
    "ScenarioConfig",
    "Trajectory",
    "HysteresisLoop",
    "run_scenario",
    "builtin_config",
    "irm_loop",
    "extract_loop",
    "trm_experiment",
    "irm_experiment",
    "vrm_experiment",
    "melt_experiment",
    "EXPERIMENTS",
    "SHIPPED_SCENARIOS",
    "make_scalar_schedule",
    "make_vector_schedule",
    "make_tensor_schedule",
]
