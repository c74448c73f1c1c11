"""Per-step energy-balance and entropy audits.

The audit is pure: it reconstructs every discrete rate from the two
snapshots bracketing a step (plus the load sample) using the *same*
formulas as the stepper, so for a converged step the balances telescope
exactly and the residuals measure only the scheme's intrinsic
discretization defects:

* ``r_mech``: mechanical/magnetic energy identity.  Each convexity defect
  of the implicit scheme enters with a definite sign, so r_mech <= 0 up
  to roundoff -- the discrete system never creates mechanical energy.
* ``r_tot``: total (first-law) balance.  The signed defects cancel
  against the heat they generate, leaving an O(|dm|^2) remainder per step.
* ``entropy_margin``: discrete Clausius-Duhem surplus, >= 0 up to roundoff.

Sign conventions.  The Zeeman ledger entry follows the classical
textbook orientation ``+ mu0 int h . m``; the conserving total-energy
balance pairs the *negative* of that entry with the supply power
``- mu0 dh/dt . m`` (both residuals are reported; only the conserving one
telescopes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constitutive as con
from . import kinematics as kin
from .errors import AuditError
from .grid import NCOMP, FieldState, Grid, LoadsSample
from .demag import h_dem_from_u
from .stepper import (
    _adiabatic_coupling,
    _drive_field,
    _heat_residual_field,
    _objective_rates,
    _stress,
    _velocity_gradient,
    _xi_field,
    boundary_source,
)


@dataclass
class EnergyLedger:
    """Energy bookkeeping of one state (all entries are volume integrals).

    kinetic: int rho |v|^2 / 2
    stored:  int phi(Ee, m) + omega_eps(m, 0) + (kappa mu0 / 2)|grad m|^2
             (elastic + magnetic internal energy, temperature part removed)
    demag:   (mu0/2) int_pad |grad u|^2
    zeeman:  + mu0 int h_ext . m      (classical orientation; see module doc)
    heat:    int w                     (thermal internal energy)
    entropy: int eta(m, theta)
    """

    kinetic: float
    stored: float
    demag: float
    zeeman: float
    heat: float
    entropy: float

    def total(self) -> float:
        """Internal + field + Zeeman energy, classical Zeeman orientation."""
        return self.kinetic + self.stored + self.demag + self.zeeman + self.heat

    def total_conserving(self) -> float:
        """The orientation under which the discrete first law telescopes."""
        return self.kinetic + self.stored + self.demag - self.zeeman + self.heat


@dataclass
class BalanceReport:
    """Audit result for one step (absolute and scale-relative residuals)."""

    t: float
    dt: float
    r_mech: float
    r_tot: float
    r_tot_printed: float
    entropy_margin: float
    r_mech_rel: float
    r_tot_rel: float
    entropy_margin_rel: float
    scale: float
    ledger_prev: EnergyLedger
    ledger_new: EnergyLedger
    xi_total: float
    adiab_total: float
    transfer_total: float
    p_drive: float
    p_grav: float
    p_ext_mag: float
    boundary_heat: float
    q_ctrl_total: float
    entropy_flux: float


def demag_energy_from_u(u: np.ndarray, grid: Grid, mu0: float) -> float:
    """(mu0/2) sum of squared face gradients of u over the padded grid."""
    if grid.dim == 0 or not np.any(u):
        return 0.0
    total = 0.0
    for a in range(grid.dim):
        h = grid.spacing[a]
        ua = np.moveaxis(u, a, 0)
        total += float(np.sum(((ua[1:] - ua[:-1]) / h) ** 2))
    return 0.5 * mu0 * total * grid.cell_volume


def exchange_energy(m: np.ndarray, grid: Grid, params: con.MaterialParams) -> float:
    if params.kappa == 0.0 or grid.dim == 0:
        return 0.0
    gm = kin.grad_vector(m, grid)
    return 0.5 * params.kappa * params.mu0 * grid.integrate(np.sum(gm * gm, axis=(-2, -1)))


def dissipation_xi(theta_lag, Ev, R, r, grid: Grid, params: con.MaterialParams) -> np.ndarray:
    """Nonnegative dissipation density xi; raises AuditError if negative."""
    M_lag = np.asarray(con.maxwell_viscosity(theta_lag, params))
    xi = _xi_field(Ev, R, r, theta_lag, M_lag, grid, params)
    if float(np.min(xi)) < -1e-12:
        raise AuditError(f"dissipation density negative: min xi = {float(np.min(xi)):.3e}")
    return xi


def energy_ledger(
    state: FieldState,
    grid: Grid,
    params: con.MaterialParams,
    h_ext: Optional[np.ndarray] = None,
    eps: float = 0.0,
) -> EnergyLedger:
    """Evaluate the energy ledger of a single state."""
    if h_ext is None:
        h_ext = np.zeros(NCOMP)
    theta = con.thermal_law_for(params).theta_of_w(state.w)
    kinetic = 0.5 * params.rho * grid.integrate(np.sum(state.v * state.v, axis=-1))
    stored = grid.integrate(
        con.phi_mech(state.Ee, state.m, params) + con.omega_eps(state.m, 0.0, params, eps)
    ) + exchange_energy(state.m, grid, params)
    demag = demag_energy_from_u(state.u, grid, params.mu0)
    zeeman = params.mu0 * grid.integrate(np.sum(np.asarray(h_ext) * state.m, axis=-1))
    heat = grid.integrate(state.w)
    entropy = grid.integrate(con.entropy_density(state.m, theta, params, eps))
    return EnergyLedger(
        kinetic=kinetic, stored=stored, demag=demag, zeeman=zeeman, heat=heat, entropy=entropy
    )


def audit_step(
    state_prev: FieldState,
    state_new: FieldState,
    loads_k: LoadsSample,
    dt: float,
    grid: Grid,
    params: con.MaterialParams,
    eps: float = 0.0,
    ledger_prev: Optional[EnergyLedger] = None,
) -> BalanceReport:
    """Audit the discrete balances of the step state_prev -> state_new.

    ``ledger_prev``, when given, must be the ledger of state_prev under
    loads_k.h_ext_prev -- ``energy_ledger(state_prev, grid, params,
    loads_k.h_ext_prev, eps)``, bit for bit, such as the previous step's
    ``ledger_new`` when its h_ext_k equals this step's h_ext_prev.  It is
    computed here when None.
    """
    thermal = con.thermal_law_for(params)
    tau = float(dt)
    theta_prev = thermal.theta_of_w(state_prev.w)
    theta_new = thermal.theta_of_w(state_new.w)
    v = state_new.v
    m_new = state_new.m

    L, driven = _velocity_gradient(v, state_new.Ee, loads_k, grid, params)
    Ev = kin.sym(L)

    # discrete rates reconstructed exactly as the stepper defines them
    R, r, r_conv = _objective_rates(state_new, state_prev, L, grid, tau)

    # dissipation and adiabatic coupling (same formulas as the heat update)
    xi = dissipation_xi(theta_prev, Ev, R, r, grid, params)
    xi_total = grid.integrate(xi)
    adiab = _adiabatic_coupling(theta_new, m_new, r_conv, kin.tensor_trace(L), params, eps)
    adiab_total = grid.integrate(adiab)
    # thermomagnetic transfer in the mechanical identity
    transfer = np.sum(con.omega_eps_m(m_new, theta_new, params, eps) * r, axis=-1)
    transfer_total = grid.integrate(transfer)

    # external powers
    v_mid = 0.5 * (state_new.v + state_prev.v)
    b_lag = con.buoyancy_b(theta_prev, params)
    p_grav = params.rho * grid.integrate(
        np.sum(loads_k.g * v_mid, axis=-1) * (1.0 - np.asarray(b_lag))
    )
    p_ext_mag = -params.mu0 * grid.integrate(
        np.sum(loads_k.dh_ext_dt_k * state_prev.m, axis=-1)
    )
    p_ext_mag_printed = -p_ext_mag
    boundary_heat = loads_k.j_ext_k * grid.boundary_area

    p_drive = 0.0
    if driven:
        h_dem = h_dem_from_u(state_new.u, grid)
        h_eff = _drive_field(m_new, theta_new, loads_k, grid, params, eps) + h_dem
        S = _stress(state_new.Ee, m_new, Ev, h_eff, grid, params)
        p_drive = grid.integrate(kin.ddot(S, L))

    # theta-control: implied per-cell control flux (the heat-equation residual)
    q_ctrl_total = 0.0
    ctrl_entropy = 0.0
    j_src = boundary_source(loads_k.j_ext_k, grid)
    if loads_k.theta_k is not None:
        q_ctrl = _heat_residual_field(
            state_new.w, state_prev.w, v, theta_new, xi, adiab, j_src, grid, params, tau, eps
        )
        q_ctrl_total = grid.integrate(q_ctrl)
        ctrl_entropy = grid.integrate(q_ctrl / np.asarray(theta_new))

    # ledgers and residuals
    if ledger_prev is None:
        ledger_prev = energy_ledger(state_prev, grid, params, loads_k.h_ext_prev, eps)
    ledger_new = energy_ledger(state_new, grid, params, loads_k.h_ext_k, eps)

    supplied = tau * (p_grav + p_drive + p_ext_mag + boundary_heat + q_ctrl_total)
    r_tot = (ledger_new.total_conserving() - ledger_prev.total_conserving()) - supplied
    supplied_printed = tau * (
        p_grav + p_drive + p_ext_mag_printed + boundary_heat + q_ctrl_total
    )
    r_tot_printed = (ledger_new.total() - ledger_prev.total()) - supplied_printed

    # mechanical identity: heat removed, dissipation and transfer added back
    mech_new = (
        ledger_new.kinetic + ledger_new.stored + ledger_new.demag - ledger_new.zeeman
        - grid.integrate(con.omega_eps(m_new, 0.0, params, eps))
    )
    mech_prev = (
        ledger_prev.kinetic + ledger_prev.stored + ledger_prev.demag - ledger_prev.zeeman
        - grid.integrate(con.omega_eps(state_prev.m, 0.0, params, eps))
    )
    r_mech = (
        mech_new - mech_prev
        + tau * (xi_total + transfer_total)
        - tau * (p_grav + p_drive + p_ext_mag)
    )

    # Clausius-Duhem surplus with implicit flux temperatures
    entropy_flux = grid.integrate(j_src / np.asarray(theta_new)) + ctrl_entropy
    entropy_margin = (ledger_new.entropy - ledger_prev.entropy) - tau * entropy_flux

    scale = max(
        abs(ledger_new.total_conserving()),
        abs(ledger_prev.total_conserving()),
        abs(supplied),
        tau * xi_total,
        1e-30,
    )
    s_scale = max(abs(ledger_new.entropy), abs(ledger_prev.entropy), tau * abs(entropy_flux), 1e-30)
    return BalanceReport(
        t=state_new.t,
        dt=tau,
        r_mech=r_mech,
        r_tot=r_tot,
        r_tot_printed=r_tot_printed,
        entropy_margin=entropy_margin,
        r_mech_rel=r_mech / scale,
        r_tot_rel=r_tot / scale,
        entropy_margin_rel=entropy_margin / s_scale,
        scale=scale,
        ledger_prev=ledger_prev,
        ledger_new=ledger_new,
        xi_total=xi_total,
        adiab_total=adiab_total,
        transfer_total=transfer_total,
        p_drive=p_drive,
        p_grav=p_grav,
        p_ext_mag=p_ext_mag,
        boundary_heat=boundary_heat,
        q_ctrl_total=q_ctrl_total,
        entropy_flux=entropy_flux,
    )


__all__ = [
    "EnergyLedger",
    "BalanceReport",
    "energy_ledger",
    "audit_step",
    "dissipation_xi",
    "demag_energy_from_u",
    "exchange_energy",
]
