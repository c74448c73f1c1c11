"""Per-step energy-balance and entropy audits.

The audit is pure: it reads the discrete rates of a step from the record
``stepper.step_terms(state_prev, state_new, loads_k, dt, grid, params)``
builds from the two states bracketing it and the step's load sample.  A
run builds that record once per step, for the residual check and the
audit; ``paleomag audit`` rebuilds it from the snapshots.
So for a converged step the balances telescope exactly and the residuals
measure only the scheme's intrinsic discretization defects:

* ``r_mech``: mechanical/magnetic energy identity.  Each convexity defect
  of the implicit scheme enters with a definite sign, so r_mech <= 0 up
  to roundoff on the shipped 0D scenarios.  In 2D, gravity (r_mech_rel
  up to +1.0e-9) breaks that sign.
* ``r_tot``: total (first-law) balance.  The signed defects cancel
  against the heat they generate, leaving an O(|dm|^2) remainder per step.
* ``entropy_margin``: discrete Clausius-Duhem surplus, >= 0 up to roundoff.

Sign conventions.  A state's ledger holds no applied field: the audit
pairs each state with the field of its own time, h_ext_prev with the input
state and h_ext_k with the new one, in the Zeeman entry ``+ mu0 int h . m``
(the classical textbook orientation).  The conserving total-energy balance
pairs the *negative* of that entry with the supply power ``- mu0 dh/dt . m``
(both residuals are reported; only the conserving one telescopes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constitutive as con
from . import kinematics as kin
from .errors import AuditError
from .grid import FieldState, Grid, LoadsSample
from .demag import h_dem_from_u
from .stepper import StepTerms, step_terms


@dataclass
class EnergyLedger:
    """Energy bookkeeping of one state (all entries are volume integrals).

    kinetic: int rho |v|^2 / 2
    stored:  int phi(Ee, m) + omega(m, 0) + exchange_energy(m)
             (elastic + magnetic internal energy, temperature part removed)
    demag:   -(mu0/2) int_Omega m . h_dem, h_dem = -grad_c u (the field
             energy of the infinite-lattice potential, >= 0; see demag)
    heat:    int w                     (thermal internal energy)
    entropy: int eta(m, theta)

    The Zeeman energy pairs the state with an applied field, so the audit
    forms it (see the module doc); the ledger is the state's alone.
    """

    kinetic: float
    stored: float
    demag: float
    heat: float
    entropy: float


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
    zeeman: float                 # + mu0 int h_ext_k . m of the new state
    xi_total: float
    adiab_total: float
    transfer_total: float
    p_drive: float
    p_grav: float
    p_ext_mag: float
    boundary_heat: float
    q_ctrl_total: float
    entropy_flux: float


def demag_energy(m: np.ndarray, u: np.ndarray, grid: Grid, mu0: float) -> float:
    """The demag field energy -(mu0/2) int_Omega m . h_dem of the potential u of m."""
    if grid.dim == 0 or not np.any(u):
        return 0.0
    return -0.5 * mu0 * grid.integrate(kin.sum_vector(m * h_dem_from_u(u, grid)))


def exchange_energy(m: np.ndarray, grid: Grid, params: con.MaterialParams) -> float:
    """(kappa mu0 / 2) int dirichlet_density(m), whose negative gradient is
    exactly the m block's exchange field kappa mu0 laplacian(m)."""
    if params.kappa == 0.0 or grid.dim == 0:
        return 0.0
    return 0.5 * params.kappa * params.mu0 * grid.integrate(kin.dirichlet_density(m, grid))


def _nonnegative(xi: np.ndarray) -> np.ndarray:
    if float(np.min(xi)) < -1e-12:
        raise AuditError(f"dissipation density negative: min xi = {float(np.min(xi)):.3e}")
    return xi


def energy_ledger(state: FieldState, grid: Grid, params: con.MaterialParams) -> EnergyLedger:
    """Evaluate the energy ledger of a single state."""
    theta = con.thermal_law_for(params).theta_of_w(state.w)
    kinetic = 0.5 * params.rho * grid.integrate(kin.sum_vector(state.v * state.v))
    stored = grid.integrate(
        con.phi_mech(state.Ee, state.m, params) + con.omega(state.m, 0.0, params)
    ) + exchange_energy(state.m, grid, params)
    demag = demag_energy(state.m, state.u, grid, params.mu0)
    heat = grid.integrate(state.w)
    entropy = grid.integrate(con.entropy_density(state.m, theta, params))
    return EnergyLedger(kinetic=kinetic, stored=stored, demag=demag, heat=heat, entropy=entropy)


def audit_step(
    state_prev: FieldState,
    state_new: FieldState,
    loads_k: LoadsSample,
    dt: float,
    grid: Grid,
    params: con.MaterialParams,
    ledger_prev: Optional[EnergyLedger] = None,
    terms: Optional[StepTerms] = None,
) -> BalanceReport:
    """Audit the discrete balances of the step state_prev -> state_new.

    ``ledger_prev``, when given, must be ``energy_ledger(state_prev, grid,
    params)``, such as the previous step's ``ledger_new``.  ``terms``, when
    given, must be ``step_terms(state_prev, state_new, loads_k, dt, grid,
    params)``, such as the step's StepReport.terms.  Each is computed here
    when None.
    """
    tau = float(dt)
    if terms is None:
        terms = step_terms(state_prev, state_new, loads_k, tau, grid, params)
    theta_new = terms.theta_new
    m_new = state_new.m

    xi_total = grid.integrate(_nonnegative(terms.xi))
    adiab_total = grid.integrate(terms.adiab)
    # thermomagnetic transfer in the mechanical identity
    transfer = kin.sum_vector(con.omega_m(m_new, theta_new, params) * terms.r)
    transfer_total = grid.integrate(transfer)

    # external powers
    v_mid = 0.5 * (state_new.v + state_prev.v)
    p_grav = params.rho * grid.integrate(
        kin.sum_vector(loads_k.g * v_mid) * (1.0 - np.asarray(terms.b_lag))
    )
    p_ext_mag = -params.mu0 * grid.integrate(
        kin.sum_vector((loads_k.h_ext_k - loads_k.h_ext_prev) / tau * state_prev.m)
    )
    p_ext_mag_printed = -p_ext_mag
    boundary_heat = loads_k.j_ext_k * grid.boundary_area

    # theta-control: implied per-cell control flux (the heat-equation residual)
    q_ctrl_total = 0.0
    ctrl_entropy = 0.0
    if loads_k.theta_k is not None:
        q_ctrl_total = grid.integrate(terms.heat_res)
        ctrl_entropy = grid.integrate(terms.heat_res / np.asarray(theta_new))

    # ledgers, each state's Zeeman energy under its own field, and residuals
    if ledger_prev is None:
        ledger_prev = energy_ledger(state_prev, grid, params)
    ledger_new = energy_ledger(state_new, grid, params)
    zeeman_prev = params.mu0 * grid.integrate(kin.sum_vector(loads_k.h_ext_prev * state_prev.m))
    zeeman_new = params.mu0 * grid.integrate(kin.sum_vector(loads_k.h_ext_k * m_new))
    # totals summed as kinetic + stored + demag -/+ zeeman + heat
    e_prev = ledger_prev.kinetic + ledger_prev.stored + ledger_prev.demag
    e_new = ledger_new.kinetic + ledger_new.stored + ledger_new.demag
    total_prev = e_prev - zeeman_prev + ledger_prev.heat
    total_new = e_new - zeeman_new + ledger_new.heat

    supplied = tau * (p_grav + terms.p_drive + p_ext_mag + boundary_heat + q_ctrl_total)
    r_tot = (total_new - total_prev) - supplied
    supplied_printed = tau * (
        p_grav + terms.p_drive + p_ext_mag_printed + boundary_heat + q_ctrl_total
    )
    r_tot_printed = (
        (e_new + zeeman_new + ledger_new.heat) - (e_prev + zeeman_prev + ledger_prev.heat)
    ) - supplied_printed

    # mechanical identity: heat removed, dissipation and transfer added back
    mech_new = e_new - zeeman_new - grid.integrate(con.omega(m_new, 0.0, params))
    mech_prev = e_prev - zeeman_prev - grid.integrate(con.omega(state_prev.m, 0.0, params))
    r_mech = (
        mech_new - mech_prev
        + tau * (xi_total + transfer_total)
        - tau * (p_grav + terms.p_drive + p_ext_mag)
    )

    # Clausius-Duhem surplus with implicit flux temperatures
    entropy_flux = grid.integrate(terms.j_src / np.asarray(theta_new)) + ctrl_entropy
    entropy_margin = (ledger_new.entropy - ledger_prev.entropy) - tau * entropy_flux

    scale = max(
        abs(total_new),
        abs(total_prev),
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
        zeeman=zeeman_new,
        xi_total=xi_total,
        adiab_total=adiab_total,
        transfer_total=transfer_total,
        p_drive=terms.p_drive,
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
    "demag_energy",
    "exchange_energy",
]
