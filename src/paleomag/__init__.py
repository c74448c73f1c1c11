"""Eulerian thermo-magneto-viscoelastic simulator for rock magnetism.

Integrates the coupled system of momentum (with magnetic forces), the
additive elastic/inelastic strain-rate split with Zaremba-Jaumann
transport, a non-smooth magnetization flow rule, the demagnetizing-field
Poisson problem and an enthalpy-form heat equation, using a fully
implicit time discretization.  Every accepted step is audited against
the model's energy balances and the entropy inequality.
"""

__version__ = "0.1.0"

from .errors import (
    AuditError,
    ConfigError,
    ConstitutiveError,
    NumericalError,
    ScenarioError,
    ThermodynamicError,
)
from .grid import FieldState, Grid, Loads, LoadsSample, make_grid, sample_loads
from .constitutive import MaterialParams, ThermalLaw
from .stepper import StepReport, step
from .energetics import EnergyLedger, BalanceReport, audit_step, energy_ledger
from .scenarios import ScenarioConfig, run_scenario

__all__ = [
    "AuditError",
    "BalanceReport",
    "ConfigError",
    "ConstitutiveError",
    "EnergyLedger",
    "FieldState",
    "Grid",
    "Loads",
    "LoadsSample",
    "MaterialParams",
    "NumericalError",
    "ScenarioConfig",
    "ScenarioError",
    "StepReport",
    "ThermalLaw",
    "ThermodynamicError",
    "audit_step",
    "energy_ledger",
    "make_grid",
    "run_scenario",
    "sample_loads",
    "step",
]
