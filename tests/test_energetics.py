"""Energy ledger and per-step audits: telescoping, signs, bookkeeping."""

import numpy as np
import pytest

from paleomag import constitutive as con
from paleomag.energetics import audit_step, demag_energy, energy_ledger
from paleomag.grid import FieldState, Loads, make_grid, sample_loads
from paleomag.stepper import _xi_field, step

from conftest import material


def state_0d(grid, params, theta=0.5, m=(0.0, 0.0), Ee=None):
    s = FieldState.zeros(grid)
    s.w[...] = con.thermal_law_for(params).w_of_theta(theta)
    s.m[...] = np.asarray(m)
    if Ee is not None:
        s.Ee[...] = np.asarray(Ee)
    return s


def run_and_audit(prev, loads, grid, params, dt):
    new, rep = step(prev, loads, dt, grid, params)
    assert rep.accepted
    return new, audit_step(prev, new, loads, dt, grid, params)


class TestEnergyLedger:
    def test_nonnegative_entries(self, grid0):
        p = material()
        s = state_0d(grid0, p, theta=0.8, m=(0.3, 0.1), Ee=np.diag([1e-3, -1e-3]))
        s.v[...] = [0.2, -0.1]
        led = energy_ledger(s, grid0, p)
        assert led.kinetic >= 0.0
        assert led.heat >= 0.0
        assert led.demag == 0.0  # no potential on a material point

    def test_stored_value(self, grid0):
        p = material()
        s = state_0d(grid0, p, theta=0.5, m=(0.4, 0.0))
        led = energy_ledger(s, grid0, p)
        # phi + omega(m, theta=0): 0.5 b0 |m|^4 + a0 (0 - theta_c)|m|^2
        assert led.stored == pytest.approx(0.5 * 0.4**4 - 0.16, rel=1e-12)

    def test_zeeman_orientation(self, grid0):
        # the audit pairs each state with its own field, + mu0 int h . m; the
        # printed (classical) total differs from the conserving one by twice
        # the Zeeman energy of each state, and its supply by twice p_ext_mag
        p = material(mu0=2.0)
        prev = state_0d(grid0, p, m=(0.5, 0.0))
        dt = 0.1
        loads = sample_loads(Loads(h_ext=lambda t: np.array([0.2 + t, -0.1]),
                                   theta=lambda t: 0.5), dt, dt)
        new, rep = run_and_audit(prev, loads, grid0, p, dt)
        m_new = new.m.reshape(2)
        assert np.any(m_new != prev.m.reshape(2))
        assert rep.zeeman == pytest.approx(2.0 * ((0.2 + dt) * m_new[0] - 0.1 * m_new[1]))
        zeeman_prev = 2.0 * 0.2 * 0.5
        assert rep.r_tot_printed - rep.r_tot == pytest.approx(
            2.0 * (rep.zeeman - zeeman_prev) + 2.0 * dt * rep.p_ext_mag, rel=1e-12
        )
        assert rep.p_ext_mag == pytest.approx(-2.0 * 0.5, rel=1e-12)

    def test_demag_energy_zero_for_flat_u(self):
        grid = make_grid(2, (1.0, 1.0), (8, 8))
        m = np.full((8, 8, 2), 0.5)
        assert demag_energy(m, np.ones(grid.halo_cells), grid, 1.0) == 0.0


def xi_at(theta, Ev, R, r, grid, params):
    """The stepper's xi with the Maxwell viscosity and the coercivity lagged at theta."""
    M_lag = np.asarray(con.maxwell_viscosity(theta, params))
    return _xi_field(Ev, R, r, con.h_c(theta, params), M_lag, grid, params)


class TestDissipation:
    def test_zero_rates(self, grid0):
        p = material()
        xi = xi_at(0.5, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), grid0, p)
        assert float(xi) == 0.0

    def test_shear_and_flow_terms(self, grid0):
        p = material(nu1=2.0, M_solid=3.0, M_magma=3.0)
        Ev = np.array([[0.0, 0.1], [0.1, 0.0]])
        R = np.array([[0.05, 0.0], [0.0, -0.05]])
        xi = xi_at(0.5, Ev, R, np.zeros(2), grid0, p)
        assert float(xi) == pytest.approx(2.0 * 0.02 + 3.0 * 0.005, rel=1e-12)

    def test_dissipation_nonnegative_random(self, grid0, rng):
        p = material()
        for _ in range(20):
            Ev = rng.normal(size=(2, 2))
            Ev = 0.5 * (Ev + Ev.T)
            R = rng.normal(size=(2, 2))
            R = 0.5 * (R + R.T)
            xi = xi_at(0.7, Ev, R, rng.normal(size=2), grid0, p)
            assert float(xi) >= 0.0


class TestAuditStep:
    def test_stationary_state_zero_residuals(self, grid0):
        p = material(h_c_high=1.0, theta_b=2.0)
        prev = state_0d(grid0, p, theta=0.5, m=(0.1, 0.0))
        loads = sample_loads(Loads(theta=lambda t: 0.5), 0.1, 0.1)
        new, rep = run_and_audit(prev, loads, grid0, p, 0.1)
        assert abs(rep.r_tot) < 1e-14
        assert abs(rep.r_mech) < 1e-14
        assert rep.entropy_margin >= -1e-14
        assert rep.xi_total == 0.0

    def test_boundary_heat_books_exactly(self, grid0):
        # pure j_ext heating of a sticking cell: Delta heat = dt * j * area
        p = material(h_c_high=1.0, theta_b=2.0)
        prev = state_0d(grid0, p, theta=0.5)
        dt, j = 0.02, 1.5
        loads = sample_loads(Loads(j_ext=lambda t: j), dt, dt)
        new, rep = run_and_audit(prev, loads, grid0, p, dt)
        assert rep.boundary_heat == pytest.approx(j * grid0.boundary_area)
        assert rep.ledger_new.heat - rep.ledger_prev.heat == pytest.approx(dt * j)
        assert abs(rep.r_tot) < 1e-14
        # entropy margin >= 0: influx at the implicit temperature
        assert rep.entropy_margin >= -1e-14

    def test_field_rate_is_the_backward_difference(self, grid0):
        # p_ext_mag = -mu0 int (h_k - h_prev)/dt . m_prev, with dh/dt = (1, -2)
        p = material(mu0=2.0)
        prev = state_0d(grid0, p, m=(0.3, 0.2))
        loads = sample_loads(Loads(h_ext=lambda t: np.array([t, -2.0 * t]),
                                   theta=lambda t: 0.5), t=2.0, dt=0.5)
        new, rep = run_and_audit(prev, loads, grid0, p, 0.5)
        assert rep.p_ext_mag == pytest.approx(-2.0 * (1.0 * 0.3 - 2.0 * 0.2), rel=1e-12)

    def test_constant_field_no_external_power(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5, m=(0.3, 0.0))
        loads = sample_loads(Loads(h_ext=lambda t: np.array([0.05, 0.0]),
                                   theta=lambda t: 0.5), 0.1, 0.1)
        new, rep = run_and_audit(prev, loads, grid0, p, 0.1)
        assert rep.p_ext_mag == 0.0

    def test_mech_identity_sign(self, grid0):
        # stress relaxation: the mechanical residual is the (negative)
        # convexity defect of the implicit scheme
        p = material(M_solid=1.0, M_magma=1.0)
        prev = state_0d(grid0, p, theta=0.5, Ee=np.diag([1e-2, -1e-2]))
        loads = sample_loads(Loads(theta=lambda t: 0.5,
                                   grad_v=lambda t: np.zeros((2, 2))), 0.01, 0.01)
        new, rep = run_and_audit(prev, loads, grid0, p, 0.01)
        assert rep.r_mech <= 1e-16
        assert rep.xi_total > 0.0
        assert rep.entropy_margin >= -1e-14

    def test_theta_control_flux_books(self, grid0):
        # forced cooling: the audited control flux carries the heat away
        p = material(h_c_high=1.0, theta_b=2.0)
        prev = state_0d(grid0, p, theta=1.0)
        dt = 0.1
        loads = sample_loads(Loads(theta=lambda t: 1.0 - 0.5 * t), dt, dt)
        new, rep = run_and_audit(prev, loads, grid0, p, dt)
        assert rep.q_ctrl_total == pytest.approx(
            (rep.ledger_new.heat - rep.ledger_prev.heat) / dt, rel=1e-12
        )
        assert abs(rep.r_tot) < 1e-12
        # cooling at the implicit temperature: ln-concavity gives a surplus
        assert rep.entropy_margin >= 0.0

    def test_gravity_power_midpoint(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5)
        dt = 0.05
        g = np.array([0.0, -2.0])
        loads = sample_loads(Loads(g=g, theta=lambda t: 0.5), dt, dt)
        new, rep = run_and_audit(prev, loads, grid0, p, dt)
        # v_mid pairing makes the kinetic-energy balance exact
        assert rep.ledger_new.kinetic - rep.ledger_prev.kinetic == pytest.approx(
            dt * rep.p_grav, rel=1e-12
        )
        assert abs(rep.r_tot) < 1e-14
