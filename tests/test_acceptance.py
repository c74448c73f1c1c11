"""Acceptance criteria for the simulation engine.

Eleven property-based criteria on nondimensional scenarios, each checked
against an independent oracle (closed forms, analytic transport, a
fine-step pure-Python integrator, discrete algebraic identities).  The
heavyweight full-duration runs of the four shipped scenarios are shared
module-scoped fixtures (criteria 7-10).
"""

import math

import numpy as np
import pytest

from paleomag import constitutive as con
from paleomag import kinematics as kin
from paleomag.demag import solve_demag
from paleomag.grid import make_grid
from paleomag.scenarios import (
    SHIPPED_SCENARIOS,
    ScenarioConfig,
    builtin_config,
    irm_loop,
    run_scenario,
    trm_experiment,
)

from conftest import material


# ---------------------------------------------------------------------------
# criterion 1: ZJ algebra identities on >= 10^3 random samples


class TestCriterion1ZjAlgebra:
    def setup_method(self):
        self.grid = make_grid(2, (1.0, 1.0), (32, 32))  # 1024 sample cells
        rng = np.random.default_rng(7)
        self.v = 0.3 * rng.normal(size=(32, 32, 2))
        self.L = kin.grad_vector(self.v, self.grid, kind="velocity")
        self.A = kin.sym(rng.normal(size=(32, 32, 2, 2)))
        self.alpha = rng.normal(size=(32, 32))

    def test_symmetry_preservation(self):
        rate = kin.bzj_tensor(self.v, self.L, self.A, self.grid)
        asym = np.max(np.abs(rate - np.swapaxes(rate, -1, -2)))
        assert asym < 1e-12

    def test_trace_commutation(self):
        rate = kin.bzj_tensor(self.v, self.L, self.A, self.grid)
        tr_of_rate = kin.tensor_trace(rate)
        rate_of_tr = kin.upwind_advect(kin.tensor_trace(self.A), self.v, self.grid)
        assert np.max(np.abs(tr_of_rate - rate_of_tr)) < 1e-12

    def test_pressure_commutation(self):
        P = self.alpha[..., None, None] * np.eye(2)
        rate = kin.bzj_tensor(self.v, self.L, P, self.grid)
        expect = kin.upwind_advect(self.alpha, self.v, self.grid)[..., None, None] * np.eye(2)
        assert np.max(np.abs(rate - expect)) < 1e-12


# ---------------------------------------------------------------------------
# criterion 2: rigid-rotation objectivity under (dt, h) refinement


def _rotation_error(cells, dt):
    rate, T = 0.5, 1.6
    m0 = np.array([0.6, 0.1])
    Ee0 = np.array([[3e-4, 1e-4], [1e-4, -3e-4]])
    cfg = ScenarioConfig(
        name="rotation", dim=2, extents=(1.0, 1.0), cells=(cells, cells),
        material=material(h_c_high=10.0, theta_b=2.0, M_solid=1e12, M_magma=1e12),
        duration=T, dt=dt, demag=False, output_every=0,
        theta_schedule={"kind": "const", "value": 0.5},
        grad_v_schedule={"kind": "rotation", "rate": rate},
        m0=tuple(m0), Ee0=tuple(map(tuple, Ee0)),
    )
    traj = run_scenario(cfg)
    phi = rate * T
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    m_num = traj.final_state.m[0, 0]
    Ee_num = traj.final_state.Ee[0, 0]
    err_m = float(np.linalg.norm(m_num - R @ m0))
    err_E = float(np.max(np.abs(Ee_num - R @ Ee0 @ R.T)))
    return max(err_m / np.linalg.norm(m0), err_E / np.max(np.abs(Ee0)))


class TestCriterion2Objectivity:
    def test_order_one_decay(self):
        errors = [_rotation_error(c, dt)
                  for c, dt in ((8, 0.08), (16, 0.04), (32, 0.02))]
        assert errors[0] / errors[1] >= 1.6
        assert errors[1] / errors[2] >= 1.6


# ---------------------------------------------------------------------------
# criterion 3: Maxwell and Kelvin-Voigt closed-form limits


class TestCriterion3Jeffreys:
    def test_maxwell_relaxation(self):
        # fixed strain at plateau viscosity M: S_dev(t) = S0 exp(-2 G t / M)
        cfg = ScenarioConfig(
            name="maxwell", dim=0,
            material=material(M_solid=1.0, M_magma=1.0),
            duration=1.5, dt=1e-3, output_every=0,
            theta_schedule={"kind": "const", "value": 0.5},
            grad_v_schedule={"kind": "zero"},
            Ee0=((1e-3, 0.0), (0.0, -1e-3)),
        )
        traj = run_scenario(cfg)
        t = np.asarray(traj.times)
        s = traj.column("Sdev_xx")
        lam = 2.0 * cfg.material.G_E / 1.0
        exact = 2.0 * cfg.material.G_E * 1e-3 * np.exp(-lam * t)
        assert float(np.max(np.abs(s - exact) / exact)) < 0.01

    def test_kelvin_voigt_creep(self):
        # M 10^6 x larger: Jeffreys degenerates to Kelvin-Voigt;
        # constant deviatoric stress sigma gives
        # Ee(t) = (sigma / 2G)(1 - exp(-2 G t / nu1))
        sig = 1e-3
        cfg = ScenarioConfig(
            name="kv", dim=0,
            material=material(M_solid=1e6, M_magma=1e6),
            duration=1.5, dt=2e-3, output_every=0,
            theta_schedule={"kind": "const", "value": 0.5},
            stress_dev_schedule={"kind": "const",
                                 "value": [[sig, 0.0], [0.0, -sig]]},
        )
        traj = run_scenario(cfg)
        t = np.asarray(traj.times)
        e = traj.column("Ee_xx")
        G, nu1 = cfg.material.G_E, cfg.material.nu1
        exact = sig / (2.0 * G) * (1.0 - np.exp(-2.0 * G * t / nu1))
        scale = sig / (2.0 * G)
        assert float(np.max(np.abs(e - exact))) < 0.01 * scale


# ---------------------------------------------------------------------------
# criterion 4: saturation magnetization at fixed temperature


def _saturation_run(theta, h_bias, m0):
    cfg = ScenarioConfig(
        name="saturation", dim=0,
        material=material(h_c_high=0.0, h_c_low=0.0),
        duration=4.0, dt=5e-3, output_every=0,
        theta_schedule={"kind": "const", "value": theta},
        h_ext_schedule={"kind": "const", "value": [h_bias, 0.0]},
        m0=(m0, 0.0),
    )
    traj = run_scenario(cfg)
    return float(np.linalg.norm(traj.final_state.m))


class TestCriterion4Saturation:
    def test_below_curie(self):
        theta = 0.5
        m_inf = _saturation_run(theta, 1e-6, 0.3)
        target = math.sqrt(1.0 * (1.0 - theta) / 1.0)
        assert abs(m_inf - target) / target < 1e-4

    def test_above_curie(self):
        assert _saturation_run(1.2, 0.0, 0.05) < 1e-6


# ---------------------------------------------------------------------------
# criterion 5: demagnetizing factor of a uniformly magnetized disk


def _disk_factor_error(cells):
    grid = make_grid(2, (1.0, 1.0), (cells, cells), pad_factor=4)
    x, y = grid.cell_centers()
    inside = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2 <= 0.3**2
    m = np.zeros(grid.spatial_shape + (2,))
    m[inside, 0] = 1.0
    sol = solve_demag(m, grid, boundary="farfield")
    core = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2 <= (0.6 * 0.3) ** 2
    mean_hx = float(np.mean(sol.h_dem[core, 0]))
    return abs(mean_hx - (-0.5)), sol.residual


class TestCriterion5DemagFactor:
    def test_factor_and_refinement(self):
        err64, res64 = _disk_factor_error(64)
        assert err64 < 0.02 * 0.5  # interior h_dem = -m/2 within 2%
        assert res64 < 1e-9
        err128, _ = _disk_factor_error(128)
        assert err128 < err64


# ---------------------------------------------------------------------------
# criterion 6: hysteresis loop vs a 100x-finer-step pure-Python oracle


def _irm_oracle(params, theta, amplitude, period, cycles, dt_fine):
    """Scalar forward-Euler integrator of the 0D magnetization flow."""
    hc = float(con.h_c(theta, params))
    a0, b0, tc_ = params.a0, params.b0, params.theta_c
    tau_c, eps_reg = params.tau_c, params.eps_reg
    n = int(round(cycles * period / dt_fine))
    t_last = (cycles - 1) * period
    m, diss = 0.0, 0.0
    hs, ms = [], []
    for i in range(n):
        t = (i + 1) * dt_fine
        h = amplitude * math.sin(2.0 * math.pi * t / period)
        drive = h - (2.0 * b0 * m**3 + 2.0 * a0 * (theta - tc_) * m)
        ex = abs(drive) - hc
        if ex > 0.0:
            s = (-tau_c + math.sqrt(tau_c * tau_c + 3.0 * eps_reg * ex)) / (3.0 * eps_reg)
            m += dt_fine * math.copysign(s, drive)
            if t > t_last:
                diss += (hc + 3.0 * eps_reg * s * s + 2.0 * tau_c * s) * s * dt_fine
        if t > t_last and i % 100 == 0:
            hs.append(h)
            ms.append(m)
    hs, ms = np.array(hs), np.array(ms)
    area = abs(float(np.sum(0.5 * (hs[1:] + hs[:-1]) * np.diff(ms))))
    crossings = []
    for i in range(len(ms) - 1):
        if ms[i] * ms[i + 1] < 0.0:
            w = ms[i] / (ms[i] - ms[i + 1])
            crossings.append(abs(hs[i] + w * (hs[i + 1] - hs[i])))
    return float(np.mean(crossings)), area, diss


@pytest.fixture(scope="module")
def hysteresis():
    cfg = builtin_config("irm")
    cfg.experiment = None
    cfg.material = con.MaterialParams.from_dict(
        {**cfg.material.to_dict(), "tau_c": 0.01}
    )
    cfg.dt = 5e-3
    loop = irm_loop(1.2, 0.5, cycles=2, config=cfg, period=20.0)
    oracle = _irm_oracle(cfg.material, 1.2, 0.5, 20.0, 2, 5e-5)
    return cfg, loop, oracle


class TestCriterion6Hysteresis:
    def test_coercivity(self, hysteresis):
        cfg, loop, (coer_o, _, _) = hysteresis
        hc = float(con.h_c(1.2, cfg.material))
        assert abs(loop.coercivity - hc) <= 0.05 * hc
        assert abs(coer_o - hc) <= 0.05 * hc
        assert abs(loop.coercivity - coer_o) <= 0.02 * hc

    def test_loop_area_is_dissipation(self, hysteresis):
        _, loop, (_, area_o, diss_o) = hysteresis
        assert abs(loop.area - loop.dissipation) <= 0.03 * loop.area
        assert abs(loop.area - area_o) <= 0.03 * area_o
        assert abs(diss_o - area_o) <= 0.03 * area_o


# ---------------------------------------------------------------------------
# criteria 7-10: audited full runs of all shipped scenarios, three dt levels


DT_LEVELS = (4, 2, 1)  # multipliers of the shipped dt; level 1 is shipped


@pytest.fixture(scope="module")
def shipped_runs():
    runs = {}
    for name in SHIPPED_SCENARIOS:
        runs[name] = {}
        for mult in DT_LEVELS:
            cfg = builtin_config(name)
            cfg.experiment = None
            cfg.output_every = 0
            cfg.dt = cfg.dt * mult
            runs[name][mult] = run_scenario(cfg)
    return runs


class TestShippedSweeps:
    def test_one_sweep_per_step(self, shipped_runs):
        # every shipped step is 0D and theta-controlled with no stress drive,
        # so no block is lagged and each accepted step takes a single sweep
        for name in SHIPPED_SCENARIOS:
            for mult in DT_LEVELS:
                traj = shipped_runs[name][mult]
                sweeps = sum(traj.column("iterations"))
                assert sweeps == traj.n_steps, f"{name} x{mult}: {sweeps} sweeps"


class TestCriterion7EnergyConservation:
    def test_per_step_residual_bound(self, shipped_runs):
        for name in SHIPPED_SCENARIOS:
            traj = shipped_runs[name][1]
            worst = max(abs(r.r_tot_rel) for r in traj.reports)
            assert worst <= 1e-8, f"{name}: |r_tot|/scale = {worst:.3e}"

    def test_cumulative_drift_linear_in_dt(self, shipped_runs):
        for name in SHIPPED_SCENARIOS:
            drift = [sum(abs(r.r_tot) for r in shipped_runs[name][mult].reports)
                     for mult in DT_LEVELS]
            assert drift[0] > drift[1] > drift[2], f"{name}: drift {drift}"
            ratio = drift[0] / drift[2]
            assert 2.0 <= ratio <= 10.0, f"{name}: drift ratio {ratio:.2f}"


class TestCriterion8SecondLaw:
    def test_entropy_margin(self, shipped_runs):
        for name in SHIPPED_SCENARIOS:
            for mult in DT_LEVELS:
                worst = min(r.entropy_margin_rel
                            for r in shipped_runs[name][mult].reports)
                assert worst >= -1e-8, f"{name} x{mult}: margin {worst:.3e}"


class TestCriterion9MechanicalInequality:
    def test_discrete_energy_inequality(self, shipped_runs):
        # the implicit scheme never creates mechanical energy
        for name in ("trm", "melt"):
            for mult in DT_LEVELS:
                for rep in shipped_runs[name][mult].reports:
                    assert rep.r_mech <= 1e-12 * rep.scale, (
                        f"{name} x{mult} at t={rep.t:.4g}: r_mech={rep.r_mech:.3e}"
                    )


class TestCriterion10Positivity:
    def test_theta_and_trace_ep(self, shipped_runs):
        for name in SHIPPED_SCENARIOS:
            for mult in DT_LEVELS:
                traj = shipped_runs[name][mult]
                assert float(np.min(traj.column("theta_min"))) >= 0.0
                assert float(np.max(traj.column("trace_ep_max"))) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 11: TRM end to end (acquire, rotate, erase)


class TestCriterion11TrmEndToEnd:
    def test_full_experiment(self, shipped_runs):
        # phase 1 is the shipped trm run; output_every does not affect integration
        report = trm_experiment(shipped_runs["trm"][1])
        m_sat_final = report["m_sat_final"]
        assert abs(report["m_acquired_norm"] - m_sat_final) <= 0.02 * m_sat_final
        assert abs(report["rotation_deg"] - 90.0) <= 2.0
        # the rotation carries the acquired remanence, not a fresh m0
        m_rot_norm = float(np.linalg.norm(report["m_rotated"]))
        assert abs(m_rot_norm - report["m_acquired_norm"]) <= 0.02 * report["m_acquired_norm"]
        assert report["m_erased_norm"] < 1e-3 * m_sat_final
