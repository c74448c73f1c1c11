"""Implicit stepper: per-block behavior, residual gate, rejection paths."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from paleomag import constitutive as con
from paleomag import kinematics as kin
from paleomag.cli import ENTROPY_TOL, main
from paleomag.demag import solve_demag
from paleomag.errors import CflViolation, ConfigError, NumericalError, ThermodynamicError
from paleomag.grid import FieldState, Loads, make_grid, sample_loads
from paleomag.scenarios import ScenarioConfig, builtin_config, run_scenario
from paleomag.stepper import (
    StepOptions,
    _corot_solve,
    boundary_source,
    step,
)

from conftest import material


def sample(t=0.1, dt=0.1, **loads_kwargs):
    return sample_loads(Loads(**loads_kwargs), t, dt)


def state_0d(grid, params, theta=0.5, m=(0.0, 0.0), Ee=None):
    thermal = con.thermal_law_for(params)
    s = FieldState.zeros(grid)
    s.w[...] = thermal.w_of_theta(theta)
    s.m[...] = np.asarray(m)
    if Ee is not None:
        s.Ee[...] = np.asarray(Ee)
    return s


class TestStepOptions:
    @pytest.mark.parametrize(
        "bad",
        [dict(dt=0.0), dict(dt=0.1, eps=1.0), dict(dt=0.1, eps=-0.1),
         dict(dt=0.1, demag_boundary="bogus")],
        # stable ids: bad3..bad5 were the sweep limits, now module constants
        ids=["bad0", "bad1", "bad2", "bad6"],
    )
    def test_invalid(self, bad):
        with pytest.raises(NumericalError):
            StepOptions(**bad).validate()


class TestBoundarySource:
    def test_integrates_to_boundary_flux(self):
        for grid in (make_grid(0), make_grid(1, (2.0,), (8,)),
                     make_grid(2, (2.0, 1.0), (8, 4))):
            src = boundary_source(3.0, grid)
            assert grid.integrate(src) == pytest.approx(3.0 * grid.boundary_area)


class TestZeroDimensional:
    def test_sticking_is_exact(self, grid0):
        # no loads, strong coercivity: the state is a fixed point bit-for-bit
        p = material(h_c_high=1.0, theta_b=2.0)
        prev = state_0d(grid0, p, theta=0.5, m=(0.1, 0.05))
        loads = sample(theta=lambda t: 0.5)
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=0.1))
        assert rep.accepted
        assert np.array_equal(new.m, prev.m)
        assert np.array_equal(new.Ee, prev.Ee)

    def test_maxwell_single_step_factor(self, grid0):
        # frozen kinematics: implicit Euler gives Ee/(1 + 2 G dt / M) exactly
        p = material(M_solid=1.0, M_magma=1.0)
        Ee0 = np.array([[1e-3, 0.0], [0.0, -1e-3]])
        prev = state_0d(grid0, p, theta=0.5, Ee=Ee0)
        dt = 0.01
        loads = sample(dt=dt, theta=lambda t: 0.5, grad_v=lambda t: np.zeros((2, 2)))
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=dt))
        assert rep.accepted
        lam = 2.0 * p.G_E / 1.0
        np.testing.assert_allclose(new.Ee, Ee0 / (1.0 + lam * dt), rtol=1e-9)
        # trace-free inelastic strain
        assert abs(np.trace(new.Ep)) < 1e-14

    def test_rigid_rotation_closed_form(self, grid0):
        # prescribed spin, sticking m: implicit corotation (I/dt - W) m = m0/dt
        p = material(h_c_high=10.0, theta_b=2.0, M_solid=1e12, M_magma=1e12)
        m0 = np.array([0.6, 0.1])
        prev = state_0d(grid0, p, theta=0.5, m=m0)
        w, dt = 0.5, 0.05
        W = w * np.array([[0.0, -1.0], [1.0, 0.0]])
        loads = sample(dt=dt, theta=lambda t: 0.5, grad_v=lambda t: W)
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=dt))
        assert rep.accepted
        expect = np.linalg.solve(np.eye(2) / dt - W, m0 / dt)
        np.testing.assert_allclose(new.m, expect, rtol=1e-12)
        # implicit corotation contracts the norm by 1/sqrt(1 + (w dt)^2)
        assert np.linalg.norm(new.m) == pytest.approx(
            np.linalg.norm(m0) / np.sqrt(1.0 + (w * dt) ** 2), rel=1e-12
        )

    def test_gravity_free_fall(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5)
        dt = 0.05
        loads = sample_loads(Loads(g=np.array([0.0, -2.0]),
                                   theta=lambda t: 0.5), 0.05, dt)
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=dt))
        assert rep.accepted
        np.testing.assert_allclose(new.v, [0.0, -2.0 * dt], atol=1e-14)

    def test_nonconvergence_returns_prev(self, grid0, monkeypatch):
        p = material(M_solid=1.0, M_magma=1.0)
        prev = state_0d(grid0, p, theta=0.5, Ee=np.diag([1e-3, -1e-3]))
        loads = sample(dt=50.0, grad_v=lambda t: np.zeros((2, 2)))
        monkeypatch.setattr("paleomag.stepper._MAX_SWEEPS", 1)
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=50.0))
        assert not rep.accepted
        assert new is prev
        assert "convergence" in rep.message or "residual" in rep.message

    def test_non_finite_m_iterate_rejects_at_once(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5, m=(np.nan, 0.1))
        with np.errstate(invalid="ignore"):
            new, rep = step(prev, sample(theta=lambda t: 0.5), grid0, p, StepOptions(dt=0.1))
        assert not rep.accepted
        assert new is prev
        assert rep.iterations == rep.m_passes == 1
        assert rep.message == "magnetization block failed (non-finite iterate, change nan)"

    def test_residual_names(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5)
        new, rep = step(prev, sample(theta=lambda t: 0.5), grid0, p, StepOptions(dt=0.1))
        assert set(rep.residuals) == {
            "momentum", "strain", "ep_flow", "m_inclusion", "potential", "enthalpy"
        }
        for res, scale in rep.residuals.values():
            assert res >= 0.0 and scale > 0.0

    def test_controlled_step_starts_at_the_prescribed_temperature(self, grid0):
        # trm cooling above the blocking temperature: m moves, and the first
        # sweep already solves it at theta_k, so the second only confirms
        p = builtin_config("trm").material
        dt = 0.01
        prev = state_0d(grid0, p, theta=0.4, m=(con.equilibrium_m(0.4, 0.01, p), 0.0))
        loads = sample(t=dt, dt=dt, theta=lambda t: 0.4 - 0.01 * t,
                       h_ext=lambda t: np.array([0.01, 0.0]))
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=dt))
        assert rep.accepted
        assert not np.array_equal(new.m, prev.m)
        assert float(new.w) == float(con.thermal_law_for(p).w_of_theta(0.4 - 0.01 * dt))
        assert rep.iterations <= 2
        assert rep.iterations <= rep.m_passes <= 4
        assert rep.krylov_applications == 0

    @staticmethod
    def _trm_cooling_step(grid0, **loads_kwargs):
        # a strained trm cell above the blocking temperature, under a weak field
        p = builtin_config("trm").material
        dt = 0.01
        prev = state_0d(grid0, p, theta=0.4, m=(con.equilibrium_m(0.4, 0.01, p), 0.0),
                        Ee=np.diag([1e-3, -1e-3]))
        loads = sample(t=dt, dt=dt, h_ext=lambda t: np.array([0.01, 0.0]), **loads_kwargs)
        return step(prev, loads, grid0, p, StepOptions(dt=dt))

    @pytest.mark.parametrize("grad_v", [None, np.array([[0.0, 0.3], [0.1, 0.0]])],
                             ids=["undriven", "grad_v"])
    def test_step_without_lagged_block_takes_one_sweep(self, grid0, grad_v):
        # 0D under theta control, no stress drive: the first sweep is the fixed point
        drive = {} if grad_v is None else {"grad_v": lambda t: grad_v}
        _, rep = self._trm_cooling_step(grid0, theta=lambda t: 0.4 - 0.01 * t, **drive)
        assert rep.accepted
        assert rep.iterations == 1

    @pytest.mark.parametrize("loads_kwargs", [
        {"theta": lambda t: 0.4 - 0.01 * t,
         "stress_dev": lambda t: np.array([[0.05, 0.02], [0.02, -0.05]])},
        {},
    ], ids=["stress_driven", "free_enthalpy"])
    def test_step_with_lagged_block_sweeps_again(self, grid0, loads_kwargs):
        # L reads the Ee iterate, or the m block reads the previous sweep's w
        _, rep = self._trm_cooling_step(grid0, **loads_kwargs)
        assert rep.accepted
        assert rep.iterations >= 2

    def test_adiabatic_heating_without_control(self, grid0):
        # free enthalpy: dissipation from stress relaxation heats the cell
        p = material(M_solid=1.0, M_magma=1.0)
        prev = state_0d(grid0, p, theta=0.5, Ee=np.diag([1e-2, -1e-2]))
        loads = sample(dt=0.01, grad_v=lambda t: np.zeros((2, 2)))
        new, rep = step(prev, loads, grid0, p, StepOptions(dt=0.01))
        assert rep.accepted
        assert float(new.w) > float(prev.w)


def _packed_corot_reference(B, w, a, lam):
    """E solving a E - W E + E W + lam dev E = B by LAPACK on the packed 3x3 system.

    Column j of the system is the operator applied to the j-th basis
    tensor of (E11, E22, E12), packed the same way.
    """
    W = np.zeros(np.shape(w) + (2, 2))
    W[..., 0, 1] = -w
    W[..., 1, 0] = w
    lam = np.asarray(lam)[..., None, None]

    def pack(T):
        return np.stack([T[..., 0, 0], T[..., 1, 1], T[..., 0, 1]], axis=-1)

    cols = []
    for basis in ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
        T = np.broadcast_to(np.array(basis), W.shape)
        cols.append(pack(a * T - W @ T + T @ W + lam * kin.dev(T)))
    e = np.linalg.solve(np.stack(cols, axis=-1), pack(B)[..., None])[..., 0]
    return np.stack([np.stack([e[..., 0], e[..., 2]], -1), np.stack([e[..., 2], e[..., 1]], -1)], -2)


class TestCorotSolve:
    @pytest.mark.parametrize("shape", [(), (5, 7)])
    @pytest.mark.parametrize("a", [1.0, 200.0])
    def test_matches_packed_solve(self, rng, shape, a):
        for _ in range(20):
            B = kin.sym(rng.standard_normal(shape + (2, 2)))
            w = rng.standard_normal(shape) * rng.choice([0.0, 1.0, 50.0])
            # lam up to 2a keeps the packed reference well conditioned
            lam = rng.uniform(0.0, 2.0 * a, shape) * rng.choice([0.0, 1.0])
            want = _packed_corot_reference(B, w, a, lam)
            got = _corot_solve(B, w, a, lam)
            assert got.shape == shape + (2, 2)
            assert np.all(got == np.swapaxes(got, -1, -2))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_without_relaxation_term(self, rng):
        B = kin.sym(rng.standard_normal((5, 7, 2, 2)))
        w = rng.standard_normal((5, 7))
        want = _packed_corot_reference(B, w, 3.0, 0.0)
        assert np.max(np.abs(_corot_solve(B, w, 3.0) - want)) <= 1e-14 * np.max(np.abs(want))


class TestSpatial:
    def test_cfl_violation_raises(self):
        grid = make_grid(1, (1.0,), (16,))
        p = material()
        prev = FieldState.zeros(grid)
        prev.w[...] = con.thermal_law_for(p).w_of_theta(0.5)
        prev.v[..., 0] = 5.0
        loads = sample(dt=0.1, theta=lambda t: 0.5)
        with pytest.raises(CflViolation):
            step(prev, loads, grid, p, StepOptions(dt=0.1, demag=False))

    def test_cfl_violation_with_prescribed_grad_v(self):
        # the velocity is not solved and no heat solve runs, yet the CFL
        # bound still holds: |v| dt / h = 5 * 0.1 / 0.125 = 4 > cfl_max
        grid = make_grid(2, (1.0, 1.0), (8, 8))
        p = material()
        prev = FieldState.zeros(grid)
        prev.w[...] = con.thermal_law_for(p).w_of_theta(0.5)
        prev.v[..., 0] = 5.0
        loads = sample(dt=0.1, theta=lambda t: 0.5, grad_v=lambda t: np.zeros((2, 2)))
        with pytest.raises(CflViolation):
            step(prev, loads, grid, p, StepOptions(dt=0.1, demag=False))

    def test_2d_free_step_accepted(self):
        grid = make_grid(2, (1.0, 1.0), (8, 8))
        p = material()
        thermal = con.thermal_law_for(p)
        prev = FieldState.zeros(grid)
        x, y = grid.cell_centers()
        prev.w[...] = thermal.w_of_theta(0.6 + 0.05 * np.sin(2 * np.pi * x)[:, None])
        prev.m[..., 0] = 0.2
        new, rep = step(prev, sample(dt=0.01), grid, p,
                        StepOptions(dt=0.01, demag=True))
        assert rep.accepted
        assert new.t == pytest.approx(0.01)
        new.validate(grid)


def _spatial_config(**overrides):
    """8x8, demag on, gravity, field, exchange: every spatial coupling active."""
    base = dict(
        name="spatial", dim=2, extents=(1.0, 1.0), cells=(8, 8),
        material=material(kappa=0.001), duration=3 * 0.005, dt=0.005,
        demag=True, output_every=0, theta0=0.5, g=(0.0, -0.1),
        h_ext_schedule={"kind": "const", "value": [0.3, 0.0]},
    )
    base.update(overrides)
    cfg = ScenarioConfig(**base)
    cfg.validate()
    grid = cfg.build_grid()
    state = cfg.initial_state(grid, con.thermal_law_for(cfg.material))
    x, y = grid.cell_centers()
    state.m[..., 0] = 0.5 + 0.1 * np.cos(np.pi * x)[:, None]
    state.m[..., 1] = 0.2 + 0.1 * np.cos(np.pi * y)[None, :]
    # u solved at t = 0, so step 1 does not book the demag energy as a jump
    state.u[...] = solve_demag(state.m, grid, cfg.material.mu0, cfg.demag_boundary).u
    return cfg, state


class TestSpatialAudit:
    def test_exchange_gravity_demag_balances(self):
        cfg, state = _spatial_config()
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_steps == 3 and traj.n_rejections == 0
        for rep in traj.reports:
            assert rep.r_mech_rel <= 1e-12
            assert rep.entropy_margin_rel >= ENTROPY_TOL
        assert float(np.min(traj.final_state.w)) >= 0.0


    def test_step_counts_krylov_applications(self):
        cfg, state = _spatial_config()
        grid = cfg.build_grid()
        new, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), grid,
                        cfg.material, cfg.step_options(cfg.dt))
        assert rep.accepted
        # momentum and heat are solved in every sweep
        assert rep.krylov_applications >= 2 * rep.iterations > 0
        assert rep.m_passes >= rep.iterations


class TestInitialPotential:
    def test_config_built_run_balances_from_step_one(self):
        # the config's initial state carries u solved for its m0
        cfg, _ = _spatial_config(m0=(0.5, 0.2))
        traj = run_scenario(cfg)
        assert traj.n_steps == 3 and traj.n_rejections == 0
        for rep in traj.reports:
            assert rep.r_mech_rel <= 1e-12

    def test_mismatched_u_is_rejected(self):
        cfg, state = _spatial_config()
        state.u[...] = 0.0
        with pytest.raises(ConfigError, match="initial u does not match"):
            run_scenario(cfg, initial_state=state)


class TestKrylovFailure:
    def test_failed_solve_rejects_the_step(self, monkeypatch):
        # a bicgstab breakdown halves dt instead of aborting the run
        real = spla.bicgstab
        calls = []

        def fail_once(A, b, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return np.zeros_like(b), 1
            return real(A, b, *args, **kwargs)

        monkeypatch.setattr(spla, "bicgstab", fail_once)
        cfg, state = _spatial_config(duration=0.005)
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections >= 1
        assert traj.final_state.t == pytest.approx(0.005)

    def test_overflowing_sweep_first_rejection_names_the_m_block(self):
        # the exchange term, held at the iterate, makes the m passes diverge
        # at this dt: the step ends in the m block, before the heat solve
        cfg, state = _spatial_config(material=material(kappa=0.05), theta0=1.0)
        state.m[...] = (0.5, 0.2)
        grid = cfg.build_grid()
        state.u[...] = solve_demag(state.m, grid, cfg.material.mu0).u
        loads = sample_loads(cfg.build_loads(), cfg.dt, cfg.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            new, rep = step(state, loads, grid, cfg.material, cfg.step_options(cfg.dt))
        assert not rep.accepted
        assert new is state
        assert rep.iterations == 1
        assert rep.message.startswith("magnetization block")
        assert "change" in rep.message

    def test_overflowing_sweep_is_rejected(self):
        # strong exchange at this dt overflows the m inner loop; the heat
        # bicgstab then fails, and the step is retried at half dt
        cfg, state = _spatial_config(material=material(kappa=0.05), theta0=1.0)
        state.m[...] = (0.5, 0.2)
        state.u[...] = solve_demag(state.m, cfg.build_grid(), cfg.material.mu0).u
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections >= 1
        assert traj.final_state.t == pytest.approx(cfg.duration)


def _cold_config():
    """0D, free enthalpy, c_v = 1e-12, above the Curie temperature.

    m collapses slowly (large tau_c, no coercivity), and its magnetocaloric
    cooling outweighs its dissipation.  w and every change of the first
    sweep are below the sweep tolerance, so that sweep converges, with a
    negative w.
    """
    return ScenarioConfig(
        name="cold", dim=0, duration=0.1, dt=0.1, output_every=0,
        material=material(c_v=1e-12, tau_c=1e10, eps_reg=0.0, h_c_high=0.0),
        theta0=2.0, m0=(0.5, 0.0),
    )


class TestNegativeEnthalpy:
    def test_step_raises(self):
        cfg = _cold_config()
        grid = cfg.build_grid()
        prev = cfg.initial_state(grid, con.thermal_law_for(cfg.material))
        loads = sample_loads(cfg.build_loads(), cfg.dt, cfg.dt)
        with pytest.raises(ThermodynamicError, match="enthalpy became negative"):
            step(prev, loads, grid, cfg.material, cfg.step_options(cfg.dt))

    def test_run_exits_3(self, tmp_path):
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(_cold_config().to_dict()))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["accepted"] is False
        assert "enthalpy became negative" in manifest["failure"]
