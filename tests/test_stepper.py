"""Implicit stepper: per-block behavior, residual gate, rejection paths."""

import json
import re

import numpy as np
import pytest

from paleomag import constitutive as con
from paleomag import demag, energetics, scenarios, stepper
from paleomag import kinematics as kin
from paleomag.cli import ENTROPY_TOL, main
from paleomag.demag import solve_demag
from paleomag.errors import ConfigError, NumericalError, ScenarioError, ThermodynamicError
from paleomag.grid import FieldState, Loads, make_grid, sample_loads
from paleomag.scenarios import ScenarioConfig, builtin_config, run_scenario
from paleomag.stepper import (
    _corot_solve,
    boundary_source,
    residuals,
    step,
    step_terms,
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
        "dt",
        [0.0, float("nan")],
        # stable ids: bad1 and bad2 were eps, now a retired config key;
        # bad3..bad5 were the sweep limits, now module constants; bad6 was
        # the demag boundary, which ScenarioConfig checks
        ids=["bad0", "bad6"],
    )
    def test_invalid(self, grid0, dt):
        prev = state_0d(grid0, material())
        with pytest.raises(NumericalError, match="dt must be positive"):
            step(prev, sample(theta=lambda t: 0.5), dt, grid0, material())

    def test_unknown_demag_boundary_names_the_choices(self):
        with pytest.raises(ConfigError, match="must be 'farfield', got 'bogus'"):
            ScenarioConfig(demag_boundary="bogus").validate()


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
        new, rep = step(prev, loads, 0.1, grid0, p)
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
        new, rep = step(prev, loads, dt, grid0, p)
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
        new, rep = step(prev, loads, dt, grid0, p)
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
        new, rep = step(prev, loads, dt, grid0, p)
        assert rep.accepted
        np.testing.assert_allclose(new.v, [0.0, -2.0 * dt], atol=1e-14)

    def test_nonconvergence_returns_prev(self, grid0, monkeypatch):
        p = material(M_solid=1.0, M_magma=1.0)
        prev = state_0d(grid0, p, theta=0.5, Ee=np.diag([1e-3, -1e-3]))
        loads = sample(dt=50.0, grad_v=lambda t: np.zeros((2, 2)))
        monkeypatch.setattr("paleomag.stepper._MAX_SWEEPS", 1)
        new, rep = step(prev, loads, 50.0, grid0, p)
        assert not rep.accepted
        assert new is prev
        assert "convergence" in rep.message or "residual" in rep.message

    def test_non_finite_m_iterate_rejects_at_once(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5, m=(np.nan, 0.1))
        with np.errstate(invalid="ignore"):
            new, rep = step(prev, sample(theta=lambda t: 0.5), 0.1, grid0, p)
        assert not rep.accepted
        assert new is prev
        assert rep.iterations == rep.m_passes == 1
        assert rep.message == "magnetization block failed (non-finite iterate, change nan)"

    def test_residual_names(self, grid0):
        p = material()
        prev = state_0d(grid0, p, theta=0.5)
        new, rep = step(prev, sample(theta=lambda t: 0.5), 0.1, grid0, p)
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
        new, rep = step(prev, loads, dt, grid0, p)
        assert rep.accepted
        assert not np.array_equal(new.m, prev.m)
        assert float(new.w) == float(con.thermal_law_for(p).w_of_theta(0.4 - 0.01 * dt))
        assert rep.iterations <= 2
        assert rep.iterations <= rep.m_passes <= 4

    @staticmethod
    def _trm_cooling_step(grid0, **loads_kwargs):
        # a strained trm cell above the blocking temperature, under a weak field
        p = builtin_config("trm").material
        dt = 0.01
        prev = state_0d(grid0, p, theta=0.4, m=(con.equilibrium_m(0.4, 0.01, p), 0.0),
                        Ee=np.diag([1e-3, -1e-3]))
        loads = sample(t=dt, dt=dt, h_ext=lambda t: np.array([0.01, 0.0]), **loads_kwargs)
        return step(prev, loads, dt, grid0, p)

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
        new, rep = step(prev, loads, 0.01, grid0, p)
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


def _matrix_newton_update(m, h_eff, r, theta, A_m, b, p):
    """The m block's Newton update from the 2x2 matrices: J = A_m - Dr @ Dh, rhs b - Dr Dh m."""
    DrDh = con.zeta_resolvent_jacobian(h_eff, r, p) @ con.h_anisotropy_jacobian(m, theta, p)
    J, rhs = A_m - DrDh, b - kin.matvec(DrDh, m)
    return stepper._solve_2x2(J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1],
                              rhs[..., 0], rhs[..., 1])


class TestNewtonKernel:
    P = material(h_c_high=0.2, theta_b=2.0, eps_reg=1e-3)
    TAU = 0.005

    def _update(self, m, h_eff, theta, spin):
        # the update of one pass and of the matrix form, at the pass's inputs
        r = con.zeta_resolvent(con.h_c(0.5, self.P), h_eff, self.P)
        W = np.zeros(np.shape(spin) + (2, 2))
        W[..., 0, 1], W[..., 1, 0] = -spin, spin
        A_m = np.eye(2) / self.TAU - W
        planes = tuple(A_m[..., i, j].copy() for i, j in np.ndindex(2, 2))
        b = m / self.TAU - 0.01 * m[..., ::-1] + r
        got = stepper._m_newton_update(m, h_eff, r, theta, planes, b, self.P)
        return got, _matrix_newton_update(m, h_eff, r, theta, A_m, b, self.P)

    @pytest.mark.parametrize("shape", [(32, 32), (7, 5)])
    @pytest.mark.parametrize("spin_scale", [0.0, 30.0])
    def test_matches_the_matrix_form(self, rng, shape, spin_scale):
        m = rng.uniform(-0.8, 0.8, shape + (2,))
        h_eff = rng.standard_normal(shape + (2,)) * rng.choice([0.05, 1.0], shape)[..., None]
        theta = rng.uniform(0.3, 1.3, shape)
        got, want = self._update(m, h_eff, theta, spin_scale * rng.standard_normal(shape))
        assert got.shape == shape + (2,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("spin", [0.0, -12.5])
    def test_material_point_keeps_the_bits(self, spin):
        # m and h_eff on an axis, as in the shipped 0D runs: each entry of
        # Dr @ Dh has one nonzero term, which gemm rounds once as the planes
        # do, so the update has the matrix form's bits
        for m, h_eff in (([0.4, 0.0], [0.7, 0.0]), ([0.0, -0.3], [0.0, 0.05]),
                         ([-0.2, 0.0], [-0.5, -0.0])):
            got, want = self._update(np.array(m), np.array(h_eff), np.float64(0.8), spin)
            assert got.shape == (2,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_material_point_off_axis(self, rng):
        # off an axis gemm's fused multiply-adds round differently, within 1e-14
        for _ in range(50):
            m, h_eff = rng.uniform(-0.8, 0.8, 2), rng.standard_normal(2)
            got, want = self._update(m, h_eff, np.float64(0.8), rng.standard_normal() * 20.0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestSpatial:
    def test_cfl_violation_rejects_the_step(self):
        # the momentum block's solved velocity breaks the bound in the first
        # sweep: the step is rejected there, like a failed solve, and says why
        grid = make_grid(1, (1.0,), (16,))
        p = material()
        prev = FieldState.zeros(grid)
        prev.w[...] = con.thermal_law_for(p).w_of_theta(0.5)
        prev.v[..., 0] = 5.0
        loads = sample(dt=0.1, theta=lambda t: 0.5)
        new, rep = step(prev, loads, 0.1, grid, p, demag=False)
        assert not rep.accepted
        assert new is prev
        assert re.fullmatch(r"CFL violation: axis 0: \|v\| dt/h = \d+\.\d{3} exceeds 0\.9 "
                            r"\(sweep 1\)", rep.message)
        assert (rep.iterations, rep.lu_solves) == (1, 1)

    def test_cfl_violation_with_prescribed_grad_v(self):
        # the velocity is not solved and no heat solve runs, yet the CFL
        # bound still holds: |v| dt / h = 5 * 0.1 / 0.125 = 4 > cfl_max
        grid = make_grid(2, (1.0, 1.0), (8, 8))
        p = material()
        prev = FieldState.zeros(grid)
        prev.w[...] = con.thermal_law_for(p).w_of_theta(0.5)
        prev.v[..., 0] = 5.0
        loads = sample(dt=0.1, theta=lambda t: 0.5, grad_v=lambda t: np.zeros((2, 2)))
        new, rep = step(prev, loads, 0.1, grid, p, demag=False)
        assert not rep.accepted
        assert new is prev
        assert rep.message == "CFL violation: axis 0: |v| dt/h = 4.000 exceeds 0.9 (sweep 1)"
        assert rep.lu_solves == 0

    def test_cfl_rejection_counts_the_attempt(self, monkeypatch):
        # the first attempt breaks CFL after its momentum solve; the run
        # halves dt, and the rejected attempt's work is counted with the rest
        reports = []

        def spy_step(*args):
            new, rep = step(*args)
            reports.append(rep)
            return new, rep

        monkeypatch.setattr(scenarios, "step", spy_step)
        cfg = ScenarioConfig(
            name="cfl", dim=1, extents=(1.0,), cells=(16,), material=material(),
            duration=0.1, dt=0.1, output_every=0, v0=(1.0, 0.0),
            theta_schedule={"kind": "const", "value": 0.5},
        )
        traj = run_scenario(cfg)
        first = reports[0]
        assert not first.accepted and first.message.startswith("CFL violation: axis 0")
        assert first.lu_solves > 0
        assert traj.n_rejections == sum(not r.accepted for r in reports) >= 1
        assert traj.sweeps == sum(r.iterations for r in reports)
        assert traj.m_passes == sum(r.m_passes for r in reports)
        assert traj.lu_solves == sum(r.lu_solves for r in reports)

    def test_cfl_rejection_below_dt_min_names_the_axis(self):
        # |v| dt / h = 1e9 * 1e-9 * 16 = 16 even at the smallest dt: the run
        # ends, and says why
        cfg = ScenarioConfig(
            name="cfl", dim=1, extents=(1.0,), cells=(16,), material=material(),
            duration=0.1, dt=0.1, output_every=0, v0=(1e9, 0.0),
            grad_v_schedule={"kind": "zero"}, theta_schedule={"kind": "const", "value": 0.5},
        )
        with pytest.raises(ScenarioError, match=r"CFL violation: axis 0: .* exceeds 0\.9"):
            run_scenario(cfg)

    def test_2d_free_step_accepted(self):
        grid = make_grid(2, (1.0, 1.0), (8, 8))
        p = material()
        thermal = con.thermal_law_for(p)
        prev = FieldState.zeros(grid)
        x, y = grid.cell_centers()
        prev.w[...] = thermal.w_of_theta(0.6 + 0.05 * np.sin(2 * np.pi * x)[:, None])
        prev.m[..., 0] = 0.2
        new, rep = step(prev, sample(dt=0.01), 0.01, grid, p, demag=True)
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
    def test_sweep_builds_no_demag_checks(self, monkeypatch):
        # each sweep solves demag once and forms no Poisson residual; the
        # residual gate forms it once, for the accepted iterate, without a solve
        cfg, state = _spatial_config()
        solves, checks, reads = [], [], []
        solve, check = stepper.solve_demag, stepper.poisson_residual
        monkeypatch.setattr(stepper, "solve_demag", lambda *a: solves.append(a) or solve(*a))
        monkeypatch.setattr(stepper, "poisson_residual", lambda *a: checks.append(a) or check(*a))
        monkeypatch.setattr(demag, "poisson_residual", lambda *a: reads.append(a) or check(*a))
        grid = cfg.build_grid()
        new, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), cfg.dt, grid,
                        cfg.material, cfg.demag)
        assert rep.accepted
        assert len(solves) == rep.iterations and reads == []
        assert len(checks) == 1 and checks[0][0] is new.u

    def test_exchange_gravity_demag_balances(self):
        cfg, state = _spatial_config()
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_steps == 3 and traj.n_rejections == 0
        for rep in traj.reports:
            assert rep.r_mech_rel <= 1e-12
            assert rep.entropy_margin_rel >= ENTROPY_TOL
        assert float(np.min(traj.final_state.w)) >= 0.0

    def test_inelastic_rate_gradient_converges(self):
        # varkappa lap R couples the strain block to the R iterate, which the
        # sweep must carry; no energy bound here, r_tot_rel is the 2D term T
        cfg, state = _spatial_config(material=material(kappa=0.001, varkappa=0.01))
        grid = cfg.build_grid()
        loads = cfg.build_loads()
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            for name, (res, scale) in rep.residuals.items():
                assert stepper._within_tolerance(res, scale), name

    def test_step_counts_lu_solves(self):
        cfg, state = _spatial_config()
        grid = cfg.build_grid()
        new, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), cfg.dt, grid,
                        cfg.material, cfg.demag)
        assert rep.accepted
        # momentum and heat are solved in every sweep, each by one transform solve
        assert rep.lu_solves == 2 * rep.iterations > 0
        assert rep.m_passes >= rep.iterations


def _dike_config(cells=(16, 16)):
    """A hot stripe in a noisily magnetized host, demag on (perfbench's dike_2d)."""
    cfg = ScenarioConfig(
        name="dike", dim=2, extents=(1.0, 1.0), cells=cells, material=material(),
        duration=3 * 0.005, dt=0.005, demag=True, output_every=0, theta0=0.5,
        h_ext_schedule={"kind": "const", "value": [0.3, 0.0]},
    )
    cfg.validate()
    grid = cfg.build_grid()
    thermal = con.thermal_law_for(cfg.material)
    state = cfg.initial_state(grid, thermal)
    stripe = np.broadcast_to(np.abs(grid.cell_centers()[0][:, None] - 0.5) < 0.15, cells)
    state.w[...] = np.where(stripe, thermal.w_of_theta(1.2), thermal.w_of_theta(0.5))
    noise = np.random.default_rng(1).uniform(-0.02, 0.02, cells + (2,))
    state.m[...] = np.where(stripe[..., None], 0.0, np.array([0.5, 0.2]) + noise)
    state.u[...] = solve_demag(state.m, grid).u
    return cfg, state


class TestDemagDefect:
    @pytest.mark.parametrize("case", [_spatial_config, _dike_config], ids=["8x8", "dike16"])
    def test_static_demag_defect_vanishes(self, case):
        # A = dE + E(dm) - mu0 int grad u_new . dm, the demag part of the
        # first-law remainder, is zero for a symmetric m -> h_dem map
        cfg, state = case()
        grid, loads, mu0 = cfg.build_grid(), cfg.build_loads(), cfg.material.mu0
        for _ in range(3):
            loads_k = sample_loads(loads, state.t + cfg.dt, cfg.dt)
            new, rep = step(state, loads_k, cfg.dt, grid, cfg.material, cfg.demag)
            assert rep.accepted
            audit = energetics.audit_step(state, new, loads_k, cfg.dt, grid, cfg.material,
                                          terms=rep.terms)
            dm = new.m - state.m
            A = (
                audit.ledger_new.demag - audit.ledger_prev.demag
                + energetics.demag_energy(dm, solve_demag(dm, grid).u, grid, mu0)
                + mu0 * grid.integrate(np.sum(demag.h_dem_from_u(new.u, grid) * dm, axis=-1))
            )
            assert abs(A) <= 1e-14 * audit.scale
            state = new


class TestExchangeDefect:
    @pytest.mark.parametrize("cells", [(8, 8), (16, 16)], ids=["8x8", "16x16"])
    def test_exchange_pairing_defect_vanishes(self, cells):
        # X = dE + kappa mu0 int lap m_new . dm + (kappa mu0/2) int density(dm),
        # the exchange part of the first-law remainder: the ledger's exchange
        # entry changes by the work of the m block's field and its exact
        # quadratic defect
        cfg, state = _spatial_config(cells=cells)
        grid, loads, params = cfg.build_grid(), cfg.build_loads(), cfg.material
        k = params.kappa * params.mu0
        for _ in range(3):
            loads_k = sample_loads(loads, state.t + cfg.dt, cfg.dt)
            new, rep = step(state, loads_k, cfg.dt, grid, params, cfg.demag)
            assert rep.accepted, rep.message
            audit = energetics.audit_step(state, new, loads_k, cfg.dt, grid, params,
                                          terms=rep.terms)
            dm = new.m - state.m
            X = (
                energetics.exchange_energy(new.m, grid, params)
                - energetics.exchange_energy(state.m, grid, params)
                + k * grid.integrate(kin.sum_vector(kin.laplacian(new.m, grid) * dm))
                + 0.5 * k * grid.integrate(kin.dirichlet_density(dm, grid))
            )
            assert abs(X) <= 1e-13 * audit.scale
            state = new


class TestEarlyStop:
    @pytest.mark.parametrize("case", [_spatial_config, _dike_config], ids=["8x8", "dike16"])
    def test_stopped_step_is_within_its_gate(self, case):
        # each step stops on its estimated error, before a sweep changes no
        # block by more than the tolerance, and only where the gate holds
        cfg, state = case()
        grid, loads = cfg.build_grid(), cfg.build_loads()
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            assert rep.change >= stepper._TOL_REL
            for name, (res, scale) in rep.residuals.items():
                assert stepper._within_tolerance(res, scale), name

    def test_dike_sweeps_and_newton_passes(self):
        cfg, state = _dike_config((32, 32))
        grid, loads = cfg.build_grid(), cfg.build_loads()
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            assert rep.iterations <= 7 and rep.m_passes <= 18

    def test_dike_work_per_sweep(self):
        # each sweep makes one momentum and one heat transform solve; the
        # sweep and Newton-pass totals are pinned, with every residual in its
        # gate
        cfg, state = _dike_config()
        grid, loads = cfg.build_grid(), cfg.build_loads()
        sweeps = passes = 0
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            assert rep.lu_solves == 2 * rep.iterations
            for name, (res, scale) in rep.residuals.items():
                assert stepper._within_tolerance(res, scale), name
            sweeps += rep.iterations
            passes += rep.m_passes
        assert (sweeps, passes) == (21, 24)

    def test_failed_gate_sweeps_on(self, monkeypatch):
        # where the estimate passes but the gate fails, the sweep goes on
        # from the iterate it checked, unchanged, to the change test's stop
        cfg, state = _spatial_config()
        grid, params = cfg.build_grid(), cfg.material
        loads_k = sample_loads(cfg.build_loads(), cfg.dt, cfg.dt)
        early, rep_early = step(state, loads_k, cfg.dt, grid, params, cfg.demag)
        assert rep_early.change >= stepper._TOL_REL
        fields = ("v", "Ee", "Ep", "m", "u", "w")
        checked = []
        real = stepper.residuals

        def fail_first(prev, trial, *args):
            res = real(prev, trial, *args)
            checked.append((trial, {name: getattr(trial, name).copy() for name in fields}))
            if len(checked) == 1:
                res["m_inclusion"] = (1.0, res["m_inclusion"][1])
            return res

        monkeypatch.setattr(stepper, "residuals", fail_first)
        new, rep = step(state, loads_k, cfg.dt, grid, params, cfg.demag)
        assert rep.accepted, rep.message
        assert len(checked) == 2 and checked[1][0] is new
        assert rep.iterations == rep_early.iterations + 1
        assert rep.change < stepper._TOL_REL
        trial, at_check = checked[0]
        for name in fields:
            assert np.array_equal(getattr(trial, name), getattr(early, name)), name
            assert np.array_equal(getattr(trial, name), at_check[name]), name


def _passes_per_sweep(monkeypatch):
    """Record the m block's Newton passes of each sweep; demag closes a sweep."""
    events = []
    solve_2x2, solve = stepper._solve_2x2, stepper.solve_demag
    monkeypatch.setattr(stepper, "_solve_2x2", lambda *a: events.append("p") or solve_2x2(*a))
    monkeypatch.setattr(stepper, "solve_demag", lambda *a: events.append("|") or solve(*a))

    def take():
        sweeps = [len(run) for run in "".join(events).split("|")[:-1]]
        events.clear()
        return sweeps

    return take


class TestInexactNewton:
    @pytest.mark.parametrize("case", [_spatial_config, _dike_config], ids=["8x8", "dike16"])
    def test_later_sweeps_take_one_pass(self, case, monkeypatch):
        # from the second sweep on the m block stops at a tenth of the last
        # sweep's change, which one Newton pass reaches; the gate still holds
        take = _passes_per_sweep(monkeypatch)
        cfg, state = case()
        grid, loads = cfg.build_grid(), cfg.build_loads()
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            passes = take()
            assert len(passes) == rep.iterations >= 2 and sum(passes) == rep.m_passes
            assert passes[0] > 1 and passes[1:] == [1] * (rep.iterations - 1)
            for name, (res, scale) in rep.residuals.items():
                assert stepper._within_tolerance(res, scale), name

    def test_dike_newton_passes(self):
        cfg, state = _dike_config((32, 32))
        grid, loads = cfg.build_grid(), cfg.build_loads()
        for _ in range(3):
            state, rep = step(state, sample_loads(loads, state.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
            assert rep.accepted, rep.message
            assert rep.iterations <= 7 and rep.m_passes <= 10

    def test_dike_first_sweep_is_inexact(self, monkeypatch):
        # the first sweep's m block stops at a tenth of the change that the
        # sweep's v, Ee, R and Ep have made, so it takes two passes, not four
        take = _passes_per_sweep(monkeypatch)
        cfg, state = _dike_config((32, 32))
        _, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), cfg.dt,
                      cfg.build_grid(), cfg.material, cfg.demag)
        assert rep.accepted, rep.message
        assert take() == [2, 1, 1, 1, 1, 1, 1]
        for name, (res, scale) in rep.residuals.items():
            assert stepper._within_tolerance(res, scale), name

    def test_stress_driven_material_point_solves_m_inexactly(self, grid0, monkeypatch):
        # a 0D step under a stress drive sweeps, so its first m block has a
        # forcing term too; it takes fewer passes than the tight solve and
        # ends at the same state
        drive = {"theta": lambda t: 0.4 - 0.01 * t,
                 "stress_dev": lambda t: np.array([[0.05, 0.02], [0.02, -0.05]])}
        inexact, rep = TestZeroDimensional._trm_cooling_step(grid0, **drive)
        monkeypatch.setattr(stepper, "_ETA_M", 0.0)
        tight, rep_tight = TestZeroDimensional._trm_cooling_step(grid0, **drive)
        assert rep.accepted and rep_tight.accepted
        assert rep.iterations >= 2
        assert rep.m_passes < rep_tight.m_passes
        for name in ("v", "Ee", "Ep", "m", "u", "w"):
            a, b = getattr(inexact, name), getattr(tight, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b))), name

    def test_zero_forcing_is_the_tight_solve(self, monkeypatch):
        # with the forcing term at 0 every sweep solves m to tol_m; the two
        # runs end within the sweep's tolerance of each other
        cfg, state = _dike_config()
        grid, loads = cfg.build_grid(), cfg.build_loads()
        finals, passes = [], []
        for eta in (stepper._ETA_M, 0.0):
            monkeypatch.setattr(stepper, "_ETA_M", eta)
            s, n = state, 0
            for _ in range(3):
                s, rep = step(s, sample_loads(loads, s.t + cfg.dt, cfg.dt), cfg.dt,
                              grid, cfg.material, cfg.demag)
                assert rep.accepted, rep.message
                n += rep.m_passes
            finals.append(s)
            passes.append(n)
        assert passes[0] < passes[1]
        inexact, tight = finals
        for name in ("v", "Ee", "Ep", "m", "u", "w"):
            a, b = getattr(inexact, name), getattr(tight, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b))), name

    def test_one_pass_step_is_unchanged(self, grid0, monkeypatch):
        # a trm 0D step under temperature control takes one sweep, which has
        # no last change: it solves m as tightly as with no forcing term
        def cooling_step():
            return TestZeroDimensional._trm_cooling_step(grid0, theta=lambda t: 0.4 - 0.01 * t)

        new, rep = cooling_step()
        monkeypatch.setattr(stepper, "_ETA_M", 0.0)
        tight, rep_tight = cooling_step()
        assert rep.accepted and rep.iterations == 1
        assert rep.m_passes == rep_tight.m_passes
        assert np.array_equal(new.m, tight.m)


def _terms_case(name):
    """A short run whose steps exercise the record: theta control, drive, space."""
    if name == "spatial":
        return _spatial_config()
    if name == "trm":
        cfg = builtin_config("trm")
        cfg.experiment, cfg.output_every, cfg.duration = None, 0, 20 * cfg.dt
        return cfg, None
    cfg = ScenarioConfig(
        name="free", material=material(M_solid=1.0, M_magma=1.0), duration=0.2, dt=0.01,
        output_every=0, theta0=0.5, m0=(0.3, 0.1),
        stress_dev_schedule={"kind": "const", "value": [[0.05, 0.02], [0.02, -0.05]]},
        j_ext_schedule={"kind": "const", "value": 0.1},
        h_ext_schedule={"kind": "sine", "amplitude": 0.3, "period": 0.3},
    )
    cfg.validate()
    return cfg, None


class TestStepTerms:
    @pytest.mark.parametrize("name", ["trm", "free_enthalpy_driven", "spatial"])
    def test_carried_record_is_the_rebuilt_one(self, name, monkeypatch):
        # run_scenario hands each audit the record its step built; the audit
        # and the residual check must read the same from a rebuilt record
        cfg, state = _terms_case(name)
        steps, audits = [], []

        def spy_step(*args):
            new, rep = step(*args)
            steps.append((args, new, rep))
            return new, rep

        def spy_audit(*args, **kwargs):
            audits.append((args, kwargs))
            return energetics.audit_step(*args, **kwargs)

        monkeypatch.setattr(scenarios, "step", spy_step)
        monkeypatch.setattr(scenarios, "audit_step", spy_audit)
        traj = run_scenario(cfg, initial_state=state)
        accepted = [s for s in steps if s[2].accepted]
        assert len(accepted) == len(audits) == traj.n_steps > 0
        for ((prev, loads_k, dt, grid, params, demag), new, rep), (args, kwargs) in zip(
            accepted, audits
        ):
            assert kwargs["terms"] is rep.terms is not None
            # args[:6] leaves out the carried ledger too: everything is rebuilt
            assert len(args) == 7
            assert energetics.audit_step(*args, **kwargs) == energetics.audit_step(*args[:6])
            terms = step_terms(prev, new, loads_k, dt, grid, params)
            assert residuals(prev, new, loads_k, dt, grid, params, demag, terms) == rep.residuals


class TestHyperstressPairing:
    @pytest.mark.parametrize("cells", [(16, 16), (7, 5)])
    def test_force_pairs_with_the_dissipation(self, rng, cells):
        # int v . div div H = int H : grad E(v) = nu2 int |grad E(v)|^p, the
        # hyperstress term of xi: the inner divergence is the adjoint of
        # grad_tensor, the outer one of the velocity gradient
        grid = make_grid(2, (1.0, 0.8), cells)
        p = material(nu2=0.3)
        for _ in range(3):
            v = rng.normal(size=cells + (2,))
            Ev = kin.sym(kin.grad_vector(v, grid, kind="velocity"))
            GE = kin.grad_tensor(Ev, grid)
            dissipation = grid.integrate(p.nu2 * kin.sum_rank3(GE * GE) ** (p.p / 2.0))
            work = grid.integrate(kin.sum_vector(v * stepper._hyperstress_force(Ev, grid, p)))
            assert abs(work - dissipation) <= 1e-13 * dissipation


class TestWorkPerStep:
    @pytest.mark.parametrize("name, law", [("trm", "h_c"), ("melt", "h_anisotropy")])
    def test_lagged_laws_and_h_eff_are_evaluated_once(self, name, law, monkeypatch):
        # h_c(theta^{k-1}) is evaluated once by the step and once by its
        # record; the melt step's one Newton pass and its record each form
        # h_eff, which the residual check and the audit read from the record
        cfg = builtin_config(name)
        cfg.experiment, cfg.output_every, cfg.duration = None, 0, 50 * cfg.dt
        calls, evaluate = [], getattr(con, law)
        monkeypatch.setattr(con, law, lambda *a, **k: calls.append(a) or evaluate(*a, **k))
        traj = run_scenario(cfg)
        assert (traj.n_steps, traj.n_rejections) == (50, 0)
        assert len(calls) <= 2 * traj.n_steps

    def test_spatial_sweep_forms_h_eff_once_per_newton_pass(self, monkeypatch):
        # the momentum block's h_eff is the field of the m block's first
        # Newton pass: each pass forms one, and so does each record the
        # residual gate checks
        cfg, state = _spatial_config()
        fields, records = [], []
        h_anisotropy, terms = con.h_anisotropy, stepper.step_terms
        monkeypatch.setattr(con, "h_anisotropy", lambda *a: fields.append(a) or h_anisotropy(*a))
        monkeypatch.setattr(stepper, "step_terms", lambda *a: records.append(a) or terms(*a))
        _, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), cfg.dt,
                      cfg.build_grid(), cfg.material, cfg.demag)
        assert rep.accepted and rep.iterations > 1 and rep.lu_solves > 0
        assert len(fields) == rep.m_passes + len(records)

    def test_each_velocity_iterate_builds_one_transport(self, monkeypatch):
        # one upwind operator per sweep's iterate, which the next sweep's
        # momentum residual reads too; the first sweep's starting velocity
        # and the residual gate add at most five
        cfg, state = _spatial_config(duration=2 * 0.005)
        builds, upwind = [], kin.upwind
        monkeypatch.setattr(kin, "upwind", lambda *a: builds.append(a) or upwind(*a))
        traj = run_scenario(cfg, initial_state=state)
        assert (traj.n_steps, traj.n_rejections) == (2, 0)
        assert len(builds) <= traj.sweeps + 5 * traj.n_steps

    def test_residual_gate_reads_the_last_sweeps_transport(self, monkeypatch):
        # each step builds one transport per sweep and one for its starting
        # velocity; the gate's record and residuals read the last sweep's
        cfg, state = _spatial_config(duration=2 * 0.005)
        builds, upwind = [], kin.upwind
        monkeypatch.setattr(kin, "upwind", lambda *a: builds.append(a) or upwind(*a))
        traj = run_scenario(cfg, initial_state=state)
        assert (traj.n_steps, traj.n_rejections) == (2, 0)
        assert len(builds) <= traj.sweeps + traj.n_steps

    def test_fixed_dt_run_forms_each_spectrum_once(self):
        # the transform solves' spectra are cached per grid and tau; dt is a
        # power of two, so the last step is not shortened by a rounding of
        # duration - t and every step solves at the same tau
        dt = 2.0 ** -8
        cfg, state = _spatial_config(dt=dt, duration=3 * dt)
        stepper._momentum_spectrum.cache_clear()
        stepper._heat_spectrum.cache_clear()
        traj = run_scenario(cfg, initial_state=state)
        assert (traj.n_steps, traj.n_rejections) == (3, 0)
        assert set(traj.column("dt")) == {dt}
        assert stepper._momentum_spectrum.cache_info().misses == 1
        assert stepper._heat_spectrum.cache_info().misses == 1


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
        # a failed linear solve halves dt instead of aborting the run
        real = stepper._checked_solve
        calls = []

        def fail_once(solve, rhs, *args):
            calls.append(1)
            if len(calls) == 1:
                return rhs, "stub failure"
            return real(solve, rhs, *args)

        monkeypatch.setattr(stepper, "_checked_solve", fail_once)
        cfg, state = _spatial_config(duration=0.005)
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections >= 1
        assert traj.final_state.t == pytest.approx(0.005)

    def test_overflowing_sweep_first_rejection_names_the_m_block(self):
        # the exchange term, held at the iterate, makes the m passes diverge
        # at this dt: the step ends in the third sweep's m block, after two
        # heat solves
        cfg, state = _spatial_config(material=material(kappa=0.05), theta0=1.0)
        state.m[...] = (0.5, 0.2)
        grid = cfg.build_grid()
        state.u[...] = solve_demag(state.m, grid, cfg.material.mu0).u
        loads = sample_loads(cfg.build_loads(), cfg.dt, cfg.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            new, rep = step(state, loads, cfg.dt, grid, cfg.material, cfg.demag)
        assert not rep.accepted
        assert new is state
        assert rep.iterations == 3
        assert rep.message.startswith("magnetization block")
        assert "change" in rep.message

    def test_overflowing_sweep_is_rejected(self):
        # strong exchange at this dt overflows the m inner loop; the step
        # fails, and it is retried at half dt
        cfg, state = _spatial_config(material=material(kappa=0.05), theta0=1.0)
        state.m[...] = (0.5, 0.2)
        state.u[...] = solve_demag(state.m, cfg.build_grid(), cfg.material.mu0).u
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections >= 1
        assert traj.final_state.t == pytest.approx(cfg.duration)


class TestRejectionMessages:
    def test_failed_heat_solve_rejects_the_step(self, monkeypatch):
        # the solve fails on the heat system only (one unknown per cell, where
        # momentum has two): the step ends after the first sweep's heat block
        real = stepper._checked_solve
        cfg, state = _spatial_config()
        n_cells = int(np.prod(cfg.cells))

        def fail_heat(solve, rhs, *args):
            if rhs.size == n_cells:
                return rhs, "stub failure"
            return real(solve, rhs, *args)

        monkeypatch.setattr(stepper, "_checked_solve", fail_heat)
        loads = sample_loads(cfg.build_loads(), cfg.dt, cfg.dt)
        new, rep = step(state, loads, cfg.dt, cfg.build_grid(), cfg.material, cfg.demag)
        assert not rep.accepted
        assert new is state
        assert rep.iterations == 1
        assert rep.message == "heat solve failed (stub failure)"

    def test_converged_iterate_failing_the_gate_is_rejected(self, grid0, monkeypatch):
        # a one-pass trm step converges at once; a gate that passes nothing
        # rejects it and names every residual
        monkeypatch.setattr(stepper, "_within_tolerance", lambda res, scale: False)
        p = builtin_config("trm").material
        prev = state_0d(grid0, p, theta=0.4, m=(con.equilibrium_m(0.4, 0.01, p), 0.0))
        loads = sample(t=0.01, dt=0.01, theta=lambda t: 0.4 - 0.01 * t,
                       h_ext=lambda t: np.array([0.01, 0.0]))
        new, rep = step(prev, loads, 0.01, grid0, p)
        assert not rep.accepted
        assert new is prev
        assert rep.iterations == 1
        assert rep.message.startswith("converged iterate fails residual check: ")
        for name in ("momentum", "strain", "ep_flow", "m_inclusion", "potential", "enthalpy"):
            assert f"{name}=" in rep.message


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
            step(prev, loads, cfg.dt, grid, cfg.material, cfg.demag)

    def test_run_exits_3(self, tmp_path):
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(_cold_config().to_dict()))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["accepted"] is False
        assert "enthalpy became negative" in manifest["failure"]
