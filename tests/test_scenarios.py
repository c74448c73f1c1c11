"""Scenario configs, schedules, run driver, loop extraction, experiments."""

import copy
import json

import numpy as np
import pytest

from paleomag import constitutive as con
from paleomag import scenarios
from paleomag.energetics import energy_ledger
from paleomag.errors import ConfigError, ConstitutiveError
from paleomag.scenarios import (
    SHIPPED_SCENARIOS,
    ScenarioConfig,
    builtin_config,
    extract_loop,
    irm_loop,
    make_scalar_schedule,
    make_tensor_schedule,
    make_vector_schedule,
    run_scenario,
    vrm_experiment,
)
from paleomag.snapshots import read_snapshot
from paleomag.stepper import StepReport


class TestSchedules:
    def test_const_linear(self):
        f = make_scalar_schedule({"kind": "const", "value": 2.0})
        assert f(0.0) == 2.0 and f(100.0) == 2.0
        g = make_scalar_schedule({"kind": "linear", "t0": 1.0, "t1": 3.0,
                                  "start": 0.0, "end": 4.0})
        assert g(0.0) == 0.0 and g(2.0) == 2.0 and g(10.0) == 4.0

    def test_sine_piecewise(self):
        f = make_scalar_schedule({"kind": "sine", "amplitude": 2.0, "period": 4.0,
                                  "offset": 1.0})
        assert f(1.0) == pytest.approx(3.0)
        g = make_scalar_schedule({"kind": "piecewise", "times": [0.0, 1.0],
                                  "values": [0.0, 2.0]})
        assert g(0.5) == pytest.approx(1.0)

    def test_vector_and_tensor(self):
        v = make_vector_schedule({"kind": "sine", "axis": [0.0, 1.0],
                                  "amplitude": 1.0, "period": 4.0})
        np.testing.assert_allclose(v(1.0), [0.0, 1.0], atol=1e-14)
        W = make_tensor_schedule({"kind": "rotation", "rate": 2.0, "t0": 0.0, "t1": 1.0})
        np.testing.assert_allclose(W(0.5), [[0.0, -2.0], [2.0, 0.0]])
        np.testing.assert_allclose(W(2.0), np.zeros((2, 2)))

    @pytest.mark.parametrize("spec", [
        {"kind": "nope"},
        {"kind": "linear", "t0": 1.0, "t1": 1.0, "start": 0.0, "end": 1.0},
        {"kind": "sine", "amplitude": 1.0, "period": 0.0},
        {"kind": "piecewise", "times": [1.0, 0.0], "values": [0.0, 1.0]},
    ])
    def test_invalid(self, spec):
        with pytest.raises(ConfigError):
            make_scalar_schedule(spec)


class TestScenarioConfig:
    def test_json_roundtrip(self):
        cfg = builtin_config("trm")
        blob = json.dumps(cfg.to_dict(), sort_keys=True)
        back = ScenarioConfig.from_dict(json.loads(blob))
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_dict({"nonsense": 1})

    def test_exclusive_drives(self):
        cfg = builtin_config("melt")
        cfg.stress_dev_schedule = {"kind": "zero"}
        with pytest.raises(ConfigError, match="mutually exclusive"):
            cfg.validate()

    def test_negative_j_schedule(self):
        cfg = builtin_config("vrm")
        cfg.j_ext_schedule = {"kind": "const", "value": -0.5}
        with pytest.raises(ConfigError, match="nonnegative"):
            cfg.validate()

    def test_negative_theta_schedule(self):
        cfg = builtin_config("vrm")
        cfg.theta_schedule = {"kind": "linear", "t0": 0.0, "t1": 5.0,
                              "start": 1.0, "end": -1.0}
        with pytest.raises(ConfigError, match="nonnegative"):
            cfg.validate()

    def test_0d_grad_v_must_be_trace_free(self):
        dilatation = {"kind": "const", "value": [[1e-3, 0.0], [0.0, 1e-3]]}
        shear = {"kind": "const", "value": [[1e-3, 2e-3], [0.0, -1e-3]]}
        cfg = ScenarioConfig(name="d", dim=0, duration=0.01, dt=0.01, grad_v_schedule=dilatation)
        with pytest.raises(ConfigError, match=r"trace\(grad_v\)\| = 0.002"):
            cfg.validate()
        ScenarioConfig(name="d", dim=0, duration=0.01, dt=0.01, grad_v_schedule=shear).validate()
        # a spatial grid transports what the dilatation dilutes
        ScenarioConfig(name="d", dim=1, extents=(1.0,), cells=(4,), duration=0.01, dt=0.01,
                       grad_v_schedule=dilatation).validate()

    def test_builtins_validate(self):
        for name in SHIPPED_SCENARIOS:
            builtin_config(name).validate()
        with pytest.raises(ConfigError):
            builtin_config("nope")


class TestRunScenario:
    def test_zero_duration(self):
        cfg = builtin_config("vrm")
        cfg.duration = 0.0
        traj = run_scenario(cfg)
        assert traj.n_steps == 0
        assert traj.final_state.t == 0.0

    def test_outputs_written(self, tmp_path):
        cfg = builtin_config("trm")
        cfg.experiment = None
        cfg.duration = 1.0
        cfg.output_every = 20
        out = tmp_path / "run"
        traj = run_scenario(cfg, out_dir=out)
        assert (out / "config.json").exists()
        assert (out / "series.csv").exists()
        assert (out / "audit.csv").exists()
        assert (out / "pairs.json").exists()
        assert (out / "snapshots" / "initial.bin").exists()
        assert (out / "snapshots" / "final.bin").exists()
        pairs = json.loads((out / "pairs.json").read_text())
        assert len(pairs) == traj.n_steps // 20
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header.startswith("t,dt,m_x,m_y")
        assert len((out / "series.csv").read_text().splitlines()) == traj.n_steps + 1

    def test_determinism_bit_identical(self, tmp_path):
        cfg = builtin_config("irm")
        cfg.experiment = None
        cfg.duration = 0.2
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(copy.deepcopy(cfg), out_dir=a)
        run_scenario(copy.deepcopy(cfg), out_dir=b)
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "audit.csv").read_bytes() == (b / "audit.csv").read_bytes()

    def test_dt_regrows_after_a_rejection(self, monkeypatch):
        # a rejected step halves dt; each accepted step then grows it by 1.2,
        # up to the configured dt
        real_step = scenarios.step
        calls = []

        def reject_once(state, loads_s, dt, grid, params, demag):
            calls.append(dt)
            if len(calls) == 1:
                return state, StepReport(dt=dt, message="forced rejection")
            return real_step(state, loads_s, dt, grid, params, demag)

        monkeypatch.setattr(scenarios, "step", reject_once)
        cfg = builtin_config("vrm")
        cfg.experiment = None
        cfg.duration = 6 * cfg.dt
        traj = run_scenario(cfg)
        assert traj.n_rejections == 1
        factors = [0.5, 0.6, 0.72, 0.864, 1.0, 1.0]
        np.testing.assert_allclose(traj.column("dt")[:6], np.multiply(factors, cfg.dt),
                                   rtol=1e-15)

    @pytest.mark.parametrize("name, n", [("trm", 100), ("irm", 1000)])
    def test_whole_number_of_steps_keeps_dt(self, name, n):
        # t_end - t of the last step rounds below dt; the run still takes
        # every step at the configured dt and ends within the loop's tolerance
        cfg = builtin_config(name)
        cfg.experiment = None
        cfg.duration = n * cfg.dt
        traj = run_scenario(cfg)
        assert (traj.n_steps, traj.n_rejections) == (n, 0)
        assert set(traj.column("dt")) == {cfg.dt}
        assert abs(traj.final_state.t - cfg.duration) <= 1e-12 * max(1.0, cfg.duration)

    def test_short_remainder_is_taken(self):
        # a duration that is not a whole number of dt ends on a shorter step
        cfg = builtin_config("vrm")
        cfg.experiment = None
        cfg.duration = 3.5 * cfg.dt
        traj = run_scenario(cfg)
        dts = traj.column("dt")
        assert traj.n_steps == 4 and set(dts[:3]) == {cfg.dt}
        assert dts[3] == pytest.approx(0.5 * cfg.dt, rel=1e-9)
        assert traj.final_state.t == pytest.approx(cfg.duration, rel=1e-14)

    def test_carried_ledger_is_the_recomputed_one(self, tmp_path):
        # the audit of a step reuses the previous step's ledger_new as its
        # ledger_prev; a ledger holds no field, so under a sine field every
        # step carries it, and it is the ledger of the step's input state,
        # bit for bit (the period is cut to 0.2, so m leaves zero in 50 steps)
        cfg = builtin_config("irm")
        cfg.experiment = None
        cfg.duration = 50 * cfg.dt
        cfg.h_ext_schedule = dict(cfg.h_ext_schedule, period=0.2)
        cfg.output_every = 1
        out = tmp_path / "run"
        traj = run_scenario(cfg, out_dir=out)
        pairs = json.loads((out / "pairs.json").read_text())
        assert len(pairs) == traj.n_steps == 50
        grid = cfg.build_grid()
        for meta, rep in zip(pairs, traj.reports):
            prev, _ = read_snapshot(out / "snapshots" / f"pair_{meta['index']:08d}_a.bin")
            assert rep.ledger_prev == energy_ledger(prev, grid, cfg.material)
        assert traj.final_state.m[0] > 0.0
        assert all(b.ledger_prev is a.ledger_new for a, b in zip(traj.reports, traj.reports[1:]))

    def test_audit_bounds_on_short_run(self):
        cfg = builtin_config("melt")
        cfg.experiment = None
        cfg.duration = 2.0
        traj = run_scenario(cfg)
        assert max(abs(r.r_tot_rel) for r in traj.reports) < 1e-8
        assert min(r.entropy_margin_rel for r in traj.reports) > -1e-8


class TestLoops:
    def test_extract_loop_ellipse(self):
        t = np.linspace(0.0, 2.0 * np.pi, 4001)
        h, m = np.cos(t), np.sin(t)
        loop = extract_loop(h, m)
        assert loop.coercivity == pytest.approx(1.0, rel=1e-4)
        assert loop.remanence == pytest.approx(1.0, rel=1e-4)
        assert loop.area == pytest.approx(np.pi, rel=1e-4)
        assert loop.closed

    def test_subcoercive_cycle_stays_stuck(self):
        # drive below h_c at theta with full coercivity: m remains zero
        cfg = builtin_config("irm")
        cfg.experiment = None
        cfg.dt = 0.05
        loop = irm_loop(1.2, 0.15, cycles=1, config=cfg)
        assert float(np.max(np.abs(loop.points[:, 1]))) == 0.0
        assert loop.coercivity == 0.0
        assert loop.area == 0.0


class TestVrm:
    def test_drift_matches_resolvent_oracle(self):
        cfg = builtin_config("vrm")
        cfg.duration = 0.5
        report = vrm_experiment(run_scenario(cfg))
        assert report["drift_rate_measured"] == pytest.approx(
            report["drift_rate_oracle"], rel=0.01
        )

    @pytest.mark.parametrize("m0", [(0.05, 0.0), (-0.05, 0.0)], ids=["sticks", "drifts"])
    def test_drift_is_measured_from_m0(self, m0):
        # the first-step secant starts at m0, where the oracle evaluates the drift
        cfg = builtin_config("vrm")
        cfg.duration, cfg.m0 = 0.5, m0
        report = vrm_experiment(run_scenario(cfg))
        assert report["drift_rate_measured"] == pytest.approx(
            report["drift_rate_oracle"], rel=0.01, abs=1e-12
        )

    def test_doubling_tau_c_halves_drift(self):
        base = builtin_config("vrm")
        base.duration = 0.25
        r1 = vrm_experiment(run_scenario(base))["drift_rate_measured"]
        doubled = builtin_config("vrm")
        doubled.duration = 0.25
        doubled.material = con.MaterialParams.from_dict(
            {**doubled.material.to_dict(), "tau_c": 2 * doubled.material.tau_c}
        )
        r2 = vrm_experiment(run_scenario(doubled))["drift_rate_measured"]
        assert r1 / r2 == pytest.approx(2.0, rel=0.02)

    def test_unregularized_coercive_potential(self):
        # hc-special (no quadratic/power branch): sticking below threshold,
        # ill-posed above it
        p = con.MaterialParams.from_dict({
            **builtin_config("vrm").material.to_dict(),
            "tau_c": 0.0, "eps_reg": 0.0,
        })
        hc = float(con.h_c(1.05, p))
        below = con.zeta_resolvent(hc, np.array([0.9 * hc, 0.0]), p)
        assert np.all(below == 0.0)
        with pytest.raises(ConstitutiveError):
            con.zeta_resolvent(hc, np.array([1.1 * hc, 0.0]), p)
