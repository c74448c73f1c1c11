"""Scenario configs, schedules, run driver, loop extraction, experiments."""

import copy
import json

import numpy as np
import pytest

from paleomag import constitutive as con
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
from paleomag.snapshots import pair_loads, read_snapshot


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

    def test_carried_ledger_is_the_recomputed_one(self, tmp_path):
        # the audit of a step reuses the previous step's ledger_new as its
        # ledger_prev; under a sine field it must still be the ledger of the
        # step's input state under that step's h_ext_prev, bit for bit
        cfg = builtin_config("irm")
        cfg.experiment = None
        cfg.duration = 50 * cfg.dt
        cfg.output_every = 1
        out = tmp_path / "run"
        traj = run_scenario(cfg, out_dir=out)
        pairs = json.loads((out / "pairs.json").read_text())
        assert len(pairs) == traj.n_steps == 50
        grid = cfg.build_grid()
        for meta, rep in zip(pairs, traj.reports):
            prev, _ = read_snapshot(out / "snapshots" / f"pair_{meta['index']:08d}_a.bin")
            h_prev = pair_loads(meta).h_ext_prev
            assert rep.ledger_prev == energy_ledger(prev, grid, cfg.material, h_prev, cfg.eps)
        carried = sum(b.ledger_prev is a.ledger_new for a, b in zip(traj.reports, traj.reports[1:]))
        assert carried > 0

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
        below = con.zeta_resolvent(1.05, np.array([0.9 * hc, 0.0]), p)
        assert np.all(below == 0.0)
        with pytest.raises(ConstitutiveError):
            con.zeta_resolvent(1.05, np.array([1.1 * hc, 0.0]), p)
