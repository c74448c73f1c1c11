"""CLI entry points: run / audit / sweep exit codes and artifacts."""

import csv
import json
import struct

import numpy as np
import pytest

from paleomag import cli, energetics
from paleomag.cli import main
from paleomag.grid import FieldState, make_grid, sample_loads
from paleomag.scenarios import ScenarioConfig, Trajectory, builtin_config
from paleomag.snapshots import pair_record, read_snapshot, write_snapshot

from conftest import material, rewrite_snapshot_header


def run_cli(*argv):
    return main(list(argv))


def run_short_trm(out_dir):
    """A fast, audit-clean 0D run used by several tests."""
    return run_cli(
        "run", "--config", "trm", "--out", str(out_dir),
        "--set", "duration=1.0", "--set", "experiment=null",
        "--set", "output_every=20",
    )


def run_trm_chain(out_dir, output_every=1):
    """A 10-step trm run; with output_every=1 pair i's `_b` file is pair i+1's `_a` file."""
    return run_cli(
        "run", "--config", "trm", "--out", str(out_dir),
        "--set", "duration=0.1", "--set", "experiment=null",
        "--set", f"output_every={output_every}",
    )


class TestRun:
    def test_builtin_run_success(self, tmp_path):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["accepted"] is True
        assert manifest["audit_pass"] is True
        assert manifest["failure"] is None
        assert manifest["steps"] == 100
        assert len(manifest["config_hash"]) == 64
        assert manifest["version"]
        assert (out / "series.csv").exists()

    def test_manifest_counts_the_solver_work(self, tmp_path):
        # every trm step is 0D under temperature control: one sweep, no linear solve
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        solver = manifest["solver"]
        assert manifest["rejections"] == 0
        assert solver["sweeps"] == manifest["steps"]
        assert solver["m_passes"] >= solver["sweeps"]
        assert solver["krylov_applications"] == 0
        assert solver["lu_solves"] == 0

    def test_manifest_records_the_wall_time(self, tmp_path):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        wall_s = json.loads((out / "manifest.json").read_text())["wall_s"]
        assert isinstance(wall_s, float) and np.isfinite(wall_s) and wall_s > 0.0

    def test_0d_dilatation_exits_2(self, tmp_path):
        # a 0D point has no transport, so it cannot book the dilution terms
        # -w div v and -eta div v that a homogeneous dilatation needs
        config = ScenarioConfig(
            name="dilatation", dim=0, duration=0.01, dt=0.01, material=material(),
            theta0=0.5, output_every=0,
            grad_v_schedule={"kind": "const", "value": [[1e-3, 0.0], [0.0, 1e-3]]},
        )
        path = tmp_path / "dilatation.json"
        path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trace(grad_v)" in manifest["failure"]
        assert not (out / "series.csv").exists()

    def test_experiment_report_written(self, tmp_path):
        out = tmp_path / "vrm"
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.5")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = manifest["experiment_report"]
        assert report["drift_rate_measured"] == pytest.approx(
            report["drift_rate_oracle"], rel=0.01
        )
        assert (out / "experiment" / "report.json").exists()

    def test_experiment_reuses_the_run(self, tmp_path):
        # the report is computed from the main run, not from a second one
        out = tmp_path / "vrm"
        assert run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.5") == 0
        assert not (out / "experiment" / "snapshots").exists()
        with open(out / "series.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        report = json.loads((out / "manifest.json").read_text())["experiment_report"]
        assert report["drift_rate_measured"] == float(first["m_x"]) / float(first["t"])

    def test_melt_experiment(self, tmp_path):
        # the two relaxation fixtures recover the Maxwell viscosity ratio
        out = tmp_path / "melt"
        assert run_cli("run", "--config", "melt", "--out", str(out),
                       "--set", "duration=1.0") == 0
        report = json.loads((out / "manifest.json").read_text())["experiment_report"]
        assert report["plateau_ratio"] == pytest.approx(report["expected_ratio"], rel=1e-9)
        assert json.loads((out / "experiment" / "report.json").read_text()) == report

    def test_irm_experiment_writes_the_loop(self, tmp_path):
        out = tmp_path / "irm"
        assert run_cli("run", "--config", "irm", "--out", str(out),
                       "--set", "duration=0.5") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "experiment" / "loop.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h_applied", "m_parallel"]
        assert len(rows) - 1 == manifest["steps"] == 500
        assert set(manifest["experiment_report"]) == {
            "coercivity", "remanence", "loop_area", "cycle_dissipation", "closed"
        }

    def test_audit_bound_exits_3(self, tmp_path, monkeypatch):
        # no residual is below a negative bound, so step 1 already breaks it
        monkeypatch.setattr(cli, "ENERGY_TOL", -1.0)
        out = tmp_path / "vrm"
        assert run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01") == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["accepted"] is True
        assert manifest["audit_pass"] is False
        assert manifest["audit_detail"].startswith("energy residual")
        assert " at step 1 (" in manifest["audit_detail"]
        assert "experiment_report" not in manifest
        assert not (out / "experiment").exists()

    @pytest.mark.parametrize("w, ep_xx, verdict", [
        (1.0, 0.0, (True, "all audit bounds hold")),
        (-1.0, 0.0, (False, "negative enthalpy in final state")),
        (1.0, 1e-9, (False, "trace(Ep) = 1.000e-09 exceeds 1e-10")),
    ], ids=["clean", "negative_w", "trace_ep"])
    def test_final_state_bounds(self, w, ep_xx, verdict):
        state = FieldState.zeros(make_grid(0))
        state.w[...] = w
        state.Ep[..., 0, 0] = ep_xx
        traj = Trajectory(config=builtin_config("vrm"), final_state=state)
        assert cli.check_audit_bounds(traj) == verdict

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert "JSON" in manifest["failure"]

    def test_unknown_builtin(self, tmp_path):
        assert run_cli("run", "--config", "nope", "--out", str(tmp_path / "o")) == 2

    def test_negative_j_ext(self, tmp_path):
        code = run_cli(
            "run", "--config", "trm", "--out", str(tmp_path / "o"),
            "--set", 'j_ext_schedule={"kind":"const","value":-1.0}',
        )
        assert code == 2
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert "nonnegative" in manifest["failure"]

    @pytest.mark.parametrize(
        "setting",
        ["relaxation=0", "eps=1.0", "eps=0.1", "tol_rel=-1", "max_iters=0",
         "demag_boundary=bogus", "cfl_max=-1", "tol_rel=1e-10", "dt_min=1e-6",
         "dt_growth=1.0", "material.m_r=0.5", "material.r_exp=3.5"],
    )
    def test_invalid_solver_setting(self, tmp_path, setting):
        out = tmp_path / "o"
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01", "--set", setting)
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"]

    @pytest.mark.parametrize(
        "setting",
        [
            'h_ext_schedule={"kind":"const"}',
            'theta_schedule={"kind":"linear","start":1.0}',
            'theta_schedule={"kind":"const","value":"hot"}',
            'h_ext_schedule={"kind":"sine","amplitude":0.1,"period":1.0,"axis":[1,0,0]}',
            "h_ext_schedule=5",
            'dt="abc"',
            'material.rho="abc"',
            "cells=5",
            "m0=[1,2,3]",
        ],
    )
    def test_malformed_value(self, tmp_path, setting):
        # a value of the wrong kind or shape is a configuration error
        out = tmp_path / "o"
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01", "--set", setting)
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"]

    @pytest.mark.parametrize(
        "setting, key",
        [("output_every=abc", "output_every"), ("output_every=-3", "output_every"),
         ('experiment="vrn"', "experiment"), ("experiment=5", "experiment")],
    )
    def test_bad_output_every_or_experiment(self, tmp_path, setting, key):
        # both come from outside the program: refused before the run starts
        out = tmp_path / "o"
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01", "--set", setting)
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert key in manifest["failure"]
        assert not (out / "pairs.json").exists()

    @pytest.mark.parametrize(
        "settings, key",
        [(["duration=Infinity"], "duration"), (["material.kappa=NaN"], "kappa"),
         (["m0=[NaN,0]"], "m0"), (["g=[NaN,0]"], "g"),
         (["theta_schedule=null", "theta0=Infinity"], "theta0"),
         (["material.buoyancy_coeff=NaN"], "buoyancy_coeff"),
         (['h_ext_schedule={"kind":"const","value":[NaN,0]}'], "h_ext_schedule"),
         (['theta_schedule={"kind":"linear","start":1.0,"end":NaN,"t1":1.0}'],
          "theta_schedule"),
         (["dim=1", "extents=[NaN]", "cells=[4]"], "extents")],
        ids=["duration", "kappa", "m0", "g", "theta0", "buoyancy_coeff", "h_ext", "theta",
             "extents"],
    )
    def test_non_finite_value(self, tmp_path, settings, key):
        # NaN passes every sign check and Infinity every lower bound, so each
        # number must be finite before the run starts
        out = tmp_path / "o"
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01", *sets)
        assert code == 2
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert key in failure and "must be finite" in failure
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize(
        "settings",
        [["cells=[4]", "extents=[1.0, 2.0]"],
         ["dim=1", "cells=[4, 4]", "extents=[1.0]"],
         ["dim=1", "cells=[2.5]", "extents=[1.0]"]],
        ids=["0d_with_cells", "extra_cells", "fractional_cells"],
    )
    def test_grid_of_the_wrong_shape(self, tmp_path, settings):
        # extents and cells name exactly dim axes of whole cells: nothing is cut
        out = tmp_path / "o"
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code = run_cli("run", "--config", "vrm", "--out", str(out),
                       "--set", "duration=0.01", *sets)
        assert code == 2
        assert "cell counts" in json.loads((out / "manifest.json").read_text())["failure"]
        assert not (out / "config.json").exists()

    def test_bad_set_syntax(self, tmp_path):
        assert run_cli("run", "--config", "trm", "--out", str(tmp_path / "o"),
                       "--set", "duration") == 2


class TestAudit:
    def test_reaudit_fresh_run(self, tmp_path):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        assert run_cli("audit", str(out)) == 0

    def test_archived_config_with_retired_settings(self, tmp_path, capsys):
        # config.json files written before the five solver settings, the dt
        # policy and the rate cap m_r became constants and eps was fixed at 0
        # name them; at their fixed values they still load
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        path = out / "config.json"
        config = json.loads(path.read_text())
        config.update(max_iters=200, tol_rel=1e-11, tol_abs=1e-13, relaxation=1.0, cfl_max=0.9,
                      eps=0.0, dt_min=1e-9, dt_growth=1.2, pad_factor=4)
        config["material"]["m_r"] = float("inf")
        path.write_text(json.dumps(config))
        assert '"m_r": Infinity' in path.read_text()
        assert run_cli("audit", str(out)) == 0
        for key, value in (("relaxation", 0.5), ("eps", 0.1), ("dt_min", 1e-6),
                           ("dt_growth", 1.0), ("pad_factor", 2)):
            path.write_text(json.dumps(dict(config, **{key: value})))
            assert run_cli("audit", str(out)) == 2
            assert key in capsys.readouterr().err
        path.write_text(json.dumps(dict(config, material=dict(config["material"], m_r=0.5))))
        assert run_cli("audit", str(out)) == 2
        assert "m_r" in capsys.readouterr().err

    def test_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("audit", str(empty)) == 2

    def test_corrupt_snapshot(self, tmp_path):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob("pair_*_b.bin"))[0]
        pair.write_bytes(b"XXXXXXXX" + pair.read_bytes()[8:])
        assert run_cli("audit", str(out)) == 2

    def test_snapshot_of_old_padded_shape(self, tmp_path, capsys):
        # a 2D run directory from before u had n + 2 cells per axis: u had
        # pad_factor * n - 1
        config = builtin_config("trm")
        config.dim, config.extents, config.cells = 2, (1.0, 1.0), (4, 2)
        grid = config.build_grid()
        out = tmp_path / "run"
        (out / "snapshots").mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(config.to_dict()))
        loads = sample_loads(config.build_loads(), config.dt, config.dt)
        (out / "pairs.json").write_text(
            json.dumps([pair_record(0, config.dt, config.dt, loads)]))
        (out / "audit.csv").write_text("t,dt\n")
        state = FieldState.zeros(grid, w0=1.0)
        state.u = np.zeros((15, 7))
        for side in "ab":
            write_snapshot(out / "snapshots" / f"pair_00000000_{side}.bin", state, grid)
        assert run_cli("audit", str(out)) == 2
        assert "u has shape (15, 7), expected (6, 4)" in capsys.readouterr().err

    def test_tampered_energy(self, tmp_path):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob("pair_*_b.bin"))[0]
        blob = bytearray(pair.read_bytes())
        (hlen,) = struct.unpack("<Q", bytes(blob[8:16]))
        # payload field order: v(2) Ee(4) Ep(4) m(2) ...; bump m_x hard
        off = 16 + hlen + 8 * (2 + 4 + 4)
        blob[off:off + 8] = struct.pack("<d", 0.75)
        pair.write_bytes(bytes(blob))
        assert run_cli("audit", str(out)) == 3

    @pytest.mark.parametrize("side, name", [
        ("b", "v"), ("b", "Ee"), ("b", "Ep"), ("b", "m"), ("b", "u"), ("b", "w"), ("a", "Ep"),
    ])
    def test_non_finite_snapshot(self, tmp_path, capsys, side, name):
        # a NaN passes the state's symmetry, trace and w >= 0 checks and
        # every bound; the decode refuses it, as any corrupt snapshot
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob(f"pair_*_{side}.bin"))[0]
        blob = bytearray(pair.read_bytes())
        (hlen,) = struct.unpack("<Q", bytes(blob[8:16]))
        off = 16 + hlen
        for spec in json.loads(blob[16:16 + hlen])["fields"]:
            if spec["name"] == name:
                break
            off += 8 * int(np.prod(spec["shape"]))
        blob[off:off + 8] = struct.pack("<d", float("nan"))
        pair.write_bytes(bytes(blob))
        assert run_cli("audit", str(out)) == 2
        assert f"snapshot {name} holds a non-finite value" in capsys.readouterr().err

    def test_non_finite_snapshot_time(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob("pair_*_b.bin"))[0]
        rewrite_snapshot_header(pair, lambda h: h.update(time=float("nan")))
        assert run_cli("audit", str(out)) == 2
        assert "snapshot time holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["stored", "r_tot_rel", "theta_min", None])
    def test_nan_in_audit_csv(self, tmp_path, capsys, name):
        # NaN compares False with everything, so the column check must fail
        # on it: one nan entry, or (None) every value of the file
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        path = out / "audit.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        cols = range(len(rows[0])) if name is None else [rows[0].index(name)]
        for row in rows[1:]:
            for col in cols:
                row[col] = "nan"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("audit", str(out)) == 3
        assert "=nan at t=" in capsys.readouterr().err

    def test_tampered_audit_row(self, tmp_path, capsys):
        # pair `index` i is checked against row i of audit.csv
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[0]["index"]
        path = out / "audit.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        col = rows[0].index("stored")
        rows[index][col] = repr(float(rows[index][col]) + 1e-3)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("audit", str(out)) == 3
        assert "logged stored=" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["demag", "entropy"])
    def test_tampered_ledger_column(self, tmp_path, capsys, name):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[-1]["index"]
        path = out / "audit.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        col = rows[0].index(name)
        rows[index][col] = repr(float(rows[index][col]) + 1e-3)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("audit", str(out)) == 3
        assert f"logged {name}=" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("r_tot_rel", 0.5), ("r_mech", 7.0)])
    def test_tampered_replayed_column(self, tmp_path, capsys, name, value):
        # every column that the audit replays is compared, not the ledger alone
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[0]["index"]
        path = out / "audit.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[index][rows[0].index(name)] = repr(value)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("audit", str(out)) == 3
        assert f"logged {name}={value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("theta_min", -5.0), ("trace_ep_max", 1.0)])
    def test_tampered_state_column(self, tmp_path, capsys, name, value):
        # the columns the series row gives are checked against the `_b` state
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[0]["index"]
        path = out / "audit.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[index][rows[0].index(name)] = repr(value)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("audit", str(out)) == 3
        assert f"logged {name}={value!r}" in capsys.readouterr().err

    def test_parses_only_the_rows_pairs_name(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        n_pairs = len(json.loads((out / "pairs.json").read_text()))
        n_rows = len((out / "audit.csv").read_text().splitlines()) - 1
        parsed = []
        reader = csv.reader
        monkeypatch.setattr(cli.csv, "reader", lambda lines: parsed.extend(lines) or reader(lines))
        assert run_cli("audit", str(out)) == 0
        assert len(parsed) == 1 + n_pairs < n_rows

    @pytest.mark.parametrize("edit", [
        lambda e: e.pop("h_ext_prev"),
        lambda e: e.pop("index"),
        lambda e: e.update(dt="0.01"),
        lambda e: e.update(index="4"),
    ], ids=["h_ext_prev", "index", "dt", "index type"])
    def test_malformed_pairs_entry(self, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert run_trm_chain(out) == 0
        path = out / "pairs.json"
        pairs = json.loads(path.read_text())
        edit(pairs[3])
        path.write_text(json.dumps(pairs))
        assert run_cli("audit", str(out)) == 2
        assert "malformed pairs.json entry 3 " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dt", float("nan")), ("dt", -0.01), ("dt", 0.0), ("t", float("nan")),
        ("h_ext_k", [float("inf"), 0.0]), ("g", [float("nan"), 0.0]),
        ("j_ext_k", float("nan")), ("j_ext_k", -1.0),
        ("theta_k", float("nan")), ("theta_k", -0.5), ("grad_v_k", [[0.0]]),
    ], ids=["dt-nan", "dt-negative", "dt-zero", "t-nan", "h_ext_k-inf", "g-nan",
            "j_ext_k-nan", "j_ext_k-negative", "theta_k-nan", "theta_k-negative",
            "grad_v_k-shape"])
    def test_malformed_pairs_value(self, tmp_path, capsys, key, value):
        # a load that sample_loads refuses at run time is a malformed entry,
        # not a physics failure
        out = tmp_path / "run"
        assert run_cli("run", "--config", "vrm", "--out", str(out), "--set", "duration=0.05",
                       "--set", "experiment=null", "--set", "output_every=2") == 0
        path = out / "pairs.json"
        pairs = json.loads(path.read_text())
        pairs[1][key] = value
        path.write_text(json.dumps(pairs))
        assert run_cli("audit", str(out)) == 2
        assert "malformed pairs.json entry 1 " in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", [[], {}, 5])
    def test_pairs_json_without_a_list(self, tmp_path, capsys, pairs):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        (out / "pairs.json").write_text(json.dumps(pairs))
        assert run_cli("audit", str(out)) == 2
        assert "pairs.json lists no snapshot pairs" in capsys.readouterr().err

    def test_missing_audit_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        (out / "audit.csv").unlink()
        assert run_cli("audit", str(out)) == 2
        assert "audit.csv" in capsys.readouterr().err

    def test_pair_without_audit_row(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[-1]["index"]
        path = out / "audit.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:index]))
        assert run_cli("audit", str(out)) == 2
        assert f"no row for snapshot pair {index:08d}" in capsys.readouterr().err

    def test_truncated_audit_row(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        index = json.loads((out / "pairs.json").read_text())[-1]["index"]
        path = out / "audit.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[index] = ",".join(lines[index].split(",")[:4]) + "\n"
        path.write_text("".join(lines))
        assert run_cli("audit", str(out)) == 2
        assert f"audit.csv row {index} has no valid" in capsys.readouterr().err

    def test_bytes_after_the_last_field(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob("pair_*_b.bin"))[-1]
        pair.write_bytes(pair.read_bytes() + bytes(23))
        assert run_cli("audit", str(out)) == 2
        assert "23 bytes after the last field" in capsys.readouterr().err

    def test_truncated_preamble(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        pair = sorted((out / "snapshots").glob("pair_*_a.bin"))[0]
        pair.write_bytes(pair.read_bytes()[:12])
        assert run_cli("audit", str(out)) == 2
        assert "truncated snapshot preamble" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("dim"),
        lambda h: h.pop("fields"),
        lambda h: h["fields"][3].pop("name"),
    ], ids=["dim", "fields", "field name"])
    def test_malformed_pair_header(self, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        rewrite_snapshot_header(sorted((out / "snapshots").glob("pair_*_b.bin"))[0], edit)
        assert run_cli("audit", str(out)) == 2
        assert "corrupt snapshot pair" in capsys.readouterr().err

    def test_snapshot_on_another_grid(self, tmp_path, capsys):
        # pair 1 of a 0D run rewritten as a state of a 1-cell 1D grid
        out = tmp_path / "run"
        assert run_trm_chain(out) == 0
        grid1 = make_grid(1, (1.0,), (1,))
        for side in "ab":
            path = out / "snapshots" / f"pair_00000001_{side}.bin"
            state, _ = read_snapshot(path)
            fields = {name: getattr(state, name)[None] for name in ("v", "Ee", "Ep", "m", "w")}
            write_snapshot(path, FieldState(u=np.zeros(3), t=state.t, **fields), grid1)
        assert run_cli("audit", str(out)) == 2
        err = capsys.readouterr().err
        assert "Grid(dim=1, extents=(1.0,), cells=(1,))" in err
        assert "Grid(dim=0, extents=(), cells=())" in err

    @pytest.mark.parametrize("output_every", [1, 2])
    def test_chained_state_is_decoded_once(self, tmp_path, monkeypatch, output_every):
        # with output_every=1 pair i+1's `_a` file is pair i's `_b` file, byte
        # for byte: its state is decoded and its ledger booked once
        out = tmp_path / "run"
        assert run_trm_chain(out, output_every) == 0
        n_pairs = len(json.loads((out / "pairs.json").read_text()))
        reads, ledgers = [], []
        read, ledger = cli.read_snapshot, energetics.energy_ledger
        monkeypatch.setattr(cli, "read_snapshot", lambda *a: reads.append(a) or read(*a))
        monkeypatch.setattr(energetics, "energy_ledger",
                            lambda *a: ledgers.append(a) or ledger(*a))
        assert run_cli("audit", str(out)) == 0
        expected = n_pairs + 1 if output_every == 1 else 2 * n_pairs
        assert n_pairs == 10 // output_every
        assert len(reads) == len(ledgers) == expected

    def test_tampered_chained_input_state(self, tmp_path):
        # pair 2's `_a` file no longer matches pair 1's `_b` file, so it is
        # decoded on its own and its bumped m fails the energy balance
        out = tmp_path / "run"
        assert run_trm_chain(out) == 0
        pair = out / "snapshots" / "pair_00000002_a.bin"
        blob = bytearray(pair.read_bytes())
        (hlen,) = struct.unpack("<Q", bytes(blob[8:16]))
        off = 16 + hlen + 8 * (2 + 4 + 4)  # m_x, as in test_tampered_energy
        blob[off:off + 8] = struct.pack("<d", 0.75)
        pair.write_bytes(bytes(blob))
        assert run_cli("audit", str(out)) == 3

    def test_archive_written_with_pad_factor(self, tmp_path):
        # 0D run directories written while demag padded a grid name
        # pad_factor in config.json and in every snapshot header
        out = tmp_path / "run"
        assert run_short_trm(out) == 0
        path = out / "config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), pad_factor=4)))
        for snap in (out / "snapshots").glob("*.bin"):
            blob = snap.read_bytes()
            (hlen,) = struct.unpack("<Q", blob[8:16])
            header = dict(json.loads(blob[16:16 + hlen]), pad_factor=4)
            text = json.dumps(header, sort_keys=True).encode("utf-8")
            snap.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])
        assert run_cli("audit", str(out)) == 0


class TestSweep:
    def test_sweep_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", "vrm", "--param", "duration",
            "--values", "0.1,0.2", "--out", str(out),
            "--set", "experiment=null",
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("index,duration,status")
        assert (out / "run_000" / "series.csv").exists()
        assert (out / "run_001" / "series.csv").exists()

    def test_sweep_bad_value(self, tmp_path):
        code = run_cli(
            "sweep", "--config", "vrm", "--param", "duration",
            "--values", "-1.0", "--out", str(tmp_path / "s"),
        )
        assert code == 2

    def test_sweep_no_values(self, tmp_path):
        assert run_cli("sweep", "--config", "vrm", "--param", "duration",
                       "--values", "", "--out", str(tmp_path / "s")) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    import paleomag
    assert paleomag.__version__ in capsys.readouterr().out
