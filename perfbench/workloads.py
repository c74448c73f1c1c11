"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``prepare``), runs one timed
repetition through paleomag's public entry points (``rep``) and checks the
program's outputs.  ``prepare`` builds and validates the config and builds
the initial state, the part of set-up a user pays after the imports.  The
workloads are described, with the reasons they were chosen, in README.md
next to this file.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

# a repetition re-verifies until this much time is measured, and reports
# the mean: one audit of cool_0d's 20 snapshot pairs takes about 25 ms
REVERIFY_MIN_S = 1.0

# cool_0d: the shipped trm material, dt, bias and cooling rate, cooled from
# THETA_START to 0.3 through the blocking temperature theta_b = 0.31.
COOL_THETA_START = 0.4
COOL_STEPS = 1000
COOL_M_FINAL = 0.82944039     # |m| at the end of the full shipped trm run
COOL_M_TOL = 1e-8             # absolute; covers the 8-digit reference value

# vrm_archive: the shipped vrm run, one snapshot pair per step.
VRM_STEPS = 1000
VRM_DRIFT_RTOL = 0.01         # the drift check of tests/test_cli.py

# dike_2d: a hot stripe in a magnetized host, 2D, demag on, momentum and
# heat solved.
DIKE_CELLS = (32, 32)
DIKE_STEPS = 4
DIKE_DT = 0.005
DIKE_NOISE = 0.02             # amplitude of the seeded uniform m noise
R_MECH_ROUNDOFF = 1e-12       # r_mech_rel <= 0 "to roundoff"
POISSON_TOL = 1e-9            # criterion 5's Poisson residual bound

# the base material of tests/conftest.py
BASE_MATERIAL = dict(
    rho=1.0, K_E=1.0, G_E=1.0, a0=1.0, b0=1.0, theta_c=1.0, c_v=100.0,
    tau_c=0.05, eps_reg=1e-6, r_exp=3.0, p=4.0, nu1=1.0, nu2=1e-6,
    M_solid=1e4, M_magma=1e-2, theta_melt=1.5, melt_width=0.2,
    K_cond=1.0, mu0=1.0, kappa=0.0, varkappa=0.0,
    theta_b=0.6, h_c_high=0.1, h_c_low=0.0, hc_width=0.02,
)


def _config_from_overrides(name: str, overrides: list):
    """The config ``paleomag run --config name --set k=v ...`` resolves."""
    from paleomag.scenarios import ScenarioConfig, builtin_config

    data = builtin_config(name).to_dict()
    for key, raw in overrides:
        data[key] = json.loads(raw)
    return ScenarioConfig.from_dict(data)


def _reverify(pacer, fn, repeat: bool) -> tuple:
    """Call fn once, or until REVERIFY_MIN_S is measured.

    Returns the measured and the scaled time per call, and fn's results.
    """
    results: list = []

    def calls():
        start = pacer.clock()
        while not results or (repeat and pacer.clock() - start < REVERIFY_MIN_S):
            results.append(fn())

    _, raw, scaled = pacer.measure(calls)
    return raw / len(results), scaled / len(results), results


def _initial_state(config):
    from paleomag import constitutive as con

    grid = config.build_grid()
    return config.initial_state(grid, con.thermal_law_for(config.material))


class CliWorkload:
    """``paleomag run`` on a builtin scenario, then ``paleomag audit``.

    Every repetition, in every process, writes to the same run directory.
    Before each one, untimed, every file in it is truncated to zero length,
    so the run writes into empty files.  Deleting the files would time the
    file system instead of the program: on the reference host (ext4),
    creating files within a minute or so after thousands of others were
    deleted is several times slower.  Truncating them inside the timed run
    waits on their write-back to disk, which other tenants slow down.  An
    empty file also makes a check fail if the run did not write it again.
    """

    scenario = ""
    expected_steps = 0

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed            # recorded only: the 0D inputs are fixed
        self.run_dir = run_dir
        self.overrides: list = []

    def prepare(self) -> None:
        self.config = _config_from_overrides(self.scenario, self.overrides)
        self.state0 = _initial_state(self.config)

    def _argv(self) -> list:
        argv = ["run", "--config", self.scenario, "--out", str(self.run_dir)]
        for key, raw in self.overrides:
            argv += ["--set", f"{key}={raw}"]
        return argv

    def warm_up(self) -> None:
        """Untimed: write the run directory once if this checkout has none."""
        from paleomag import cli

        if not (self.run_dir / "snapshots").is_dir():
            cli.main(self._argv())

    def rep(self, pacer, tracer=None) -> dict:
        """Time the run and the re-verification with ``pacer``, check."""
        from paleomag import cli

        out = self.run_dir
        for path in out.rglob("*"):
            if path.is_file():
                os.truncate(path, 0)
        argv = self._argv()
        if tracer is not None:
            tracer.set_run("paleomag-run")
        rc_run, run_s, scaled_run_s = pacer.measure(lambda: cli.main(argv))
        if tracer is not None:
            tracer.set_run("paleomag-audit")
        reverify_s, scaled_reverify_s, rc_audits = _reverify(
            pacer, lambda: cli.main(["audit", str(out)]), repeat=tracer is None)

        manifest = json.loads((out / "manifest.json").read_text())
        steps = int(manifest.get("steps", 0))
        with open(out / "audit.csv", newline="") as fh:
            r_tot = [abs(float(row["r_tot_rel"])) for row in csv.DictReader(fh)]
        result = {
            "steps": steps,
            "run_s": run_s,
            "steps_per_s": steps / run_s,
            "scaled_steps_per_s": steps / scaled_run_s,
            "reverify_s": reverify_s,
            "scaled_reverify_s": scaled_reverify_s,
            "max_abs_r_tot_rel": max(r_tot, default=0.0),
        }
        failures = []
        if rc_run != 0:
            failures.append(f"paleomag run exited {rc_run}")
        if any(rc_audits):
            failures.append(f"paleomag audit exited {rc_audits}")
        if steps != self.expected_steps:
            failures.append(f"{steps} steps, expected {self.expected_steps}")
        failures += self.check(out, manifest, result)
        result["failures"] = failures
        return result

    def check(self, out: Path, manifest: dict, result: dict) -> list:
        return []


class Cool0D(CliWorkload):
    """The headline TRM physics: cooling through theta_b under the bias field."""

    name = "cool_0d"
    scenario = "trm"
    expected_steps = COOL_STEPS

    def prepare(self) -> None:
        from paleomag import constitutive as con
        from paleomag.scenarios import builtin_config

        material = builtin_config("trm").material
        rate = 0.01                  # the shipped cooling rate per time unit
        duration = (COOL_THETA_START - 0.3) / rate
        m0 = con.equilibrium_m(COOL_THETA_START, 0.01, material)
        schedule = {"kind": "linear", "start": COOL_THETA_START, "end": 0.3,
                    "t0": 0.0, "t1": duration}
        self.overrides = [
            ("experiment", "null"),
            ("m0", json.dumps([m0, 0.0])),
            ("theta_schedule", json.dumps(schedule)),
            ("duration", json.dumps(duration)),
        ]
        super().prepare()

    def check(self, out: Path, manifest: dict, result: dict) -> list:
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        m_final = float(rows[-1]["m_norm"]) if rows else float("nan")
        result["m_final_norm"] = m_final
        if not abs(m_final - COOL_M_FINAL) <= COOL_M_TOL:
            return [f"final |m| = {m_final!r}, expected {COOL_M_FINAL} +- {COOL_M_TOL:g}"]
        return []


class VrmArchive(CliWorkload):
    """The full CLI contract: experiment driver, a snapshot pair per step, re-audit."""

    name = "vrm_archive"
    scenario = "vrm"
    expected_steps = VRM_STEPS

    def prepare(self) -> None:
        self.overrides = [("output_every", "1")]
        super().prepare()

    def check(self, out: Path, manifest: dict, result: dict) -> list:
        report = manifest.get("experiment_report") or {}
        measured = report.get("drift_rate_measured", float("nan"))
        oracle = report.get("drift_rate_oracle", float("nan"))
        result["drift_rate_measured"] = measured
        result["drift_rate_oracle"] = oracle
        if not abs(measured - oracle) <= VRM_DRIFT_RTOL * abs(oracle):
            return [f"drift rate {measured!r} vs oracle {oracle!r} (rtol {VRM_DRIFT_RTOL})"]
        return []


class AuditRecorder:
    """Keeps the arguments and result of every audit_step that run_scenario makes.

    The replay of these step pairs is dike_2d's offline re-verification:
    the run has no run directory for ``paleomag audit`` to read.
    """

    def __init__(self, scenarios_module):
        self.calls: list = []
        self._audit = scenarios_module.audit_step
        scenarios_module.audit_step = self

    def __call__(self, *args, **kwargs):
        result = self._audit(*args, **kwargs)
        self.calls.append((args, kwargs, result))
        return result


class Dike2D:
    """A 2D dike: demag, both Krylov solves and the stencils do the work."""

    name = "dike_2d"

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed            # run_dir is unused: the run writes no files

    def prepare(self) -> None:
        import numpy as np

        from paleomag import constitutive as con
        from paleomag import scenarios
        from paleomag.demag import solve_demag

        config = scenarios.ScenarioConfig(
            name="dike_2d", dim=2, extents=(1.0, 1.0), cells=DIKE_CELLS,
            material=con.MaterialParams(**BASE_MATERIAL),
            duration=DIKE_STEPS * DIKE_DT, dt=DIKE_DT, demag=True,
            demag_boundary="farfield", theta0=0.5,
            h_ext_schedule={"kind": "const", "value": [0.3, 0.0]},
        )
        config.validate()
        grid = config.build_grid()
        thermal = con.thermal_law_for(config.material)
        state = config.initial_state(grid, thermal)
        x = grid.cell_centers()[0][:, None]
        stripe = np.broadcast_to(np.abs(x - 0.5) < 0.15, DIKE_CELLS)
        state.w[...] = np.where(stripe, thermal.w_of_theta(1.2), thermal.w_of_theta(0.5))
        noise = np.random.default_rng(self.seed).uniform(
            -DIKE_NOISE, DIKE_NOISE, DIKE_CELLS + (2,))
        state.m[...] = np.where(stripe[..., None], 0.0, np.array([0.5, 0.2]) + noise)
        # solve u at t = 0, so step 1 does not book the demag energy as a jump
        state.u[...] = solve_demag(state.m, grid, config.material.mu0, "farfield").u
        state.validate(grid)
        self.config, self.grid, self.state0 = config, grid, state
        self.recorder = AuditRecorder(scenarios)

    def warm_up(self) -> None:
        pass

    def rep(self, pacer, tracer=None) -> dict:
        """Time the run and the audit replay with ``pacer``, check."""
        from paleomag import energetics
        from paleomag.cli import ENTROPY_TOL
        from paleomag.demag import solve_demag
        from paleomag.scenarios import run_scenario

        self.recorder.calls.clear()
        if tracer is not None:
            tracer.set_run("run_scenario")
        traj, run_s, scaled_run_s = pacer.measure(
            lambda: run_scenario(self.config, initial_state=self.state0))
        if tracer is not None:
            tracer.set_run("reverify")

        def replay():
            reports = []
            for args, kwargs, _ in self.recorder.calls:
                reports.append(energetics.audit_step(*args, **kwargs))
                pacer.tick()
            return reports

        reverify_s, scaled_reverify_s, replays = _reverify(
            pacer, replay, repeat=tracer is None)
        replayed = replays[-1]

        reports = traj.reports
        final = traj.final_state
        residual = solve_demag(final.m, self.grid, self.config.material.mu0,
                               "farfield").residual
        min_w = min(float(args[1].w.min()) for args, _, _ in self.recorder.calls)
        result = {
            "steps": traj.n_steps,
            "run_s": run_s,
            "steps_per_s": traj.n_steps / run_s,
            "scaled_steps_per_s": traj.n_steps / scaled_run_s,
            "reverify_s": reverify_s,
            "scaled_reverify_s": scaled_reverify_s,
            "max_abs_r_tot_rel": max(abs(r.r_tot_rel) for r in reports),
            "max_r_mech_rel": max(r.r_mech_rel for r in reports),
            "min_entropy_margin_rel": min(r.entropy_margin_rel for r in reports),
            "min_w": min_w,
            "poisson_residual": residual,
        }
        failures = []
        if traj.n_steps != DIKE_STEPS or traj.n_rejections != 0:
            failures.append(f"{traj.n_steps} steps with {traj.n_rejections} rejections, "
                            f"expected {DIKE_STEPS} with none")
        if result["max_r_mech_rel"] > R_MECH_ROUNDOFF:
            failures.append(f"r_mech_rel = {result['max_r_mech_rel']:.3e} > 0")
        if result["min_entropy_margin_rel"] < ENTROPY_TOL:
            failures.append(f"entropy margin {result['min_entropy_margin_rel']:.3e} "
                            f"< {ENTROPY_TOL:g}")
        if min_w < 0.0:
            failures.append(f"min w = {min_w:.3e} < 0")
        if not residual < POISSON_TOL:
            failures.append(f"Poisson residual {residual:.3e} >= {POISSON_TOL:g}")
        same = all(
            (a.r_tot, a.r_mech, a.entropy_margin) == (b.r_tot, b.r_mech, b.entropy_margin)
            for a, b in zip(replayed, (res for _, _, res in self.recorder.calls))
        )
        if len(replayed) != traj.n_steps or not same:
            failures.append("replayed audit does not reproduce the logged ledger")
        result["failures"] = failures
        return result


WORKLOADS = {w.name: w for w in (Cool0D, VrmArchive, Dike2D)}
