"""Command-line interface: ``run``, ``audit``, ``sweep``.

Exit codes: 0 success, 2 configuration/parse error, 3 run or audit
failure.  A ``manifest.json`` is written into the run directory in every
case, including failures (with the failure cause).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
# energy_ledger stays importable from this module: perfbench/tracer.py wraps
# it here by name
from .energetics import audit_step, energy_ledger  # noqa: F401
from .errors import PaleomagError
from .scenarios import (
    EXPERIMENTS,
    SHIPPED_SCENARIOS,
    ScenarioConfig,
    builtin_config,
    run_scenario,
)
from .snapshots import pair_loads, read_snapshot

# Audit acceptance bounds (per accepted step, relative to the energy scale).
ENERGY_TOL = 1e-8
ENTROPY_TOL = -1e-8
TRACE_EP_TOL = 1e-10


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _config_hash(config: ScenarioConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _load_config(path_or_name: str, overrides) -> ScenarioConfig:
    path = Path(path_or_name)
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PaleomagError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    elif path_or_name in SHIPPED_SCENARIOS:
        data = builtin_config(path_or_name).to_dict()
    else:
        raise PaleomagError(f"config {path_or_name!r}: no such file or builtin scenario")
    for key, value in overrides or ():
        _apply_override(data, key, value)
    return ScenarioConfig.from_dict(data)


def _apply_override(data: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _parse_set_args(pairs) -> list:
    out = []
    for pair in pairs or ():
        if "=" not in pair:
            raise PaleomagError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out.append((key, value))
    return out


def _step_bound_failure(rep):
    """Which per-step bound (ENERGY_TOL, ENTROPY_TOL) an audited step breaks, or None."""
    if abs(rep.r_tot_rel) > ENERGY_TOL:
        return f"energy residual |r_tot|/scale = {abs(rep.r_tot_rel):.3e} > {ENERGY_TOL:g}"
    if rep.entropy_margin_rel < ENTROPY_TOL:
        return f"entropy margin {rep.entropy_margin_rel:.3e} < {ENTROPY_TOL:g}"
    return None


def check_audit_bounds(traj) -> tuple[bool, str]:
    """Apply the shipped acceptance bounds to every audited step."""
    for i, rep in enumerate(traj.reports):
        why = _step_bound_failure(rep)
        if why is not None:
            return False, f"{why} at step {i + 1} (t={rep.t:.6g})"
    state = traj.final_state
    if state is not None:
        if float(np.min(state.w)) < 0.0:
            return False, "negative enthalpy in final state"
        trp = float(np.max(np.abs(np.trace(state.Ep, axis1=-2, axis2=-1))))
        if trp > TRACE_EP_TOL:
            return False, f"trace(Ep) = {trp:.3e} exceeds {TRACE_EP_TOL:g}"
    return True, "all audit bounds hold"


def _write_manifest(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    manifest = {
        "command": "run",
        "version": __version__,
        "start_time": _utcnow(),
        "accepted": False,
        "audit_pass": False,
        "failure": None,
        "config_hash": None,
    }
    try:
        config = _load_config(args.config, _parse_set_args(args.set))
        manifest["config_hash"] = _config_hash(config)
        manifest["scenario"] = config.name
    except (PaleomagError, OSError) as exc:
        manifest["failure"] = str(exc)
        manifest["end_time"] = _utcnow()
        _write_manifest(out_dir, manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        traj = run_scenario(config, out_dir=out_dir)
        manifest["accepted"] = True
        manifest["steps"] = traj.n_steps
        manifest["rejections"] = traj.n_rejections
        ok, why = check_audit_bounds(traj)
        manifest["audit_pass"] = ok
        manifest["audit_detail"] = why
        if ok and config.experiment in EXPERIMENTS:
            manifest["experiment_report"] = EXPERIMENTS[config.experiment](
                traj, out_dir=out_dir / "experiment"
            )
        manifest["end_time"] = _utcnow()
        _write_manifest(out_dir, manifest)
        if not ok:
            print(f"audit failure: {why}", file=sys.stderr)
            return 3
        print(f"run {config.name}: {traj.n_steps} steps accepted; audits pass")
        return 0
    except PaleomagError as exc:
        manifest["failure"] = str(exc)
        manifest["end_time"] = _utcnow()
        _write_manifest(out_dir, manifest)
        print(f"run failure: {exc}", file=sys.stderr)
        return 3


def cmd_audit(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        config = ScenarioConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
        pairs = json.loads((run_dir / "pairs.json").read_text())
        audit_rows = _read_audit_csv(run_dir / "audit.csv")
    except (OSError, json.JSONDecodeError, PaleomagError) as exc:
        print(f"error: cannot read run directory: {exc}", file=sys.stderr)
        return 2
    if not pairs:
        print("error: run directory holds no snapshot pairs to audit", file=sys.stderr)
        return 2
    grid = config.build_grid()
    params = config.material
    for meta in pairs:
        tag = f"{meta['index']:08d}"
        try:
            prev, _ = read_snapshot(run_dir / "snapshots" / f"pair_{tag}_a.bin")
            new, _ = read_snapshot(run_dir / "snapshots" / f"pair_{tag}_b.bin")
        except (OSError, PaleomagError) as exc:
            print(f"error: corrupt snapshot pair {tag}: {exc}", file=sys.stderr)
            return 2
        loads_s = pair_loads(meta)
        rep = audit_step(prev, new, loads_s, meta["dt"], grid, params, eps=config.eps)
        why = _step_bound_failure(rep)
        if why is not None:
            print(f"audit failure at t={rep.t:.6g}: {why}", file=sys.stderr)
            return 3
        row = audit_rows.get(_fmt_key(meta["t"]))
        if row is not None:
            ledger = rep.ledger_new  # the ledger of `new` under loads_s.h_ext_k
            for name, value in (
                ("kinetic", ledger.kinetic),
                ("stored", ledger.stored),
                ("heat", ledger.heat),
                ("zeeman", ledger.zeeman),
            ):
                stored_val = float(row[name])
                if abs(stored_val - value) > 1e-9 * max(1.0, abs(value)):
                    print(
                        f"audit failure: logged {name}={stored_val!r} at t={meta['t']:.6g} "
                        f"disagrees with snapshot value {value!r}",
                        file=sys.stderr,
                    )
                    return 3
    print(f"audit: {len(pairs)} snapshot pairs re-verified; all bounds hold")
    return 0


def _fmt_key(t: float) -> str:
    return f"{t:.12g}"


def _read_audit_csv(path: Path) -> dict:
    rows = {}
    if not path.exists():
        return rows
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[_fmt_key(float(row["t"]))] = row
    return rows


def cmd_sweep(args) -> int:
    out_base = Path(args.out)
    values = [v for v in args.values.split(",") if v]
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 2
    summary = []
    failures = 0
    for i, raw in enumerate(values):
        out_dir = out_base / f"run_{i:03d}"
        try:
            config = _load_config(
                args.config, _parse_set_args(args.set) + [(args.param, raw)]
            )
        except PaleomagError as exc:
            print(f"error: value {raw!r}: {exc}", file=sys.stderr)
            return 2
        row = {"index": i, args.param: raw, "status": "ok"}
        try:
            traj = run_scenario(config, out_dir=out_dir)
            ok, why = check_audit_bounds(traj)
            row["status"] = "ok" if ok else "audit-failure"
            row["n_steps"] = traj.n_steps
            row["max_abs_r_tot_rel"] = max(
                (abs(r.r_tot_rel) for r in traj.reports), default=0.0
            )
            row["min_entropy_margin_rel"] = min(
                (r.entropy_margin_rel for r in traj.reports), default=0.0
            )
            row["m_final_norm"] = float(
                np.mean(np.sqrt(np.sum(traj.final_state.m**2, axis=-1)))
            )
            if not ok:
                failures += 1
        except PaleomagError as exc:
            row["status"] = f"failed: {exc}"
            failures += 1
        summary.append(row)
    out_base.mkdir(parents=True, exist_ok=True)
    columns = ["index", args.param, "status", "n_steps", "max_abs_r_tot_rel",
               "min_entropy_margin_rel", "m_final_norm"]
    with open(out_base / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in summary:
            writer.writerow(str(row.get(c, "")) for c in columns)
    if failures:
        print(f"sweep: {failures}/{len(values)} runs failed; partial summary kept",
              file=sys.stderr)
        return 3
    print(f"sweep: {len(values)} runs complete; summary at {out_base / 'summary.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paleomag",
        description="Thermo-magneto-viscoelastic paleomagnetism simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True,
                       help="config JSON path or builtin name (trm/irm/vrm/melt)")
    p_run.add_argument("--out", required=True, help="output run directory")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
    p_run.set_defaults(func=cmd_run)

    p_audit = subs.add_parser("audit", help="re-audit a finished run directory")
    p_audit.add_argument("run_dir")
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = subs.add_parser("sweep", help="run a config once per parameter value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
