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
import time
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
    audit_values,
    builtin_config,
    run_scenario,
    state_values,
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
    """Which per-step bound (ENERGY_TOL, ENTROPY_TOL) an audited step breaks, or None.

    Every bound here and in check_audit_bounds is written so that NaN breaks it.
    """
    if not abs(rep.r_tot_rel) <= ENERGY_TOL:
        return f"energy residual |r_tot|/scale = {abs(rep.r_tot_rel):.3e} > {ENERGY_TOL:g}"
    if not rep.entropy_margin_rel >= ENTROPY_TOL:
        return f"entropy margin {rep.entropy_margin_rel:.3e} < {ENTROPY_TOL:g}"
    return None


def check_audit_bounds(traj) -> tuple[bool, str]:
    """Apply the shipped acceptance bounds to every audited step."""
    for i, rep in enumerate(traj.reports):
        why = _step_bound_failure(rep)
        if why is not None:
            return False, f"{why} at step {i + 1} (t={rep.t:.6g})"
    if traj.final_state is not None:
        # theta = w / c_v with c_v > 0, so theta_min < 0 exactly when min w < 0
        final = state_values(traj.final_state, traj.config.material)
        if not final["theta_min"] >= 0.0:
            return False, "negative enthalpy in final state"
        if not final["trace_ep_max"] <= TRACE_EP_TOL:
            return False, f"trace(Ep) = {final['trace_ep_max']:.3e} exceeds {TRACE_EP_TOL:g}"
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
    t_start = time.perf_counter()
    try:
        traj = run_scenario(config, out_dir=out_dir)
        manifest["accepted"] = True
        manifest["steps"] = traj.n_steps
        manifest["rejections"] = traj.n_rejections
        manifest["solver"] = {
            "sweeps": traj.sweeps,
            "m_passes": traj.m_passes,
            "krylov_applications": 0,
            "lu_solves": traj.lu_solves,
        }
        ok, why = check_audit_bounds(traj)
        manifest["audit_pass"] = ok
        manifest["audit_detail"] = why
        if ok and config.experiment in EXPERIMENTS:
            manifest["experiment_report"] = EXPERIMENTS[config.experiment](
                traj, out_dir=out_dir / "experiment"
            )
        manifest["wall_s"] = time.perf_counter() - t_start
        manifest["end_time"] = _utcnow()
        _write_manifest(out_dir, manifest)
        if not ok:
            print(f"audit failure: {why}", file=sys.stderr)
            return 3
        print(f"run {config.name}: {traj.n_steps} steps accepted; audits pass")
        return 0
    except PaleomagError as exc:
        manifest["failure"] = str(exc)
        manifest["wall_s"] = time.perf_counter() - t_start
        manifest["end_time"] = _utcnow()
        _write_manifest(out_dir, manifest)
        print(f"run failure: {exc}", file=sys.stderr)
        return 3


def cmd_audit(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        config = ScenarioConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
        pairs = json.loads((run_dir / "pairs.json").read_text())
        columns, audit_lines = _read_audit_csv(run_dir / "audit.csv")
    except (OSError, json.JSONDecodeError, PaleomagError) as exc:
        print(f"error: cannot read run directory: {exc}", file=sys.stderr)
        return 2
    if not isinstance(pairs, list) or not pairs:
        print("error: pairs.json lists no snapshot pairs to audit", file=sys.stderr)
        return 2
    grid = config.build_grid()
    params = config.material
    snapshots = run_dir / "snapshots"
    # the last pair's `_b` file, its state and the ledger its audit booked
    blob_b = new = ledger = None
    for n, meta in enumerate(pairs):
        try:
            i, t = meta["index"], float(meta["t"])
            tag = f"{i:08d}"
            loads_s = pair_loads(meta)
        except (KeyError, TypeError, ValueError, PaleomagError) as exc:
            print(f"error: malformed pairs.json entry {n} (counted from 0): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        path_a = snapshots / f"pair_{tag}_a.bin"
        path_b = snapshots / f"pair_{tag}_b.bin"
        try:
            blob_a = path_a.read_bytes()
            if blob_a == blob_b:
                # with output_every = 1 this pair's input state is the last
                # pair's output state, byte for byte: decode it and book its
                # ledger once
                prev, ledger_prev = new, ledger
            else:
                prev, ledger_prev = _read_pair_state(path_a, blob_a, grid), None
            blob_b = path_b.read_bytes()
            new = _read_pair_state(path_b, blob_b, grid)
        except (OSError, PaleomagError) as exc:
            print(f"error: corrupt snapshot pair {tag}: {exc}", file=sys.stderr)
            return 2
        rep = audit_step(prev, new, loads_s, meta["dt"], grid, params, ledger_prev)
        ledger = rep.ledger_new
        why = _step_bound_failure(rep)
        if why is not None:
            print(f"audit failure at t={rep.t:.6g}: {why}", file=sys.stderr)
            return 3
        # pair i is step i, logged in the i-th non-blank row of audit.csv
        if not 1 <= i <= len(audit_lines):
            print(f"error: audit.csv has no row for snapshot pair {tag}", file=sys.stderr)
            return 2
        row = next(csv.reader([audit_lines[i - 1]]))
        for name, value in {**audit_values(rep), **state_values(new, params)}.items():
            try:
                stored_val = float(row[columns.get(name)])
            except (IndexError, TypeError, ValueError):
                print(f"error: audit.csv row {i} has no valid {name} entry", file=sys.stderr)
                return 2
            if not abs(stored_val - value) <= 1e-9 * max(1.0, abs(value)):
                print(
                    f"audit failure: logged {name}={stored_val!r} at t={t:.6g} "
                    f"disagrees with snapshot value {value!r}",
                    file=sys.stderr,
                )
                return 3
    print(f"audit: {len(pairs)} snapshot pairs re-verified; all bounds hold")
    return 0


def _read_pair_state(path: Path, blob: bytes, grid):
    """The state of a pair file's bytes, on the run's grid."""
    state, snap_grid = read_snapshot(path, blob)
    if snap_grid != grid:
        raise PaleomagError(
            f"{path.name} holds {snap_grid}, but config.json builds {grid}"
        )
    return state


def _read_audit_csv(path: Path) -> tuple[dict, list]:
    """audit.csv's column positions by name, and its non-blank rows as unparsed lines.

    A pair parses only the row it names, so an audit of a few pairs of a
    long run does not parse every row.
    """
    lines = path.read_text().splitlines()
    header = next(csv.reader(lines[:1]), [])
    return {name: j for j, name in enumerate(header)}, [line for line in lines[1:] if line]


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
