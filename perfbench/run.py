"""Paleomag benchmark runner.

    python3 perfbench/run.py --workload cool_0d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from the root of a source checkout.  Every workload runs in worker
processes started from ``src`` with the BLAS/OpenMP thread pools pinned to
one thread.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of one extra, traced repetition.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md next to this file
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import UNITS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5            # fresh processes per run; setup_s is their median
DEADLINE_S = 170.0          # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("cool_0d", "vrm_archive", "dike_2d")
END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "reverify_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Starts worker processes for one workload and seed under a deadline."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_dir = root / ".bench_build" / "perfbench"
        (self.out_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(self.out_dir / "tmp"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.workload}: out of time before the {mode} step")
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(self.out_dir), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: {mode} worker exceeded the deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload}: {mode} worker exited {proc.returncode}")
        return json.loads(lines[-1])


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_pinning": {var: "1" for var in THREAD_VARS},
        "note": "per-process timers only; no system-wide tracing, no cache dropping",
    }


def _median(reps: list, key: str) -> float:
    values = [r[key] for r in reps if key in r]
    if not values:
        raise BenchError(f"no repetition measured {key}")
    return statistics.median(values)


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record with every metric."""
    record = {"workload": runner.workload, "seed": runner.seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    setups = []
    if not trace:
        setups = [runner.worker("setup") for _ in range(SETUP_PROBES)]
    untraced = runner.worker("run", "--seconds", str(seconds))
    reps = untraced["reps"]
    record["reps"] = reps
    steps_per_s = _median(reps, "scaled_steps_per_s")
    if trace:
        traced = runner.worker("trace")
        rep = traced["reps"][0]
        reps = reps + [rep]
        layers = traced.get("layers", {})
        if "steps_per_s" in rep:
            layers["trace.overhead_frac"] = steps_per_s / rep["scaled_steps_per_s"] - 1.0
            layers["energetics.max_abs_r_tot_rel"] = rep["max_abs_r_tot_rel"]
        record["traced_rep"] = rep
        record["spans"] = traced["spans"]
        record["span_file"] = traced["span_file"]
        record["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(p["scaled_setup_s"] for p in setups),
            "steps_per_s": steps_per_s,
            "reverify_s": _median(reps, "scaled_reverify_s"),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        record["unscaled"] = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "steps_per_s": _median(reps, "steps_per_s"),
            "reverify_s": _median(reps, "reverify_s"),
        }
        record["setup_probes"] = setups
        record["calibrations"] = untraced["calibrations"]
        record["calibration_s"] = untraced["calibration_s"]
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    record["attempted"] = len(reps)
    record["failed"] = sum(1 for r in reps if r["failures"])
    record["failures"] = [f for r in reps for f in r["failures"]]
    return record


def report(record: dict, out_dir: Path) -> None:
    """Print a record for people, and keep it as JSON under out_dir/results."""
    name = record["workload"]
    env = record["environment"]
    print(f"# {name}: seed {record['seed']}, {record['seconds']:g} s, trace {record['trace']}; "
          f"nproc {env['nproc']}, {env['cpu_model']}, Python {env['python']}, "
          f"NumPy {env['numpy']}, SciPy {env['scipy']}, BLAS/OpenMP threads 1")
    reps = [r for r in record["reps"] if "steps_per_s" in r]
    print(f"# {name}: {len(record['reps'])} untraced reps; steps/s "
          f"{[round(r['steps_per_s'], 2) for r in reps]}, reverify s "
          f"{[round(r['reverify_s'], 4) for r in reps]}")
    for key, value in record.get("unscaled", {}).items():
        print(f"# {name}: {key} as measured = {value:.6g}, before scaling")
    for key, metric in record["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name} failed_frac = {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} repetitions)")
    for failure in record["failures"]:
        print(f"# {name} check failed: {failure}")
    path = out_dir / "results" / f"{name}-seed{record['seed']}-trace{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "paleomag" / "__init__.py").is_file():
        print("error: run from the root of a paleomag checkout (src/paleomag not found)",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            runner = Runner(root, name, args.seed)
            records.append(measure(runner, args.seconds, bool(args.trace)))
            report(records[-1], runner.out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
