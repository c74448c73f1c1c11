"""In-memory span tracer that wraps paleomag's public functions from outside.

The tracer replaces functions in the module namespaces their callers look
them up in (``paleomag.scenarios.step``, ``paleomag.stepper.solve_demag``,
``paleomag.constitutive.zeta_resolvent`` ...), so no file of the program
changes.  Every wrapped call records one span: name, start, end, parent
span and run id.  Spans are kept in flat arrays while the program runs and
written out once, at the end.  A span's self time is its duration minus the
time covered by its child spans.

``scipy.sparse.linalg.bicgstab`` is wrapped as well.  An injected callback
counts its iterations, and the system size tells the two Krylov solves of a
step apart: the momentum block has 2N unknowns, the heat block N.
"""

from __future__ import annotations

import csv
import inspect
import os
from array import array
from collections import Counter

import numpy as np

# kinematics functions grouped into the two layers the benchmark reports
STENCILS = (
    "grad_scalar", "grad_vector", "grad_tensor", "div_vector", "div_tensor",
    "laplacian", "upwind_advect", "advect_scalar",
)
ALGEBRA = ("sym", "skw", "dev", "tensor_trace", "matvec", "matmat")

# unit of every per-layer metric; "count" marks the exact solver-work counts
# that repeat bit for bit on a fixed seed
UNITS = {
    "stepper.step.calls": "count",
    "stepper.step.s": "s",
    "stepper.step.self_s": "s",
    "stepper.step.ms_p50": "ms",
    "stepper.step.ms_p90": "ms",
    "stepper.accept_ratio": "ratio",
    "stepper.sweeps": "count",
    "stepper.sweeps_per_step": "count/step",
    "stepper.residuals.s": "s",
    "stepper.momentum_krylov.s": "s",
    "stepper.momentum_krylov.solves_per_step": "count/step",
    "stepper.momentum_krylov.iters": "count",
    "stepper.momentum_krylov.iters_per_solve": "count/solve",
    "stepper.heat_krylov.s": "s",
    "stepper.heat_krylov.iters": "count",
    "stepper.heat_krylov.iters_per_solve": "count/solve",
    "constitutive.zeta_resolvent.calls": "count",
    "constitutive.zeta_resolvent.calls_per_step": "count/step",
    "constitutive.zeta_resolvent.s": "s",
    "constitutive.h_anisotropy.s": "s",
    "constitutive.s": "s",
    "kinematics.stencil.calls_per_step": "count/step",
    "kinematics.stencil.s": "s",
    "kinematics.algebra.s": "s",
    "demag.solve_demag.calls": "count",
    "demag.solve_demag.calls_per_step": "count/step",
    "demag.solve_demag.ms_p50": "ms",
    "demag.solve_demag.s": "s",
    "demag.residual_max": "ratio",
    "demag.h_dem_from_u.s": "s",
    "energetics.audit_step.calls": "count",
    "energetics.audit_step.ms_p50": "ms",
    "energetics.audit_step.s": "s",
    "energetics.energy_ledger.s": "s",
    "energetics.max_abs_r_tot_rel": "ratio",
    "scenarios.run_scenario.calls": "count",
    "scenarios.run_scenario.self_s": "s",
    "scenarios.experiment.s": "s",
    "snapshots.write_snapshot.calls": "count",
    "snapshots.write_snapshot.s": "s",
    "snapshots.write_snapshot.bytes": "bytes",
    "snapshots.read_snapshot.calls": "count",
    "snapshots.read_snapshot.s": "s",
    "snapshots.read_snapshot.bytes": "bytes",
    "cli.run.self_s": "s",
    "cli.audit.self_s": "s",
    "grid.sample_loads.s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span recorder; one instance per traced process.

    Spans are numbered in the order they open.  Name, run and parent are
    stored when a span opens; start, end and self time when it closes,
    together with its number, so a wrapped call costs about a microsecond.
    """

    def __init__(self, clock, n_cells: int):
        self.clock = clock              # the time source of every span
        self.n_cells = n_cells          # N of the 1D/2D grid, for the Krylov split
        self.name_ids: dict = {}
        self.run_ids: dict = {}
        self.run = 0                    # id of the current run (set_run)
        self.opened = {"name": array("i"), "run": array("i"), "parent": array("i")}
        self.closed = {"span": array("i"), "start": array("d"), "end": array("d"),
                       "self": array("d")}
        self.stack: list = []           # [span number, time covered by children]
        self.counts: Counter = Counter()
        self.demag_residual_max = 0.0
        self.paths: dict = {"write": [], "read": []}
        self._wrappers: dict = {}       # original function -> its wrapper
        self.t0 = clock()

    # -- recording ---------------------------------------------------------

    @staticmethod
    def _intern(table: dict, key: str) -> int:
        return table.setdefault(key, len(table))

    def set_run(self, run_id: str) -> None:
        """Tag the spans opened from now on with ``run_id``."""
        self.run = self._intern(self.run_ids, run_id)

    def traced(self, name: str, fn, on_return=None):
        """A wrapper of fn that records one span called ``name`` per call."""
        name_id = self._intern(self.name_ids, name)
        stack = self.stack
        names, runs, parents = self.opened["name"], self.opened["run"], self.opened["parent"]
        spans, starts = self.closed["span"], self.closed["start"]
        ends, selfs = self.closed["end"], self.closed["self"]
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [len(names), 0.0]
            names.append(name_id)
            runs.append(self.run)
            parents.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            t_start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = clock()
                stack.pop()
                duration = t_end - t_start
                spans.append(frame[0])
                starts.append(t_start)
                ends.append(t_end)
                selfs.append(duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                on_return(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (one per function)."""
        fn = getattr(owner, attr)
        if fn not in self._wrappers:
            self._wrappers[fn] = self.traced(name, fn, on_return)
        setattr(owner, attr, self._wrappers[fn])

    def wrap_module(self, module, layer: str) -> None:
        """Wrap every public function that ``module`` defines (its __all__)."""
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                self.wrap(module, attr, f"{layer}.{attr}")

    def wrap_bicgstab(self, spla) -> None:
        solves = {name: self.traced(name, spla.bicgstab)
                  for name in ("stepper.momentum_krylov", "stepper.heat_krylov")}

        def bicgstab(A, b, *args, callback=None, **kwargs):
            momentum = np.size(b) == 2 * self.n_cells
            name = "stepper.momentum_krylov" if momentum else "stepper.heat_krylov"
            iters = [0]

            def counting(xk):
                iters[0] += 1
                if callback is not None:
                    callback(xk)

            try:
                return solves[name](A, b, *args, callback=counting, **kwargs)
            finally:
                self.counts[name + ".iters"] += iters[0]

        spla.bicgstab = bicgstab

    def install(self) -> None:
        """Wrap the layer boundaries of paleomag and SciPy's bicgstab."""
        import scipy.sparse.linalg as spla

        from paleomag import cli, constitutive, energetics, kinematics
        from paleomag import scenarios, stepper

        self.wrap_module(kinematics, "kinematics")
        self.wrap_module(constitutive, "constitutive")
        self.wrap(constitutive, "dev", "kinematics.dev")     # imported by name
        self.wrap(constitutive, "tensor_trace", "kinematics.tensor_trace")

        self.wrap(cli, "cmd_run", "cli.run")
        self.wrap(cli, "cmd_audit", "cli.audit")
        self.wrap(scenarios, "run_scenario", "scenarios.run_scenario")
        self.wrap(cli, "run_scenario", "scenarios.run_scenario")
        for key, fn in scenarios.EXPERIMENTS.items():    # the dict cli dispatches on
            scenarios.EXPERIMENTS[key] = self.traced("scenarios.experiment", fn)
        self.wrap(scenarios, "sample_loads", "grid.sample_loads")
        self.wrap(scenarios, "step", "stepper.step", on_return=_after_step)
        self.wrap(stepper, "residuals", "stepper.residuals")
        self.wrap(stepper, "solve_demag", "demag.solve_demag", on_return=_after_demag)
        self.wrap(stepper, "h_dem_from_u", "demag.h_dem_from_u")
        self.wrap(energetics, "h_dem_from_u", "demag.h_dem_from_u")
        self.wrap(scenarios, "audit_step", "energetics.audit_step")
        self.wrap(cli, "audit_step", "energetics.audit_step")
        self.wrap(energetics, "energy_ledger", "energetics.energy_ledger")
        self.wrap(cli, "energy_ledger", "energetics.energy_ledger")
        self.wrap(scenarios, "write_snapshot", "snapshots.write_snapshot",
                  on_return=_after_write)
        self.wrap(cli, "read_snapshot", "snapshots.read_snapshot", on_return=_after_read)
        self.wrap_bicgstab(spla)

    # -- output ------------------------------------------------------------

    def spans(self) -> dict:
        """Every span as arrays indexed by span number."""
        order = np.frombuffer(self.closed["span"], dtype=np.int32)
        out = {key: np.frombuffer(arr, dtype=np.int32) for key, arr in self.opened.items()}
        for key in ("start", "end", "self"):
            out[key] = np.full(len(out["name"]), np.nan)
            out[key][order] = np.frombuffer(self.closed[key])
        out["dur"] = out["end"] - out["start"]
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row (times relative to tracer start)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.spans()
        names = {i: n for n, i in self.name_ids.items()}
        runs = {i: r for r, i in self.run_ids.items()}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "run", "parent", "start_s", "end_s", "self_s"))
            for i in range(len(spans["name"])):
                out.writerow((
                    i, names[spans["name"][i]], runs[spans["run"][i]], spans["parent"][i],
                    f"{spans['start'][i] - self.t0:.9f}", f"{spans['end'][i] - self.t0:.9f}",
                    f"{spans['self'][i]:.9f}",
                ))

def _after_step(tracer: Tracer, args, result) -> None:
    _, report = result
    tracer.counts["stepper.sweeps"] += report.iterations
    tracer.counts["stepper.accepted"] += int(report.accepted)


def _after_demag(tracer: Tracer, args, result) -> None:
    tracer.demag_residual_max = max(tracer.demag_residual_max, float(result.residual))


def _after_write(tracer: Tracer, args, result) -> None:
    tracer.paths["write"].append(str(args[0]))


def _after_read(tracer: Tracer, args, result) -> None:
    tracer.paths["read"].append(str(args[0]))


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the recorded spans to the benchmark's per-layer metrics."""
    arr = tracer.spans()
    ids = tracer.name_ids

    def pick(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(arr["name"], wanted) if wanted else np.zeros(arr["name"].shape, bool)

    def total(mask, key="dur"):
        return float(np.sum(arr[key][mask]))

    def pct_ms(mask, q):
        return float(np.percentile(arr["dur"][mask], q) * 1e3) if np.any(mask) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    step = pick("stepper.step")
    n_step = int(np.sum(step))
    mom = pick("stepper.momentum_krylov")
    heat = pick("stepper.heat_krylov")
    zeta = pick("constitutive.zeta_resolvent")
    stencil = pick(*(f"kinematics.{f}" for f in STENCILS))
    demag = pick("demag.solve_demag")
    audit = pick("energetics.audit_step")
    scen = pick("scenarios.run_scenario")
    write = pick("snapshots.write_snapshot")
    read = pick("snapshots.read_snapshot")
    counts = tracer.counts
    n_mom, n_heat = int(np.sum(mom)), int(np.sum(heat))
    return {
        "stepper.step.calls": n_step,
        "stepper.step.s": total(step),
        "stepper.step.self_s": total(step, "self"),
        "stepper.step.ms_p50": pct_ms(step, 50),
        "stepper.step.ms_p90": pct_ms(step, 90),
        "stepper.accept_ratio": ratio(counts["stepper.accepted"], n_step),
        "stepper.sweeps": counts["stepper.sweeps"],
        "stepper.sweeps_per_step": ratio(counts["stepper.sweeps"], n_step),
        "stepper.residuals.s": total(pick("stepper.residuals")),
        "stepper.momentum_krylov.s": total(mom),
        "stepper.momentum_krylov.solves_per_step": ratio(n_mom, n_step),
        "stepper.momentum_krylov.iters": counts["stepper.momentum_krylov.iters"],
        "stepper.momentum_krylov.iters_per_solve": ratio(
            counts["stepper.momentum_krylov.iters"], n_mom),
        "stepper.heat_krylov.s": total(heat),
        "stepper.heat_krylov.iters": counts["stepper.heat_krylov.iters"],
        "stepper.heat_krylov.iters_per_solve": ratio(counts["stepper.heat_krylov.iters"], n_heat),
        "constitutive.zeta_resolvent.calls": int(np.sum(zeta)),
        "constitutive.zeta_resolvent.calls_per_step": ratio(int(np.sum(zeta)), n_step),
        "constitutive.zeta_resolvent.s": total(zeta),
        "constitutive.h_anisotropy.s": total(pick("constitutive.h_anisotropy")),
        "constitutive.s": total(pick(*(n for n in ids if n.startswith("constitutive."))),
                                "self"),
        "kinematics.stencil.calls_per_step": ratio(int(np.sum(stencil)), n_step),
        "kinematics.stencil.s": total(stencil, "self"),
        "kinematics.algebra.s": total(pick(*(f"kinematics.{f}" for f in ALGEBRA)), "self"),
        "demag.solve_demag.calls": int(np.sum(demag)),
        "demag.solve_demag.calls_per_step": ratio(int(np.sum(demag)), n_step),
        "demag.solve_demag.ms_p50": pct_ms(demag, 50),
        "demag.solve_demag.s": total(demag),
        "demag.residual_max": tracer.demag_residual_max,
        "demag.h_dem_from_u.s": total(pick("demag.h_dem_from_u")),
        "energetics.audit_step.calls": int(np.sum(audit)),
        "energetics.audit_step.ms_p50": pct_ms(audit, 50),
        "energetics.audit_step.s": total(audit),
        "energetics.energy_ledger.s": total(pick("energetics.energy_ledger")),
        "scenarios.run_scenario.calls": int(np.sum(scen)),
        "scenarios.run_scenario.self_s": total(scen, "self"),
        "scenarios.experiment.s": total(pick("scenarios.experiment")),
        "snapshots.write_snapshot.calls": int(np.sum(write)),
        "snapshots.write_snapshot.s": total(write),
        "snapshots.write_snapshot.bytes": sum(os.path.getsize(p) for p in tracer.paths["write"]),
        "snapshots.read_snapshot.calls": int(np.sum(read)),
        "snapshots.read_snapshot.s": total(read),
        "snapshots.read_snapshot.bytes": sum(os.path.getsize(p) for p in tracer.paths["read"]),
        "cli.run.self_s": total(pick("cli.run"), "self"),
        "cli.audit.self_s": total(pick("cli.audit"), "self"),
        "grid.sample_loads.s": total(pick("grid.sample_loads")),
    }
