"""One benchmark process: a set-up probe, an untraced run or a traced run.

    python3 perfbench/worker.py setup --workload W --seed N --work DIR
    python3 perfbench/worker.py run   --workload W --seed N --work DIR --seconds T
    python3 perfbench/worker.py trace --workload W --seed N --work DIR

DIR is the benchmark's own directory under ``.bench_build``.  A workload
writes its run directory to ``DIR/runs/<workload>`` and keeps it from one
repetition, and one process, to the next (see workloads.py).

``run.py`` starts these with ``src`` on PYTHONPATH and the BLAS/OpenMP
thread pools pinned to one thread.  Each prints one JSON object as the last
line of its standard output.
"""

from time import perf_counter

T_START = perf_counter()    # before paleomag, NumPy and SciPy are imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_S, Pacer, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_CALIBRATIONS = 8      # short kernels timed after a set-up probe


def _import_paleomag() -> None:
    """Import paleomag with the SciPy modules it imports lazily, mid-run."""
    import scipy.fft  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    import paleomag.cli  # noqa: F401


def _rep(workload, pacer: Pacer, tracer=None) -> dict:
    """One repetition; an exception in the program counts as a failure."""
    try:
        return workload.rep(pacer, tracer)
    except Exception:  # the benchmark must report the failure, not die
        traceback.print_exc()
        return {"failures": ["exception: " + traceback.format_exc().strip().splitlines()[-1]]}


def _paced(pacer: Pacer) -> Pacer:
    """Make every time step, demag solve and audited pair a pause point.

    A tracer must be installed before, so that no span covers a calibration.
    """
    from paleomag import cli, scenarios, stepper

    pacer.hook(scenarios, "step")
    pacer.hook(stepper, "solve_demag")
    pacer.hook(cli, "audit_step")
    return pacer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    work = Path(args.work)
    _import_paleomag()
    workload = WORKLOADS[args.workload](args.seed, work / "runs" / args.workload)
    workload.prepare()
    out: dict = {}
    if args.mode == "setup":
        out["setup_s"] = perf_counter() - T_START
        out["calibration_s"] = calibrate(SETUP_CALIBRATIONS)
        out["scaled_setup_s"] = (out["setup_s"] * SETUP_CALIBRATIONS * REFERENCE_S
                                 / out["calibration_s"])
    elif args.mode == "run":
        pacer = _paced(Pacer())
        workload.warm_up()
        reps = []
        t0 = next_end = perf_counter()
        # repeat while a next repetition, as long as the last one, still fits
        while not reps or next_end - t0 <= args.seconds:
            start = perf_counter()
            reps.append(_rep(workload, pacer))
            if len(reps) == 1:  # later repetitions add a little, unrelated to the work
                out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if reps[-1]["failures"]:
                break
            now = perf_counter()
            next_end = now + (now - start)
        out["reps"] = reps
        out["calibrations"] = pacer.segments
        out["calibration_s"] = pacer.paused
    else:
        from tracer import Tracer, layer_metrics

        workload.warm_up()
        pacer = Pacer()
        cells = workload.config.cells
        tracer = Tracer(pacer.clock, math.prod(cells) if cells else 0)
        tracer.install()
        rep = _rep(workload, _paced(pacer), tracer)
        out["reps"] = [rep]
        if not rep["failures"]:
            out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.opened["name"])
        out["span_file"] = str(work / "traces" / f"{args.workload}-seed{args.seed}.csv")
        tracer.write(out["span_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
