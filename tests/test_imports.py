"""Import weight: the package loads no SciPy subpackage it does not need.

The momentum and heat blocks are solved by ``scipy.fft`` transforms, and
demag uses ``scipy.fft`` too, so neither importing the package and its
CLI nor taking a 2D step with demag on pulls in ``scipy.sparse`` or
``scipy.signal``: each would add to the start-up time and resident memory
of every run.
"""

import os
import subprocess
import sys
from pathlib import Path

import paleomag

SRC = str(Path(paleomag.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)


def _loaded_after(code: str) -> str:
    """The names of scipy.sparse and scipy.signal that are loaded after running code."""
    code += (
        "\nimport sys\n"
        "print(' '.join(m for m in ('scipy.sparse', 'scipy.signal') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_import_loads_no_sparse_or_signal():
    assert _loaded_after("import paleomag, paleomag.cli") == ""


def test_2d_demag_step_loads_no_sparse_or_signal():
    code = (
        "from paleomag.grid import sample_loads\n"
        "from paleomag.stepper import step\n"
        "from test_stepper import _spatial_config\n"
        "cfg, state = _spatial_config()\n"
        "new, rep = step(state, sample_loads(cfg.build_loads(), cfg.dt, cfg.dt), cfg.dt,\n"
        "                cfg.build_grid(), cfg.material, cfg.demag)\n"
        "assert rep.accepted and rep.lu_solves > 0, rep.message\n"
    )
    assert _loaded_after(code) == ""
