"""Import weight: the package loads no SciPy subpackage it does not need.

``scipy.sparse.linalg`` is imported lazily by the LU factorization of the
momentum and heat blocks, and demag uses ``scipy.fft`` only, so importing
the package and its CLI pulls in neither ``scipy.sparse`` nor
``scipy.signal``: each would add to the start-up time and resident memory
of every run.
"""

import os
import subprocess
import sys
from pathlib import Path

import paleomag

SRC = str(Path(paleomag.__file__).resolve().parent.parent)


def test_import_loads_no_sparse_or_signal():
    code = (
        "import sys, paleomag, paleomag.cli\n"
        "print(' '.join(m for m in ('scipy.sparse', 'scipy.signal') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == ""
