"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from paleomag.constitutive import MaterialParams
from paleomag.grid import make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def params():
    return MaterialParams()


@pytest.fixture
def grid0():
    return make_grid(0)


@pytest.fixture
def grid1():
    return make_grid(1, (1.0,), (16,))


@pytest.fixture
def grid2():
    return make_grid(2, (1.0, 1.0), (8, 8))


def rewrite_snapshot_header(path, edit):
    """Rewrite a snapshot file's JSON header through ``edit(header)``; keep its payload."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])


def material(**overrides) -> MaterialParams:
    """The shipped nondimensional base material with overrides."""
    base = dict(
        rho=1.0, K_E=1.0, G_E=1.0, a0=1.0, b0=1.0, theta_c=1.0, c_v=100.0,
        tau_c=0.05, eps_reg=1e-6, r_exp=3.0, p=4.0, nu1=1.0, nu2=1e-6,
        M_solid=1e4, M_magma=1e-2, theta_melt=1.5, melt_width=0.2,
        K_cond=1.0, mu0=1.0, kappa=0.0, varkappa=0.0,
        theta_b=0.6, h_c_high=0.1, h_c_low=0.0, hc_width=0.02,
    )
    base.update(overrides)
    return MaterialParams(**base)
