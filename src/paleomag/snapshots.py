"""Self-describing binary snapshot format for field states, and the
``pairs.json`` record of the loads of each snapshot pair.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON
header (grid metadata, time, field names/shapes), then the raw field
payloads as little-endian float64 in row-major order.  Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import FieldState, Grid, LoadsSample, make_grid

MAGIC = b"PMAGSNP1"
_FIELDS = ("v", "Ee", "Ep", "m", "u", "w")


def write_snapshot(path, state: FieldState, grid: Grid) -> None:
    path = Path(path)
    header = {
        "format": 1,
        "dim": grid.dim,
        "extents": list(grid.extents),
        "cells": list(grid.cells),
        "time": state.t,
        "fields": [
            {"name": name, "shape": list(getattr(state, name).shape)} for name in _FIELDS
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in _FIELDS:
            arr = np.ascontiguousarray(getattr(state, name), dtype="<f8")
            fh.write(arr.tobytes())


def read_snapshot(path) -> tuple[FieldState, Grid]:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a paleomag snapshot (bad magic {magic!r})")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: corrupt snapshot header: {exc}") from exc
        # snapshots written before demag became a lattice convolution also
        # name a pad_factor; nothing reads it
        grid = make_grid(header["dim"], header["extents"], header["cells"])
        arrays = {}
        for spec in header["fields"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ConfigError(f"{path}: truncated payload for field {spec['name']}")
            arrays[spec["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    state = FieldState(t=float(header["time"]), **{k: arrays[k] for k in _FIELDS})
    state.validate(grid)
    return state, grid


def pair_record(index: int, t: float, dt: float, loads: LoadsSample) -> dict:
    """The pairs.json entry of snapshot pair ``index``: its step and loads."""

    def tensor(T):
        return None if T is None else T.tolist()

    return {
        "index": index,
        "t": t,
        "dt": dt,
        "g": list(map(float, loads.g)),
        "h_ext_k": list(map(float, loads.h_ext_k)),
        "h_ext_prev": list(map(float, loads.h_ext_prev)),
        "j_ext_k": loads.j_ext_k,
        "grad_v_k": tensor(loads.grad_v_k),
        "stress_dev_k": tensor(loads.stress_dev_k),
        "theta_k": loads.theta_k,
    }


def pair_loads(record: dict) -> LoadsSample:
    """The LoadsSample of a pairs.json entry (inverse of pair_record)."""

    def tensor(T):
        return None if T is None else np.asarray(T)

    return LoadsSample.over_step(
        record["dt"],
        np.asarray(record["h_ext_k"]),
        np.asarray(record["h_ext_prev"]),
        g=np.asarray(record["g"]),
        j_ext_k=record["j_ext_k"],
        grad_v_k=tensor(record["grad_v_k"]),
        stress_dev_k=tensor(record["stress_dev_k"]),
        theta_k=record["theta_k"],
    )


__all__ = ["write_snapshot", "read_snapshot", "pair_record", "pair_loads", "MAGIC"]
