"""Self-describing binary snapshot format for field states, and the
``pairs.json`` record of the loads of each snapshot pair.

Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON
header (grid metadata, time, field names/shapes), then the raw field
payloads as little-endian float64 in row-major order.  Round trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Optional

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


def read_snapshot(path, blob: Optional[bytes] = None) -> tuple[FieldState, Grid]:
    """Decode the snapshot file at ``path`` and validate its state.

    ``blob``, when given, must be the file's bytes, read by the caller; the
    file is then not read again.  The fields are read-only views of the
    bytes.  A malformed file raises ConfigError, and so does one with bytes
    after its last field.
    """
    path = Path(path)
    if blob is None:
        blob = path.read_bytes()
    if blob[:8] != MAGIC:
        raise ConfigError(f"{path}: not a paleomag snapshot (bad magic {blob[:8]!r})")
    if len(blob) < 16:
        raise ConfigError(f"{path}: truncated snapshot preamble ({len(blob)} bytes)")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    offset = 16 + hlen
    if offset > len(blob):
        raise ConfigError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(blob[16:offset].decode("utf-8"))
        # snapshots written before demag became a lattice convolution also
        # name a pad_factor; nothing reads it
        grid = make_grid(header["dim"], header["extents"], header["cells"])
        t = float(header["time"])
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["fields"]]
    except KeyError as exc:
        raise ConfigError(f"{path}: snapshot header has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: corrupt snapshot header: {exc}") from exc
    arrays, start = {}, offset
    for name, shape in specs:
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ConfigError(f"{path}: field {name} has a malformed shape {list(shape)}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise ConfigError(f"{path}: truncated payload for field {name}")
        arr = np.frombuffer(blob, "<f8", count, offset)
        if not arr.flags.aligned:
            # reductions over unaligned data round differently: copy
            arr = arr.copy()
            arr.flags.writeable = False
        arrays[name] = arr.reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise ConfigError(f"{path}: {len(blob) - offset} bytes after the last field")
    try:
        state = FieldState(t=t, **{k: arrays[k] for k in _FIELDS})
    except KeyError as exc:
        raise ConfigError(f"{path}: snapshot has no field {exc}") from exc
    # one check over the payload's bytes; only a failure looks field by field
    payload = np.frombuffer(blob, "<f8", (offset - start) // 8, start)
    if not (math.isfinite(t) and np.isfinite(payload).all()):
        bad = next((k for k, a in arrays.items() if not np.isfinite(a).all()), "time")
        raise ConfigError(f"{path}: snapshot {bad} holds a non-finite value")
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
    """The LoadsSample of a pairs.json entry (inverse of pair_record).

    The sample is validated as sample_loads validates it, at the entry's t
    and dt.
    """

    def tensor(T):
        return None if T is None else np.asarray(T)

    sample = LoadsSample(
        g=np.asarray(record["g"]),
        h_ext_k=np.asarray(record["h_ext_k"]),
        h_ext_prev=np.asarray(record["h_ext_prev"]),
        j_ext_k=record["j_ext_k"],
        grad_v_k=tensor(record["grad_v_k"]),
        stress_dev_k=tensor(record["stress_dev_k"]),
        theta_k=record["theta_k"],
    )
    sample.validate(record["t"], record["dt"])
    return sample


__all__ = ["write_snapshot", "read_snapshot", "pair_record", "pair_loads", "MAGIC"]
