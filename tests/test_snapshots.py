"""Binary snapshot format: bit-exact round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from paleomag.errors import ConfigError
from paleomag.grid import FieldState, Loads, make_grid, sample_loads
from paleomag.kinematics import dev, sym
from paleomag.snapshots import (
    MAGIC,
    pair_loads,
    pair_record,
    read_snapshot,
    write_snapshot,
)

from conftest import rewrite_snapshot_header


def random_state(grid, seed=11):
    rng = np.random.default_rng(seed)
    s = FieldState.zeros(grid)
    s.v[...] = rng.normal(size=s.v.shape)
    s.Ee[...] = sym(rng.normal(size=s.Ee.shape))
    s.Ep[...] = dev(sym(rng.normal(size=s.Ep.shape)))
    s.m[...] = rng.normal(size=s.m.shape)
    s.u[...] = rng.normal(size=s.u.shape)
    s.w[...] = rng.uniform(0.5, 2.0, size=s.w.shape)
    s.t = 3.14159
    return s


@pytest.mark.parametrize("dim,extents,cells", [(0, (), ()), (2, (1.0, 2.0), (6, 4))])
def test_roundtrip_bit_exact(tmp_path, dim, extents, cells):
    grid = make_grid(dim, extents, cells)
    state = random_state(grid)
    path = tmp_path / "snap.bin"
    write_snapshot(path, state, grid)
    back, grid_back = read_snapshot(path)
    assert grid_back == grid
    assert back.t == state.t
    for name in ("v", "Ee", "Ep", "m", "u", "w"):
        a, b = getattr(state, name), getattr(back, name)
        assert a.shape == b.shape
        assert np.array_equal(a, b)  # bit-exact, no tolerance


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="magic"):
        read_snapshot(path)


def test_truncated_payload(tmp_path, grid0):
    state = FieldState.zeros(grid0, w0=1.0)
    path = tmp_path / "trunc.bin"
    write_snapshot(path, state, grid0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ConfigError, match="truncated"):
        read_snapshot(path)


def test_bytes_after_the_last_field(tmp_path, grid0):
    path = tmp_path / "long.bin"
    write_snapshot(path, FieldState.zeros(grid0, w0=1.0), grid0)
    path.write_bytes(path.read_bytes() + bytes(23))
    with pytest.raises(ConfigError, match="23 bytes after the last field"):
        read_snapshot(path)


def test_corrupt_header(tmp_path, grid0):
    state = FieldState.zeros(grid0, w0=1.0)
    path = tmp_path / "hdr.bin"
    write_snapshot(path, state, grid0)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # scramble a header byte past the length field
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        read_snapshot(path)


@pytest.mark.parametrize("size", [8, 12, 15])
def test_truncated_preamble(tmp_path, grid0, size):
    path = tmp_path / "short.bin"
    write_snapshot(path, FieldState.zeros(grid0, w0=1.0), grid0)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ConfigError, match="truncated snapshot preamble"):
        read_snapshot(path)


def test_header_longer_than_file(tmp_path, grid0):
    path = tmp_path / "hlen.bin"
    write_snapshot(path, FieldState.zeros(grid0, w0=1.0), grid0)
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(blob)) + blob[16:])
    with pytest.raises(ConfigError, match="truncated snapshot header"):
        read_snapshot(path)


MALFORMED_HEADERS = {
    "no dim": lambda h: h.pop("dim"),
    "no fields": lambda h: h.pop("fields"),
    "no time": lambda h: h.pop("time"),
    "field without name": lambda h: h["fields"][0].pop("name"),
    "field without shape": lambda h: h["fields"][0].pop("shape"),
    "field missing": lambda h: h["fields"].pop(),
    "negative shape": lambda h: h["fields"][0].update(shape=[-1]),
    "shape of strings": lambda h: h["fields"][0].update(shape=["2"]),
    "fields not a list": lambda h: h.update(fields=3),
    "extents not numbers": lambda h: h.update(dim=1, extents=["a"], cells=[1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header(tmp_path, grid0, case):
    path = tmp_path / "hdr.bin"
    write_snapshot(path, FieldState.zeros(grid0, w0=1.0), grid0)
    rewrite_snapshot_header(path, MALFORMED_HEADERS[case])
    with pytest.raises(ConfigError):
        read_snapshot(path)


def test_decoded_fields_are_read_only_and_aligned(tmp_path):
    # the fields view the file's bytes; an unaligned payload is copied once,
    # since NumPy reductions over unaligned data round differently
    grid = make_grid(2, (1.0, 2.0), (6, 4))
    state = random_state(grid)
    path = tmp_path / "snap.bin"
    for pad in range(8):  # every payload offset modulo 8
        write_snapshot(path, state, grid)
        rewrite_snapshot_header(path, lambda h: h.update(note="x" * pad))
        back, _ = read_snapshot(path)
        for name in ("v", "Ee", "Ep", "m", "u", "w"):
            arr = getattr(back, name)
            assert arr.flags.aligned and not arr.flags.writeable
            assert np.array_equal(arr, getattr(state, name))


def test_given_bytes_are_decoded_without_a_read(tmp_path, grid0):
    state = random_state(grid0)
    path = tmp_path / "snap.bin"
    write_snapshot(path, state, grid0)
    blob = path.read_bytes()
    path.unlink()
    back, grid = read_snapshot(path, blob)
    assert grid == grid0 and back.t == state.t
    np.testing.assert_array_equal(back.m, state.m)


def test_u_of_the_old_padded_shape(tmp_path):
    # before u had n + 2 cells per axis it had pad_factor * n - 1
    grid = make_grid(2, (2.0, 1.0), (8, 4))
    state = FieldState.zeros(grid, w0=1.0)
    state.u = np.zeros((31, 15))
    path = tmp_path / "old.bin"
    write_snapshot(path, state, grid)
    with pytest.raises(ConfigError, match=r"u has shape \(31, 15\), expected \(10, 6\)"):
        read_snapshot(path)


def test_header_naming_pad_factor(tmp_path, grid0):
    # snapshots written while demag padded a grid name pad_factor; the
    # reader ignores it
    state = random_state(grid0)
    path = tmp_path / "old.bin"
    write_snapshot(path, state, grid0)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = dict(json.loads(blob[16 : 16 + hlen]), pad_factor=4)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen :])
    back, grid = read_snapshot(path)
    assert grid == grid0
    for name in ("v", "Ee", "Ep", "m", "u", "w"):
        np.testing.assert_array_equal(getattr(back, name), getattr(state, name))


def test_magic_constant():
    assert MAGIC == b"PMAGSNP1"


def test_pair_record_roundtrip_bit_exact():
    # every load a pairs.json entry carries, the driven ones included
    loads = Loads(
        g=np.array([0.0, -0.1]),
        h_ext=lambda t: np.array([np.sin(t), 0.3 * t]),
        j_ext=lambda t: 0.25,
        stress_dev=lambda t: np.array([[0.1, 0.2], [0.2, -0.1]]) * t,
        theta=lambda t: 0.7 + t,
    )
    sample = sample_loads(loads, 0.3, 0.01)
    back = pair_loads(json.loads(json.dumps(pair_record(7, 0.3, 0.01, sample))))
    for name in ("g", "h_ext_k", "h_ext_prev", "j_ext_k", "stress_dev_k", "theta_k"):
        np.testing.assert_array_equal(getattr(back, name), getattr(sample, name))
    assert back.grad_v_k is None
