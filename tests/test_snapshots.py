"""Binary snapshot format and trajectory persistence."""

import json
import math
import os
import re
import struct

import numpy as np
import pytest

from lpnse.ensembles import divfree_noise
from lpnse.errors import GridError, NonFiniteError
from lpnse.field import Field, from_physical, scale, zero_field
from lpnse.grid import Grid
from lpnse.snapshots import (MAGIC, load_trajectory, read_field,
                             save_trajectory, write_field)
from lpnse.solver import SolverConfig, run

SMALL = SolverConfig(dim=2, n=32, nu=0.5, dt=2.5e-3, t_end=0.01,
                     ic="taylor-green", snap_every=2)


def test_spectral_round_trip(grid2, rng, tmp_path):
    f = divfree_noise(grid2, rng)
    path = tmp_path / "f.fld"
    write_field(path, f, time=0.25, viscosity=0.7)
    loaded, header = read_field(path)
    assert loaded.representation == "spectral"
    assert np.array_equal(loaded.data, f.data)
    assert loaded.grid == grid2
    assert header == {"dim": 2, "n": 32, "components": 2,
                      "representation": "spectral", "time": 0.25,
                      "viscosity": 0.7, "layout": "half"}


def _raw_snapshot(path, header, payload):
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                     + payload.tobytes())


def test_full_layout_file_loads_equal(grid2, rng, tmp_path):
    # a spectral file with no layout key, as earlier versions wrote it,
    # holds full spectra and is read through Field's Hermitian check
    spec = divfree_noise(grid2, rng).data.astype("<c16")
    path = tmp_path / "full.fld"
    _raw_snapshot(path, {"dim": 2, "n": 32, "components": 2,
                         "representation": "spectral", "time": 0.5,
                         "viscosity": 0.1}, spec)
    loaded, header = read_field(path)
    assert "layout" not in header and header["time"] == 0.5
    assert np.array_equal(loaded.data, spec)


def test_half_file_round_trips_byte_identically(tmp_path):
    # a solver snapshot, whose -n/2 plane carries round-off content
    snap = run(SMALL).final
    first, second = tmp_path / "a.fld", tmp_path / "b.fld"
    write_field(first, snap, time=0.01, viscosity=0.5)
    loaded, _ = read_field(first)
    assert np.array_equal(loaded.half, snap.half)
    write_field(second, loaded, time=0.01, viscosity=0.5)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("plane", [0, 16])
def test_half_file_with_non_hermitian_end_plane_rejected(grid2, rng,
                                                         tmp_path, plane):
    # planes 0 and n/2 of a half spectrum are their own mirrors: a mode
    # there without its conjugate partner names the file
    data = divfree_noise(grid2, rng).half.astype("<c16")
    data[0, 3, plane] += 1e-3
    path = tmp_path / "f.fld"
    _raw_snapshot(path, {"dim": 2, "n": 32, "components": 2,
                         "representation": "spectral", "time": None,
                         "viscosity": None, "layout": "half"}, data)
    with pytest.raises(GridError, match="Hermitian") as exc:
        read_field(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("representation, layout", [("spectral", "full"),
                                                    ("physical", "half")])
def test_unknown_layout_rejected(tmp_path, representation, layout):
    path = tmp_path / "f.fld"
    _raw_snapshot(path, {"dim": 2, "n": 8, "components": 1,
                         "representation": representation, "time": None,
                         "viscosity": None, "layout": layout}, np.zeros(128))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*layout"):
        read_field(path)


def _write_physical(path, grid, samples):
    """A physical .fld as another tool writes it: float64 samples, shape
    (components, n, ..., n), and no "layout" key."""
    header = json.dumps({"dim": grid.dim, "n": grid.n,
                         "components": len(samples),
                         "representation": "physical", "time": None,
                         "viscosity": None}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                     + samples.astype("<f8").tobytes())


def test_physical_round_trip(grid2, rng, tmp_path):
    # write_field writes half spectra only, so the physical file is made
    # by hand: it loads as from_physical of its samples, bit for bit
    samples = rng.standard_normal((2,) + grid2.shape)
    path = tmp_path / "g.fld"
    _write_physical(path, grid2, samples)
    loaded, header = read_field(path)
    assert loaded.half.tobytes() == from_physical(grid2, samples).half.tobytes()
    assert header["time"] is None and header["viscosity"] is None
    samples[1, 3, 5] = np.nan
    _write_physical(path, grid2, samples)
    with pytest.raises(NonFiniteError, match=re.escape(f"{path}: ") + ".*1 "):
        read_field(path)


def test_header_time_and_viscosity_round_trip(grid2, rng, tmp_path):
    # null, whole and fractional values all come back as written
    f = divfree_noise(grid2, rng)
    for time, viscosity in ((None, 0.01), (3, None), (1e-300, 2)):
        path = tmp_path / "f.fld"
        write_field(path, f, time=time, viscosity=viscosity)
        _, header = read_field(path)
        assert (header["time"], header["viscosity"]) == (time, viscosity)


@pytest.mark.parametrize("key", ["time", "viscosity"])
def test_write_field_refuses_a_non_finite_header_value(grid2, tmp_path, key):
    # the values read_field refuses, refused before the file is opened
    f = zero_field(grid2, 1)
    path = tmp_path / "f.fld"
    for value in (math.nan, math.inf, -math.inf, True, "abc"):
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: ") + f".*'{key}'"):
            write_field(path, f, **{key: value})
        assert not path.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "abc",
                                   True, [1.0]])
@pytest.mark.parametrize("key", ["time", "viscosity"])
def test_non_finite_header_value_rejected(tmp_path, key, value):
    header = {"dim": 2, "n": 8, "components": 1, "representation": "physical",
              "time": None, "viscosity": None}
    header[key] = value
    blob = json.dumps(header).encode()
    path = tmp_path / "bad.fld"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                     + np.zeros(64).tobytes())
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + f".*'{key}'"):
        read_field(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.fld"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        read_field(path)


def test_unknown_representation_rejected(tmp_path):
    header = json.dumps({"dim": 2, "n": 8, "components": 1,
                         "representation": "mystery", "time": None,
                         "viscosity": None}).encode()
    path = tmp_path / "weird.fld"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(ValueError, match="unknown representation"):
        read_field(path)


@pytest.mark.parametrize("change", [-16, 1, 8, 2 * 32**2 * 16])
def test_payload_length_checked(grid2, rng, tmp_path, change):
    # a truncated payload, or one followed by trailing bytes (a single
    # byte, one value, a whole full-layout payload), names the file and
    # both byte counts; the half spectrum holds n (n/2 + 1) values
    path = tmp_path / "f.fld"
    write_field(path, divfree_noise(grid2, rng))
    blob = path.read_bytes()
    expected = 2 * grid2.n * (grid2.n // 2 + 1) * 16
    if change < 0:
        path.write_bytes(blob[:change])
    else:
        path.write_bytes(blob + b"\x00" * change)
    with pytest.raises(ValueError) as exc:
        read_field(path)
    message = str(exc.value)
    assert str(path) in message
    assert f"{expected + change} bytes" in message
    assert f"needs {expected}" in message


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_rejected(grid2, rng, tmp_path, bad):
    # one non-finite coefficient is refused at load, naming the file
    f = divfree_noise(grid2, rng)
    data = f.data.copy()
    data[1, 3, 5] = complex(0.0, bad)
    path = tmp_path / "f.fld"
    write_field(path, Field(grid2, data, "spectral"))
    with pytest.raises(NonFiniteError) as exc:
        read_field(path)
    message = str(exc.value)
    assert str(path) in message
    assert "1 non-finite value(s)" in message


def test_read_field_returns_owned_aligned_array(grid2, rng, tmp_path):
    path = tmp_path / "f.fld"
    f = divfree_noise(grid2, rng)
    write_field(path, f)
    data = read_field(path)[0].half
    assert data.flags.owndata and data.flags.aligned
    assert data.flags.c_contiguous and np.array_equal(data, f.half)


def test_trajectory_round_trip(tmp_path):
    traj = run(SMALL)
    outdir = tmp_path / "traj"
    paths = save_trajectory(outdir, traj)
    names = sorted(os.path.basename(p) for p in paths)
    assert "trajectory.json" in names
    assert sum(name.endswith(".fld") for name in names) == len(traj)
    loaded = load_trajectory(outdir)
    assert loaded.config == SMALL
    assert not loaded.alignment_fault(traj)
    for a, b in zip(loaded.snapshots, traj.snapshots):
        assert np.array_equal(a.data, b.data)
    assert set(loaded.series) == set(traj.series)
    for key in traj.series:
        assert np.array_equal(np.asarray(loaded.series[key]),
                              np.asarray(traj.series[key]))


def test_loaded_trajectory_reads_snapshots_on_access(tmp_path):
    # load_trajectory reads trajectory.json only; each access reads the
    # file as it is then, and a fault raises naming the file
    traj = run(SMALL)
    save_trajectory(tmp_path, traj)
    loaded = load_trajectory(tmp_path)
    assert len(loaded) == len(traj)
    write_field(tmp_path / "snap_000001.fld", scale(traj.snapshots[1], 2.0))
    assert np.array_equal(loaded.snapshots[1].data,
                          2.0 * traj.snapshots[1].data)
    assert np.array_equal(loaded.final.data, traj.final.data)
    other = tmp_path / "snap_000000.fld"
    write_field(other, zero_field(Grid(2, 8), ncomp=2))
    with pytest.raises(GridError, match=f"^{other}: grid mismatch"):
        loaded.snapshots[0]
    removed = tmp_path / "snap_000002.fld"
    removed.unlink()
    with pytest.raises(OSError) as exc:
        loaded.snapshots[2]
    assert str(removed) in str(exc.value)


def test_snapshot_headers_carry_time_and_viscosity(tmp_path):
    traj = run(SMALL)
    save_trajectory(tmp_path, traj)
    _, header = read_field(tmp_path / "snap_000001.fld")
    assert header["time"] == pytest.approx(float(traj.times[1]))
    assert header["viscosity"] == 0.5


@pytest.mark.parametrize("key, value, message", [
    ("t_end", 0.0015, "config key 't_end' must be a whole number of steps"),
    ("n", 12, "n must be a power of two >= 8, got 12"),
    ("seed", -1, "config key 'seed' must be non-negative, got -1"),
])
def test_trajectory_config_checked_on_load(tmp_path, key, value, message):
    # a stored config faces the same one check as a config given to run()
    save_trajectory(tmp_path, run(SMALL))
    path = tmp_path / "trajectory.json"
    meta = json.loads(path.read_text())
    meta["config"][key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as exc:
        load_trajectory(tmp_path)
    assert str(path) in str(exc.value) and message in str(exc.value)
