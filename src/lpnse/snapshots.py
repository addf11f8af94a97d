"""Field and trajectory persistence.

Snapshot container: 8 magic bytes, a little-endian uint32 header length,
a JSON header {dim, n, components, representation, time, viscosity},
then the raw data as row-major little-endian 64-bit values (float64 for
physical samples, interleaved complex128 for spectral coefficients).
write_field writes half spectra, shape (components, n, ..., n//2+1),
with the header key "layout": "half".  read_field also reads full
spectra (a spectral file without that key) and physical samples, both
of shape (components, n, ..., n); it transforms samples (from_physical).

A trajectory directory holds one snapshot file per stored time plus
trajectory.json with the config echo, times, series, and file names.
A loaded trajectory reads each snapshot file when it is accessed, so it
holds none of them itself.
"""

import json
import math
import os
import struct
from collections.abc import Sequence

import numpy as np

from .errors import GridError, NonFiniteError
from .field import (Field, SPECTRAL, _check_residue, _hermitian_ends,
                    from_physical)
from .grid import Grid
from .solver import SolverConfig, Trajectory

MAGIC = b"LPNSFLD1"


def _header_fault(header: dict) -> str:
    """Why a header's time or viscosity is refused, or "": each must be
    null or a finite int or float (a numpy float64 is one), not a bool."""
    for key in ("time", "viscosity"):
        value = header.get(key)
        # abs(v) < inf: false for nan and +-inf, exact for big ints
        if value is not None and (isinstance(value, bool) or not (
                isinstance(value, (int, float)) and abs(value) < math.inf)):
            return f"key {key!r} must be null or a finite number, got {value!r}"
    return ""


def write_field(path, f: Field, time: float = None, viscosity: float = None) -> None:
    """Write f; a time or viscosity that read_field refuses raises a
    ValueError naming the file and the key before the file is opened."""
    header = {
        "dim": f.grid.dim,
        "n": f.grid.n,
        "components": f.ncomp,
        "representation": SPECTRAL,
        "layout": "half",
        "time": time,
        "viscosity": viscosity,
    }
    if fault := _header_fault(header):
        raise ValueError(f"{path}: {fault}")
    data = np.ascontiguousarray(f.half, dtype="<c16")
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(data.tobytes(order="C"))


def _parse_header(path, blob: bytes):
    """(header dict, grid, payload shape, payload dtype) of a snapshot
    header; a ValueError naming the file for any fault in it, a time or
    viscosity that is not null or a finite number, or a layout other
    than "half" of spectral data, included."""
    try:
        header = json.loads(blob.decode())
        grid = Grid(header["dim"], header["n"])
        ncomp, rep = header["components"], header["representation"]
        if rep not in (SPECTRAL, "physical"):
            raise ValueError(f"unknown representation {rep!r}")
        if type(ncomp) is not int or ncomp < 1:
            raise ValueError(f"components must be a positive integer, "
                             f"got {ncomp!r}")
        if fault := _header_fault(header):
            raise ValueError(fault)
        half = "layout" in header
        if half and (rep != SPECTRAL or header["layout"] != "half"):
            raise ValueError(f"unknown {rep} layout {header['layout']!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: snapshot header has no key {exc}") from None
    except (ValueError, TypeError, GridError) as exc:
        raise ValueError(f"{path}: bad snapshot header: {exc}") from None
    dtype = np.dtype("<c16" if rep == SPECTRAL else "<f8")
    shape = (ncomp,) + (grid.half_shape if half else grid.shape)
    return header, grid, shape, dtype


def read_field(path):
    """Returns (field, header dict): spectra are read straight into the
    field's own array, samples go through from_physical.  A truncated
    preamble, a malformed header, a payload of the wrong length or
    holding NaN or infinite values, or spectra that are not Hermitian up
    to round-off raise naming the file: Field checks a full spectrum,
    and _check_residue the planes 0 and n/2 of a half one, which are
    kept as written."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a field snapshot (bad magic)")
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise ValueError(f"{path}: file ends inside the "
                             f"{len(MAGIC) + 4}-byte preamble")
        (hlen,) = struct.unpack("<I", prefix)
        header, grid, shape, dtype = _parse_header(path, fh.read(hlen))
        # math.prod is exact for any shape: compared before allocating
        expected = dtype.itemsize * math.prod(shape)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == expected:
            data = np.empty(shape, dtype=dtype)
            size = fh.readinto(data.reshape(-1).view(np.uint8))
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, but the "
                             f"header ({header['representation']}, shape "
                             f"{shape}) needs {expected}")
    finite = np.isfinite(data)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise NonFiniteError(f"{path}: payload holds {bad} non-finite "
                             f"value(s)")
    if header["representation"] != SPECTRAL:
        return from_physical(grid, data), header
    try:
        if "layout" in header:
            _check_residue(*_hermitian_ends(data, grid.dim), data, grid)
        return Field(grid, data), header
    except GridError as exc:
        raise GridError(f"{path}: {exc}") from None


def _snap_name(i: int) -> str:
    return f"snap_{i:06d}.fld"


def save_trajectory(outdir, traj: Trajectory) -> list:
    """Write all snapshots plus trajectory.json; returns written paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    names = []
    for i, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        name = _snap_name(i)
        write_field(os.path.join(outdir, name), snap, time=float(t),
                    viscosity=traj.config.nu)
        names.append(name)
        paths.append(os.path.join(outdir, name))
    meta = {
        "config": traj.config.to_mapping(),
        "times": [float(t) for t in traj.times],
        "snapshots": names,
        "series": {k: [float(x) for x in v] for k, v in traj.series.items()},
    }
    mpath = os.path.join(outdir, "trajectory.json")
    with open(mpath, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(mpath)
    return paths


class _SnapshotFiles(Sequence):
    """The snapshots of a stored trajectory, each read from its file on
    access with read_field (looked up at each read) and checked against
    the trajectory's grid; every fault raises naming the file."""

    def __init__(self, paths, grid: Grid):
        self._paths = paths
        self._grid = grid

    def __len__(self):
        return len(self._paths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        path = self._paths[i]
        f, _ = read_field(path)
        try:
            self._grid.require_same(f.grid)
        except GridError as exc:
            raise GridError(f"{path}: {exc}") from None
        return f


def load_trajectory(outdir) -> Trajectory:
    """Read a trajectory directory's trajectory.json; a malformed one, or
    one that lists no snapshots, raises a ValueError naming it.  The
    snapshots are read from their files when accessed, with read_field's
    checks and the grid's."""
    path = os.path.join(outdir, "trajectory.json")
    with open(path) as fh:
        try:
            meta = json.load(fh)
            config = SolverConfig.from_mapping(meta["config"])
            grid = Grid(config.dim, config.n)
            names, times = meta["snapshots"], np.asarray(meta["times"])
            series = {k: np.asarray(v) for k, v in meta["series"].items()}
            if len(names) == 0:
                raise ValueError("lists no snapshots")
            snaps = _SnapshotFiles([os.path.join(outdir, name)
                                    for name in names], grid)
        except KeyError as exc:
            raise ValueError(f"{path}: has no key {exc}") from None
        except (ValueError, TypeError, AttributeError, GridError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    try:
        return Trajectory(config, grid, times, snaps, series)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
