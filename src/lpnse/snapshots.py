"""Field and trajectory persistence.

Snapshot container: 8 magic bytes, a little-endian uint32 header length,
a JSON header {dim, n, components, representation, time, viscosity},
then the raw data as row-major little-endian 64-bit values (float64 for
physical samples, interleaved complex128 for spectral coefficients).

A trajectory directory holds one snapshot file per stored time plus
trajectory.json with the config echo, times, series, and file names.
"""

import json
import os
import struct

import numpy as np

from .errors import NonFiniteError
from .field import Field, PHYSICAL, SPECTRAL
from .grid import Grid
from .solver import SolverConfig, Trajectory

MAGIC = b"LPNSFLD1"


def write_field(path, f: Field, time: float = None, viscosity: float = None) -> None:
    header = {
        "dim": f.grid.dim,
        "n": f.grid.n,
        "components": f.ncomp,
        "representation": f.representation,
        "time": time,
        "viscosity": viscosity,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    data = np.ascontiguousarray(f.data)
    if f.representation == SPECTRAL:
        data = data.astype("<c16", copy=False)
    else:
        data = data.astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(data.tobytes(order="C"))


def read_field(path):
    """Returns (field, header dict).  The payload is read straight into
    the field's own array.  A payload of the wrong length, or one holding
    NaN or infinite values, raises naming the file."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a field snapshot (bad magic)")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        grid = Grid(header["dim"], header["n"])
        shape = (header["components"],) + grid.shape
        if header["representation"] == SPECTRAL:
            dtype = np.dtype("<c16")
        elif header["representation"] == PHYSICAL:
            dtype = np.dtype("<f8")
        else:
            raise ValueError(
                f"unknown representation {header['representation']!r}")
        expected = dtype.itemsize * int(np.prod(shape))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        data = np.empty(shape, dtype=dtype)
        if size == expected:
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
    return Field(grid, data, header["representation"]), header


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


def load_trajectory(outdir) -> Trajectory:
    with open(os.path.join(outdir, "trajectory.json")) as fh:
        meta = json.load(fh)
    config = SolverConfig.from_mapping(meta["config"])
    grid = Grid(config.dim, config.n)
    snaps = []
    for name in meta["snapshots"]:
        f, _ = read_field(os.path.join(outdir, name))
        grid.require_same(f.grid)
        snaps.append(f)
    series = {k: np.asarray(v) for k, v in meta["series"].items()}
    return Trajectory(config, grid, np.asarray(meta["times"]), snaps, series)
