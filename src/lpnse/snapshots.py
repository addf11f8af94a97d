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

from .errors import GridError, NonFiniteError
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


def _parse_header(path, blob: bytes):
    """(header dict, grid, payload shape, payload dtype) of a snapshot
    header; a ValueError naming the file for any fault in it."""
    try:
        header = json.loads(blob.decode())
        grid = Grid(header["dim"], header["n"])
        ncomp, rep = header["components"], header["representation"]
        if rep not in (SPECTRAL, PHYSICAL):
            raise ValueError(f"unknown representation {rep!r}")
        if type(ncomp) is not int or ncomp < 1:
            raise ValueError(f"components must be a positive integer, "
                             f"got {ncomp!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: snapshot header has no key {exc}") from None
    except (ValueError, TypeError, GridError) as exc:
        raise ValueError(f"{path}: bad snapshot header: {exc}") from None
    dtype = np.dtype("<c16" if rep == SPECTRAL else "<f8")
    return header, grid, (ncomp,) + grid.shape, dtype


def read_field(path):
    """Returns (field, header dict).  The payload is read straight into
    the field's own array.  A truncated preamble, a malformed header, a
    payload of the wrong length, or one holding NaN or infinite values
    raises naming the file."""
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
    """Read a trajectory directory; a malformed trajectory.json raises a
    ValueError naming it."""
    path = os.path.join(outdir, "trajectory.json")
    with open(path) as fh:
        try:
            meta = json.load(fh)
            config = SolverConfig.from_mapping(meta["config"])
            grid = Grid(config.dim, config.n)
            names, times = meta["snapshots"], np.asarray(meta["times"])
            series = {k: np.asarray(v) for k, v in meta["series"].items()}
        except KeyError as exc:
            raise ValueError(f"{path}: has no key {exc}") from None
        except (ValueError, TypeError, AttributeError, GridError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    snaps = []
    for name in names:
        f, _ = read_field(os.path.join(outdir, name))
        grid.require_same(f.grid)
        snaps.append(f)
    try:
        return Trajectory(config, grid, times, snaps, series)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
