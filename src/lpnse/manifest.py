"""Run manifests (what ran, with what, making which bytes) and CSV files."""

import hashlib
import json
import os
import platform

import numpy
import scipy


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(command: str, parameters: dict, outputs: list,
                   elapsed_seconds: float) -> dict:
    from . import __version__

    return {
        "command": command,
        "parameters": parameters,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "lpnse": __version__,
        },
        "outputs": [
            {
                "path": os.fspath(p),
                "bytes": os.path.getsize(p),
                "sha256": file_hash(p),
            }
            for p in outputs
        ],
        "elapsed_seconds": elapsed_seconds,
    }


def _write_csv(path, header, rows) -> None:
    """A CSV file: header, then rows, ints as str, the rest repr(float)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(int(x)) if isinstance(x, (int, numpy.integer))
                              else repr(float(x)) for x in row) + "\n")


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
