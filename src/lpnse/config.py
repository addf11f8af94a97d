"""Flat key=value config files for solver runs.

One `key = value` pair per line; `#` starts a comment; later keys win.
CLI flags override file values.
"""

from .solver import SolverConfig


def parse_kv_file(path) -> dict:
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def load_config(path, overrides: dict = None) -> SolverConfig:
    mapping = parse_kv_file(path)
    if overrides:
        mapping.update(overrides)
    return SolverConfig.from_mapping(mapping)
