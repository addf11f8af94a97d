"""The CLI contract, checked on generated inputs.

One numeric flag or `--set` key of `simulate` or `twin` at a time takes
a value that often breaks parsers and solvers, on a 2D n=16 config.
Every command must exit 0, 2 or 3, raise nothing, print no traceback and
no numpy warning, and on a non-zero exit name the key or flag and leave
no --out directory.  An input whose run would take more than MAX_STEPS
steps is skipped: a long valid run is not a fault.  simulate and twin
start no thread, so no test here starts more threads than the host has.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpnse.cli import main
from lpnse.errors import LpnseError
from lpnse.solver import SolverConfig

BASE = {"dim": "2", "n": "16", "dt": "2.5e-3", "t_end": "0.01",
        "snap_every": "2", "ic": "random-divfree"}
TWIN = {"--delta": "1e-4", "--seed": "5", "--kmax": "8"}
VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e308", "abc"]
NUMERIC_KEYS = ["dim", "n", "nu", "dt", "t_end", "seed", "slope", "ic_kmax",
                "snap_every", "cfl_safety"]
MAX_STEPS = 50

# (command, the --set key or the flag that takes the value)
TARGETS = ([("simulate", key) for key in NUMERIC_KEYS]
           + [("twin", key) for key in NUMERIC_KEYS]
           + [("twin", flag) for flag in TWIN])


def _argv(command, target, value, out):
    config = dict(BASE)
    flags = dict(TWIN) if command == "twin" else {}
    if target.startswith("--"):
        flags[target] = value
    else:
        config[target] = value
        try:
            steps = SolverConfig.from_mapping(config).nsteps
        except (ValueError, LpnseError):
            steps = 0  # rejected at config load: quick
        assume(steps <= MAX_STEPS)
    argv = [command]
    for key, raw in config.items():
        argv += ["--set", f"{key}={raw}"]
    for flag, raw in flags.items():
        argv += [flag, raw]
    return argv + ["--out", str(out)]


def _names(target, err):
    """Whether the message names the key or flag: as 'key', `key must`,
    `key=` or --flag."""
    name = re.escape(target.lstrip("-"))
    return re.search(rf"'{name}'|\b{name} must|\b{name}=|--{name}\b",
                     err) is not None


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(VALUES))
def test_numeric_input_ends_in_a_documented_way(target, value):
    command, name = target
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = _argv(command, name, value, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
        err = stderr.getvalue()
        case = f"{' '.join(argv)}: exit {code}, stderr {err!r}"
        assert code in (0, 2, 3), case
        assert "Traceback" not in err, case
        assert [str(w.message) for w in caught] == [], case
        if code != 0:
            assert _names(name, err), case
            assert not out.exists(), case
        else:
            assert (out / "manifest.json").is_file()
