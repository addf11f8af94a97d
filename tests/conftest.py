"""Shared fixtures.

The solver trajectories are session-scoped because several test modules
(and the acceptance suite) reuse the same runs; regenerating them per
test would dominate the wall clock.
"""

import time

import numpy as np
import pytest

import lpnse.field
from lpnse import Grid, SolverConfig, run, twin_run, set_fft_workers
from lpnse.field import _full_spectrum, _hermitian_half
from lpnse.verify import solver_checks_2d, solver_checks_3d


@pytest.fixture(autouse=True)
def _restore_thread_count():
    """`--threads` and set_fft_workers set a process-wide count; every
    test starts from the count the previous one started from."""
    saved = lpnse.field._fft_workers
    yield
    set_fft_workers(saved)


@pytest.fixture(scope="session")
def grid2():
    return Grid(2, 32)


@pytest.fixture(scope="session")
def grid3():
    return Grid(3, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def nonlinear_full():
    """The solver's nonlinear term on full spectra: the integrator takes
    and returns half spectra, so the Hermitian half goes in and the full
    layout comes out.  Returns (term, umax)."""
    def apply(integ, spec):
        dim = integ.grid.dim
        term, umax = integ.nonlinear(_hermitian_half(spec, dim))
        return _full_spectrum(term, dim), umax
    return apply


@pytest.fixture(scope="session")
def tg2d_traj():
    """2D Taylor-Green, n=64, nu=1, integrated to t=0.5."""
    config = SolverConfig(dim=2, n=64, nu=1.0, dt=1e-3, t_end=0.5,
                          ic="taylor-green", snap_every=10)
    return run(config)


@pytest.fixture(scope="session")
def tg3d_traj():
    """3D Taylor-Green, n=32, nu=1, integrated to t=0.5."""
    config = SolverConfig(dim=3, n=32, nu=1.0, dt=5e-3, t_end=0.5,
                          ic="taylor-green", snap_every=10)
    return run(config)


TWIN_CONFIG = SolverConfig(dim=2, n=64, nu=1.0, dt=2.5e-3, t_end=0.25,
                           ic="taylor-green", snap_every=10)


@pytest.fixture(scope="session")
def twin_pair():
    """Base 2D Taylor-Green plus a delta=1e-4 perturbed twin."""
    return twin_run(TWIN_CONFIG, delta=1e-4, seed=5)


@pytest.fixture(scope="session")
def solver_checks():
    """Criterion 5's solver work, run and timed once per session:
    {"2d": (solver_checks_2d(3), seconds), "3d": (solver_checks_3d(),
    seconds)}.  The acceptance gate and the solver suite share it."""
    out = {}
    for key, work in (("2d", lambda: solver_checks_2d(3)),
                      ("3d", solver_checks_3d)):
        start = time.perf_counter()
        checks = work()
        out[key] = (checks, time.perf_counter() - start)
    return out
