"""Folds of monitor's results that only the tests read: the per-snapshot
B^1_{inf,inf} series and the Gronwall envelope check."""

import numpy as np

from lpnse.monitor import GronwallFit, _b1, _linf_block_matrix
from lpnse.solver import Trajectory


def b1_series(traj: Trajectory) -> np.ndarray:
    """Per-snapshot B^1_{inf,inf} norms."""
    js, linf, _ = _linf_block_matrix(traj)
    return _b1(js, linf)


def envelope_holds(fit: GronwallFit, c: float) -> bool:
    """Does LHS(t) <= ||w0||^2 exp(c I(t)) hold at every snapshot, up to a
    relative slack of 1e-9?  Used with c = 0 as the self-test that the
    checker can fail."""
    if fit.degenerate:
        return True
    return bool(np.all(fit.lhs <= fit.w0_sq * np.exp(c * fit.integral)
                       * (1.0 + 1e-9)))
