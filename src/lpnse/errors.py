"""Exception types shared across the package."""


class LpnseError(Exception):
    """Base class for all package errors."""


class GridError(LpnseError):
    """Invalid grid parameters or mismatched grids in a binary operation."""


class BlockRangeError(LpnseError):
    """A dyadic block index outside what the grid can resolve."""


class TripleError(LpnseError):
    """An exponent triple (r, p, q) that violates the scaling relation
    or the admissibility constraints of the requested regime."""


class ResolutionError(LpnseError):
    """An operation that would need frequencies the grid cannot hold."""


class NonFiniteError(LpnseError):
    """Stored data or a report value holding NaN or infinite values."""


class SolverAbort(LpnseError):
    """Time integration stopped early (CFL violation or non-finite data)."""

    def __init__(self, reason: str, message: str, time: float, step: int):
        super().__init__(message)
        self.reason = reason
        self.time = time
        self.step = step
