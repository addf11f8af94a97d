"""Uniform grids on the periodic torus [0, 2*pi)^dim.

Wavenumbers live on the integer lattice.  A grid with n points per axis
resolves |k_i| <= n/2 per axis, and the highest dyadic shell that fits
entirely inside the resolved band has index jmax = log2(n) - 2.  A Grid
is the one source of a half spectrum's k, |k|^2, |k|, i k and -n/2 mask
(_half_ks, _half_k, _half_ik, _paired), each built once and read-only.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Immutable description of a torus grid.

    Parameters
    ----------
    dim : 2 or 3
    n : points per axis, a power of two, at least 8 (both integers)
    """

    dim: int
    n: int

    def __post_init__(self):
        for name, value in (("dim", self.dim), ("n", self.n)):
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise GridError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def half_shape(self) -> tuple:
        """The shape of a half spectrum: planes 0 <= k_last <= n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return TWO_PI**self.dim

    @property
    def jmax(self) -> int:
        return int(round(np.log2(self.n))) - 2

    @property
    def dealias_radius(self) -> float:
        """Largest radial band |k| <= R whose pairwise products are exact
        under the padded-transform product rule."""
        return self.n / 3.0

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer wavenumbers along one axis in FFT layout, read-only."""
        return _read_only(np.fft.fftfreq(self.n, 1.0 / self.n))

    @cached_property
    def k_components(self) -> tuple:
        """Broadcastable wavenumber arrays, one per axis, read-only."""
        comps = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            comps.append(self.k_axis.reshape(shape))
        return tuple(comps)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full layout, for callers outside the package."""
        return _wavenumbers(self.k_components)[0]

    @cached_property
    def _half_ks(self) -> tuple:
        """k_components cut to a half spectrum's planes 0 <= k_last <=
        n/2 (plane n/2 holds k_last = -n/2)."""
        return tuple(k[..., :self.n // 2 + 1] for k in self.k_components)

    @cached_property
    def _half_k(self) -> tuple:
        """(|k|^2, |k|) on a half spectrum's planes."""
        return _wavenumbers(self._half_ks)

    @cached_property
    def _half_ik(self) -> tuple:
        """i k_a on a half spectrum's planes, one broadcastable array per
        axis, zero where k_a = -n/2: the lone -n/2 mode has no conjugate
        partner.  The factor of every first derivative."""
        return tuple(_read_only(np.where(np.abs(k) < self.n / 2, 1j * k, 0.0))
                     for k in self._half_ks)

    @cached_property
    def _paired(self) -> np.ndarray:
        """True on the half-spectrum sites with no k_i = -n/2, the modes
        that have a conjugate partner; False on the rest."""
        return _read_only(sum(k == -(self.n // 2) for k in self._half_ks) == 0)

    def meshes(self) -> tuple:
        """Dense coordinate meshes (for evaluating initial data)."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def require_same(self, other: "Grid") -> None:
        if self != other:
            raise GridError(f"grid mismatch: {self} vs {other}")


def _wavenumbers(ks) -> tuple:
    """Read-only (|k|^2, summed in axis order, |k|) of the broadcastable
    wavenumber components ks."""
    k_sq = sum(k**2 for k in ks)
    return _read_only(k_sq), _read_only(np.sqrt(k_sq))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.flags.writeable = False
    return a
