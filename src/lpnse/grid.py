"""Uniform grids on the periodic torus [0, 2*pi)^dim.

Wavenumbers live on the integer lattice.  A grid with n points per axis
resolves |k_i| <= n/2 per axis, and the highest dyadic shell that fits
entirely inside the resolved band has index jmax = log2(n) - 2.
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
        """Integer wavenumbers along one axis in FFT layout."""
        return np.fft.fftfreq(self.n, 1.0 / self.n)

    @cached_property
    def k_components(self) -> tuple:
        """Broadcastable wavenumber arrays, one per axis."""
        comps = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            comps.append(self.k_axis.reshape(shape))
        return tuple(comps)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the full layout, for callers outside the package."""
        return self._wavenumbers(self.n)[0]

    @cached_property
    def _half_k(self) -> tuple:
        """(|k|^2, |k|) on a half spectrum's planes 0 <= k_last <= n/2."""
        return self._wavenumbers(self.n // 2 + 1)

    def _wavenumbers(self, planes: int) -> tuple:
        """Read-only (|k|^2, summed in axis order, |k|) on planes < planes."""
        k_sq = np.zeros(self.shape[:-1] + (planes,))
        for ka in self.k_components:
            k_sq = k_sq + ka[..., :planes]**2
        k_mag = np.sqrt(k_sq)
        k_sq.flags.writeable = k_mag.flags.writeable = False
        return k_sq, k_mag

    def meshes(self) -> tuple:
        """Dense coordinate meshes (for evaluating initial data)."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def require_same(self, other: "Grid") -> None:
        if self != other:
            raise GridError(f"grid mismatch: {self} vs {other}")
