import numpy as np
import pytest

from lpnse import Grid
from lpnse.errors import GridError


@pytest.mark.parametrize("dim", [2, 3])
def test_basic_geometry(dim):
    g = Grid(dim, 16)
    assert g.shape == (16,) * dim
    assert g.spacing == pytest.approx(2.0 * np.pi / 16)
    assert g.volume == pytest.approx((2.0 * np.pi) ** dim)
    assert g.cell_volume == pytest.approx(g.spacing**dim)


@pytest.mark.parametrize("n,jmax", [(8, 1), (16, 2), (32, 3), (64, 4), (128, 5)])
def test_jmax(n, jmax):
    assert Grid(2, n).jmax == jmax


def test_invalid_dim():
    with pytest.raises(GridError):
        Grid(1, 16)
    with pytest.raises(GridError):
        Grid(4, 16)


@pytest.mark.parametrize("n", [0, 4, 12, 20, 33])
def test_invalid_n(n):
    with pytest.raises(GridError):
        Grid(2, n)


def test_wavenumbers_fft_layout():
    g = Grid(2, 8)
    np.testing.assert_array_equal(g.k_axis, [0, 1, 2, 3, -4, -3, -2, -1])
    # broadcastable per-axis arrays, consistent with k_sq and k_mag
    kx, ky = g.k_components
    assert kx.shape == (8, 1) and ky.shape == (1, 8)
    np.testing.assert_allclose(g.k_sq, kx**2 + ky**2)
    np.testing.assert_allclose(g.k_mag, np.sqrt(g.k_sq))


def test_k_arrays_are_readonly():
    g = Grid(2, 8)
    with pytest.raises(ValueError):
        g.k_sq[0, 0] = 5.0


def test_coordinates_cover_torus():
    g = Grid(3, 8)
    meshes = g.meshes()
    assert len(meshes) == 3
    for axis, mesh in enumerate(meshes):
        assert mesh.shape == g.shape
        line = np.moveaxis(mesh, axis, 0)[:, 0, 0]
        np.testing.assert_allclose(line, np.arange(8) * g.spacing)
        assert line[-1] < 2.0 * np.pi  # right endpoint excluded


def test_require_same():
    Grid(2, 16).require_same(Grid(2, 16))
    with pytest.raises(GridError):
        Grid(2, 16).require_same(Grid(2, 32))
    with pytest.raises(GridError):
        Grid(2, 16).require_same(Grid(3, 16))


def test_dealias_radius():
    assert Grid(2, 32).dealias_radius == pytest.approx(32 / 3)
    assert Grid(3, 64).dealias_radius == pytest.approx(64 / 3)
