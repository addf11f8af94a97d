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


@pytest.mark.parametrize("dim, n, name", [
    (2.0, 16, "dim"), (3, 16.0, "n"), (True, 16, "dim"),
    (3, np.float64(16.0), "n"),
], ids=["float-dim", "float-n", "bool-dim", "numpy-float-n"])
def test_non_integer_dim_or_n_rejected(dim, n, name):
    # 2.0 in (2, 3) holds, so only a type check stops a float dim
    value = dim if name == "dim" else n
    with pytest.raises(GridError) as exc:
        Grid(dim, n)
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


def test_numpy_integers_accepted():
    g = Grid(np.int64(3), np.int32(16))
    assert g == Grid(3, 16) and g.shape == (16, 16, 16)


def test_wavenumbers_fft_layout():
    g = Grid(2, 8)
    np.testing.assert_array_equal(g.k_axis, [0, 1, 2, 3, -4, -3, -2, -1])
    # broadcastable per-axis arrays, consistent with k_sq and with the
    # half planes' (|k|^2, |k|)
    kx, ky = g.k_components
    assert kx.shape == (8, 1) and ky.shape == (1, 8)
    np.testing.assert_allclose(g.k_sq, kx**2 + ky**2)
    half_sq, half_mag = g._half_k
    assert np.array_equal(half_sq, g.k_sq[:, :5])
    assert np.array_equal(half_mag, np.sqrt(g.k_sq[:, :5]))


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
