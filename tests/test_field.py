import itertools
import re

import numpy as np
import pytest
import scipy.fft

from lpnse import (Field, Grid, advect, dealiased_product, derivative,
                   from_components, from_physical, from_spectral, inner,
                   leray_project, lp_norm, to_physical)
from lpnse.ensembles import band_noise, divfree_noise
from lpnse.errors import GridError
from lpnse.field import (_cross, _full_spectrum, _hermitian_half, _ik,
                         _irfftn_half,
                         _leray_project_spec, _mirror, _paired,
                         _support_radius, add,
                         divergence, gradient,
                         grad_norm_inf, h1_seminorm, l2_norm_spectral,
                         laplacian, magnitude, scale,
                         zero_field)
from lpnse.solver import SolverConfig, _Integrator

TWO_PI = 2.0 * np.pi


def _sin_x(grid):
    return from_components(grid, lambda *xs: np.sin(xs[0]))


# --- representations ---------------------------------------------------------

def test_round_trip(grid2, rng):
    data = rng.standard_normal(grid2.shape)
    back = to_physical(from_physical(grid2, data))
    np.testing.assert_allclose(back[0], data, rtol=0.0, atol=1e-12)


def test_cosine_coefficients(grid2):
    # cos(x) = (e^{ix} + e^{-ix})/2: forward-normalized coefficients 1/2
    f = from_components(grid2, lambda x, y: np.cos(x))
    spec = f.data[0]
    assert spec[1, 0] == pytest.approx(0.5, abs=1e-14)
    assert spec[-1, 0] == pytest.approx(0.5, abs=1e-14)
    masked = spec.copy()
    masked[1, 0] = masked[-1, 0] = 0.0
    assert np.max(np.abs(masked)) < 1e-14


def test_data_is_immutable(grid2):
    f = _sin_x(grid2)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def test_shape_validation(grid2):
    with pytest.raises(GridError):
        Field(grid2, np.zeros((32, 32)), "physical")  # missing component axis
    with pytest.raises(GridError):
        Field(grid2, np.zeros((1, 32, 16)), "physical")
    with pytest.raises(GridError):
        Field(grid2, np.zeros((1, 32, 32)), "fourier")


def test_to_physical_rejects_non_hermitian(grid2):
    # the check runs once, when the spectrum is made a Field
    spec = np.zeros((1,) + grid2.shape, dtype=np.complex128)
    spec[0, 1, 0] = 1.0  # e^{ix} alone is complex in physical space
    with pytest.raises(GridError, match="Hermitian"):
        from_spectral(grid2, spec)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_unpartnered_mode_is_refused_at_construction(dim, n):
    # negative control: a real field's full spectrum is accepted, and
    # the same spectrum with one mode that has no conjugate partner is not
    grid = Grid(dim, n)
    data = np.random.default_rng(29).standard_normal((2,) + grid.shape)
    spec = np.array(from_physical(grid, data).data)
    f = Field(grid, spec, "spectral")
    # exactly Hermitian: the half is a view of the given array, not a copy
    assert np.shares_memory(f.half, spec) and f.half.shape[-1] == n // 2 + 1
    assert np.array_equal(f.data, spec)
    bad = spec.copy()
    bad[(1, 1) + (0,) * (dim - 2) + (2,)] += 0.25
    for make in (Field, lambda g, s, rep: from_spectral(g, s)):
        with pytest.raises(GridError, match="Hermitian"):
            make(grid, bad.copy(), "spectral")


def test_spectral_field_holds_its_half_spectrum(grid2, rng):
    f = band_noise(grid2, rng, kmax=9.0, ncomp=2)
    assert f.half.shape == (2, 32, 17) and f.data.shape == (2, 32, 32)
    assert np.array_equal(f.data[..., :17], f.half)
    with pytest.raises(ValueError):  # the built full layout is read-only
        f.data[0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.grid = Grid(2, 16)
    phys = _sin_x(grid2)  # samples, transformed once when it is made
    assert phys.half is phys.half and not phys.half.flags.writeable
    # from_spectral copies a half or full array, and gives the same field
    for given in (f.half, f.data):
        g = from_spectral(grid2, given)
        assert not np.shares_memory(g.half, given)
        assert np.array_equal(g.half, f.half)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_to_spectral_is_exactly_hermitian(dim, n):
    grid = Grid(dim, n)
    data = np.random.default_rng(17).standard_normal((2,) + grid.shape)
    spec = from_physical(grid, data).data
    flip = (slice(None),) + np.ix_(*([(-np.arange(n)) % n] * dim))
    np.testing.assert_array_equal(spec[flip], np.conj(spec))
    ref = np.fft.fftn(data, axes=tuple(range(1, dim + 1)), norm="forward")
    assert np.max(np.abs(spec - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_to_physical_matches_complex_inverse(dim, n):
    grid = Grid(dim, n)
    data = np.random.default_rng(19).standard_normal((2,) + grid.shape)
    spec = np.fft.fftn(data, axes=tuple(range(1, dim + 1)), norm="forward")
    ref = np.fft.ifftn(spec, axes=tuple(range(1, dim + 1)), norm="forward").real
    phys = to_physical(from_spectral(grid, spec))
    assert np.max(np.abs(phys - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_hermitian_check_never_looser_than_imaginary_residue(dim, n):
    # anti-Hermitian perturbations around the threshold: whenever the
    # imaginary part of a complex inverse transform exceeds the
    # tolerance, to_physical must reject the spectrum
    grid = Grid(dim, n)
    rng = np.random.default_rng(23)
    axes = tuple(range(1, dim + 1))
    flip = (slice(None),) + np.ix_(*([(-np.arange(n)) % n] * dim))
    base = np.fft.fftn(rng.standard_normal((1,) + grid.shape), axes=axes,
                       norm="forward")
    scale_ = np.max(np.abs(np.fft.ifftn(base, axes=axes, norm="forward").real))
    rejected = 0
    for trial in range(60):
        d = np.zeros_like(base)
        count = (1, 3, d.size)[trial % 3]
        at = rng.choice(d.size, size=count, replace=False)
        d.flat[at] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        anti = 0.5 * (d - np.conj(d[flip]))
        if not np.any(anti):
            continue
        imag = np.max(np.abs(np.fft.ifftn(anti, axes=axes, norm="forward").imag))
        spec = base + anti * (1e-8 * scale_ / imag * rng.uniform(0.5, 2.0))
        full = np.fft.ifftn(spec, axes=axes, norm="forward")
        worst = np.max(np.abs(full.imag))
        if worst > 1e-8 * np.max(np.abs(full.real)) and worst > 1e-12:
            rejected += 1
            with pytest.raises(GridError, match="Hermitian"):
                to_physical(from_spectral(grid, spec))
    assert rejected > 10


# --- Hermitian symmetry ------------------------------------------------------

def _negate(n, naxes):
    """Reference index taking c(k) to c(-k) on the first naxes spatial
    axes after one leading axis: explicit (-k) % n arrays."""
    neg = (-np.arange(n)) % n
    return (slice(None),) + np.ix_(*([neg] * naxes))


@pytest.mark.parametrize("lead", [(1,), (3,), (6,)])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_mirror_helpers_match_index_reference(dim, n, lead):
    rng = np.random.default_rng(31)
    shape = lead + (n,) * dim
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    planes = slice(0, n // 2 + 1)
    assert _mirror(spec, dim).tobytes() == spec[_negate(n, dim - 1)].tobytes()
    flip = _negate(n, dim)
    want = 0.5 * (spec[..., planes] + np.conj(spec[flip][..., planes]))
    assert _hermitian_half(spec, dim).tobytes() == want.tobytes()
    full = np.zeros_like(spec)
    full[..., planes] = spec[..., planes]
    full[..., n // 2 + 1:] = np.conj(full[flip][..., n // 2 + 1:])
    assert _full_spectrum(spec[..., planes], dim).tobytes() == full.tobytes()
    # the helpers fill one output in place; new arrays joined by
    # concatenation, each mirror a flip and a roll, give the same bytes
    axes = tuple(range(len(lead), len(lead) + dim - 1))

    def roll_mirror(a):
        return np.roll(np.flip(a, axes), 1, axes)

    ends = np.concatenate([spec[..., :1], spec[..., :n // 2 - 1:-1]], axis=-1)
    want = 0.5 * (spec[..., planes] + np.conj(roll_mirror(ends)))
    assert _hermitian_half(spec, dim).tobytes() == want.tobytes()
    half = spec[..., planes]
    want = np.concatenate(
        [half, np.conj(roll_mirror(half[..., n // 2 - 1:0:-1]))], axis=-1)
    assert _full_spectrum(half, dim).tobytes() == want.tobytes()


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 16)])
def test_products_are_exactly_hermitian(dim, n, dealias):
    # c(-k) == conj c(k) with no round-off for every product, as for
    # from_physical (test_to_spectral_is_exactly_hermitian)
    grid = Grid(dim, n)
    rng = np.random.default_rng(37)
    u = from_physical(grid, rng.standard_normal((dim,) + grid.shape))
    s = from_physical(grid, rng.standard_normal(grid.shape))
    flip = _negate(n, dim)
    for spec in (dealiased_product(u, s, dealias).data,
                 dealiased_product(u, u, dealias).data,
                 advect(u, u, dealias).data, advect(u, s, dealias).data):
        np.testing.assert_array_equal(spec[flip], np.conj(spec))


# --- norms and inner products ------------------------------------------------

def test_l2_norm_sine_3d(grid3):
    # int sin^2(x) over [0,2pi)^3 = (2pi)^3 / 2
    f = _sin_x(grid3)
    expected = np.sqrt(TWO_PI**3 / 2.0)
    assert lp_norm(f, 2) == pytest.approx(expected, rel=1e-13)
    assert l2_norm_spectral(f) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4, np.inf])
def test_lp_norm_constant(grid2, p):
    f = from_physical(grid2, np.full(grid2.shape, -0.7))
    expected = 0.7 if np.isinf(p) else 0.7 * TWO_PI ** (2.0 / p)
    assert lp_norm(f, p) == pytest.approx(expected, rel=1e-13)


def test_lp_norm_rejects_small_p(grid2):
    with pytest.raises(ValueError):
        lp_norm(_sin_x(grid2), 0.5)


def test_lp_norm_rejects_nan_p(grid2):
    # a NaN exponent is no exponent: it fails the guard, not as a nan norm
    with pytest.raises(ValueError, match="p >= 1, got nan"):
        lp_norm(_sin_x(grid2), float("nan"))


def test_vector_magnitude(grid2):
    f = from_components(grid2, lambda x, y: np.cos(x), lambda x, y: np.sin(x))
    np.testing.assert_allclose(magnitude(f), 1.0, rtol=0.0, atol=1e-14)


def test_parseval(grid3, rng):
    f = band_noise(grid3, rng, kmax=10.0, ncomp=2)
    assert l2_norm_spectral(f) == pytest.approx(lp_norm(f, 2), rel=1e-10)


def test_h1_seminorm_matches_gradient(grid2, rng):
    f = band_noise(grid2, rng, kmax=9.0)
    assert h1_seminorm(f) == pytest.approx(l2_norm_spectral(gradient(f)),
                                           rel=1e-12)


def test_inner_orthogonal_modes(grid2):
    f = from_components(grid2, lambda x, y: np.sin(x))
    g = from_components(grid2, lambda x, y: np.cos(x))
    assert inner(f, f) == pytest.approx(TWO_PI**2 / 2.0, rel=1e-13)
    assert abs(inner(f, g)) < 1e-13


def test_inner_wide_band_exact(grid2, rng):
    # Parseval pairing stays exact even when f*g exceeds the resolved band
    f = band_noise(grid2, rng, kmax=grid2.n / 2.0 - 1.0)
    spec = f.data
    expected = float(np.sum(np.abs(spec) ** 2)) * grid2.volume
    assert inner(f, f) == pytest.approx(expected, rel=1e-13)


def test_inner_component_mismatch(grid2):
    with pytest.raises(GridError):
        inner(zero_field(grid2, 1), zero_field(grid2, 2))


@pytest.mark.parametrize("ncomp", [(2, 1), (1, 2), (3, 2)])
def test_add_component_mismatch(grid2, ncomp):
    # negative control: no broadcast of a scalar into each component, and
    # a GridError, not numpy's ValueError, for two vectors
    f, g = (zero_field(grid2, c) for c in ncomp)
    with pytest.raises(GridError, match="component mismatch"):
        add(f, g)


def test_from_physical_checks_the_sample_shape(grid2):
    for shape in ((16, 16), (2, 32, 16), (32,)):
        with pytest.raises(GridError, match=re.escape(str(shape))):
            from_physical(grid2, np.zeros(shape))


# --- calculus ----------------------------------------------------------------

def test_derivative_against_finite_differences(grid2, rng):
    # independent oracle: 4th-order centered stencil, O(h^4) for smooth f
    f = band_noise(grid2, rng, kmax=3.0)
    df = to_physical(derivative(f, (1, 0)))
    vals = to_physical(f)[0]
    h = grid2.spacing
    fd = (np.roll(vals, 2, axis=0) - 8.0 * np.roll(vals, 1, axis=0)
          + 8.0 * np.roll(vals, -1, axis=0) - np.roll(vals, -2, axis=0)) / (12.0 * h)
    # stencil truncation error ~ (h^4/30) max|f^(5)|; kmax=3 keeps it small
    scale_ = np.max(np.abs(df[0]))
    assert np.max(np.abs(df[0] - fd)) < 5e-3 * scale_


def test_derivative_closed_form(grid3):
    f = from_components(grid3, lambda x, y, z: np.sin(x) * np.cos(2 * y))
    dxy = to_physical(derivative(f, (1, 1, 0)))
    mesh = grid3.meshes()
    expected = -2.0 * np.cos(mesh[0]) * np.sin(2 * mesh[1])
    np.testing.assert_allclose(dxy[0], expected, rtol=0.0, atol=1e-12)


def test_laplacian(grid2):
    f = from_components(grid2, lambda x, y: np.sin(x) * np.sin(2 * y))
    lap = to_physical(laplacian(f))
    np.testing.assert_allclose(lap, -5.0 * to_physical(f),
                               rtol=0.0, atol=1e-12)


def test_gradient_and_sup(grid2):
    f = from_components(grid2, lambda x, y: np.sin(x))
    g = to_physical(gradient(f))
    assert len(g) == 2
    mesh = grid2.meshes()
    np.testing.assert_allclose(g[0], np.cos(mesh[0]), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g[1], 0.0, rtol=0.0, atol=1e-13)
    assert grad_norm_inf(f) == pytest.approx(1.0, rel=1e-12)


def test_divergence(grid2):
    u = from_components(grid2, lambda x, y: np.sin(x), lambda x, y: np.sin(y))
    div = to_physical(divergence(u))
    mesh = grid2.meshes()
    np.testing.assert_allclose(div[0], np.cos(mesh[0]) + np.cos(mesh[1]),
                               rtol=0.0, atol=1e-12)


def _full_grid_multiplier(grid, orders):
    """d^orders as a full-grid array: the reference for the per-axis
    factors the library multiplies."""
    mult = np.ones(grid.shape, dtype=np.complex128)
    for axis, order in enumerate(orders):
        if order == 0:
            continue
        k = np.broadcast_to(grid.k_components[axis], grid.shape)
        factor = (1j * k) ** order
        if order % 2 == 1:
            factor = np.where(k == -(grid.n // 2), 0.0, factor)
        mult = mult * factor
    return mult


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_derivative_multipliers_match_full_grid_reference(dim, n):
    # the spectra of random real fields, -n/2 content included
    grid = Grid(dim, n)
    rng = np.random.default_rng(31)
    vec = from_physical(grid, rng.standard_normal(
        (dim,) + grid.shape))
    spec = vec.data
    for orders in itertools.product(range(3), repeat=dim):
        np.testing.assert_array_equal(
            derivative(vec, orders).data,
            spec * _full_grid_multiplier(grid, orders))
    units = [tuple(int(b == a) for b in range(dim)) for a in range(dim)]
    np.testing.assert_array_equal(
        gradient(Field(grid, spec[:1], "spectral")).data,
        np.stack([spec[0] * _full_grid_multiplier(grid, u) for u in units]))
    np.testing.assert_array_equal(
        divergence(vec).data[0],
        sum(spec[a] * _full_grid_multiplier(grid, u)
            for a, u in enumerate(units)))


# --- products ----------------------------------------------------------------

def test_product_closed_form(grid2):
    f = from_components(grid2, lambda x, y: np.cos(x))
    prod = to_physical(dealiased_product(f, f))
    mesh = grid2.meshes()
    np.testing.assert_allclose(prod[0], 0.5 * (1.0 + np.cos(2 * mesh[0])),
                               rtol=0.0, atol=1e-13)


def test_product_matches_oversampled_grid(rng):
    # oracle: embed both factors on a grid twice as fine, multiply there
    # pointwise (exact: no wrap-around), and compare the shared modes
    coarse = Grid(2, 32)
    fine = Grid(2, 64)
    spec_f = band_noise(coarse, rng, kmax=10.0).data
    spec_g = band_noise(coarse, rng, kmax=10.0).data

    def embed(spec):
        out = np.zeros((1,) + fine.shape, dtype=np.complex128)
        idx = np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)
        out[np.ix_([0], idx, idx)] = spec
        return Field(fine, out, "spectral")

    prod_fine = dealiased_product(embed(spec_f), embed(spec_g))
    prod_coarse = dealiased_product(
        Field(coarse, spec_f, "spectral"), Field(coarse, spec_g, "spectral"))
    idx = np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)
    shared = prod_fine.data[np.ix_([0], idx, idx)]
    # modes below the coarse dealias radius agree exactly
    mask = coarse.k_mag <= coarse.dealias_radius
    diff = np.abs(prod_coarse.data[0] - shared[0])
    assert np.max(diff[mask]) < 1e-13


def test_product_support_sumset(grid2):
    # modes at |k|=3 and |k|=2 only produce modes at 1 and 5
    f = from_components(grid2, lambda x, y: np.cos(3 * x))
    g = from_components(grid2, lambda x, y: np.cos(2 * x))
    spec = dealiased_product(f, g).data[0]
    nonzero = np.argwhere(np.abs(spec) > 1e-14)
    ks = sorted({abs(int(grid2.k_axis[i])) for i, _ in nonzero})
    assert ks == [1, 5]


def test_product_identity(grid2, rng):
    f = band_noise(grid2, rng, kmax=8.0)
    one = from_physical(grid2, np.ones(grid2.shape))
    prod = dealiased_product(f, one)
    np.testing.assert_allclose(prod.data, f.data,
                               rtol=0.0, atol=1e-14)


def test_advect_is_contracted_product(grid2, rng):
    v = divfree_noise(grid2, rng, kmax=6.0)
    f = band_noise(grid2, rng, kmax=6.0, ncomp=2)
    manual = zero_field(grid2, 2)
    for a in range(2):
        term = dealiased_product(
            Field(grid2, v.data[a:a + 1], "spectral"),
            derivative(f, tuple(1 if b == a else 0 for b in range(2))))
        manual = add(manual, term)
    np.testing.assert_allclose(advect(v, f).data,
                               manual.data, rtol=0.0, atol=1e-12)


def _hermitian_part(spec, dim):
    """The full layout of (c(k) + conj c(-k))/2."""
    return _full_spectrum(_hermitian_half(spec, dim), dim)


def _leray_full(spec, grid):
    """Reference: f_i - k_i (k.f)/|k|^2 on full spectra, into a new array."""
    kdot = sum(k * spec[axis] for axis, k in enumerate(grid.k_components))
    with np.errstate(invalid="ignore", divide="ignore"):
        kdot = np.where(grid.k_sq > 0, kdot / grid.k_sq, 0.0)
    return np.stack([spec[axis] - k * kdot
                     for axis, k in enumerate(grid.k_components)])


def _c2c_padded(spec, dim, dealias):
    """Reference: the real part of the complex inverse transform, on the
    3/2-times finer grid with every Nyquist coefficient split evenly
    between +n/2 and -n/2 (on the coarse grid with dealias=False)."""
    n = spec.shape[-1]
    if not dealias:
        return np.fft.ifftn(spec, axes=range(-dim, 0), norm="forward").real
    m = 3 * n // 2
    src = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    out = np.zeros(spec.shape[:-dim] + (m,) * dim, dtype=np.complex128)
    out[(Ellipsis,) + np.ix_(*((src,) * dim))] = spec
    for axis in range(-dim, 0):
        pos = [slice(None)] * out.ndim
        neg = [slice(None)] * out.ndim
        pos[axis], neg[axis] = n // 2, m - n // 2
        out[tuple(pos)] = 0.5 * out[tuple(neg)]
        out[tuple(neg)] *= 0.5
    return np.fft.ifftn(out, axes=range(-dim, 0), norm="forward").real


def _c2c_coarse(phys, dim, n):
    """Reference: complex forward transform of fine-grid values, each
    +n/2 plane folded onto -n/2, then the coarse modes gathered."""
    spec = np.fft.fftn(phys, axes=range(-dim, 0), norm="forward")
    m = spec.shape[-1]
    if m == n:
        return spec
    for axis in range(-dim, 0):
        pos = [slice(None)] * spec.ndim
        neg = [slice(None)] * spec.ndim
        pos[axis], neg[axis] = n // 2, m - n // 2
        spec[tuple(neg)] += spec[tuple(pos)]
    src = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    return spec[(Ellipsis,) + np.ix_(*((src,) * dim))]


def _c2c_rotational(u, grid):
    """Reference: u x curl u formed on the coarse grid (aliased), with 2D
    fields carried as 3-vectors with zero third component and derivative."""
    dim, pad = grid.dim, 3 - grid.dim
    zeros = np.zeros((pad,) + grid.shape)
    ik = np.concatenate([np.stack(np.broadcast_arrays(
        *(1j * k for k in grid.k_components))), zeros])
    u3 = np.concatenate([u, zeros])
    curl = np.cross(ik, u3, axis=0)
    phys = np.cross(_c2c_padded(u3, dim, False),
                    _c2c_padded(curl, dim, False), axis=0)
    return _c2c_coarse(phys[:dim], dim, grid.n)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 8), (3, 16)])
def test_product_kernel_matches_c2c_reference(dim, n, dealias, nonlinear_full):
    # the Hermitian parts of arbitrary complex spectra, the Nyquist
    # planes included: what the reference's .real transforms
    rng = np.random.default_rng(7)
    grid = Grid(dim, n)

    def noise(ncomp):
        shape = (ncomp,) + grid.shape
        return _hermitian_part(rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape), dim)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    v, f, s = noise(dim), noise(2), noise(1)
    fine_v = _c2c_padded(v, dim, dealias)
    want = _c2c_coarse(_c2c_padded(s, dim, dealias)
                       * _c2c_padded(f, dim, dealias), dim, n)
    got = dealiased_product(Field(grid, s, "spectral"),
                            Field(grid, f, "spectral"), dealias)
    close(got.data, want)

    def gradient_term(fine, g):
        acc = 0.0
        for axis in range(dim):
            k = grid.k_components[axis]
            ik = np.where(k == -n // 2, 0.0, 1j * k)
            acc = acc + fine[axis] * _c2c_padded(g * ik, dim, dealias)
        return _c2c_coarse(acc, dim, n)

    got = advect(Field(grid, v, "spectral"), Field(grid, f, "spectral"),
                 dealias)
    close(got.data, gradient_term(fine_v, f))

    # the solver's rotational term is zeroed on the -n/2 planes; off them
    # it is the convective -P(u.grad u) when dealiased, and the aliased
    # rotational product on the coarse grid when not
    keep = sum(k == -(n // 2) for k in grid.k_components) == 0
    u = v * keep
    fine_u = _c2c_padded(u, dim, dealias)
    if dealias:
        want = -gradient_term(fine_u, u)
    else:
        want = _c2c_rotational(u, grid)
    want = _leray_full(want, grid) * keep
    want[(slice(None),) + (0,) * dim] = 0.0
    config = SolverConfig(dim=dim, n=n, dealias=dealias)
    term, umax = nonlinear_full(_Integrator(grid, config), u)
    close(term, want)
    assert umax == pytest.approx(np.sqrt(np.max(np.sum(fine_u**2, axis=0))),
                                 rel=1e-13)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_grad_norm_inf_matches_c2c_reference(dim, n):
    rng = np.random.default_rng(8)
    grid = Grid(dim, n)
    shape = (dim,) + grid.shape
    spec = _hermitian_part(rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape), dim)
    total = 0.0
    for axis in range(dim):
        k = grid.k_components[axis]
        d = _c2c_padded(spec * np.where(k == -n // 2, 0.0, 1j * k), dim, False)
        total = total + np.sum(d**2, axis=0)
    assert grad_norm_inf(Field(grid, spec, "spectral")) == pytest.approx(
        np.sqrt(np.max(total)), rel=1e-13)


def _unpruned_inverse(half, dim):
    """The half-spectrum inverse transform with no line skipped: one
    ifftn over every leading axis, then the c2r."""
    axes = tuple(range(half.ndim - dim, half.ndim))
    lead = scipy.fft.ifftn(half, axes=axes[:-1], norm="forward")
    return scipy.fft.irfftn(lead, s=half.shape[-2:-1], axes=axes[-1:],
                            norm="forward")


def _box_spectrum(rng, lead, dim, n, radius):
    """Random half spectra, zero wherever some |k_i| > radius."""
    shape = lead + (n,) * (dim - 1) + (n // 2 + 1,)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    for axis in range(dim):
        rows = k[:shape[len(lead) + axis]] <= radius
        spec *= rows.reshape((-1,) + (1,) * (dim - 1 - axis))
    return spec


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (2, 32),
                                   (3, 8), (3, 16), (3, 32)])
def test_pruned_inverse_transform_is_bit_identical(dim, n):
    rng = np.random.default_rng(41)
    shape = (n,) * dim
    for radius in sorted({0, 1, n // 4, n // 2 - 1, n // 2}):
        for lead in ((1,), (3,), (6,)):
            spec = _box_spectrum(rng, lead, dim, n, radius)
            assert _support_radius(spec, dim) == radius
            want = _unpruned_inverse(spec, dim)
            assert np.array_equal(_irfftn_half(spec.copy(), shape, radius), want)
            # a strided view, as the transforms get from sliced buffers
            wide = np.zeros(spec.shape[:-1] + (2 * spec.shape[-1],),
                            dtype=spec.dtype)
            view = wide[..., ::2]
            view[...] = spec
            assert not view.flags.c_contiguous
            assert np.array_equal(_irfftn_half(view, shape, radius), want)


@pytest.mark.parametrize("dim,axis", [(2, 1), (3, 1), (3, 2)])
def test_pruned_inverse_transform_drops_content_outside_its_box(dim, axis):
    # negative control: one coefficient on a skipped line (a later leading
    # axis, or a plane beyond the radius) changes the result
    n, radius = 16, 2
    spec = _box_spectrum(np.random.default_rng(42), (3,), dim, n, radius)
    at = [1] + [0] * dim
    at[axis + 1] = n // 2 - 1
    spec[tuple(at)] = 1.0
    assert _support_radius(spec, dim) == n // 2 - 1
    pruned = _irfftn_half(spec.copy(), (n,) * dim, radius)
    assert not np.array_equal(pruned, _unpruned_inverse(spec, dim))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_grad_norm_inf_of_low_pass_field_is_bit_identical(dim, n):
    rng = np.random.default_rng(43)
    grid = Grid(dim, n)
    for radius in (1, 3, n // 4):
        half = _hermitian_half(_full_spectrum(
            _box_spectrum(rng, (dim,), dim, n, radius), dim), dim)
        total = 0.0
        for axis in range(dim):
            d = _unpruned_inverse(half * _ik(half.shape[1:], n, axis), dim)
            total = total + np.sum(d**2, axis=0)
        assert grad_norm_inf(Field(grid, half, "spectral")) == float(
            np.sqrt(np.max(total)))


# --- Leray projection --------------------------------------------------------

@pytest.mark.parametrize("ncomp_a, ncomp_b", [(3, 3), (2, 2), (2, 1)])
def test_cross_matches_component_formulas_bit_for_bit(ncomp_a, ncomp_b, rng):
    # the solver's u x omega: the 3D vector product, and in 2D u x (0, 0, w)
    a = rng.standard_normal((ncomp_a, 6, 5))
    b = rng.standard_normal((ncomp_b, 6, 5))
    if ncomp_b == 3:
        want = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]
    elif ncomp_b == 2:
        want = [a[0] * b[1] - a[1] * b[0]]
    else:
        want = [a[1] * b[0], -(a[0] * b[0])]
    assert np.array_equal(_cross(a, b), np.stack(want))
    out = np.empty((len(want), 6, 5))
    assert _cross(a, b, out=out) is out
    assert np.array_equal(out, np.stack(want))


def test_leray_kills_gradients(grid3, rng):
    g = band_noise(grid3, rng, kmax=9.0)
    proj = leray_project(gradient(g))
    assert l2_norm_spectral(proj) <= 1e-13 * l2_norm_spectral(gradient(g))


def test_leray_idempotent(grid3, rng):
    u = band_noise(grid3, rng, kmax=9.0, ncomp=3)
    once = leray_project(u)
    twice = leray_project(once)
    diff = l2_norm_spectral(add(twice, once, alpha=-1.0))
    assert diff <= 1e-15 * l2_norm_spectral(once)


def test_leray_output_divergence_free(grid3, rng):
    u = band_noise(grid3, rng, kmax=9.0, ncomp=3)
    proj = leray_project(u)
    assert l2_norm_spectral(divergence(proj)) <= 1e-13 * h1_seminorm(proj)


@pytest.mark.parametrize("planes", ["full", "half"])
def test_leray_projects_in_place_and_leray_project_copies(grid3, rng, planes):
    # _leray_project_spec overwrites its half-spectrum argument with the
    # projection; leray_project leaves its input Field alone, and with no
    # -n/2 content its full layout is the full-layout reference's
    u = band_noise(grid3, rng, kmax=12.0, ncomp=3)
    before = u.half.tobytes()
    proj = leray_project(u)
    assert u.half.tobytes() == before
    if planes == "full":
        assert np.array_equal(proj.data, _leray_full(u.data, grid3))
        return
    spec = u.half.copy()
    want = _leray_project_spec(spec.copy(), grid3)
    assert _leray_project_spec(spec, grid3) is spec
    assert spec.tobytes() == want.tobytes()
    # leray_project also zeroes the modes with some k_i = -n/2
    paired = _paired(grid3)
    assert proj.half[:, paired].tobytes() == want[:, paired].tobytes()
    assert not np.any(proj.half[:, ~paired])


def test_leray_fixes_divergence_free_fields(grid2, rng):
    u = divfree_noise(grid2, rng, kmax=8.0)
    diff = add(leray_project(u), u, alpha=-1.0)
    assert l2_norm_spectral(diff) <= 1e-13 * l2_norm_spectral(u)


def test_scale_add(grid2, rng):
    f = band_noise(grid2, rng, kmax=5.0)
    g = band_noise(grid2, rng, kmax=5.0)
    combo = add(scale(f, 2.0), g, alpha=-3.0)
    expected = 2.0 * f.data - 3.0 * g.data
    np.testing.assert_allclose(combo.data, expected,
                               rtol=0.0, atol=1e-14)
