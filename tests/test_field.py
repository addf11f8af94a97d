import itertools

import numpy as np
import pytest

from lpnse import (Field, Grid, advect, dealiased_product, derivative,
                   from_components, from_physical, from_spectral, inner,
                   leray_project, lp_norm, to_physical, to_spectral)
from lpnse.ensembles import band_noise, divfree_noise
from lpnse.errors import GridError
from lpnse.field import (_full_spectrum, _hermitian_half, _leray_project_spec,
                         _mirror, add, divergence, gradient,
                         grad_norm_inf, h1_seminorm, l2_norm_spectral,
                         laplacian, magnitude, scale, spectral_data,
                         zero_field)
from lpnse.solver import SolverConfig, _Integrator

TWO_PI = 2.0 * np.pi


def _sin_x(grid):
    return from_components(grid, lambda *xs: np.sin(xs[0]))


# --- representations ---------------------------------------------------------

def test_round_trip(grid2, rng):
    f = from_physical(grid2, rng.standard_normal(grid2.shape))
    back = to_physical(to_spectral(f))
    np.testing.assert_allclose(back.data, f.data, rtol=0.0, atol=1e-12)


def test_cosine_coefficients(grid2):
    # cos(x) = (e^{ix} + e^{-ix})/2: forward-normalized coefficients 1/2
    f = from_components(grid2, lambda x, y: np.cos(x))
    spec = spectral_data(f)[0]
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
    spec = np.zeros((1,) + grid2.shape, dtype=np.complex128)
    spec[0, 1, 0] = 1.0  # e^{ix} alone is complex in physical space
    with pytest.raises(GridError, match="Hermitian"):
        to_physical(from_spectral(grid2, spec))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_to_spectral_is_exactly_hermitian(dim, n):
    grid = Grid(dim, n)
    data = np.random.default_rng(17).standard_normal((2,) + grid.shape)
    spec = to_spectral(from_physical(grid, data)).data
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
    phys = to_physical(from_spectral(grid, spec)).data
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


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 16)])
def test_products_are_exactly_hermitian(dim, n, dealias):
    # c(-k) == conj c(k) with no round-off for every product, as for
    # to_spectral (test_to_spectral_is_exactly_hermitian)
    grid = Grid(dim, n)
    rng = np.random.default_rng(37)
    u = to_spectral(from_physical(grid, rng.standard_normal((dim,) + grid.shape)))
    s = to_spectral(from_physical(grid, rng.standard_normal(grid.shape)))
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
    spec = spectral_data(f)
    expected = float(np.sum(np.abs(spec) ** 2)) * grid2.volume
    assert inner(f, f) == pytest.approx(expected, rel=1e-13)


def test_inner_component_mismatch(grid2):
    with pytest.raises(GridError):
        inner(zero_field(grid2, 1), zero_field(grid2, 2))


# --- calculus ----------------------------------------------------------------

def test_derivative_against_finite_differences(grid2, rng):
    # independent oracle: 4th-order centered stencil, O(h^4) for smooth f
    f = to_physical(band_noise(grid2, rng, kmax=3.0))
    df = to_physical(derivative(f, (1, 0)))
    vals = f.data[0]
    h = grid2.spacing
    fd = (np.roll(vals, 2, axis=0) - 8.0 * np.roll(vals, 1, axis=0)
          + 8.0 * np.roll(vals, -1, axis=0) - np.roll(vals, -2, axis=0)) / (12.0 * h)
    # stencil truncation error ~ (h^4/30) max|f^(5)|; kmax=3 keeps it small
    scale_ = np.max(np.abs(df.data[0]))
    assert np.max(np.abs(df.data[0] - fd)) < 5e-3 * scale_


def test_derivative_closed_form(grid3):
    f = from_components(grid3, lambda x, y, z: np.sin(x) * np.cos(2 * y))
    dxy = to_physical(derivative(f, (1, 1, 0)))
    mesh = grid3.meshes()
    expected = -2.0 * np.cos(mesh[0]) * np.sin(2 * mesh[1])
    np.testing.assert_allclose(dxy.data[0], expected, rtol=0.0, atol=1e-12)


def test_laplacian(grid2):
    f = from_components(grid2, lambda x, y: np.sin(x) * np.sin(2 * y))
    lap = to_physical(laplacian(f))
    np.testing.assert_allclose(lap.data, -5.0 * to_physical(f).data,
                               rtol=0.0, atol=1e-12)


def test_gradient_and_sup(grid2):
    f = from_components(grid2, lambda x, y: np.sin(x))
    g = to_physical(gradient(f))
    assert g.ncomp == 2
    mesh = grid2.meshes()
    np.testing.assert_allclose(g.data[0], np.cos(mesh[0]), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g.data[1], 0.0, rtol=0.0, atol=1e-13)
    assert grad_norm_inf(f) == pytest.approx(1.0, rel=1e-12)


def test_divergence(grid2):
    u = from_components(grid2, lambda x, y: np.sin(x), lambda x, y: np.sin(y))
    div = to_physical(divergence(u))
    mesh = grid2.meshes()
    np.testing.assert_allclose(div.data[0], np.cos(mesh[0]) + np.cos(mesh[1]),
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
    # arbitrary complex spectra, -n/2 content included
    grid = Grid(dim, n)
    rng = np.random.default_rng(31)
    shape = (dim,) + grid.shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vec = Field(grid, spec, "spectral")
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
    np.testing.assert_allclose(prod.data[0], 0.5 * (1.0 + np.cos(2 * mesh[0])),
                               rtol=0.0, atol=1e-13)


def test_product_matches_oversampled_grid(rng):
    # oracle: embed both factors on a grid twice as fine, multiply there
    # pointwise (exact: no wrap-around), and compare the shared modes
    coarse = Grid(2, 32)
    fine = Grid(2, 64)
    spec_f = spectral_data(band_noise(coarse, rng, kmax=10.0))
    spec_g = spectral_data(band_noise(coarse, rng, kmax=10.0))

    def embed(spec):
        out = np.zeros((1,) + fine.shape, dtype=np.complex128)
        idx = np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)
        out[np.ix_([0], idx, idx)] = spec
        return Field(fine, out, "spectral")

    prod_fine = dealiased_product(embed(spec_f), embed(spec_g))
    prod_coarse = dealiased_product(
        Field(coarse, spec_f, "spectral"), Field(coarse, spec_g, "spectral"))
    idx = np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)
    shared = spectral_data(prod_fine)[np.ix_([0], idx, idx)]
    # modes below the coarse dealias radius agree exactly
    mask = coarse.k_mag <= coarse.dealias_radius
    diff = np.abs(spectral_data(prod_coarse)[0] - shared[0])
    assert np.max(diff[mask]) < 1e-13


def test_product_support_sumset(grid2):
    # modes at |k|=3 and |k|=2 only produce modes at 1 and 5
    f = from_components(grid2, lambda x, y: np.cos(3 * x))
    g = from_components(grid2, lambda x, y: np.cos(2 * x))
    spec = spectral_data(dealiased_product(f, g))[0]
    nonzero = np.argwhere(np.abs(spec) > 1e-14)
    ks = sorted({abs(int(grid2.k_axis[i])) for i, _ in nonzero})
    assert ks == [1, 5]


def test_product_identity(grid2, rng):
    f = band_noise(grid2, rng, kmax=8.0)
    one = from_physical(grid2, np.ones(grid2.shape))
    prod = dealiased_product(f, one)
    np.testing.assert_allclose(spectral_data(prod), spectral_data(f),
                               rtol=0.0, atol=1e-14)


def test_advect_is_contracted_product(grid2, rng):
    v = divfree_noise(grid2, rng, kmax=6.0)
    f = band_noise(grid2, rng, kmax=6.0, ncomp=2)
    manual = zero_field(grid2, 2)
    for a in range(2):
        term = dealiased_product(
            Field(grid2, spectral_data(v)[a:a + 1], "spectral"),
            derivative(f, tuple(1 if b == a else 0 for b in range(2))))
        manual = add(manual, term)
    np.testing.assert_allclose(spectral_data(advect(v, f)),
                               spectral_data(manual), rtol=0.0, atol=1e-12)


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
    # arbitrary complex spectra: not Hermitian anywhere, the Nyquist
    # planes included, so the kernel must take the Hermitian part that
    # the reference's .real takes
    rng = np.random.default_rng(7)
    grid = Grid(dim, n)

    def noise(ncomp):
        shape = (ncomp,) + grid.shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

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
    want = _leray_project_spec(want, grid) * keep
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
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    total = 0.0
    for axis in range(dim):
        k = grid.k_components[axis]
        d = _c2c_padded(spec * np.where(k == -n // 2, 0.0, 1j * k), dim, False)
        total = total + np.sum(d**2, axis=0)
    assert grad_norm_inf(Field(grid, spec, "spectral")) == pytest.approx(
        np.sqrt(np.max(total)), rel=1e-13)


# --- Leray projection --------------------------------------------------------

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


def test_leray_fixes_divergence_free_fields(grid2, rng):
    u = divfree_noise(grid2, rng, kmax=8.0)
    diff = add(leray_project(u), u, alpha=-1.0)
    assert l2_norm_spectral(diff) <= 1e-13 * l2_norm_spectral(u)


def test_scale_add(grid2, rng):
    f = band_noise(grid2, rng, kmax=5.0)
    g = band_noise(grid2, rng, kmax=5.0)
    combo = add(scale(f, 2.0), g, alpha=-3.0)
    expected = 2.0 * spectral_data(f) - 3.0 * spectral_data(g)
    np.testing.assert_allclose(spectral_data(combo), expected,
                               rtol=0.0, atol=1e-14)
