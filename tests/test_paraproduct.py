import numpy as np
import pytest

from lpnse import (bony_decomposition, commutator, dealiased_product,
                   paraproduct_t, remainder_r, t_prime)
from lpnse.blocks import delta_j
from lpnse.ensembles import band_noise, divfree_noise
from lpnse.errors import BlockRangeError
from lpnse.field import (add, from_components, from_physical,
                         l2_norm_spectral, scale)
from lpnse.paraproduct import commutator_bound_ratio


def _constant(grid, value):
    return from_physical(grid, np.full(grid.shape, value))


def _constant_vector(grid, values):
    data = np.stack([np.full(grid.shape, v) for v in values])
    return from_physical(grid, data)


def test_paraproduct_constant_low_factor(grid2, rng):
    # S_{j-1} of a constant is the constant, so T_c v collects exactly the
    # shell blocks of v above j = 0
    c = 0.8
    v = band_noise(grid2, rng, kmax=0.375 * grid2.n)
    t = paraproduct_t(_constant(grid2, c), v)
    expected = scale(v, c)
    for j in (-1, 0):
        expected = add(expected, scale(delta_j(v, j), c), alpha=-1.0)
    diff = l2_norm_spectral(add(t, expected, alpha=-1.0))
    assert diff <= 1e-13 * l2_norm_spectral(v)


def test_paraproduct_of_constant_vanishes(grid2, rng):
    # a constant has no shell content, so every block Delta_j (j >= 1) is 0
    v = band_noise(grid2, rng, kmax=8.0)
    t = paraproduct_t(v, _constant(grid2, 1.3))
    assert l2_norm_spectral(t) == 0.0


def test_remainder_constant_oracle(grid2, rng):
    # Delta_j of a constant lives only in the ball, pairing with blocks
    # j' in {-1, 0} of the other factor
    c = -0.6
    v = band_noise(grid2, rng, kmax=0.375 * grid2.n)
    r = remainder_r(_constant(grid2, c), v)
    expected = scale(add(delta_j(v, -1), delta_j(v, 0)), c)
    diff = l2_norm_spectral(add(r, expected, alpha=-1.0))
    assert diff <= 1e-13 * l2_norm_spectral(v)


def test_bony_identity(grid3, rng):
    u = band_noise(grid3, rng, kmax=0.375 * grid3.n)
    v = band_noise(grid3, rng, kmax=0.375 * grid3.n)
    parts = bony_decomposition(u, v)
    prod = dealiased_product(u, v)
    diff = l2_norm_spectral(add(parts.total(), prod, alpha=-1.0))
    assert diff <= 1e-12 * l2_norm_spectral(prod)


def test_t_prime_completes_product(grid2, rng):
    u = band_noise(grid2, rng, kmax=0.375 * grid2.n)
    v = band_noise(grid2, rng, kmax=0.375 * grid2.n)
    total = add(t_prime(u, v), paraproduct_t(v, u))
    prod = dealiased_product(u, v)
    diff = l2_norm_spectral(add(total, prod, alpha=-1.0))
    assert diff <= 1e-12 * l2_norm_spectral(prod)


def test_two_mode_remainder_closed_form(grid2):
    # u = cos x sits in the ball and shell 0 only; both paraproducts
    # vanish and R(u,u) = u^2 = (1 + cos 2x)/2
    u = from_components(grid2, lambda x, y: np.cos(x))
    assert l2_norm_spectral(paraproduct_t(u, u)) <= 1e-14
    r = remainder_r(u, u)
    expected = from_components(grid2, lambda x, y: 0.5 * (1.0 + np.cos(2 * x)))
    diff = l2_norm_spectral(add(r, expected, alpha=-1.0))
    assert diff <= 1e-13


def test_paraproduct_bilinear(grid2, rng):
    u1 = band_noise(grid2, rng, kmax=8.0)
    u2 = band_noise(grid2, rng, kmax=8.0)
    v = band_noise(grid2, rng, kmax=8.0)
    lhs = paraproduct_t(add(scale(u1, 2.0), u2), v)
    rhs = add(scale(paraproduct_t(u1, v), 2.0), paraproduct_t(u2, v))
    diff = l2_norm_spectral(add(lhs, rhs, alpha=-1.0))
    assert diff <= 1e-12 * max(l2_norm_spectral(rhs), 1e-30)


def test_commutator_constant_drift_vanishes(grid2, rng):
    # constant-coefficient advection commutes with every Fourier
    # multiplier, so the commutator collapses to round-off
    v = _constant_vector(grid2, (0.7, -0.3))
    w = band_noise(grid2, rng, kmax=10.0, ncomp=2)
    com = commutator(v, 2, w)
    assert l2_norm_spectral(com) <= 1e-13 * l2_norm_spectral(w)


def test_commutator_linear_in_w(grid2, rng):
    v = divfree_noise(grid2, rng, kmax=6.0)
    w1 = band_noise(grid2, rng, kmax=10.0, ncomp=2)
    w2 = band_noise(grid2, rng, kmax=10.0, ncomp=2)
    lhs = commutator(v, 2, add(scale(w1, 3.0), w2))
    rhs = add(scale(commutator(v, 2, w1), 3.0), commutator(v, 2, w2))
    diff = l2_norm_spectral(add(lhs, rhs, alpha=-1.0))
    assert diff <= 1e-12 * max(l2_norm_spectral(rhs), 1e-30)


def test_commutator_rejects_bad_inputs(grid2, rng):
    v = divfree_noise(grid2, rng, kmax=6.0)
    w = band_noise(grid2, rng, kmax=6.0, ncomp=2)
    with pytest.raises(BlockRangeError):
        commutator(v, -1, w)
    with pytest.raises(BlockRangeError):
        commutator(v, grid2.jmax + 1, w)
    bad = band_noise(grid2, rng, kmax=6.0, ncomp=2)  # not solenoidal
    with pytest.raises(ValueError, match="divergence-free"):
        commutator(bad, 1, w)


def test_commutator_bound_ratio(grid2, rng):
    v = divfree_noise(grid2, rng, kmax=8.0)
    for _ in range(3):
        w = band_noise(grid2, rng, kmax=10.0, ncomp=2)
        ratio = commutator_bound_ratio(v, 2, w)
        assert 0.0 < ratio <= 1.0


def test_commutator_bound_ratio_zero_denominator(grid2):
    v = _constant_vector(grid2, (1.0, 0.0))
    w = from_components(grid2, lambda x, y: np.cos(8 * x),
                        lambda x, y: np.zeros_like(x))
    # grad S_{j+3} v = 0 for a constant drift: predicted bound is zero
    assert commutator_bound_ratio(v, 2, w) == 0.0