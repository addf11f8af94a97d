import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lpnse.blocks
from lpnse import (BesovSpec, CriterionTriple, besov_norm, biot_savart,
                   bkm_ratio, curl, gn_ratio, split_low_high)
from lpnse.besov import (EXTENDED_MODE, UNIQUENESS_MODE, _split_exponents,
                         _vorticity_image, choose_p_tilde, split_constants,
                         split_level)
from lpnse.blocks import (_block_radius, _block_rows, _half_multiplier,
                          block_indices, block_norm_table, block_norms)
from lpnse import cutoffs
from lpnse.ensembles import band_noise, divfree_noise
from lpnse.errors import GridError, ResolutionError, TripleError
from lpnse.field import (SPECTRAL, Field, _available_cpus, _box, add,
                         from_components, grad_norm_inf, gradient,
                         l2_norm_spectral, lp_norm, scale, set_fft_workers)
from lpnse.grid import Grid

TRIPLE = CriterionTriple(0.5, 4.0, 8.0 / 3.0)  # 2/q + 3/p = 3/4 + 3/4 = 1.5
THREADS = (1, min(2, _available_cpus()))
DIAGNOSTIC_GRIDS = [(2, 32), (3, 16), (3, 64)]


# --- norms -------------------------------------------------------------------

def test_two_shell_norm_oracle(grid2):
    # cos 2x splits over shells 0 and 1 with phi weights; the B^1_{inf,inf}
    # norm is the larger of the two weighted sup norms
    f = from_components(grid2, lambda x, y: np.cos(2 * x))
    expected = max(float(cutoffs.phi(2.0)), 2.0 * float(cutoffs.phi(1.0)))
    got = besov_norm(f, BesovSpec(1.0, math.inf, math.inf))
    assert got == pytest.approx(expected, rel=1e-12)


def test_norm_monotone_in_s(grid2, rng):
    # for shell-supported fields every weight 2^{js} grows with s
    f = band_noise(grid2, rng, kmin=2.0, kmax=10.0)
    n_low = besov_norm(f, BesovSpec(0.2, 2.0))
    n_high = besov_norm(f, BesovSpec(0.9, 2.0))
    assert n_high >= n_low


def test_b0_2inf_comparable_to_l2(grid3, rng):
    # sup_j ||f_j||_2 <= ||f||_2 <= sqrt(2 (jmax+2)) sup_j ||f_j||_2:
    # multipliers are <= 1 and at most two overlap at any wavenumber
    f = band_noise(grid3, rng, kmax=0.375 * grid3.n, ncomp=3)
    b = besov_norm(f, BesovSpec(0.0, 2.0))
    l2 = l2_norm_spectral(f)
    assert b <= l2 * (1.0 + 1e-12)
    assert b >= l2 / math.sqrt(2.0 * (grid3.jmax + 2))


def test_finite_q_aggregation(grid2, rng):
    f = band_noise(grid2, rng, kmax=10.0)
    js = [-1, 0, 1, 2, 3]
    norms = block_norms(f, 2.0)
    weighted = 2.0 ** (0.4 * np.array(js)) * norms
    expected = float(np.sum(weighted**2.0) ** 0.5)
    assert besov_norm(f, BesovSpec(0.4, 2.0, 2.0)) == pytest.approx(
        expected, rel=1e-13)


def test_norm_homogeneous(grid2, rng):
    f = band_noise(grid2, rng, kmax=8.0)
    spec = BesovSpec(0.5, 4.0)
    assert besov_norm(scale(f, 3.0), spec) == pytest.approx(
        3.0 * besov_norm(f, spec), rel=1e-12)


def test_besov_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        BesovSpec(1.0, 2.0, 0.0)


# --- vorticity ---------------------------------------------------------------

def test_curl_2d_closed_form(grid2):
    u = from_components(grid2, lambda x, y: np.zeros_like(x),
                        lambda x, y: np.sin(x))
    w = curl(u)
    expected = from_components(grid2, lambda x, y: np.cos(x))
    assert l2_norm_spectral(add(w, expected, alpha=-1.0)) <= 1e-13


def test_curl_3d_closed_form(grid3):
    u = from_components(grid3,
                        lambda x, y, z: np.zeros_like(x),
                        lambda x, y, z: np.sin(x),
                        lambda x, y, z: np.zeros_like(x))
    w = curl(u)
    expected = from_components(grid3,
                               lambda x, y, z: np.zeros_like(x),
                               lambda x, y, z: np.zeros_like(x),
                               lambda x, y, z: np.cos(x))
    assert l2_norm_spectral(add(w, expected, alpha=-1.0)) <= 1e-13


def test_curl_of_gradient_vanishes(grid3, rng):
    g = band_noise(grid3, rng, kmax=9.0)
    w = curl(gradient(g))
    assert l2_norm_spectral(w) <= 1e-13 * max(l2_norm_spectral(gradient(g)), 1e-30)


@pytest.mark.parametrize("dim", [2, 3])
def test_biot_savart_round_trip(dim, rng):
    from lpnse import Grid
    grid = Grid(dim, 32)
    u = divfree_noise(grid, rng, kmin=1.0, kmax=8.0)
    back = biot_savart(curl(u))
    # recovers u up to its (zero) mean
    assert l2_norm_spectral(add(back, u, alpha=-1.0)) <= 1e-12 * l2_norm_spectral(u)


@pytest.mark.parametrize("dim", [2, 3])
def test_curl_and_biot_savart_keep_nyquist_fields_real(dim):
    # white noise has -n/2 content; the first-derivative factor drops the
    # lone -n/2 mode, so both outputs stay real
    from lpnse import Grid, from_physical, to_physical
    from lpnse.field import Field, derivative
    grid = Grid(dim, 16)
    data = np.random.default_rng(29).standard_normal((dim,) + grid.shape)
    u = from_physical(grid, data)
    w = curl(u)
    to_physical(w)
    to_physical(biot_savart(w))

    def d(comp, axis):
        comp_field = Field(grid, u.data[comp:comp + 1], "spectral")
        return derivative(comp_field, [int(a == axis) for a in range(dim)]).data

    if dim == 2:
        expected = d(1, 0) - d(0, 1)
    else:
        expected = np.concatenate([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0),
                                   d(1, 0) - d(0, 1)])
    np.testing.assert_array_equal(w.data, expected)


def test_biot_savart_2d_example(grid2):
    w = from_components(grid2, lambda x, y: np.cos(x))
    u = biot_savart(w)
    expected = from_components(grid2, lambda x, y: np.zeros_like(x),
                               lambda x, y: np.sin(x))
    assert l2_norm_spectral(add(u, expected, alpha=-1.0)) <= 1e-13


def test_biot_savart_rejects_mean(grid2):
    w = from_components(grid2, lambda x, y: 1.0 + np.cos(x))
    with pytest.raises(ValueError, match="zero mean"):
        biot_savart(w)


def test_biot_savart_rejects_bad_shapes(grid2, grid3, rng):
    with pytest.raises(GridError):
        biot_savart(band_noise(grid2, rng, kmin=1.0, kmax=4.0, ncomp=2))
    with pytest.raises(GridError):
        biot_savart(band_noise(grid3, rng, kmin=1.0, kmax=4.0, ncomp=2))


def test_bkm_ratio_properties(grid3, rng):
    from lpnse.field import zero_field
    assert bkm_ratio(zero_field(grid3, 3)) == 0.0
    u = divfree_noise(grid3, rng, kmax=8.0)
    r = bkm_ratio(u)
    assert np.isfinite(r) and r > 0
    # scale-invariant: numerator and denominator are both 1-homogeneous
    assert bkm_ratio(scale(u, 7.0)) == pytest.approx(r, rel=1e-12)
    with pytest.raises(ValueError, match="divergence-free"):
        bkm_ratio(band_noise(grid3, rng, kmin=1.0, kmax=6.0, ncomp=3))


@pytest.mark.parametrize("dim,n", DIAGNOSTIC_GRIDS)
def test_vorticity_image_is_the_curl_times_the_multiplier(dim, n):
    # on every block's support box the image bkm_ratio transforms is
    # curl(u)'s half spectrum times the block multiplier, bit for bit,
    # component by component (a sign flip would not change a norm)
    grid = Grid(dim, n)
    u = divfree_noise(grid, np.random.default_rng(21), slope=2.0)
    omega = curl(u).half
    image = _vorticity_image(u.half, n)
    for j in block_indices(grid):
        mult, radius = _half_multiplier(grid, j), _block_radius(grid, j)
        for rows in _box(n, radius):
            box = (rows, Ellipsis, slice(0, radius + 1))
            out = np.empty_like(omega[(slice(None),) + box])
            image(slice(0, len(omega)), mult, box, out)
            want = omega[(slice(None),) + box] * mult[box]
            assert out.tobytes() == want.tobytes(), j


@pytest.mark.parametrize("dim,n", DIAGNOSTIC_GRIDS)
def test_vorticity_table_is_the_curl_table(dim, n):
    # bkm_ratio's vorticity block sup norms, formed on each block's box
    # from u, equal the table of the vorticity field curl(u), bit for
    # bit, with one lane and with one per thread
    grid = Grid(dim, n)
    u = divfree_noise(grid, np.random.default_rng(22), slope=2.0)
    omega = curl(u)
    for threads in THREADS:
        set_fft_workers(threads)
        table = _block_rows(grid, (math.inf,), omega.ncomp,
                            _vorticity_image(u.half, n))
        assert table.tobytes() == block_norm_table(
            omega, (math.inf,)).tobytes(), threads


# --- criterion triples -------------------------------------------------------

def test_triple_validates():
    assert TRIPLE.validate() is TRIPLE
    assert TRIPLE.relation_residual() <= 1e-15


@pytest.mark.parametrize("triple,message", [
    (CriterionTriple(0.5, 0.5, 8.0), "p >= 1 and q >= 1 violated"),
    (CriterionTriple(0.5, 4.0, 2.0), "2/q\\+3/p=1\\+r violated"),
    # with finite q the relation forces p > 3/(1+r), so the boundary
    # cases live at q = inf
    (CriterionTriple(-0.25, 4.0, math.inf), "r in \\(0,1\\] violated"),
    (CriterionTriple(0.5, 2.0, math.inf), "p > 3/\\(1\\+r\\) violated"),
    (CriterionTriple(1.0, math.inf, 1.0), "\\(p,r\\) = \\(inf,1\\) excluded"),
])
def test_triple_rejections(triple, message):
    with pytest.raises(TripleError, match=message):
        triple.validate()


def test_extended_mode():
    # negative r is admissible in the extended window, not the uniqueness one
    t = CriterionTriple(-0.25, 4.0, math.inf)
    assert t.validate(EXTENDED_MODE) is t
    with pytest.raises(TripleError):
        t.validate(UNIQUENESS_MODE)
    with pytest.raises(TripleError, match="r in \\(-1,1\\] violated"):
        CriterionTriple(1.5, 6.0, 1.0).validate(EXTENDED_MODE)
    with pytest.raises(ValueError, match="unknown validation mode"):
        TRIPLE.validate("flawless")


# --- the low/high split ------------------------------------------------------

def test_split_level_frozen_example():
    # floor((4/2) log2(e + (4 - e))) + 1 = floor(2 * 2) + 1
    assert split_level(4.0, 4.0 - math.e) == 5
    # zero norm: floor(log2(e)) + 1 = 2
    assert split_level(2.0, 0.0) == 2


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=12.0),
       st.floats(min_value=0.0, max_value=1e4))
def test_split_level_properties(q, norm):
    n = split_level(q, norm)
    assert isinstance(n, int)
    assert n >= 1
    # monotone in the norm
    assert split_level(q, norm + 1.0) >= n


@pytest.mark.parametrize("norm", [math.nan, math.inf, -math.inf, -1.0])
def test_split_level_rejects_a_bad_norm_by_value(norm):
    # NaN raised "cannot convert float NaN to integer", inf an
    # OverflowError, and a negative norm gave a level
    with pytest.raises(ValueError, match=re.escape(f"got {norm!r}")):
        split_level(2.0, norm)


@pytest.mark.parametrize("norm", [math.nan, math.inf, -1.0])
def test_split_low_high_rejects_a_bad_norm_value(grid2, rng, norm):
    # a negative norm_value used to be recomputed without a word
    u = divfree_noise(grid2, rng, kmax=6.0)
    with pytest.raises(ValueError, match=re.escape(f"got {norm!r}")):
        split_low_high(u, TRIPLE, norm)


def test_choose_p_tilde_first_hit():
    # first delta in 1/2, 1/4, ... with 3/p - 3/p~ - r < 0; for the base
    # triple that is already delta = 1/2
    assert choose_p_tilde(TRIPLE) == pytest.approx(6.0)
    q_tilde = 2.0 / (1.0 - 3.0 / 6.0)
    assert q_tilde == pytest.approx(4.0)


def test_split_reassembles(grid3, rng):
    u = divfree_noise(grid3, rng, kmax=10.0)
    u = scale(u, 0.3 / besov_norm(u, BesovSpec(TRIPLE.r, TRIPLE.p, math.inf)))
    res = split_low_high(u, TRIPLE)
    total = add(res.u_low, res.u_high)
    assert l2_norm_spectral(add(total, u, alpha=-1.0)) <= 1e-14 * l2_norm_spectral(u)
    assert res.N == split_level(TRIPLE.q, 0.3)
    assert res.p_tilde == pytest.approx(6.0)
    assert res.q_tilde == pytest.approx(4.0)


def test_split_low_band_field_has_no_high_part(grid2):
    # everything below the cut: u_high is exactly zero (spectrally exact
    # input so there is no transform round-off outside the band)
    from lpnse.field import Field
    spec = np.zeros((2,) + grid2.shape, dtype=np.complex128)
    spec[0, 1, 0] = spec[0, -1, 0] = 0.05  # cos x
    spec[1, 0, 1] = -0.05j                 # sin y
    spec[1, 0, -1] = 0.05j
    u = Field(grid2, spec, "spectral")
    res = split_low_high(u, TRIPLE)
    assert res.N >= 1
    assert l2_norm_spectral(res.u_high) == 0.0


def test_split_resolution_guard(grid2, rng):
    u = divfree_noise(grid2, rng, kmax=8.0)
    u = scale(u, 1e6 / max(besov_norm(u, BesovSpec(TRIPLE.r, TRIPLE.p, math.inf)), 1e-30))
    with pytest.raises(ResolutionError, match="exceeds jmax"):
        split_low_high(u, TRIPLE)


def test_split_requires_uniqueness_mode(grid2, rng):
    u = divfree_noise(grid2, rng, kmax=6.0)
    with pytest.raises(TripleError):
        split_low_high(u, CriterionTriple(-0.25, 4.0, 8.0))


@pytest.mark.parametrize("triple", [TRIPLE, CriterionTriple(0.5, 6.0, 2.0),
                                    CriterionTriple(1.0, 6.0, 4.0 / 3.0)])
def test_split_constants_measure_the_parts_of_split_low_high(grid3, rng,
                                                             triple):
    # split_constants forms S_N u on its support planes and u - S_N u a
    # component at a time; its norms are those of split_low_high's two
    # Fields, bit for bit
    u = divfree_noise(grid3, rng, kmax=10.0)
    u = scale(u, 1.0 / besov_norm(u, BesovSpec(triple.r, triple.p, math.inf)))
    before = u.data.tobytes()
    out = split_constants(u, triple)
    res = split_low_high(u, triple)
    assert u.data.tobytes() == before
    assert (out["N"], out["p_tilde"], out["q_tilde"]) == (
        res.N, res.p_tilde, res.q_tilde)
    assert out["lip_low"] == grad_norm_inf(res.u_low)
    assert out["high_norm"] == lp_norm(res.u_high, res.p_tilde)


def _split_constants_reference(u, triple):
    """split_constants as it was formed on a copy of u's half spectrum:
    S_N u on the planes of its support box, then u - S_N u written over
    the copy, whose norm is that of a Field."""
    grid = u.grid
    norm_value = besov_norm(u, BesovSpec(triple.r, triple.p, math.inf))
    N, p_tilde, q_tilde = _split_exponents(grid, triple, norm_value)
    lip_scale = 2.0 ** (2.0 * (1.0 - 1.0 / triple.q) * N) * norm_value
    high_scale = (2.0 ** ((3.0 / triple.p - 3.0 / p_tilde - triple.r) * N)
                  * norm_value)
    half = u.half.copy()
    planes = _block_radius(grid, N - 1) + 1
    low = half[..., :planes] * _half_multiplier(grid, N, "low")[..., :planes]
    lip_low = grad_norm_inf(Field(grid, np.concatenate(
        [low, np.zeros_like(half[..., planes:])], axis=-1)))
    np.subtract(half[..., :planes], low, out=half[..., :planes])
    high_norm = lp_norm(Field(grid, half), p_tilde)
    return {"N": N, "p_tilde": p_tilde, "q_tilde": q_tilde,
            "norm": norm_value, "lip_low": lip_low, "high_norm": high_norm,
            "c_lip": lip_low / lip_scale if lip_scale else 0.0,
            "c_high": high_norm / high_scale if high_scale else 0.0}


@pytest.mark.parametrize("dim,n", DIAGNOSTIC_GRIDS)
def test_split_constants_match_a_materialized_high_part(dim, n):
    # u - S_N u is formed a component at a time in each magnitude item's
    # buffer, with no copy of u; every constant equals the one measured
    # on the whole materialized high part, bit for bit, at every thread
    # count
    grid = Grid(dim, n)
    rng = np.random.default_rng(23)
    triples = [CriterionTriple(0.5, 6.0, 2.0),
               CriterionTriple(1.0, 6.0, 4.0 / 3.0)]
    if grid.jmax >= 4:  # its split level is 4 at unit norm
        triples.append(CriterionTriple(0.25, 4.0, 4.0))
    for triple in triples:
        u = divfree_noise(grid, rng, slope=2.0)
        u = scale(u, 1.0 / besov_norm(u, BesovSpec(triple.r, triple.p,
                                                    math.inf)))
        want = repr(_split_constants_reference(u, triple))
        for threads in THREADS:
            set_fft_workers(threads)
            assert repr(split_constants(u, triple)) == want, (triple, threads)


def test_split_constants_keys(grid3, rng):
    u = divfree_noise(grid3, rng, kmax=10.0)
    u = scale(u, 1.0 / besov_norm(u, BesovSpec(TRIPLE.r, TRIPLE.p, math.inf)))
    out = split_constants(u, TRIPLE)
    assert set(out) == {"N", "p_tilde", "q_tilde", "norm", "lip_low",
                        "high_norm", "c_lip", "c_high"}
    assert out["norm"] == pytest.approx(1.0, rel=1e-12)
    assert out["c_lip"] > 0
    assert out["c_high"] >= 0


@pytest.mark.parametrize("triple", [CriterionTriple(0.5, math.nan, 4.0),
                                    CriterionTriple(0.5, 4.0, 4.0)],
                         ids=["nan-p", "scaling-violated"])
def test_split_constants_checks_the_triple_first(grid3, rng, monkeypatch,
                                                 triple):
    # an invalid triple is a TripleError before any block table is made
    calls = []
    original = lpnse.blocks.block_norm_table

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lpnse.blocks, "block_norm_table", counting)
    with pytest.raises(TripleError):
        split_constants(divfree_noise(grid3, rng, kmax=10.0), triple)
    assert calls == []


@pytest.mark.parametrize("band", ["high", "low"])
def test_split_constants_rejects_a_non_hermitian_field(grid3, rng, band):
    # one mode (k, 0, 0) with no conjugate partner: at k = 15 it lies in
    # u - S_N u's band, at k = 1 where chi(|k|/2^N) = 1, in S_N u alone.
    # Such a spectrum is refused when it is made a Field, so no split of
    # it is ever measured
    u = divfree_noise(grid3, rng, kmax=10.0)
    u = scale(u, 1.0 / besov_norm(u, BesovSpec(TRIPLE.r, TRIPLE.p, math.inf)))
    N = split_constants(u, TRIPLE)["N"]
    k = {"high": grid3.n // 2 - 1, "low": 1}[band]
    inside = float(lpnse.blocks._half_multiplier(grid3, N, "low")[k, 0, 0])
    assert inside == (1.0 if band == "low" else 0.0)
    spec = u.data.copy()
    spec[0, k, 0, 0] += 1e-3j
    with pytest.raises(GridError, match="Hermitian"):
        Field(grid3, spec, SPECTRAL)


# --- interpolation ratio -----------------------------------------------------

def test_gn_ratio_scale_invariant(grid3, rng):
    w = divfree_noise(grid3, rng, kmin=1.0, kmax=8.0)
    r = gn_ratio(w, 6.0)
    assert np.isfinite(r) and r > 0
    assert gn_ratio(scale(w, 40.0), 6.0) == pytest.approx(r, rel=1e-12)


def test_gn_ratio_guards(grid3, rng):
    from lpnse.field import zero_field
    assert gn_ratio(zero_field(grid3, 3), 6.0) == 0.0
    with pytest.raises(ValueError):
        gn_ratio(divfree_noise(grid3, rng, kmax=4.0), 3.0)


def test_gn_ratio_rejects_nan_exponent(grid3, rng):
    with pytest.raises(ValueError, match="p_tilde must exceed 3, got nan"):
        gn_ratio(divfree_noise(grid3, rng, kmax=4.0), math.nan)
