import csv
import math

import numpy as np
import pytest
import scipy.fft

from lpnse import (bernstein_report, block_indices, block_norms, delta_j,
                   reconstruct, reverse_bernstein_report, s_j)
from lpnse.blocks import (_bernstein_norms, _half_multiplier,
                          block_norm_table)
from lpnse import cutoffs
from lpnse.ensembles import band_noise
from lpnse.errors import BlockRangeError, ResolutionError
from lpnse.field import (Field, _hermitian_half, add, derivative,
                         from_components, h1_seminorm, l2_norm_spectral,
                         lp_norm)
from lpnse.grid import Grid


def test_block_indices(grid2, grid3):
    assert list(block_indices(grid2)) == [-1, 0, 1, 2, 3]
    assert list(block_indices(grid3)) == [-1, 0, 1, 2, 3]


def test_single_mode_block_weights(grid2):
    # |k| = 2 meets only the j = 0 and j = 1 shells, with phi weights that
    # sum to one
    f = from_components(grid2, lambda x, y: np.cos(2 * x))
    weights = {}
    for j in block_indices(grid2):
        norm = l2_norm_spectral(delta_j(f, j))
        if norm > 1e-14:
            weights[j] = norm / l2_norm_spectral(f)
    assert set(weights) == {0, 1}
    assert weights[0] == pytest.approx(float(cutoffs.phi(2.0)), rel=1e-13)
    assert weights[1] == pytest.approx(float(cutoffs.phi(1.0)), rel=1e-13)
    assert weights[0] + weights[1] == pytest.approx(1.0, rel=1e-14)


def test_ball_block_conventions(grid2, rng):
    f = band_noise(grid2, rng, kmax=10.0)
    # j = -1 is the low-pass ball: identical to S_0
    diff = add(delta_j(f, -1), s_j(f, 0), alpha=-1.0)
    assert l2_norm_spectral(diff) <= 1e-15 * l2_norm_spectral(f)
    # everything below the ball vanishes
    assert l2_norm_spectral(delta_j(f, -2)) == 0.0
    assert l2_norm_spectral(delta_j(f, -7)) == 0.0
    assert l2_norm_spectral(s_j(f, -1)) == 0.0


def test_block_range_errors(grid2, rng):
    f = band_noise(grid2, rng, kmax=4.0)
    with pytest.raises(BlockRangeError):
        delta_j(f, grid2.jmax + 1)
    with pytest.raises(BlockRangeError):
        s_j(f, grid2.jmax + 2)


def _radial_multiplier(grid, j, kind):
    """The radial formula of block j's multiplier ('block') or of S_j's
    ('low') on the full layout, from Grid.k_sq."""
    k_mag = np.sqrt(grid.k_sq)
    if kind == "low":
        return cutoffs.chi(k_mag / 2.0 ** j)
    return cutoffs.chi(k_mag) if j == -1 else cutoffs.phi(k_mag / 2.0 ** j)


def test_multiplier_telescoping(grid3):
    # chi(2^{-J-1}|k|) equals the ball plus all shells up to J, on the
    # lattice and coefficient-exact
    total = _half_multiplier(grid3, -1)
    for j in range(0, grid3.jmax + 1):
        total = total + _half_multiplier(grid3, j)
    low = _radial_multiplier(grid3, grid3.jmax + 1, "low")
    np.testing.assert_allclose(total, low[..., :grid3.n // 2 + 1],
                               rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [16, 32])
def test_half_plane_multiplier_cache(dim, n):
    # the cache holds read-only planes 0 <= k_last <= n/2 only, one array
    # per equal grid, and they mirrored onto the planes n/2 < k_last < n
    # equal the radial formula on the full grid bit for bit
    grid = Grid(dim, n)
    for j in block_indices(grid):
        for kind in ("block", "low"):
            mult = _half_multiplier(grid, j, kind)
            assert mult.shape == grid.half_shape
            assert not mult.flags.writeable
            assert _half_multiplier(Grid(dim, n), j, kind) is mult
            full = np.concatenate([mult, mult[..., n // 2 - 1:0:-1]], axis=-1)
            assert full.tobytes() == np.ascontiguousarray(
                _radial_multiplier(grid, j, kind)).tobytes()


def test_sj_minus_sj_is_block(grid2, rng):
    f = band_noise(grid2, rng, kmax=10.0)
    for j in range(0, grid2.jmax + 1):
        diff = add(s_j(f, j + 1), s_j(f, j), alpha=-1.0)
        resid = add(diff, delta_j(f, j), alpha=-1.0)
        assert l2_norm_spectral(resid) <= 1e-15 * l2_norm_spectral(f)


def test_reconstruct_band_limited(grid3, rng):
    # partition of unity holds up to (3/4) 2^{jmax+1} = 3n/8
    f = band_noise(grid3, rng, kmax=0.375 * grid3.n)
    diff = add(reconstruct(f), f, alpha=-1.0)
    assert l2_norm_spectral(diff) <= 1e-12 * l2_norm_spectral(f)


def test_block_sum_equals_reconstruct(grid2, rng):
    f = band_noise(grid2, rng, kmax=0.375 * grid2.n)
    total = delta_j(f, -1)
    for j in range(0, grid2.jmax + 1):
        total = add(total, delta_j(f, j))
    diff = add(total, reconstruct(f), alpha=-1.0)
    assert l2_norm_spectral(diff) <= 1e-14 * l2_norm_spectral(f)


def test_block_norms_matches_explicit_blocks(grid2, grid3, rng):
    # at n = 32 the shells up to j = 2 take the support-pruned transform
    # and the top shell j = 3 the full one; both must match the definition
    for grid in (grid3, grid2):
        f = band_noise(grid, rng, kmax=10.0, ncomp=grid.dim)
        js = list(block_indices(grid))
        fast2 = block_norms(f, 2.0)
        fast4 = block_norms(f, 4.0)
        fast_inf = block_norms(f, math.inf)
        for i, j in enumerate(js):
            blk = delta_j(f, j)
            assert fast2[i] == pytest.approx(l2_norm_spectral(blk), abs=1e-13)
            assert fast4[i] == pytest.approx(lp_norm(blk, 4.0), abs=1e-12)
            assert fast_inf[i] == pytest.approx(lp_norm(blk, math.inf), abs=1e-12)


@pytest.mark.parametrize("dim, ncomp", [(2, 1), (2, 2), (3, 1), (3, 3)])
def test_block_norm_table_rows_equal_block_norms(grid2, grid3, rng, dim,
                                                 ncomp):
    grid = grid2 if dim == 2 else grid3
    f = band_noise(grid, rng, kmax=12.0, ncomp=ncomp)
    ps = (math.inf, 4.0, 2.5, 2.0)
    js = list(block_indices(grid))
    table = block_norm_table(f, ps)
    assert table.shape == (len(ps), len(js))
    for row, p in zip(table, ps):
        assert np.array_equal(row, block_norms(f, p))
    for i, j in enumerate(js):
        assert table[2, i] == pytest.approx(lp_norm(delta_j(f, j), 2.5),
                                            rel=1e-12, abs=1e-13)


def _dense_block_norm_table(f, ps, js):
    """block_norm_table with every row of the leading axes multiplied and
    transformed: planes 0 <= k_last <= the block's radius, one ifftn over
    all leading axes, then the c2r."""
    grid = f.grid
    spec = _hermitian_half(f.data, grid.dim)
    # p = 2: Parseval over the planes 0 <= k_last <= n/2 of sum_c |c^|^2,
    # planes 0 and n/2 weighted 1 and the rest 2, for their mirrors
    weight = np.full(grid.n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    power = (np.sum(np.abs(f.data) ** 2, axis=0)
             [..., :grid.n // 2 + 1] * weight)
    axes = tuple(range(1, grid.dim + 1))
    out = np.empty((len(ps), len(js)))
    for col, j in enumerate(js):
        mult = _radial_multiplier(grid, j, "block")
        planes = min(int(cutoffs.SUPPORT_RADIUS * 2.0 ** (j + 1)),
                     grid.n // 2) + 1
        buf = np.zeros_like(spec)
        buf[..., :planes] = scipy.fft.ifftn(
            spec[..., :planes] * mult[..., :planes], axes=axes[:-1],
            norm="forward")
        phys = scipy.fft.irfftn(buf, s=(grid.n,), axes=axes[-1:],
                                norm="forward")
        np.square(phys, out=phys)
        sq = phys[0]
        for comp in phys[1:]:
            sq += comp
        for row, p in enumerate(ps):
            if p == 2:
                half_mult = mult[..., :grid.n // 2 + 1]
                out[row, col] = np.sqrt(grid.volume
                                        * np.sum(half_mult**2 * power))
            elif np.isinf(p):
                out[row, col] = np.sqrt(np.max(sq))
            else:
                out[row, col] = (np.sum(sq ** (p / 2.0))
                                 * grid.cell_volume) ** (1.0 / p)
    return out


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16), (3, 32)])
def test_block_norm_table_matches_dense_reference_bit_for_bit(dim, n):
    # each block is multiplied and transformed over its support box only;
    # every skipped coefficient is an exact zero, so nothing may move,
    # and a block must not see the rows outside its box that the
    # previous block's transform left in the shared buffer
    grid = Grid(dim, n)
    f = band_noise(grid, np.random.default_rng(12), ncomp=dim)
    ps = (2.0, 4.0, 6.0, 4.0 / 3.0, math.inf)
    want = _dense_block_norm_table(f, ps, list(block_indices(grid)))
    assert np.array_equal(block_norm_table(f, ps), want)


def test_block_norms_js_subset(grid2, rng):
    # the columns follow block_indices, -1, 0, 1, ...: j = 1, 2 are 2:4
    f = band_noise(grid2, rng, kmax=8.0)
    vals = block_norms(f, 2.0)[2:4]
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(l2_norm_spectral(delta_j(f, 1)), abs=1e-13)


def test_monochromatic_bernstein_ratio(grid2):
    # a single mode at |k| = 2^j saturates the derivative bound exactly:
    # sup-per-direction first derivative / (2^j ||f||) = 1
    j = 2
    f = from_components(grid2, lambda x, y: np.cos(2.0**j * x))
    fj = delta_j(f, j)
    d1 = l2_norm_spectral(derivative(fj, (1, 0)))
    assert d1 / (2.0**j * l2_norm_spectral(fj)) == pytest.approx(1.0, rel=1e-12)


def test_bernstein_report_shape_and_bounds(grid2):
    rep = bernstein_report(grid2, ensemble=10, seed=3)
    assert rep.columns[0] == "j"
    assert len(rep.rows) == len(list(range(1, grid2.jmax))) * 3
    ratios = [row[4] for row in rep.rows]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert set(rep.ratios_by_case()) == {(2.0, 2.0, 1), (2.0, np.inf, 0),
                                         (np.inf, np.inf, 1)}


def test_bernstein_report_deterministic(grid2):
    a = bernstein_report(grid2, ensemble=5, seed=11)
    b = bernstein_report(grid2, ensemble=5, seed=11)
    assert a.rows == b.rows


def test_bernstein_report_computes_each_norm_once(grid2, monkeypatch):
    # per measured field, the shell kernel and each ensemble member, on
    # every interior shell: one one-component transform gives ||f||_inf
    # and one more each ||d_a f||_inf; the L^2 norms come from Parseval
    import lpnse.field
    original, calls = lpnse.field._irfftn_half, []

    def counting(a, shape, radius=None):
        calls.append(len(a))
        return original(a, shape, radius)
    monkeypatch.setattr(lpnse.field, "_irfftn_half", counting)
    ensemble = 2
    rep = bernstein_report(grid2, ensemble=ensemble, seed=5)
    js = {row[0] for row in rep.rows}
    assert calls == [1] * ((ensemble + 1) * len(js) * (1 + grid2.dim))


def _dirac(grid, x0):
    """The Dirac comb at x0: half spectrum e^{-i k.x0}."""
    phase = sum(k[..., :grid.n // 2 + 1] * x
                for k, x in zip(grid.k_components, x0))
    return Field(grid, np.exp(-1j * phase)[np.newaxis])


@pytest.mark.parametrize("dim", [2, 3])
def test_bernstein_norms_match_their_definitions_bit_for_bit(dim):
    # the definitions: sup norms through lp_norm of Delta_j f and of each
    # first derivative, over the full grid; L^2 norms as block_norms' p = 2
    # rows, and within round-off of Parseval on Delta_j f.  The fields
    # share one NaN-filled buffer, and r falls from one field to the next,
    # so a field that reads planes an earlier one left behind fails here
    grid = Grid(dim, 32)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    fields = [band_noise(grid, rng) for _ in range(2)] + [_dirac(grid, x0)]
    axes = [tuple(int(i == axis) for i in range(dim)) for axis in range(dim)]
    js = range(1, grid.jmax)
    buf = np.full((1,) + grid.half_shape, np.nan, dtype=np.complex128)
    for f in fields:
        norms = _bernstein_norms(grid, f.half, js, buf)
        assert list(norms) == list(js)
        for j in js:
            fj = delta_j(f, j)
            derivs = [derivative(fj, e) for e in axes]
            want = {(0, 2.0): block_norms(f, 2.0)[j + 1],
                    (1, 2.0): max(block_norms(derivative(f, e), 2.0)[j + 1]
                                  for e in axes),
                    (0, math.inf): lp_norm(fj, math.inf),
                    (1, math.inf): max(lp_norm(d, math.inf) for d in derivs)}
            assert norms[j] == want, j
            assert norms[j][0, 2.0] == pytest.approx(
                l2_norm_spectral(fj), rel=1e-13, abs=0.0)
            assert norms[j][1, 2.0] == pytest.approx(
                max(l2_norm_spectral(d) for d in derivs), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("report", [bernstein_report, reverse_bernstein_report])
@pytest.mark.parametrize("dim", [2, 3])
def test_bernstein_reports_without_an_interior_shell_raise(report, dim):
    # n = 8 has jmax = 1, so no shell 1 <= j < jmax to measure
    with pytest.raises(ResolutionError, match=r"n >= 16; got n=8"):
        report(Grid(dim, 8), ensemble=2)
    assert report(Grid(dim, 16), ensemble=1).rows


@pytest.mark.parametrize("report", [bernstein_report, reverse_bernstein_report])
@pytest.mark.parametrize("ensemble", [0, -1])
def test_bernstein_reports_reject_an_empty_ensemble(report, ensemble):
    with pytest.raises(ValueError, match="ensemble must be >= 1"):
        report(Grid(3, 16), ensemble=ensemble)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_reverse_bernstein_report_matches_per_shell_parseval(dim, n):
    # the reference: each shell Delta_j f of each member, its L^2 norm and
    # H^1 seminorm summed over its own coefficients
    grid, ensemble, seed = Grid(dim, n), 6, 2
    rng = np.random.default_rng(seed)
    js = range(1, grid.jmax)
    worst = dict.fromkeys(js, 0.0)
    for _ in range(ensemble):
        noise = band_noise(grid, rng)
        for j in js:
            f = delta_j(noise, j)
            worst[j] = max(worst[j],
                           2.0**j * l2_norm_spectral(f) / h1_seminorm(f))
    rep = reverse_bernstein_report(grid, ensemble=ensemble, seed=seed)
    assert [row[0] for row in rep.rows] == list(js)
    for row in rep.rows:
        assert row[4] == pytest.approx(worst[row[0]], rel=1e-13, abs=0.0)


def test_reverse_bernstein_bounded(grid2):
    # 2^j ||f_j||_2 <= (4/3) ||grad f_j||_2 from the shell's outer radius
    rep = reverse_bernstein_report(grid2, ensemble=20, seed=4)
    for row in rep.rows:
        assert row[4] <= 4.0 / 3.0 + 1e-12


def test_constant_report_csv_round_trip(tmp_path, grid2):
    rep = bernstein_report(grid2, ensemble=4, seed=9)
    path = tmp_path / "bernstein.csv"
    rep.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(rep.columns)
    assert len(rows) == len(rep.rows) + 1
    # repr round-trips the measured ratio exactly
    assert float(rows[1][4]) == rep.rows[0][4]
