"""Dyadic block operators and measured Bernstein constants.

Block conventions (index j):

* j <= -2:            zero operator
* j == -1:            low-pass chi(|k|), the ball block
* 0 <= j <= grid.jmax: shell block phi(|k| / 2^j)

Low-pass partial sums S_j use chi(|k| / 2^j) for j >= 0 and vanish for
j <= -1, so S_{j+1} - S_j equals the shell block at j and the ball block
coincides with S_0.
"""

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import ensembles
from . import cutoffs
from .errors import BlockRangeError, ResolutionError
from .field import (Field, _box_squares, _half_k_sq, _half_power, _ik,
                    _map_threads, _thread_map, _times, zero_field)
from .grid import Grid

_MULTIPLIER_CACHE: dict = {}


def block_indices(grid: Grid) -> range:
    """All block indices the grid resolves, ball block included."""
    return range(-1, grid.jmax + 1)


def _half_multiplier(grid: Grid, j: int, kind: str = "block") -> np.ndarray:
    """Cached planes 0 <= k_last <= n/2 of block_multiplier(grid, j, kind),
    the planes a half spectrum holds."""
    key = (grid.dim, grid.n, j, kind)
    cached = _MULTIPLIER_CACHE.get(key)
    if cached is not None:
        return cached
    k_mag = grid._half_k[1]
    if kind == "block":
        if j == -1:
            mult = cutoffs.chi(k_mag)
        else:
            mult = cutoffs.phi(k_mag / 2.0**j)
    elif kind == "low":
        mult = cutoffs.chi(k_mag / 2.0**j)
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    mult = np.ascontiguousarray(mult)
    mult.flags.writeable = False
    _MULTIPLIER_CACHE[key] = mult
    return mult


def block_multiplier(grid: Grid, j: int, kind: str = "block") -> np.ndarray:
    """Radial multiplier for the shell block ('block') or the low-pass
    partial sum ('low') at index j, on the full spectral layout.  It is
    built from the cached half planes: |k| is unchanged under
    k_last -> -k_last, so plane n - k is plane k, bit for bit."""
    half = _half_multiplier(grid, j, kind)
    return np.concatenate([half, half[..., grid.n // 2 - 1:0:-1]], axis=-1)


def delta_j(f: Field, j: int) -> Field:
    """Frequency-localize f to the dyadic shell at index j."""
    grid = f.grid
    if j > grid.jmax:
        raise BlockRangeError(f"block {j} exceeds jmax={grid.jmax} for n={grid.n}")
    if j <= -2:
        return zero_field(grid, f.ncomp)
    return Field(grid, f.half * _half_multiplier(grid, j))


def s_j(f: Field, j: int) -> Field:
    """Partial sum S_j f: all shells strictly below j plus the ball."""
    grid = f.grid
    if j > grid.jmax + 1:
        raise BlockRangeError(f"low-pass level {j} exceeds jmax+1={grid.jmax + 1}")
    if j <= -1:
        return zero_field(grid, f.ncomp)
    return Field(grid, f.half * _half_multiplier(grid, j, "low"))


def reconstruct(f: Field) -> Field:
    """Sum of every resolved block.  Equals f (to round-off) whenever f
    is band-limited to |k| <= (3/4) 2^{jmax+1}."""
    return Field(f.grid, sum(delta_j(f, j).half
                             for j in block_indices(f.grid)))


def _block_radius(grid: Grid, j: int) -> int:
    """r of block j's support box: no |k_i| > r carries block content
    (see _block_rows)."""
    return min(int(cutoffs.SUPPORT_RADIUS * 2.0 ** (j + 1)), grid.n // 2)


def _block_l2_norms(grid: Grid, power: np.ndarray) -> np.ndarray:
    """The L^2 norm of every block of block_indices of the field with
    half-plane power `power` (_half_power): the p = 2 row of
    block_norm_table."""
    return np.array([np.sqrt(grid.volume * np.sum(
        _half_multiplier(grid, j)**2 * power)) for j in block_indices(grid)])


def block_norm_table(f: Field, ps) -> np.ndarray:
    """L^p norms of every block of block_indices for every exponent in ps,
    shaped (len(ps), jmax + 2); row i equals block_norms(f, ps[i]) bit for
    bit, at every thread count.  p = 2 is Parseval's sum over the half
    spectrum (_block_l2_norms); every other p of a block is read from one
    squared pointwise magnitude sq = c0^2 + c1^2 + ... (_block_rows): its
    max (one square root) for p = inf, its (p/2)-th power sum otherwise."""
    spec, grid = f.half, f.grid
    out = np.empty((len(ps), len(block_indices(grid))))
    physical = [row for row, p in enumerate(ps) if p != 2]
    if len(physical) < len(ps):
        out[[row for row, p in enumerate(ps) if p == 2]] = _block_l2_norms(
            grid, _half_power(spec))
    if physical:
        out[physical] = _block_rows(
            grid, [ps[row] for row in physical], len(spec),
            functools.partial(_times, spec))
    return out


def _block_rows(grid: Grid, ps, ncomp: int, image) -> np.ndarray:
    """L^p norms, for each p of ps (none of them 2), of every block of
    block_indices of ncomp-component real fields: image(comps, mult, box,
    out) writes the image (field._box_squares) of components `comps`, a
    slice, of block j's half spectra, mult its cached half multiplier.
    chi(|k|) is exactly 0 for |k| >= 4/3, and the shell multiplier for
    |k| >= (8/3) 2^j, so block j is one _box_squares call over the box
    |k_i| <= r (_block_radius).  Lane t of one _thread_map call (one
    lane inside a map item, as in a report's snapshot step) takes the
    blocks t, t + lanes, ... in ascending r, so its buffer's planes above
    r hold zeros.  One lane transforms a block's components together;
    more lanes take one at a time, so two hold about what one holds."""
    js = block_indices(grid)
    out = np.empty((len(ps), len(js)))
    # the cache is filled here, on the caller, not on a pool thread
    mults = [_half_multiplier(grid, j) for j in js]
    lanes = min(_map_threads(), len(js))
    step = ncomp if lanes == 1 else 1  # components per transform
    bufs = [np.zeros((step,) + grid.half_shape, dtype=np.complex128)
            for _ in range(lanes)]

    def lane(t):
        for col in range(t, len(js), lanes):
            images = [functools.partial(image, slice(c, c + step), mults[col])
                      for c in range(0, ncomp, step)]
            sq = _box_squares(images, bufs[t], grid.shape,
                              _block_radius(grid, js[col]))
            out[:, col] = [np.sqrt(np.max(sq)) if np.isinf(p) else
                           (np.sum(sq ** (p / 2.0)) * grid.cell_volume)
                           ** (1.0 / p) for p in ps]
            del sq  # freed before the next block's transform

    _thread_map(lane, range(lanes))
    return out


def block_norms(f: Field, p: float) -> np.ndarray:
    """L^p norms of every block of block_indices: the one row of
    block_norm_table(f, (p,))."""
    return block_norm_table(f, (p,))[0]


# --- measured Bernstein constants ------------------------------------------

@dataclass
class ConstantReport:
    """Measured ratios for a family of block inequalities.

    Each row is (j, p, q, alpha, measured_ratio_max, ensemble_size, seed)
    where measured_ratio_max is the worst ratio of the left side of the
    inequality to its dyadic scaling factor times the right side, over
    the random ensemble.
    """

    columns = ("j", "p", "q", "alpha", "measured_ratio_max", "ensemble_size", "seed")
    rows: list = dc_field(default_factory=list)

    def add(self, j, p, q, alpha, ratio, ensemble, seed):
        self.rows.append((int(j), float(p), float(q), int(alpha),
                          float(ratio), int(ensemble), int(seed)))

    def to_csv(self, path) -> None:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def ratios_by_case(self) -> dict:
        """{(p, q, alpha): {j: ratio}} for spread checks."""
        out: dict = {}
        for j, p, q, alpha, ratio, _, _ in self.rows:
            out.setdefault((p, q, alpha), {})[j] = ratio
        return out

    def spread_by_case(self) -> dict:
        """Largest ratio divided by smallest ratio across j, per case."""
        return {
            case: max(vals.values()) / min(vals.values())
            for case, vals in self.ratios_by_case().items()
        }

    def max_ratio(self) -> float:
        return max(row[4] for row in self.rows)


# (p, q, alpha) of each forward inequality, p <= q
BERNSTEIN_CASES = ((2.0, 2.0, 1), (2.0, np.inf, 0), (np.inf, np.inf, 1))


def _bernstein_norms(grid: Grid, half: np.ndarray, js, buf: np.ndarray) -> dict:
    """{j: {(order, q): sup over |beta| = order of ||d^beta Delta_j f||_q}}
    for each shell j of js, ascending, for order 0, 1 and q = 2, inf, of
    the scalar field f with half spectrum `half`.  q = 2 is read from the
    half-plane powers of f and of each d_a f (_block_l2_norms); each sup
    norm is one _box_squares call over shell j's support box, of m_j f^
    or (m_j f^) i k_a, on the one-component buffer `buf`, zeroed here:
    r rises across js, so its planes above r stay zero."""
    iks = [np.broadcast_to(_ik(grid.half_shape, grid.n, axis),
                           grid.half_shape) for axis in range(grid.dim)]
    l2 = [_block_l2_norms(grid, _half_power(s))
          for s in [half] + [half * ik for ik in iks]]

    def image(mult, ik, box, out):
        _times(half, slice(0, 1), mult, box, out)
        if ik is not None:
            out *= ik[box]

    buf[...] = 0.0
    norms = {}
    for j in js:
        sup = [np.max(_box_squares(
            [functools.partial(image, _half_multiplier(grid, j), ik)],
            buf, grid.shape, _block_radius(grid, j), np.abs))
            for ik in [None] + iks]
        norms[j] = {(0, 2.0): l2[0][j + 1],
                    (1, 2.0): max(row[j + 1] for row in l2[1:]),
                    (0, np.inf): sup[0], (1, np.inf): max(sup[1:])}
    return norms


def _interior_shells(grid: Grid, ensemble: int) -> range:
    """The shells 1 <= j < jmax a Bernstein report measures, over an
    ensemble of `ensemble` fields: the top shell leaks past the
    exactly-representable band and the ball block has no dyadic scaling.
    A report with no shell or no field would measure nothing."""
    if grid.jmax < 2:
        raise ResolutionError(f"Bernstein constants are measured on shells "
                              f"1 <= j < jmax, which need n >= 16; "
                              f"got n={grid.n}")
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    return range(1, grid.jmax)


def bernstein_report(grid: Grid, ensemble: int = 64,
                     seed: int = 0) -> ConstantReport:
    """Measure forward Bernstein ratios

        sup_{|beta|=alpha} ||d^beta f||_q
        ----------------------------------------------
        2^{j (alpha + dim (1/p - 1/q))} ||f||_p

    reporting the max per interior shell j and case of BERNSTEIN_CASES
    over an ensemble of shell noise plus one random translate of the
    shell kernel, Delta_j of the Dirac comb at x0 (half spectrum
    e^{-i k.x0} on every shell).  The coherent candidate matters:
    Gaussian fields never saturate the p < q cases (their sup/L2 ratio
    is flat in j, not 2^{j dim (1/p-1/q)}), so a noise-only scan would
    report a spread that only reflects the ensemble, not the inequality.
    """
    cases, js = BERNSTEIN_CASES, _interior_shells(grid, ensemble)
    report = ConstantReport()
    rng = np.random.default_rng(seed)
    worst = {(j, case): 0.0 for j in js for case in cases}
    buf = np.empty((1,) + grid.half_shape, dtype=np.complex128)

    def measure(half):
        norms = _bernstein_norms(grid, half, js, buf)
        for j, case in worst:
            p, q, alpha = case
            factor = 2.0 ** (j * (alpha + grid.dim * (1.0 / p - 1.0 / q)))
            ratio = norms[j][alpha, q] / (factor * norms[j][0, p])
            worst[j, case] = max(worst[j, case], ratio)

    x0 = rng.uniform(0.0, 2.0 * np.pi, size=grid.dim)
    measure(np.exp(-1j * sum(k[..., :grid.n // 2 + 1] * x for k, x
                             in zip(grid.k_components, x0)))[np.newaxis])
    for _ in range(ensemble):
        measure(ensembles.band_noise(grid, rng).half)
    for case in cases:
        p, q, alpha = case
        for j in js:
            report.add(j, p, q, alpha, worst[(j, case)], ensemble, seed)
    return report


def reverse_bernstein_report(grid: Grid, ensemble: int = 64,
                             seed: int = 0) -> ConstantReport:
    """Measure the reverse ratio on shells,

        2^j ||f||_2 / ||grad f||_2,

    with the full gradient magnitude in the denominator.  The spectral
    support bound |k| >= (3/4) 2^j forces the ratio below 4/3, and both
    norms come from one half-plane power P per field: _block_l2_norms of
    P and of |k|^2 P.  Measured on the interior shells; ball blocks are
    excluded (constants on a ball can vanish)."""
    js = _interior_shells(grid, ensemble)
    report = ConstantReport()
    rng = np.random.default_rng(seed)
    worst, k_sq = {j: 0.0 for j in js}, _half_k_sq(grid)
    for _ in range(ensemble):
        power = _half_power(ensembles.band_noise(grid, rng).half)
        l2, h1 = (_block_l2_norms(grid, w * power) for w in (1.0, k_sq))
        for j in js:
            worst[j] = max(worst[j], 2.0**j * l2[j + 1] / h1[j + 1])
    for j in js:
        report.add(j, 2.0, 2.0, 1, worst[j], ensemble, seed)
    return report
