"""Scalar and vector fields on a torus grid, with spectral calculus.

Conventions
-----------
* Spectral data holds genuine Fourier-series coefficients (norm="forward"),
  so a single mode exp(i k.x) has coefficient 1 at lattice site k.
* Fields are real and every transform is a real one, over half spectra
  (planes 0 <= k_last <= n/2): _rfftn_half and _irfftn_half, which run
  numpy.fft one axis at a time with numpy's overflow and invalid
  warnings off (_quiet); the solver's abort and the CLI's exit 3 report
  a non-finite result.  No lpnse module imports scipy.fft.  A Field
  is its half spectrum, Field.half; from_physical transforms samples
  once and to_physical returns them as a plain array.  Field.data, the
  full layout for callers outside the package, is built on each access
  (_full_spectrum, _mirror).  Planes 0 and n/2 are their own mirrors:
  _rfftn_half makes them exactly Hermitian (_hermitian_ends), products
  and multipliers keep them so, leray_project zeroes the -n/2 content it
  would leave unpartnered (Grid._paired), and a c2r reads only their
  Hermitian part.  A full array is checked once, when it is made a
  Field (_checked_half).  Parseval sums weight every plane but 0 and n/2
  twice (_plane_weights, _half_power).
* _box_squares is the diagnostics' one box-transform primitive: an
  image writes a multiplier image of half spectra into a buffer over a
  support box |k_i| <= r only, transformed over the box (the lines
  outside, all zeros, are skipped), squared and summed in component
  order.  Block tables (besov's vorticity table too), grad_norm_inf's
  lanes (i k_axis u_c), magnitude's items (u_c) and the Bernstein sup
  rows (m_j f and (m_j f) i k_a, made absolute) run on it: no
  diagnostic copies a field, and values match at every thread count.
  No other module calls _irfftn_half.
* A field holds 16 ncomp n^(dim-1) (n//2+1) bytes, about half the full
  layout's.  In-place steps do the out-of-place expression's operations
  in its order, so every byte is the same.
* Every first derivative multiplies by Grid._half_ik: i k_axis, zero on
  the lone -n/2 mode, which has no conjugate partner; every cross
  product, the curl's i k x and the solver's u x omega alike, is _cross.
* _Padding is the one padded-product kernel (dealiased_product, advect,
  the solver's u x omega): products formed on a 3/2-times finer grid
  and truncated back are exact whenever the combined bandwidth fits.
"""

import contextvars
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grid import Grid

SPECTRAL = "spectral"


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads of _thread_map: the caller plus a pool of _fft_workers - 1.
# They run a report's snapshot pairs and the lanes of block tables,
# grad_norm_inf and magnitude.  Every transform runs on one thread:
# splitting one transform across threads made the solver slower.
_fft_workers = min(2, _available_cpus())
_mapping = contextvars.ContextVar("lpnse_mapping", default=False)


def set_fft_workers(workers: int) -> None:
    """Set the thread count of _thread_map (a report's snapshot pairs,
    the lanes of a block table, grad_norm_inf and magnitude), capped at
    the CPUs this process may run on."""
    global _fft_workers
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"thread count must be >= 1, got {workers}")
    _fft_workers = min(workers, _available_cpus())


def _map_threads() -> int:
    """The threads a _thread_map call made here would use: 1 inside an
    item of another map."""
    return 1 if _mapping.get() else _fft_workers


def _thread_map(fn, items) -> list:
    """[fn(item) for item in items], computed on the caller and on a pool
    of _fft_workers - 1 threads made for this call: item i runs on the
    caller when i % _fft_workers == 0, else on the pool.  Each pool item
    runs in a copy of the caller's context, so numpy's errstate, a
    context variable, holds there too.  fn must not change what another
    item reads.  A call from inside fn runs serially (a pool thread
    waiting on its own pool could deadlock).  If an item raises, the
    exception is raised once every submitted item has finished."""
    items = list(items)
    threads = _map_threads()
    if threads == 1 or len(items) < 2:
        return [fn(item) for item in items]
    token = _mapping.set(True)  # seen by fn here and in every copy below
    try:
        with ThreadPoolExecutor(threads - 1,
                                thread_name_prefix="lpnse") as pool:
            futures = {i: pool.submit(contextvars.copy_context().run,
                                      fn, item)
                       for i, item in enumerate(items) if i % threads}
            mine = {i: fn(items[i]) for i in range(0, len(items), threads)}
    finally:
        _mapping.reset(token)
    return [mine[i] if i in mine else futures[i].result()
            for i in range(len(items))]


def _rfftn_half(a: np.ndarray, dim: int, planes: int) -> np.ndarray:
    """Planes 0 <= k_last < planes of the forward transform of real data
    over its last dim axes; the mirror of _irfftn_half.  The leading axes
    are transformed in place in the r2c output, so the result is a view
    of it.  The r2c carries 1/m (m = a.shape[-1]).  The first leading
    pass is unnormalized and then scaled once by 1/m^(dim-1), where a
    multi-axis pocketfft transform (scipy.fft.fftn) applies its factor,
    and the later passes are unnormalized: the values are fftn(...,
    norm="forward")'s bit for bit, which a factor per pass (1/24 and
    1/48 are inexact) would not give.  Planes 0 and m/2 are their own
    mirrors and come out exactly Hermitian, not only to round-off."""
    lead = a.ndim - dim
    half = np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), np.complex128)
    out = half[..., :planes]
    with _quiet():
        np.fft.rfft(a, axis=-1, norm="forward", out=half)
        for axis in range(lead, a.ndim - 1):
            np.fft.fft(out, axis=axis, out=out)
            if axis == lead:
                # all of the C-ordered half, in one long loop: a third of
                # the time of out's short rows; later planes go unread
                flat = half.view(np.float64)
                flat *= 1.0 / math.prod(a.shape[lead:-1])
        ends, hermitian = _hermitian_ends(out, dim)
        ends[...] = hermitian
    return out


def _quiet():
    """numpy's error state for a transform: an overflow or an inf - inf
    gives inf or NaN silently, because the solver's abort and the CLI's
    exit 3 report non-finite results."""
    return np.errstate(over="ignore", invalid="ignore")


def _hermitian_ends(half: np.ndarray, dim: int) -> tuple:
    """(view, Hermitian part) of the planes of half spectra `half` that
    are their own mirrors: plane 0, and plane m/2 if `half` holds it (m =
    half.shape[-2], the grid's points per axis)."""
    ends = half[..., ::half.shape[-2] // 2]
    return ends, 0.5 * (ends + np.conj(_mirror(ends, dim)))


def _box(n: int, radius: int) -> list:
    """Slices of the rows |k| <= radius of an n-point FFT-layout axis:
    0 ... radius and n - radius ... n - 1, or the whole axis."""
    if 2 * radius + 1 >= n:
        return [slice(None)]
    return [slice(0, radius + 1)] + ([slice(n - radius, n)] if radius else [])


def _support_radius(half: np.ndarray, grid: Grid) -> int:
    """The least r with half spectra `half` zero wherever some |k_i| > r,
    the radius argument of _irfftn_half."""
    nonzero = np.any(half != 0, axis=tuple(range(half.ndim - grid.dim)))
    k, radius = np.abs(grid.k_axis), 0
    for axis in range(grid.dim):
        rows = np.any(nonzero, axis=tuple(a for a in range(grid.dim)
                                          if a != axis))
        radius = max(radius, int(np.max(k[:rows.size][rows], initial=0)))
    return radius


def _box_squares(images, buf: np.ndarray, shape: tuple, radius: int,
                 op=np.square) -> np.ndarray:
    """The sum, over each image's components in turn, of op(values)
    (np.square or np.abs) of the real fields on the grid `shape` whose
    half spectra, zero wherever some |k_i| > radius, each of `images`
    writes into `buf`: after the rows |k_1| > radius of planes 0 ...
    radius are zeroed, image(box, out) writes each box of _box rows
    |k_1| <= radius of those planes into out = buf[:, box] (later planes
    stay zero).  buf is transformed in place over the box, and the sum
    is a view of the first transform; the rest are freed at once."""
    n, total = shape[0], None
    for image in images:
        buf[:, radius + 1:n - radius, ..., :radius + 1] = 0.0
        for rows in _box(n, radius):
            box = (rows, Ellipsis, slice(0, radius + 1))
            image(box, buf[(slice(None),) + box])
        phys = _irfftn_half(buf, shape, radius)
        total = functools.reduce(_add_into, op(phys, out=phys), total)
        del phys  # freed before the next transform: lower peak memory
    return total


def _add_into(total, part):
    """total + part, added in place; part itself if total is None."""
    return part if total is None else np.add(total, part, out=total)


def _times(spec: np.ndarray, comps: slice, mult: np.ndarray, box: tuple,
           out: np.ndarray):
    """An image (_box_squares): components `comps` of spec times mult."""
    np.multiply(spec[(comps,) + box], mult[box], out=out)


def _irfftn_half(a: np.ndarray, shape: tuple, radius: int = None) -> np.ndarray:
    """Inverse transform of a half spectrum whose last axis holds the
    first entries 0 <= k_last <= m/2 of the m = shape[-1] point grid,
    zero wherever some |k_i| > radius (default m/2: no constraint);
    missing entries are zero.  Valid only for Hermitian-symmetric full
    spectra.  Overwrites `a`: the leading axes are transformed in place
    (numpy.fft's out=), first leading axis first (as scipy.fft.ifftn
    does, so the values are its bit for bit), each over the lines of
    planes 0 ... radius whose later leading axes lie in the box |k| <=
    radius, then one c2r runs along the last axis (a pruned separable
    transform, Markel 1971).  Every skipped line holds only zeros, so the
    result is the unpruned transform's bit for bit."""
    dim = len(shape)
    lead = a.ndim - dim
    if radius is None:
        radius = shape[-1] // 2
    slab = a[..., :radius + 1]
    with _quiet():
        for i in range(dim - 1):
            boxes = [_box(shape[later], radius)
                     for later in range(i + 1, dim - 1)]
            for box in itertools.product(*boxes):
                part = slab[(slice(None),) * (lead + i + 1) + box]
                np.fft.ifft(part, axis=lead + i, norm="forward", out=part)
        return np.fft.irfft(a, n=shape[-1], axis=-1, norm="forward")


@dataclass(frozen=True)
class Field:
    """A real field on a torus grid, held as its half spectra, shape
    (ncomp, n, ..., n//2+1): stored as given, or taken from full spectra,
    shape (ncomp, n, ..., n), by _checked_half; scalars use ncomp = 1.
    The array given is made read-only.  `representation` has one legal
    value, SPECTRAL."""

    grid: Grid
    half: np.ndarray
    representation: str = SPECTRAL

    def __post_init__(self):
        grid, data = self.grid, self.half
        if self.representation != SPECTRAL:
            raise GridError(f"unknown representation {self.representation!r}")
        if data.ndim != grid.dim + 1:
            raise GridError(f"data must have {grid.dim + 1} axes (ncomp "
                            f"first), got shape {data.shape}")
        full = data.shape[-1] == grid.n
        if data.shape[1:] != (grid.shape if full else grid.half_shape):
            raise GridError(f"data shape {data.shape} does not match grid {grid}")
        data.flags.writeable = False
        if full:
            object.__setattr__(self, "half", _checked_half(data, grid))
            self.half.flags.writeable = False

    @property
    def ncomp(self) -> int:
        return self.half.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The full-layout spectrum, built on each access."""
        full = _full_spectrum(self.half, self.grid.dim)
        full.flags.writeable = False
        return full


def _checked_half(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """The half spectrum of the real fields with full spectra `spec`: a
    view of its planes 0 <= k_last <= n/2 if they equal its Hermitian
    part's (_hermitian_half), else that part's, once _check_residue has
    passed the rest."""
    planes = grid.n // 2 + 1
    with np.errstate(invalid="ignore"):  # inf content: a NaN residue passes
        half = _hermitian_half(spec, grid.dim)
    if _check_residue(spec[..., :planes], half, half, grid,
                      _plane_weights(grid.n)) == 0.0:
        return spec[..., :planes]
    return half


def _check_residue(given, hermitian, half, grid: Grid, weight=1.0) -> float:
    """sum |a| times `weight`, for the worst component of the rest a =
    given - hermitian beside its Hermitian part: it bounds the imaginary
    part a complex inverse transform would leave.  GridError unless it is
    at round-off level against max |value| of the real fields with half
    spectra `half` (an inverse transform, paid above 1e-12 only)."""
    with np.errstate(invalid="ignore"):
        residue = max(np.sum(np.abs(g - h) * weight)
                      for g, h in zip(given, hermitian))
    if residue > 1e-12:
        phys = _irfftn_half(half.copy(), grid.shape)
        scale = max(phys.max(), -phys.min())  # without a |phys| copy
        if residue > 1e-8 * max(scale, 1e-300):
            raise GridError(f"spectral data is not Hermitian symmetric "
                            f"(imag residue bound {residue:.3e})")
    return residue


def from_physical(grid: Grid, data: np.ndarray) -> Field:
    """The field with samples `data`, shape (ncomp,) + grid.shape (or
    grid.shape for a scalar), transformed once."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == grid.dim:
        arr = arr[np.newaxis]
    if arr.shape[1:] != grid.shape:
        raise GridError(f"sample shape {np.shape(data)} does not match "
                        f"grid {grid}")
    return Field(grid, _rfftn_half(arr, grid.dim, grid.n // 2 + 1))


def from_spectral(grid: Grid, data: np.ndarray) -> Field:
    """The field with half or full spectra `data`, copied."""
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim == grid.dim:
        arr = arr[np.newaxis]
    # checked through a view, so the caller's array stays writable
    return Field(grid, np.array(Field(grid, arr.view()).half))


def from_components(grid: Grid, *funcs) -> Field:
    """Evaluate callables f(x1, ..., xd) on the grid and stack them."""
    mesh = grid.meshes()
    return from_physical(grid, [f(*mesh) for f in funcs])


def zero_field(grid: Grid, ncomp: int = 1) -> Field:
    return Field(grid, np.zeros((ncomp,) + grid.half_shape,
                                dtype=np.complex128))


def to_physical(f: Field) -> np.ndarray:
    """The samples of f on the grid, shape (ncomp,) + grid.shape."""
    return _irfftn_half(f.half.copy(), f.grid.shape)


def magnitude(f: Field) -> np.ndarray:
    """Pointwise Euclidean magnitude on the grid (_magnitude_half)."""
    return _magnitude_half(f.half, f.grid.shape)


def _magnitude_half(half: np.ndarray, shape: tuple, low=None) -> np.ndarray:
    """magnitude of the real fields with half spectra `half`, less `low`
    on the planes 0 <= k_last < P it holds, if given.  Component c, less
    low's, is written into its own buffer and squared (made absolute if
    it is the only one) on item c of _thread_map (_box_squares); squares
    are summed in component order, the same at every thread count."""
    planes = 0 if low is None else low.shape[-1]

    def image(c, box, out):
        at = (slice(c, c + 1),) + box
        out[..., planes:] = half[at][..., planes:]
        if low is not None:
            np.subtract(half[at][..., :planes], low[at], out=out[..., :planes])

    def component(c):
        buf = np.empty((1,) + half.shape[1:], dtype=half.dtype)
        return _box_squares([functools.partial(image, c)], buf,
                            shape, shape[-1] // 2,
                            np.abs if len(half) == 1 else np.square)

    mag = functools.reduce(_add_into, _thread_map(component, range(len(half))))
    return np.sqrt(mag, out=mag) if len(half) > 1 else mag


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the torus; vector fields use the pointwise magnitude.

    Finite p uses the rectangle rule, which is exact for trigonometric
    polynomials when |f|^p is itself band-limited (always true for p = 2)
    and spectrally accurate otherwise.  p = inf returns the grid maximum.
    """
    if not p >= 1:  # NaN fails too
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return _norm_of_magnitude(magnitude(f), p, f.grid)


def _norm_of_magnitude(mag: np.ndarray, p: float, grid: Grid) -> float:
    """The L^p norm (lp_norm) behind the pointwise magnitude `mag`."""
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


def l2_norm_spectral(f: Field) -> float:
    """L^2 norm evaluated from coefficients (Parseval)."""
    return float(np.sqrt(f.grid.volume * np.sum(_half_power(f.half))))


def h1_seminorm(f: Field) -> float:
    """|k|-weighted L^2 norm from coefficients; equals ||grad f||_2 by
    Parseval for fields with no energy on the Nyquist planes."""
    power = _half_power(f.half)
    return float(np.sqrt(f.grid.volume * np.sum(f.grid._half_k[0] * power)))


def inner(f: Field, g: Field) -> float:
    """L^2 inner product via Parseval; components are contracted
    pairwise.  Exact for any pair of resolved fields, unlike the
    rectangle rule whose error is nonzero once f*g exceeds the band."""
    f.grid.require_same(g.grid)
    if f.ncomp != g.ncomp:
        raise GridError(f"component mismatch: {f.ncomp} vs {g.ncomp}")
    prod = f.half * np.conj(g.half)
    return float(np.sum(prod.real * _plane_weights(f.grid.n)) * f.grid.volume)


def derivative(f: Field, orders) -> Field:
    """Partial derivative d^{a1}_{x1} ... d^{ad}_{xd} f, spectrally: the
    product of per-axis factors (i k_axis)^order; an odd order's is
    Grid._half_ik's, zero on the lone -n/2 mode."""
    grid = f.grid
    orders = tuple(int(o) for o in orders)
    if len(orders) != grid.dim or any(o < 0 for o in orders):
        raise ValueError(f"orders must be {grid.dim} non-negative ints, got {orders}")
    mult = np.ones((1,) * grid.dim, dtype=np.complex128)
    for axis, order in enumerate(orders):
        if order:
            mult = mult * (grid._half_ik[axis] if order % 2
                           else 1j * grid._half_ks[axis]) ** order
    return Field(grid, f.half * mult)


def gradient(f: Field) -> Field:
    """Gradient of a scalar field, returned as a dim-component field."""
    if f.ncomp != 1:
        raise GridError("gradient expects a scalar field")
    return Field(f.grid, np.stack([f.half[0] * ik for ik in f.grid._half_ik]))


def laplacian(f: Field) -> Field:
    return Field(f.grid, f.half * -f.grid._half_k[0])


def grad_norm_inf(f: Field) -> float:
    """sup over the grid of the Frobenius norm of the Jacobian, from f's
    half spectrum cut to its support box (_support_radius), so a
    low-pass field (S_N u, |k| < (4/3) 2^N) costs little more than its
    c2r transforms (_grad_norm_inf_half)."""
    half = f.half
    radius = _support_radius(half, f.grid)
    return _grad_norm_inf_half(half[..., :radius + 1], f.grid)


def _grad_norm_inf_half(spec: np.ndarray, grid: Grid) -> float:
    """grad_norm_inf of the real fields whose half spectra have their
    planes 0 <= k_last < P in spec and are zero wherever some |k_i| >= P.
    Lane t of one _thread_map call takes the t-th of consecutive runs of
    axes, each one _box_squares call, over the box |k_i| < P, of i k_axis
    u_c in component order, on the lane's one-component buffer.  Axis
    sums are added in axis order, so the value is the same at every
    thread count."""
    iks = [np.broadcast_to(ik[..., :spec.shape[-1]], spec.shape[1:])
           for ik in grid._half_ik]

    def lane(axes):
        buf = np.zeros((1,) + grid.half_shape, dtype=np.complex128)
        total = None
        for axis in axes:
            total = _add_into(total, _box_squares(
                [functools.partial(_times, spec, slice(c, c + 1), iks[axis])
                 for c in range(len(spec))],
                buf, grid.shape, spec.shape[-1] - 1))
        return total

    lanes = min(_map_threads(), grid.dim)
    total = functools.reduce(_add_into, _thread_map(
        lane, np.array_split(range(grid.dim), lanes)))
    return float(np.sqrt(np.max(total)))


def divergence(f: Field) -> Field:
    if f.ncomp != f.grid.dim:
        raise GridError(f"divergence expects a {f.grid.dim}-component field")
    out = sum(half * ik for half, ik in zip(f.half, f.grid._half_ik))
    return Field(f.grid, out[np.newaxis])


def leray_project(f: Field) -> Field:
    """Remove the gradient part: (P f)_i = f_i - k_i (k.f)/|k|^2, and
    zero the modes with some k_i = -n/2, which it would leave without
    conjugate partners (Grid._paired): the result is exactly Hermitian."""
    if f.ncomp != f.grid.dim:
        raise GridError(f"projection expects a {f.grid.dim}-component field")
    half = _leray_project_spec(f.half.copy(), f.grid)
    half[:, ~f.grid._paired] = 0.0
    return Field(f.grid, half)


def _leray_project_spec(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Leray projection of half spectra (plane n/2 holds k_last = -n/2,
    as in the full layout), in place: overwrites and returns `spec`."""
    ks, k_sq = grid._half_ks, grid._half_k[0]
    kdot = np.zeros(spec.shape[1:], dtype=np.complex128)
    tmp = np.empty_like(kdot)
    for axis in range(grid.dim):
        kdot += np.multiply(ks[axis], spec[axis], out=tmp)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(kdot, k_sq, out=kdot)
    kdot[(0,) * grid.dim] = 0.0  # k = 0, the one mode with |k|^2 = 0
    for axis in range(grid.dim):
        spec[axis] -= np.multiply(ks[axis], kdot, out=tmp)
    return spec


# --- padded products -------------------------------------------------------

def _coarse_blocks(n: int, m: int, dim: int, lead: int):
    """(fine, coarse) index pairs of the 2^(dim-1) blocks in which the
    coarse modes sit on the m-point grid's leading dim-1 axes: rows 0 ...
    n/2-1 (k >= 0) stay, rows n/2 ... n-1 (k < 0) move to m-n/2 ... m-1."""
    rows = ((slice(0, n // 2), slice(0, n // 2)),
            (slice(m - n // 2, m), slice(n // 2, n)))
    at = (slice(None),) * lead
    for pairs in itertools.product(rows, repeat=dim - 1):
        fine, coarse = zip(*pairs)
        yield at + fine, at + coarse


# Rows of the first spatial axis per slab of a chunked cross product:
# the solver's u x omega and besov's vorticity image.  In a
# micro-benchmark of the solver's slab loop alone on a 2-core x86-64
# host with a 2 MiB L2 per core, 8 beat 4 and 16 on the 48-point product
# grid of 3D n=32 (0.60, 0.70 and 0.82 ms); on the 96-point grid of
# n=64, 4 read 6.2 ms against 7.7 for 8, under 2% of that term's time.
_SLAB = 8


def _cross(a, b, out: np.ndarray = None) -> np.ndarray:
    """a x b over the leading (component) axis, broadcasting the rest: in
    3D the vector product; in 2D the scalar a x b of two vectors, and the
    vector a x b of a vector and a scalar b (as the third component of a
    3D vector).  With a the factors Grid._half_ik it is i k x b.  The
    result is written into `out` when it is given."""
    if out is None:
        ncomp = {1: 2, 2: 1, 3: 3}[len(b)]  # components of b -> of a x b
        shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
        out = np.empty((ncomp,) + shape, np.result_type(a[0], b[0]))
    if len(b) == 1:
        np.multiply(a[1], b[0], out=out[0])
        np.multiply(-a[0], b[0], out=out[1])
        return out
    # component i: a_{i+1} b_{i+2} - a_{i+2} b_{i+1}, indices mod 3
    pairs = [(i - 2, i - 1) for i in range(3)] if len(b) == 3 else [(0, 1)]
    product = np.empty_like(out[0])
    for row, (i, j) in zip(out, pairs):
        np.multiply(a[i], b[j], out=row)
        row -= np.multiply(a[j], b[i], out=product)
    return out


def _mirror(a: np.ndarray, dim: int, out: np.ndarray = None) -> np.ndarray:
    """a(k) -> a(-k) on the dim-1 full FFT-layout axes before the last:
    index i goes to (n - i) % n, so row 0 stays and rows 1 ... n-1 are
    reversed.  Written by 2^(dim-1) block copies into `out` (which must
    not overlap a) when it is given, else into a new array; returns it."""
    if out is None:
        out = np.empty_like(a)
    lead = (slice(None),) * (a.ndim - dim)
    rows = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for pairs in itertools.product(rows, repeat=dim - 1):
        to, source = zip(*pairs)
        out[lead + to] = a[lead + source]
    return out


def _hermitian_half(spec: np.ndarray, dim: int) -> np.ndarray:
    """Planes 0 <= k_last <= n/2 of (c(k) + conj c(-k))/2 of full spectra
    `spec`, computed in place in one new array."""
    n = spec.shape[-1]
    out = np.empty(spec.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    # plane k_last's mirror is plane (n - k_last) % n: 0, then n-1 down to n/2
    _mirror(spec[..., :1], dim, out[..., :1])
    _mirror(spec[..., :n // 2 - 1:-1], dim, out[..., 1:])
    np.conj(out, out=out)
    out += spec[..., :n // 2 + 1]
    out *= 0.5
    return out


def _plane_weights(n: int) -> np.ndarray:
    """Weights of the half-spectrum planes 0 <= k_last <= n/2 in a sum
    over the full spectrum: a plane 0 < k_last < n/2 stands for itself
    and its conjugate mirror."""
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    return weight


def _half_power(half: np.ndarray) -> np.ndarray:
    """Parseval's density of the real fields with half spectra `half`:
    sum_c |c^|^2, weighted by _plane_weights, so its sum is the sum over
    the full spectrum."""
    return np.sum(np.abs(half) ** 2, axis=0) * _plane_weights(half.shape[-2])


def _full_spectrum(half: np.ndarray, dim: int) -> np.ndarray:
    """Full layout of the Hermitian spectra with half spectra `half`,
    written in place in one new array."""
    n = half.shape[-2]
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :n // 2 + 1] = half
    upper = out[..., n // 2 + 1:]  # planes n/2+1 .. n-1
    _mirror(half[..., n // 2 - 1:0:-1], dim, upper)
    np.conj(upper, out=upper)
    return out


def _pad_spectrum(half: np.ndarray, out: np.ndarray, n: int, m: int,
                  dim: int) -> np.ndarray:
    """Embed half spectra in the m-point grid's leading axes, writing
    every entry of `out`, the planes k_last <= n/2 of an m//2+1-plane
    buffer (the planes beyond stay zero, for the c2r); returns out.  Each
    per-axis Nyquist row is split evenly between +n/2 and -n/2, and the
    last-axis n/2 plane is halved."""
    lead = half.ndim - dim
    for axis in range(lead, out.ndim - 1):  # rows no coarse mode lands on
        out[(slice(None),) * axis + (slice(n // 2, m - n // 2),)] = 0.0
    for fine, coarse in _coarse_blocks(n, m, dim, lead):
        out[fine] = half[coarse]
    for axis in range(lead, out.ndim - 1):
        at = (slice(None),) * axis
        out[at + (n // 2,)] = 0.5 * out[at + (m - n // 2,)]
        out[at + (m - n // 2,)] *= 0.5
    out[..., n // 2] *= 0.5
    return out


def _truncate_spectrum(fine: np.ndarray, m: int, n: int, dim: int) -> np.ndarray:
    """Adjoint of _pad_spectrum; overwrites the planes k_last <= n/2 of
    `fine`, the only ones it reads.  The last-axis n/2 plane is folded
    with the conjugate of its mirror, the -n/2 plane that the half
    layout leaves implicit."""
    lead = fine.ndim - dim
    fine = fine[..., :n // 2 + 1]
    for axis in range(lead, fine.ndim - 1):
        at = (slice(None),) * axis
        fine[at + (m - n // 2,)] += fine[at + (n // 2,)]
    out = np.empty(fine.shape[:lead] + (n,) * (dim - 1) + (n // 2 + 1,),
                   dtype=fine.dtype)
    for fine_at, coarse in _coarse_blocks(n, m, dim, lead):
        out[coarse] = fine[fine_at]
    out[..., n // 2:] += np.conj(_mirror(out[..., n // 2:], dim))
    return out


class _Padding:
    """The product kernel's padded grid: m = 3n/2 points per axis (n,
    aliased, with dealias=False), and one zeroed m//2+1-plane buffer per
    leading shape that every to_fine call reuses: not reentrant."""

    def __init__(self, grid: Grid, dealias: bool):
        self.n, self.dim, self.dealias = grid.n, grid.dim, dealias
        self.m = 3 * grid.n // 2 if dealias else grid.n
        self._buffers = {}

    def to_fine(self, half: np.ndarray) -> np.ndarray:
        """Real values on the m-point grid behind half spectra `half`."""
        n, m, dim = self.n, self.m, self.dim
        lead = half.shape[:-dim]
        buf = self._buffers.get(lead)
        if buf is None:
            buf = self._buffers[lead] = np.zeros(
                lead + (m,) * (dim - 1) + (m // 2 + 1,), dtype=np.complex128)
        if self.dealias:
            _pad_spectrum(half, buf[..., :n // 2 + 1], n, m, dim)
        else:
            buf[...] = half
        return _irfftn_half(buf, (m,) * dim, n // 2)

    def to_coarse(self, real: np.ndarray) -> np.ndarray:
        """Half spectra, a new array, of real values on the m-point grid."""
        return self.truncate(_rfftn_half(real, self.dim, self.n // 2 + 1))

    def truncate(self, fine: np.ndarray) -> np.ndarray:
        """to_coarse of the real values whose r2c has the planes `fine`."""
        return (_truncate_spectrum(fine, self.m, self.n, self.dim)
                if self.dealias else fine)


def _padded_product(a: np.ndarray, b: np.ndarray, grid: Grid, dealias: bool,
                    grad: bool = False) -> np.ndarray:
    """The one product kernel: the half spectrum of the product of the
    real fields with half spectra a and b, formed on the 3/2-times finer
    grid (on the coarse grid, aliased, with dealias=False).  With
    grad=True it is the advection sum_i a_i d_i b."""
    pad = _Padding(grid, dealias)
    fa = pad.to_fine(a)
    if grad:  # one derivative at a time bounds the fine-grid memory
        prod = sum(fa[axis] * pad.to_fine(b * ik)
                   for axis, ik in enumerate(grid._half_ik))
    else:
        prod = fa * pad.to_fine(b)
    return pad.to_coarse(prod)


def dealiased_product(f: Field, g: Field, dealias: bool = True) -> Field:
    """Pointwise product, alias-free by default.

    Scalars broadcast against vectors.  With dealias=False the product is
    formed directly on the coarse grid; that path, like the solver's
    SolverConfig(dealias=False), exists only as a negative control.
    """
    f.grid.require_same(g.grid)
    if f.ncomp != g.ncomp and 1 not in (f.ncomp, g.ncomp):
        raise GridError(f"cannot broadcast components {f.ncomp} and {g.ncomp}")
    out = _padded_product(f.half, g.half, f.grid, dealias)
    return Field(f.grid, out)


def advect(v: Field, f: Field, dealias: bool = True) -> Field:
    """(v . grad) f with the product formed on full fields, not per pair
    of components: each derivative is one batched fine-grid transform."""
    v.grid.require_same(f.grid)
    if v.ncomp != v.grid.dim:
        raise GridError("advecting velocity must have dim components")
    out = _padded_product(v.half, f.half, v.grid,
                          dealias, grad=True)
    return Field(v.grid, out)


def scale(f: Field, factor: float) -> Field:
    return Field(f.grid, f.half * factor)


def add(f: Field, g: Field, alpha: float = 1.0) -> Field:
    """f + alpha*g; f and g must have the same components."""
    f.grid.require_same(g.grid)
    if f.ncomp != g.ncomp:
        raise GridError(f"component mismatch: {f.ncomp} vs {g.ncomp}")
    return Field(f.grid, f.half + alpha * g.half)
