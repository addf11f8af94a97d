"""Bony decomposition of products and the block advection commutator.

A product of two fields splits into two paraproducts plus a remainder,

    u v = T_u v + T_v u + R(u, v),

where T_u v pairs low frequencies of u with the shell blocks of v and
R collects the comparable-frequency pairs (|j - j'| <= 1).  All three
pieces are formed with dealiased products, so the identity holds at
round-off level for band-limited inputs.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import block_indices, block_norms, delta_j, s_j
from .errors import BlockRangeError
from .field import (Field, add, advect, dealiased_product,
                    divergence, grad_norm_inf, h1_seminorm, l2_norm_spectral)


def paraproduct_t(u: Field, v: Field, dealias: bool = True) -> Field:
    """T_u v: sum over shells j of (low pass of u below j-1) * (block j of v).

    Terms with j <= 0 vanish because the low-pass at level j-1 is zero
    there, so the sum effectively starts at j = 1.
    """
    u.grid.require_same(v.grid)
    return Field(u.grid, sum(
        dealiased_product(s_j(u, j - 1), delta_j(v, j), dealias).half
        for j in range(1, u.grid.jmax + 1)))


def remainder_r(u: Field, v: Field, dealias: bool = True) -> Field:
    """R(u, v): blocks of comparable frequency, |j - j'| <= 1, with the
    ball block participating at j = -1."""
    u.grid.require_same(v.grid)
    grid = u.grid
    blocks_u = {j: delta_j(u, j) for j in block_indices(grid)}
    blocks_v = {j: delta_j(v, j) for j in block_indices(grid)}
    return Field(grid, sum(
        dealiased_product(blocks_u[j], blocks_v[jp], dealias).half
        for j in block_indices(grid) for jp in (j - 1, j, j + 1)
        if jp in blocks_v))


def t_prime(u: Field, v: Field) -> Field:
    """T'_u v = T_u v + R(u, v): everything in uv except T_v u."""
    return add(paraproduct_t(u, v), remainder_r(u, v))


@dataclass(frozen=True)
class BonyParts:
    """The three pieces of a product; their sum is the dealiased product."""

    T_uv: Field
    T_vu: Field
    R_uv: Field

    def total(self) -> Field:
        return add(add(self.T_uv, self.T_vu), self.R_uv)


def bony_decomposition(u: Field, v: Field, dealias: bool = True) -> BonyParts:
    return BonyParts(paraproduct_t(u, v, dealias),
                     paraproduct_t(v, u, dealias),
                     remainder_r(u, v, dealias))


def _check_divfree(v: Field, tol: float) -> None:
    div = l2_norm_spectral(divergence(v))
    scale_ = h1_seminorm(v)
    if div > tol * max(scale_, 1e-30):
        raise ValueError(f"advecting field is not divergence-free "
                         f"(relative divergence {div / max(scale_, 1e-30):.2e})")


def commutator(v: Field, j: int, w: Field, dealias: bool = True) -> Field:
    """The commutator of the low-high paraproduct of v against the shell
    projector at j, applied to the advection derivative of w:

        sum over |j' - j| <= 4 of
            (low pass of v at j'-1) . grad (block j of block j' of w)
          - block j of ((low pass of v at j'-1) . grad (block j' of w)).

    Computed directly as this operator difference with dealiased
    products; no kernel representation is involved.  v must be
    divergence-free; j must be a shell index (j >= 0).
    """
    v.grid.require_same(w.grid)
    if j < 0:
        raise BlockRangeError("commutator is defined for shell indices j >= 0")
    if j > v.grid.jmax:
        raise BlockRangeError(f"block {j} exceeds jmax={v.grid.jmax}")
    _check_divfree(v, 1e-12)
    total = 0
    for jp in range(max(1, j - 4), min(v.grid.jmax, j + 4) + 1):
        low_v = s_j(v, jp - 1)
        w_block = delta_j(w, jp)
        direct = advect(low_v, delta_j(w_block, j), dealias)
        projected = delta_j(advect(low_v, w_block, dealias), j)
        total = total + (direct.half - projected.half)
    return Field(v.grid, total)


def commutator_bound_ratio(v: Field, j: int, w: Field) -> float:
    """Measured constant in the commutator estimate: the L2 norm of the
    commutator divided by ||grad S_{j+3} v||_inf * sum_{|j'-j|<=4} ||w_j'||_2.
    Returns 0 when the predicted bound is itself zero."""
    grid = v.grid
    num = l2_norm_spectral(commutator(v, j, w))
    lip = grad_norm_inf(s_j(v, min(j + 3, grid.jmax + 1)))
    # block_norms' column of block j' is j' + 1
    tail = float(np.sum(block_norms(w, 2.0)[max(0, j - 3):j + 6]))
    denom = lip * tail
    if denom == 0.0:
        return 0.0
    return num / denom
