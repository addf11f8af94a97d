"""Dyadic frequency analysis and uniqueness diagnostics for
incompressible flow on the periodic torus."""

__version__ = "0.1.0"

from .grid import Grid
from .field import (Field, from_physical, from_spectral, from_components,
                    to_physical, lp_norm, inner, derivative, dealiased_product,
                    advect, leray_project, set_fft_workers)
from .blocks import (block_indices, delta_j, s_j, reconstruct, block_norms,
                     bernstein_report, reverse_bernstein_report, ConstantReport)
from .paraproduct import (paraproduct_t, remainder_r, t_prime, commutator,
                          bony_decomposition, BonyParts)
from .besov import (BesovSpec, CriterionTriple, SplitResult, besov_norm,
                    curl, biot_savart, bkm_ratio, split_low_high, gn_ratio)
from .solver import (SolverConfig, Trajectory, nse_rhs, step, run, twin_run,
                     taylor_green, energy_balance_residual)
from .monitor import (LosingParams, CriterionReport, criterion_integral,
                      block_series, diff_norm_W, epsilon_weights,
                      losing_weight, smallness_window, block_energy_audit,
                      trilinear, integral_identity_check, gronwall_check,
                      build_report)
from .snapshots import write_field, read_field, save_trajectory, load_trajectory
from .errors import (LpnseError, GridError, BlockRangeError, TripleError,
                     ResolutionError, NonFiniteError, SolverAbort)
