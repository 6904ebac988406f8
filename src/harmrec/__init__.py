"""Reconstruction of harmonic fields on a rectangle from one-sided boundary
data, with a pointwise reliability certificate.

Given noisy values and normal derivatives on part of the boundary, the
library fits a boundary density on a slightly enlarged rectangle by
regularized least squares, rebuilds the interior field from finite-difference
base solutions, and certifies where the result can be trusted through the
harmonic measure of the measurement arc.
"""

from .basis import (BaseSolutionSet, BoundaryBasis, DiscreteSystem,
                    assemble_system, build_basis, compute_base_solutions)
from .config import DEFAULTS, PRESETS, ExperimentConfig, resolve_config, validate_config
from .errors import SolverError, ValidationError
from .evaluate import (EnvelopeReport, RegionStats, envelope_check,
                       pointwise_error, rate_fit, reliability_summary,
                       spearman_rank)
from .forward import (CauchyData, Constant, ExactSolution, ExpCos,
                      HarmonicPoly, add_noise, sample_exact, trace_cauchy)
from .grid import (SIDES, BoundaryPartition, Grid2D, Rect, boundary_partition,
                   build_grid)
from .measure import (IndicateField, LevelContour, annulus_tau,
                      compute_indicate, rectangle_series_tau, reliable_region,
                      two_constants_bound)
from .pipeline import build_state, run_experiment, run_sweep, run_tau
from .poisson import ScalarField, laplacian_residual, solve_dirichlet
from .rng import Xorshift64Star
from .tikhonov import (ReconstructionResult, TikhonovConfig, minimize,
                       reconstruct, reconstruct_field, select_alpha)

__version__ = "0.1.0"
