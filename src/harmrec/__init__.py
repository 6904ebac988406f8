"""Reconstruction of harmonic fields on a rectangle from one-sided boundary
data, with a pointwise reliability certificate.

Given noisy values and normal derivatives on part of the boundary, the
library fits the field's traces on the whole boundary by regularized least
squares with a smoothness penalty, rebuilds the interior field as their
discrete harmonic extension, and certifies where the result can be trusted
through the harmonic measure of the measurement arc.  ``run`` also writes
the equivalent hat density one grid layer out (:mod:`harmrec.basis`).
Noisy data are :func:`add_noise`'s scaling of :func:`draw_noise`'s draws, in
``run`` and ``sweep`` alike.
"""

from .config import DEFAULTS, PRESETS, ExperimentConfig, resolve_config, validate_config
from .errors import SolverError, ValidationError
from .evaluate import (envelope_check, pointwise_error, rate_fit,
                       reliability_summary, spearman_rank)
from .forward import (CauchyData, Constant, ExactSolution, ExpCos, HarmonicPoly,
                      NoisyBatch, add_noise, draw_noise, sample_exact, trace_cauchy)
from .grid import (SIDES, BoundaryPartition, Grid2D, Rect, boundary_partition,
                   build_grid)
from .measure import LevelContour, compute_indicate, reliable_region
from .pipeline import build_state, run_experiment, run_sweep, run_tau
from .poisson import ScalarField, solve_dirichlet
from .tikhonov import (DiscreteSystem, ReconstructionResult, assemble_system,
                       reconstruct, reconstruct_field)

__version__ = "0.1.0"
