"""Hat basis one layer of h around the domain, its traces and coefficients.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the domain grid grown by one node on each side, whose Dirichlet
data are the hats, the piecewise-linear nodal functions in arc length, one
per boundary node of that grown grid.  Sampled at the grown grid's boundary
nodes a hat is a unit vector, so its base solution takes data 1 at one node,
0 elsewhere.  The grown grid is derived from the domain grid; no config key
sets it.

Only this module knows the grown lattice, and only the writer of ``b.csv``
calls it.  No base solution is stored as a field: the domain sees a
combination b only through its K traces ``w = V b`` on the domain's boundary
walk, the closed-form rows of :func:`poisson.rim_extension` at those K nodes.
The fit (:mod:`tikhonov`) solves for w alone; the coefficients b = V⁺w are
formed from its traces by :func:`coefficients`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import SIDES, BoundaryPartition, Grid2D, boundary_partition, build_grid
from .poisson import rim_extension
# Not called here: perfbench/spans.py wraps `basis.solve_dirichlet` by name.
from .poisson import solve_dirichlet  # noqa: F401


def _hat_grid(omega: Grid2D) -> Grid2D:
    return build_grid(omega.rect.padded(omega.h), omega.h)


def build_basis(omega_grid: Grid2D) -> BoundaryPartition:
    """The hats: the boundary walk of ``omega_grid`` grown by one node on
    each side, one hat per walk node."""
    return boundary_partition(_hat_grid(omega_grid), SIDES)


def compute_base_solutions(hats: BoundaryPartition,
                           omega_partition: BoundaryPartition) -> np.ndarray:
    """(K, K + 8) values of the base solutions at the K nodes of the domain's
    boundary walk: the traces V.  The hats must be :func:`build_basis` of
    the partition's grid, whose node (i, j) is the hats' node (i + 1, j + 1)."""
    if hats.grid != _hat_grid(omega_partition.grid):
        raise ValidationError(
            f"the hats on {hats.grid} are not those of the domain grid "
            f"{omega_partition.grid} grown by one node a side")
    walk = omega_partition.nodes
    return rim_extension(hats, walk[:, 0] + 1, walk[:, 1] + 1)


def coefficients(traces: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The minimum-norm coefficients b with ``V b = w`` for the traces V of
    :func:`compute_base_solutions`, by one QR of Vᵀ: ``b = Q R^-T w``.
    Exact because V, the traces of one layer of hats, has full row rank (its
    condition number is about 6)."""
    q, r = np.linalg.qr(traces.T)
    return q @ np.linalg.solve(r.T, w)
