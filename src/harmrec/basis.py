"""Hat basis one layer of h around the domain, its traces and coefficients.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the domain grid grown by one node on each side, whose Dirichlet
data are the hats, the piecewise-linear nodal functions in arc length, one
per boundary node of that grown grid.  Sampled at the grown grid's boundary
nodes a hat is a unit vector, so its base solution takes data 1 at one node,
0 elsewhere.  The grown grid is derived from the domain grid; no config key
sets it.

Only this module knows the grown lattice, and only the writer of ``b.csv``
calls it.  The fit (:mod:`tikhonov`) solves for the K traces w on the
domain's boundary walk alone, and its field u* is their harmonic extension.
The coefficients b of ``b.csv`` are the minimum-norm b with ``V b = w``, V
the hats' traces; :func:`coefficients` reads them off u* by the 5-point
equation of the grown grid at the domain's rim, without forming V.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import SIDES, BoundaryPartition, Grid2D, boundary_partition, build_grid
from .poisson import ScalarField, rim_extension
# Not called here: perfbench/spans.py wraps `basis.solve_dirichlet` by name.
from .poisson import solve_dirichlet  # noqa: F401


def _hat_grid(omega: Grid2D) -> Grid2D:
    return build_grid(omega.rect.padded(omega.h), omega.h)


def build_basis(omega_grid: Grid2D) -> BoundaryPartition:
    """The hats: the boundary walk of ``omega_grid`` grown by one node on
    each side, one hat per walk node."""
    return boundary_partition(_hat_grid(omega_grid), SIDES)


def _check_hats(hats: BoundaryPartition, omega: Grid2D) -> None:
    if hats.grid != _hat_grid(omega):
        raise ValidationError(
            f"the hats on {hats.grid} are not those of the domain grid "
            f"{omega} grown by one node a side")


def compute_base_solutions(hats: BoundaryPartition,
                           omega_partition: BoundaryPartition) -> np.ndarray:
    """(K, K + 8) values of the base solutions at the K nodes of the domain's
    boundary walk: the traces V.  The hats must be :func:`build_basis` of
    the partition's grid, whose node (i, j) is the hats' node (i + 1, j + 1)."""
    _check_hats(hats, omega_partition.grid)
    walk = omega_partition.nodes
    return rim_extension(hats, walk[:, 0] + 1, walk[:, 1] + 1)


def coefficients(hats: BoundaryPartition, u_star: ScalarField) -> np.ndarray:
    """The minimum-norm coefficients b with ``V b = w``, w the rim values of
    the harmonic field ``u_star`` and V the hats' traces, in O(K).

    u* is the harmonic field of the grown grid with rim data b, seen on the
    domain, so at a domain rim node p the 5-point equation fixes the sum of
    the hats beside p: ``4 u*(p) - sum of u* at p's neighbours in the
    domain``.  A hat beside an edge node takes that residual; the two hats
    beside a domain corner, whose columns of V are equal, take half of it
    each; the four corner hats of the grown grid, whose columns of V are
    zero, take 0.
    """
    _check_hats(hats, u_star.grid)
    u = u_star.values
    ny, nx = u.shape
    hi, hj = hats.nodes.T - 1  # in the domain's node indices
    # the domain node one step inward; a corner hat steps diagonally
    i, j = np.clip(hi, 0, nx - 1), np.clip(hj, 0, ny - 1)
    b = 4.0 * u[j, i]
    beside = np.zeros(len(b))  # the number of hats beside each one's node
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ni, nj = i + di, j + dj
        inside = (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
        b -= np.where(inside, u[np.clip(nj, 0, ny - 1), np.clip(ni, 0, nx - 1)], 0.0)
        beside += ~inside
    b /= beside
    b[(hi != i) & (hj != j)] = 0.0
    return b
