"""Reliability exponent field: harmonic measure of the measurement sides.

The field solves the Dirichlet problem with data 1 on the measurement arc Γ
(corner nodes of Γ included) and 0 on the rest of the boundary.  Its value
at a point is the exponent with which data error propagates there, so level
sets of the field bound the region where a reconstruction can be trusted.
:func:`compute_indicate` returns it as a plain :class:`ScalarField`, one
:func:`poisson.solve_dirichlet` of Γ's indicator, the same rim solve that
rebuilds u* from the fitted traces; :func:`reliable_region` gives its node
mask and level contour at a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contour import marching_squares
from .errors import ValidationError
from .grid import SIDES, BoundaryPartition
from .poisson import ScalarField, solve_dirichlet


@dataclass(frozen=True)
class LevelContour:
    """A level in (0, 1) with its extracted polylines (each a (k, 2) array)."""

    level: float
    polylines: list = field(default_factory=list)


def compute_indicate(partition: BoundaryPartition) -> ScalarField:
    """Solve for the exponent field of the partition's Γ on its grid: the
    harmonic extension of Γ's indicator."""
    if partition.m == 0:
        raise ValidationError("Γ must be nonempty")
    if partition.gamma_sides == frozenset(SIDES):
        raise ValidationError(
            "Γ covering the whole boundary is degenerate (tau would be "
            "identically 1 and the problem well-posed)"
        )
    fld = ScalarField(partition.grid,
                      solve_dirichlet(partition.grid, [partition.gamma_mask.astype(float)])[0])
    _check_indicate(fld, partition)
    return fld


def _check_indicate(fld: ScalarField, partition: BoundaryPartition):
    v = fld.values
    slack = 1e-8
    if v.min() < -slack or v.max() > 1.0 + slack:
        raise ValidationError(
            f"exponent field escapes [0, 1] beyond rounding slack "
            f"({v.min():.3e} .. {v.max():.3e})"
        )
    bj, bi = partition.nodes[:, 1], partition.nodes[:, 0]
    target = partition.gamma_mask.astype(float)
    if not np.array_equal(v[bj, bi], target):
        raise ValidationError("boundary values of the exponent field were altered")


def reliable_region(tau: ScalarField, threshold: float) -> tuple[np.ndarray, LevelContour]:
    """Node mask {tau >= threshold} plus the marching-squares contour.

    threshold must lie in (0, 1]; at exactly 1 the mask reduces to the Γ
    nodes and the contour is empty (a level set needs a level in (0, 1)).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    mask = tau.values >= threshold
    if threshold < 1.0:
        lines = marching_squares(tau.grid, tau.values, threshold)
    else:
        lines = []
    return mask, LevelContour(level=threshold, polylines=lines)
