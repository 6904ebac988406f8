"""Reliability exponent field: harmonic measure of the measurement sides.

The field solves the Dirichlet problem with data 1 on the measurement arc Γ
(corner nodes of Γ included) and 0 on the rest of the boundary.  Its value
at a point is the exponent with which data error propagates there, so level
sets of the field bound the region where a reconstruction can be trusted.

Independent closed forms used as oracles:

* unit square, one side measured: separable sine/sinh series (per side
  ``sum over odd k of (4/(k*pi)) * sin(k*pi*s) * sinh(k*pi*(1-d))/sinh(k*pi)``
  with (s, d) the along-side coordinate and distance from that side);
  multi-side measures are sums of single-side series.
* annulus 1 <= |z| <= R with the inner circle measured:
  ``log(R/r)/log(R)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contour import marching_squares
from .errors import ValidationError
from .grid import SIDES, BoundaryPartition, Grid2D
from .poisson import ScalarField, solve_dirichlet


# Node layers around each Γ endpoint skipped when comparing against the series
# oracle: the boundary data jump there and pointwise accuracy degrades.
ORACLE_EXCLUSION_BAND = 3


@dataclass(frozen=True)
class IndicateField:
    """Exponent field tau on a grid, with the Γ partition it certifies."""

    tau: ScalarField
    gamma: BoundaryPartition

    @property
    def grid(self) -> Grid2D:
        return self.tau.grid

    def gamma_endpoints(self) -> np.ndarray:
        """(k, 2) coordinates of the Γ nodes where Γ meets its complement,
        the ones with exactly one segment on Γ."""
        after, before = self.gamma.gamma_links()
        return self.gamma.gamma_points[after != before]

    def oracle_comparison_mask(self) -> np.ndarray:
        """Interior nodes at least ORACLE_EXCLUSION_BAND*h from every Γ endpoint."""
        g = self.grid
        mask = np.zeros(g.shape, dtype=bool)
        mask[1:-1, 1:-1] = True
        endpoints = self.gamma_endpoints()
        if len(endpoints):
            xg, yg = g.meshgrid()
            dist2 = np.min(
                (xg[..., None] - endpoints[:, 0]) ** 2
                + (yg[..., None] - endpoints[:, 1]) ** 2,
                axis=-1,
            )
            mask &= dist2 >= (ORACLE_EXCLUSION_BAND * g.h) ** 2
        return mask


@dataclass(frozen=True)
class LevelContour:
    """A level in (0, 1) with its extracted polylines (each a (k, 2) array)."""

    level: float
    polylines: list = field(default_factory=list)

    def to_jsonable(self) -> list:
        return [[[float(x), float(y)] for x, y in line] for line in self.polylines]


def compute_indicate(grid: Grid2D, partition: BoundaryPartition,
                     tol: float = 1e-10, method: str = "direct") -> IndicateField:
    """Solve for the exponent field of the partition's Γ."""
    if partition.m == 0:
        raise ValidationError("Γ must be nonempty")
    if partition.gamma_sides == frozenset(SIDES):
        raise ValidationError(
            "Γ covering the whole boundary is degenerate (tau would be "
            "identically 1 and the problem well-posed)"
        )
    bv = partition.gamma_mask.astype(float)
    fld = solve_dirichlet(grid, partition, bv, tol=tol, method=method)
    _check_indicate(fld, partition, tol)
    return IndicateField(tau=fld, gamma=partition)


def _check_indicate(fld: ScalarField, partition: BoundaryPartition, tol: float):
    v = fld.values
    slack = max(1e-8, 100 * tol)
    if v.min() < -slack or v.max() > 1.0 + slack:
        raise ValidationError(
            f"exponent field escapes [0, 1] beyond solver slack "
            f"({v.min():.3e} .. {v.max():.3e})"
        )
    bj, bi = partition.nodes[:, 1], partition.nodes[:, 0]
    target = partition.gamma_mask.astype(float)
    if not np.array_equal(v[bj, bi], target):
        raise ValidationError("boundary values of the exponent field were altered")


def rectangle_series_tau(x: float, y: float, gamma_sides, terms: int = 200) -> float:
    """Series oracle for the exponent field on the open unit square.

    Sums the separable series of every flagged side; ``terms`` odd-index
    terms are used per side.  Points on the boundary are rejected (the
    series converges too slowly there to serve as an oracle).
    """
    if terms < 50:
        raise ValidationError(f"need at least 50 series terms, got {terms}")
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValidationError(f"series oracle needs an interior point, got {(x, y)}")
    sides = frozenset(gamma_sides)
    unknown = sides - set(SIDES)
    if unknown:
        raise ValidationError(f"unknown side name(s): {sorted(unknown)}")
    # (along-side coordinate, distance from the side)
    param = {
        "bottom": (x, y),
        "top": (x, 1.0 - y),
        "left": (y, x),
        "right": (y, 1.0 - x),
    }
    total = 0.0
    for side in sides:
        s, d = param[side]
        total += _single_side_series(s, d, terms)
    return total


def _single_side_series(s: float, d: float, terms: int) -> float:
    # sum over odd k of (4/(k pi)) sin(k pi s) sinh(k pi (1-d)) / sinh(k pi),
    # with the sinh ratio evaluated in log space to avoid overflow:
    # sinh(a)/sinh(b) = exp(a-b) * (1 - exp(-2a)) / (1 - exp(-2b)) for 0<=a<=b.
    acc = 0.0
    for idx in range(terms):
        k = 2 * idx + 1
        a = k * math.pi * (1.0 - d)
        b = k * math.pi
        ratio = math.exp(a - b) * (-math.expm1(-2.0 * a)) / (-math.expm1(-2.0 * b))
        acc += (4.0 / (k * math.pi)) * math.sin(k * math.pi * s) * ratio
    return acc


def annulus_tau(r: float, big_r: float) -> float:
    """Exponent on the annulus 1 <= |z| <= R with the inner circle measured."""
    if big_r <= 1.0:
        raise ValidationError(f"outer radius must exceed 1, got R={big_r}")
    if not (1.0 <= r <= big_r):
        raise ValidationError(f"need 1 <= r <= R, got r={r}, R={big_r}")
    return math.log(big_r / r) / math.log(big_r)


def two_constants_bound(eps: float, m_bound: float, tau: float) -> float:
    """Interpolation bound M^(1-tau) * eps^tau for |w| given |w|<=eps on Γ, <=M on Ω."""
    if not (0.0 < eps <= m_bound):
        raise ValidationError(f"need 0 < eps <= M, got eps={eps}, M={m_bound}")
    if not (0.0 <= tau <= 1.0):
        raise ValidationError(f"exponent must lie in [0, 1], got {tau}")
    return m_bound ** (1.0 - tau) * eps ** tau


def reliable_region(ind: IndicateField, threshold: float) -> tuple[np.ndarray, LevelContour]:
    """Node mask {tau >= threshold} plus the marching-squares contour.

    threshold must lie in (0, 1]; at exactly 1 the mask reduces to the Γ
    nodes and the contour is empty (a level set needs a level in (0, 1)).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    mask = ind.tau.values >= threshold
    if threshold < 1.0:
        lines = marching_squares(ind.grid, ind.tau.values, threshold)
    else:
        lines = []
    return mask, LevelContour(level=threshold, polylines=lines)
