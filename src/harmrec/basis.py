"""Hat basis one layer of h around the domain, its traces, and assembly.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the domain grid grown by one node on each side, whose Dirichlet
data are the hats, the piecewise-linear nodal functions in arc length, one
per boundary node of that grown grid.  Sampled at the grown grid's boundary
nodes a hat is a unit vector, so its base solution takes data 1 at one node,
0 elsewhere.  The grown grid is derived from the domain grid; no config key
sets it.

Only this module knows the grown lattice.  No base solution is stored as
a field: the domain sees a combination b only through its K traces
``w = V b`` on the domain's boundary walk, the closed-form rows of
:func:`poisson.rim_extension` at those K nodes.  Every row the fit reads (the
Γ values, the two inward normal-stencil nodes of each Γ node) lies in the
closed domain, where the combination is the harmonic extension of w.  So
the system's A and B act on w, and V (K × (K + 8)) maps coefficients to
traces.  The fit solves for w alone; the coefficients b = V⁺w are formed
only where they are written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import (SIDES, BoundaryPartition, Grid2D, boundary_counts,
                   boundary_partition, build_grid)
from .poisson import normal_stencil, rim_extension
# Not called here: perfbench/spans.py wraps `basis.solve_dirichlet` by name.
from .poisson import solve_dirichlet  # noqa: F401


def _hat_grid(omega: Grid2D) -> Grid2D:
    return build_grid(omega.rect.padded(omega.h), omega.h)


def build_basis(omega_grid: Grid2D) -> BoundaryPartition:
    """The hats: the boundary walk of ``omega_grid`` grown by one node on
    each side, one hat per walk node."""
    return boundary_partition(_hat_grid(omega_grid), SIDES)


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled measurement operators on the domain's rim traces w.

    A      (m, K) the Γ rows of the identity: w's values at the Γ nodes.
    B      (m, K) outward normal differences at the Γ nodes of w's harmonic
           extension on the domain.
    V      (K, n) the hats' traces on the domain's boundary walk, w = V b.
    sigma  (m,) Γ quadrature weights.
    D1     (m, m) tangential difference operator on Γ.
    h      grid spacing.
    grid   the domain grid whose boundary walk w follows, the one the fit's
           fields live on; ``None`` for a hand-built system, which can be
           fitted but not turned into a field.

    The fit's factorisation of the system, one per pair of data weights, is
    kept in the private ``_fits``.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    h: float
    grid: Grid2D | None = None
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, k = self.A.shape if self.A.ndim == 2 else (0, 0)
        n = self.V.shape[1] if self.V.ndim == 2 else 0
        for name, shape in (("A", (m, k)), ("B", (m, k)), ("V", (k, n)),
                            ("sigma", (m,)), ("D1", (m, m))):
            arr = getattr(self, name)
            if arr.shape != shape or not m * k * n:
                raise ValidationError(
                    f"{name} has shape {arr.shape}, but a system needs A and B "
                    "m x K, V K x n, sigma (m,) and D1 m x m, none of them empty")
            arr.setflags(write=False)
        if self.grid is not None:
            rim = boundary_counts(self.grid.nx, self.grid.ny)[1]
            if k != rim or self.grid.h != self.h:
                raise ValidationError(
                    f"the grid's {rim} rim nodes at spacing {self.grid.h} do not "
                    f"match the system's {k} traces at spacing {self.h}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """The minimum-norm coefficients b with ``V b = w``, by one QR of Vᵀ:
        ``b = Q R^-T w``.  Exact because V, the traces of one layer of hats,
        has full row rank (its condition number is about 6)."""
        q, r = np.linalg.qr(self.V.T)
        return q @ np.linalg.solve(r.T, w)


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


def assemble_system(traces: np.ndarray,
                    omega_partition: BoundaryPartition) -> DiscreteSystem:
    """Build A and B on the partition's own grid and keep the traces V that
    :func:`compute_base_solutions` sampled for it.  B is the one-sided normal
    difference of the harmonic extension, whose two inward stencil nodes may
    lie on the rim (a Γ corner's steps run along the next side)."""
    m, k = omega_partition.m, omega_partition.n_boundary
    if traces.ndim != 2 or traces.shape[0] != k:
        raise ValidationError(f"expected {k} sampled trace rows, got {traces.shape}")
    ii, jj, coeffs = normal_stencil(omega_partition)
    steps = rim_extension(omega_partition, ii[:, 1:].T.ravel(), jj[:, 1:].T.ravel())
    a_mat = np.zeros((m, k))
    a_mat[np.arange(m), np.flatnonzero(omega_partition.gamma_mask)] = 1.0
    b_mat = np.zeros((m, k))
    for c, block in zip(coeffs, (a_mat, steps[:m], steps[m:])):
        b_mat += c * block
    return DiscreteSystem(
        A=a_mat,
        B=b_mat,
        V=traces,
        sigma=omega_partition.gamma_sigma.copy(),
        D1=omega_partition.tangential_d1,
        h=omega_partition.grid.h,
        grid=omega_partition.grid,
    )
