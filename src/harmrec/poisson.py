"""Second-order 5-point Dirichlet solver and discrete normal derivatives.

The solver treats the h²-scaled system (stencil weights 4 / -1), which is
symmetric positive definite on the interior unknowns.  Two backends sit
behind one contract:

* ``method="direct"`` (default): exact solve in the type-I discrete sine
  basis, which diagonalises the operator on a rectangle (Buzbee, Golub and
  Nielson, SIAM J. Numer. Anal. 7, 1970).  :func:`solve_interior` takes a
  leading batch axis, so many right-hand sides cost one transform pair.
* ``method="cg"``: matrix-free conjugate gradients, see
  :mod:`harmrec.kernels`.  Residual tolerance is relative to the boundary
  load (clamped at 1 from below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import dstn

from .errors import SolverError, ValidationError
from .grid import BoundaryPartition, Grid2D
from .kernels import cg_dirichlet, stencil_residual


@dataclass(frozen=True)
class ScalarField:
    """Per-node real values on a grid, stored as an immutable (ny, nx) array."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValidationError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(v).all():
            raise ValidationError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def boundary_array(grid: Grid2D, partition: BoundaryPartition,
                   boundary_values: np.ndarray) -> np.ndarray:
    """(ny, nx) array with the per-boundary-node data written on the rim."""
    bv = np.asarray(boundary_values, dtype=float)
    if bv.shape != (partition.n_boundary,):
        raise ValidationError(
            f"expected {partition.n_boundary} boundary values, got {bv.shape}"
        )
    u = np.zeros(grid.shape)
    u[partition.nodes[:, 1], partition.nodes[:, 0]] = bv
    return u


@lru_cache(maxsize=8)
def _dst_eigenvalues(my: int, mx: int) -> np.ndarray:
    """(my, mx) eigenvalues of the interior operator in the DST-I basis."""
    lx, ly = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))
              for k in (mx, my))
    eig = ly[:, None] + lx[None, :]
    eig.setflags(write=False)
    return eig


def solve_interior(u: np.ndarray) -> None:
    """Fill the interior of ``u`` (..., ny, nx) in place from its rim data.

    Exact up to rounding: the 5-point system is solved in the DST-I basis,
    one orthonormal transform each way, over every leading batch index.
    """
    rhs = np.zeros(u.shape[:-2] + (u.shape[-2] - 2, u.shape[-1] - 2))
    rhs[..., 0, :] += u[..., 0, 1:-1]
    rhs[..., -1, :] += u[..., -1, 1:-1]
    rhs[..., :, 0] += u[..., 1:-1, 0]
    rhs[..., :, -1] += u[..., 1:-1, -1]
    coef = dstn(rhs, type=1, axes=(-2, -1), norm="ortho", overwrite_x=True)
    coef /= _dst_eigenvalues(*rhs.shape[-2:])
    u[..., 1:-1, 1:-1] = dstn(coef, type=1, axes=(-2, -1), norm="ortho",
                              overwrite_x=True)


def solve_dirichlet(grid: Grid2D, partition: BoundaryPartition,
                    boundary_values: np.ndarray, tol: float = 1e-10,
                    method: str = "direct", backend: str | None = None) -> ScalarField:
    """Solve the discrete Laplace equation with the given Dirichlet data.

    Boundary nodes of the result carry the data exactly; interior nodes
    satisfy the 5-point stencil to rounding (``direct``) or with max-norm
    residual at most ``tol * max(1, |load|_inf)`` (``cg``, which raises
    :class:`SolverError` with the achieved residual if it runs out of
    iterations).
    """
    if tol <= 0:
        raise ValidationError(f"solver tolerance must be positive, got {tol}")
    if grid.nx < 3 or grid.ny < 3:
        raise ValidationError("grid must be at least 3x3 for an interior solve")
    u = boundary_array(grid, partition, boundary_values)
    if method == "direct":
        solve_interior(u)
    elif method == "cg":
        # Same load norm the kernel uses for its relative stopping rule.
        load_inf = float(np.abs(stencil_residual(u)).max())
        max_iter = 40 * max(grid.nx, grid.ny) + 200
        iters, res = cg_dirichlet(u, tol, max_iter, backend=backend)
        stop = tol * max(1.0, load_inf)
        if res > stop:
            raise SolverError(
                f"CG did not converge in {iters} iterations "
                f"(residual {res:.3e} > {stop:.3e})",
                achieved_residual=res,
            )
    else:
        raise ValidationError(f"unknown solve method {method!r}")
    return ScalarField(grid=grid, values=u)


def laplacian_residual(fld: ScalarField) -> float:
    """Max interior residual of the h²-scaled 5-point stencil, |4u - Σ neighbors|."""
    if fld.grid.nx < 3 or fld.grid.ny < 3:
        raise ValidationError("need nx, ny >= 3 to evaluate the interior stencil")
    return float(np.abs(stencil_residual(fld.values)).max())


_STEPS = {"bottom": (0, 1), "top": (0, -1), "left": (1, 0), "right": (-1, 0)}


def normal_stencil(partition: BoundaryPartition, order: int):
    """One-sided outward normal difference at every Γ node: (m, order + 1)
    column and row indices stepping into the domain, and their weights."""
    h = partition.grid.h
    sides, _ = partition.gamma_normals()
    step = np.array([_STEPS[s] for s in sides], dtype=np.int64).reshape(-1, 2)
    p = np.arange(order + 1)
    ii = partition.gamma_nodes[:, :1] + p * step[:, :1]
    jj = partition.gamma_nodes[:, 1:] + p * step[:, 1:]
    if order == 1:
        return ii, jj, np.array([1.0, -1.0]) / h
    return ii, jj, np.array([3.0, -4.0, 1.0]) / (2 * h)


def normal_derivative(fld: ScalarField, partition: BoundaryPartition,
                      order: int = 2) -> np.ndarray:
    """Outward normal derivative at every Γ node, one-sided into the domain.

    order 1: two-point difference, O(h); order 2: three-point difference,
    O(h²).  At a corner the normal follows the side that put the node into Γ
    (vertical sides win ties, see BoundaryPartition.gamma_normals).
    """
    if order not in (1, 2):
        raise ValidationError(f"difference order must be 1 or 2, got {order}")
    grid = fld.grid
    if partition.grid != grid:
        raise ValidationError("field and partition live on different grids")
    if grid.nx < order + 1 or grid.ny < order + 1:
        raise ValidationError(f"grid too small for an order-{order} one-sided stencil")
    ii, jj, coeffs = normal_stencil(partition, order)
    return fld.values[jj, ii] @ coeffs
