"""Second-order 5-point Dirichlet solver and discrete normal derivatives.

The solver treats the h²-scaled system (stencil weights 4 / -1), which is
symmetric positive definite on the interior unknowns.  On a rectangle the
type-I discrete sine basis diagonalises it (Hockney, J. ACM 12, 1965;
Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  Both direct
solvers apply that basis as products with one cached dense matrix per side
length (:func:`_dst_matrix`): :func:`solve_interior` solves exactly for a
batch of fields, and :func:`rim_extension` samples every rim node's
harmonic extension at given nodes without forming a field.
:func:`solve_dirichlet` is the one rim solve of the pipeline: it writes
walk-ordered rim values onto a grid and fills the interior through
:func:`solve_interior`, one field or a batch.  The reconstruction u* (the
harmonic extension of the fitted traces) and the exponent field (that of Γ's
indicator) are both such solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SolverError, ValidationError
from .grid import BoundaryPartition, Grid2D, _boundary_walk


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
            raise SolverError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@lru_cache(maxsize=8)
def _dst_eigenvalues(my: int, mx: int) -> np.ndarray:
    """(my, mx) eigenvalues of the interior operator in the DST-I basis."""
    lx, ly = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (k + 1))
              for k in (mx, my))
    eig = ly[:, None] + lx[None, :]
    eig.setflags(write=False)
    return eig


@lru_cache(maxsize=8)
def _dst_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order n, symmetric and its own inverse; the
    index product is reduced modulo 2(n + 1) so the sine keeps full accuracy.
    Built in place, so it peaks at the one n x n array it returns."""
    k = np.arange(1.0, n + 1)
    s = np.multiply.outer(k, k)
    np.fmod(s, 2 * n + 2, out=s)
    s *= np.pi
    s /= n + 1
    np.sin(s, out=s)
    s *= np.sqrt(2.0 / (n + 1))
    s.setflags(write=False)
    return s


def rim_extension(partition: BoundaryPartition, ii: np.ndarray,
                  jj: np.ndarray) -> np.ndarray:
    """(P, K) values at the P nodes (ii, jj) of the discrete harmonic
    extensions of the K rim nodes of ``partition``'s grid, in walk order.  A
    node on the rim gives a unit row.  A rim node loads only its interior
    neighbour, so with S the DST-I and Λ the eigenvalues a side's extensions
    are ``S (S[:, edge] / Λ) S`` at interior nodes; corners give 0 there."""
    ny, nx = partition.grid.shape
    my, mx = ny - 2, nx - 2
    ni, nj = partition.nodes.T
    walk_index = np.full((ny, nx), -1)
    walk_index[nj, ni] = np.arange(partition.n_boundary)
    at = walk_index[jj, ii]
    out = np.zeros((len(at), partition.n_boundary))
    rim = np.flatnonzero(at >= 0)
    out[rim, at[rim]] = 1.0
    inner = np.flatnonzero(at < 0)
    sy, sx, lam = _dst_matrix(my), _dst_matrix(mx), _dst_eigenvalues(my, mx)
    py, px = jj[inner] - 1, ii[inner] - 1
    for edge, on in ((0, nj == 0), (my - 1, nj == ny - 1)):  # bottom, top
        on &= (ni > 0) & (ni < nx - 1)
        w = sy @ (sy[:, edge, None] / lam)
        out[np.ix_(inner, on)] = (sx[px] * w[py]) @ sx[:, ni[on] - 1]
    for edge, on in ((0, ni == 0), (mx - 1, ni == nx - 1)):  # left, right
        on &= (nj > 0) & (nj < ny - 1)
        w = sx @ (sx[:, edge, None] / lam.T)
        out[np.ix_(inner, on)] = (sy[py] * w[px]) @ sy[:, nj[on] - 1]
    return out


def solve_interior(u: np.ndarray) -> None:
    """Fill the interior of ``u`` (..., ny, nx) in place from its rim data.

    Exact up to rounding: the 5-point system is solved in the DST-I basis,
    one orthonormal transform each way (``Sy @ load @ Sx``, both matrices
    their own inverse), over every leading batch index.
    """
    my, mx = u.shape[-2] - 2, u.shape[-1] - 2
    sy, sx = _dst_matrix(my), _dst_matrix(mx)
    rhs = np.zeros(u.shape[:-2] + (my, mx))
    rhs[..., 0, :] += u[..., 0, 1:-1]
    rhs[..., -1, :] += u[..., -1, 1:-1]
    rhs[..., :, 0] += u[..., 1:-1, 0]
    rhs[..., :, -1] += u[..., 1:-1, -1]
    coef = sy @ rhs @ sx
    coef /= _dst_eigenvalues(my, mx)
    u[..., 1:-1, 1:-1] = sy @ coef @ sx


# The DST-I solve above is the only Laplace solver.  This stub keeps the name
# that perfbench/spans.py looks up for its `kernels.cg` span; both go together.
def cg_dirichlet(u: np.ndarray, tol: float, max_iter: int) -> tuple[int, float]:
    """Not a solver: every Dirichlet problem goes through :func:`solve_dirichlet`."""
    raise NotImplementedError("harmrec has no CG solver; use solve_dirichlet")


def solve_dirichlet(grid: Grid2D, values: np.ndarray) -> ScalarField | list[ScalarField]:
    """The discrete harmonic field on ``grid`` whose rim data are ``values``
    in walk order: (K,) gives one field, (k, K) a list of k from one batched
    :func:`solve_interior`.

    Rim nodes of the result carry the data exactly; interior nodes satisfy
    the 5-point stencil to rounding.
    """
    if grid.nx < 3 or grid.ny < 3:
        raise ValidationError("grid must be at least 3x3 for an interior solve")
    walk, _ = _boundary_walk(grid.nx, grid.ny)
    bv = np.asarray(values, dtype=float)
    if bv.shape[-1:] != (len(walk),) or bv.ndim > 2:
        raise ValidationError(f"expected {len(walk)} rim values, got {bv.shape}")
    u = np.zeros(bv.shape[:-1] + grid.shape)
    u[..., walk[:, 1], walk[:, 0]] = bv
    solve_interior(u)
    if bv.ndim == 1:
        return ScalarField(grid=grid, values=u)
    return [ScalarField(grid=grid, values=v) for v in u]


def laplacian_residual(fld: ScalarField) -> float:
    """Max interior residual of the h²-scaled 5-point stencil, |4u - Σ neighbors|."""
    if fld.grid.nx < 3 or fld.grid.ny < 3:
        raise ValidationError("need nx, ny >= 3 to evaluate the interior stencil")
    v = fld.values
    return float(np.abs(4.0 * v[1:-1, 1:-1] - v[1:-1, :-2] - v[1:-1, 2:]
                        - v[:-2, 1:-1] - v[2:, 1:-1]).max())


def normal_stencil(partition: BoundaryPartition):
    """Second-order one-sided outward normal difference at every Γ node:
    (m, 3) column and row indices stepping into the domain, and the weights
    (3, -4, 1) / (2h)."""
    _, normals = partition.gamma_normals()
    step = -normals.reshape(-1, 2).astype(np.int64)  # inward, one node
    p = np.arange(3)
    ii = partition.gamma_nodes[:, :1] + p * step[:, :1]
    jj = partition.gamma_nodes[:, 1:] + p * step[:, 1:]
    return ii, jj, np.array([3.0, -4.0, 1.0]) / (2 * partition.grid.h)
