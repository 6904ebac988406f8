"""Second-order 5-point Dirichlet solver and discrete normal derivatives.

The solver treats the h²-scaled system (stencil weights 4 / -1), which is
symmetric positive definite on the interior unknowns.  On a rectangle the
type-I discrete sine basis diagonalises it (Hockney, J. ACM 12, 1965;
Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  Both direct
solvers apply that basis as products with one cached dense matrix per side
length (:func:`_dst_matrix`): :func:`solve_interior` solves exactly for a
batch of fields, its rim load transformed as a rank-4 product, and
:func:`rim_extension` samples every rim node's harmonic extension at given
nodes without forming a field.
:func:`solve_dirichlet` is the one rim solve of the pipeline: it writes
(k, K) walk-ordered rim values onto a grid and fills the interior of all k
fields through one :func:`solve_interior`, returning them as one
(k, ny, nx) array, new or the caller's.  Besides that array, the solve
needs one scratch stack of its interior.  The reconstruction u* (the
harmonic extension of the fitted traces) and the exponent field (that of
Γ's indicator) are both such solves, the latter a batch of one.
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
        _check_finite(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise SolverError("field contains non-finite values")


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
    one orthonormal transform each way (both matrices their own inverse),
    over every leading batch index.  The load sits on the four edges of the
    interior: with a, b its bottom and top rows and c, d its left and right
    columns, ``Sy @ load @ Sx`` is the rank-4 product ``L @ R`` of
    ``L = [Sy[:, 0], Sy[:, -1], Sy c, Sy d]`` and
    ``R = [a Sx; b Sx; Sx[0]; Sx[-1]]``, so the forward transform costs
    O(n²) per field.  The inverse pair needs one scratch stack, ``coef``:
    ``Sy @ coef`` is written into the interior of ``u``, that interior
    ``@ Sx`` back into ``coef``, and ``coef`` copied in.  Every product is
    taken per field, so a field rounds in a batch exactly as it does alone.
    """
    my, mx = u.shape[-2] - 2, u.shape[-1] - 2
    sy, sx = _dst_matrix(my), _dst_matrix(mx)
    left = np.empty(u.shape[:-2] + (my, 4))
    left[..., :2] = sy[:, [0, -1]]
    left[..., 2:] = sy @ u[..., 1:-1, ::mx + 1]
    right = np.empty(u.shape[:-2] + (4, mx))
    right[..., :2, :] = u[..., ::my + 1, 1:-1] @ sx
    right[..., 2:, :] = sx[[0, -1]]
    coef = left @ right
    coef /= _dst_eigenvalues(my, mx)
    inner = u[..., 1:-1, 1:-1]
    np.matmul(sy, coef, out=inner)
    np.matmul(inner, sx, out=coef)
    inner[...] = coef


# The DST-I solve above is the only Laplace solver.  This stub keeps the name
# that perfbench/spans.py looks up for its `kernels.cg` span; both go together.
def cg_dirichlet(u: np.ndarray, tol: float, max_iter: int) -> tuple[int, float]:
    """Not a solver: every Dirichlet problem goes through :func:`solve_dirichlet`."""
    raise NotImplementedError("harmrec has no CG solver; use solve_dirichlet")


def solve_dirichlet(grid: Grid2D, values: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The k discrete harmonic fields on ``grid`` whose rim data are the rows
    of the (k, K) ``values``, in walk order: one writable (k, ny, nx) array
    from one batched :func:`solve_interior`, checked finite as a
    :class:`ScalarField` is.

    Rim nodes of the result carry the data exactly; interior nodes satisfy
    the 5-point stencil to rounding.  The fields go into ``out`` when it is
    given, a writable C-contiguous float64 (k, ny, nx) array whose every
    node is overwritten, and ``out`` is returned; otherwise into a new array.
    """
    if grid.nx < 3 or grid.ny < 3:
        raise ValidationError("grid must be at least 3x3 for an interior solve")
    walk, _ = _boundary_walk(grid.nx, grid.ny)
    bv = np.asarray(values, dtype=float)
    if bv.ndim != 2 or bv.shape[1] != len(walk):
        raise ValidationError(f"expected (k, {len(walk)}) rim values, got {bv.shape}")
    shape = bv.shape[:1] + grid.shape
    if out is None:
        out = np.empty(shape)  # the walk and the solve write every node
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable):
        raise ValidationError(
            f"out must be a writable C-contiguous float64 array of shape {shape}")
    out[:, walk[:, 1], walk[:, 0]] = bv
    solve_interior(out)
    _check_finite(out)
    return out


def normal_stencil(partition: BoundaryPartition):
    """Second-order one-sided outward normal difference at every Γ node:
    (m, 3) column and row indices stepping into the domain, and the weights
    (3, -4, 1) / (2h)."""
    normals = partition.gamma_normals()
    step = -normals.reshape(-1, 2).astype(np.int64)  # inward, one node
    p = np.arange(3)
    ii = partition.gamma_nodes[:, :1] + p * step[:, :1]
    jj = partition.gamma_nodes[:, 1:] + p * step[:, 1:]
    return ii, jj, np.array([3.0, -4.0, 1.0]) / (2 * partition.grid.h)
