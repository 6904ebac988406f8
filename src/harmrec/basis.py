"""Boundary bases on the enlarged rectangle, base solutions, and assembly.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the enlarged rectangle whose Dirichlet data are the boundary basis
functions.  Two basis kinds:

* ``hat`` — piecewise-linear nodal functions in arc length, one per boundary
  node of the enlarged grid.  Sampled at the grid's boundary nodes a hat is
  a unit vector, so its base solution takes data 1 at one node, 0 elsewhere.
* ``indicator`` — characteristic functions of a disjoint cover of the
  boundary by contiguous arcs (``arcs_per_side`` arcs per geometric side).

No base solution is stored as a field: assembly needs them only at the
two inward normal-stencil nodes of each Γ node and on the inner boundary,
whose Γ nodes give A, and those rows are sums over arcs of the closed-form
rows of :func:`poisson.rim_extension`.

Assembly evaluates every base solution on the measurement arc: values, and
second-order one-sided outward normal differences.  It builds the smoothness
penalty from the traces on the *inner* rectangle's boundary, treated as a
closed polyline with arc-length spacing h: the squared penalty norm of a
trace v is ``sum h*(v^2 + (D1 v)^2 + (D2 v)^2)`` with circulant central
differences (corner nodes included, no smoothing), that is ``h v^T C v``
with ``C = I + D1^T D1 + D2^T D2`` circulant on the K nodes of the closed
walk.  The penalty is held as its K-row factor ``F = sqrt(h) C^(1/2) V``, V
the traces of the base solutions, with ``C^(1/2)`` applied along the walk by
one real FFT pair, so that the penalty norm of coefficients b is ``|F b|``
and the fit never forms the squared matrix ``F^T F``.  F sees b only
through the K traces, so for hats it has rank K and n - K null directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import (SIDES, BoundaryPartition, Grid2D, Rect, _boundary_walk, boundary_partition,
                   build_grid)
from .poisson import normal_stencil, rim_extension
# Not called here: perfbench/spans.py wraps `basis.solve_dirichlet` by name.
from .poisson import solve_dirichlet  # noqa: F401


@dataclass(frozen=True)
class BoundaryBasis:
    """Basis functions on the boundary of the enlarged grid: function k is 1
    on walk nodes ``support[k, 0]`` to ``support[k, 1] - 1``, 0 elsewhere,
    and the arcs split the whole walk in order."""

    tilde_grid: Grid2D
    tilde_partition: BoundaryPartition = field(repr=False)
    kind: str
    support: np.ndarray = field(repr=False)  # (n, 2) walk-index ranges

    def __post_init__(self):
        lo, hi = self.support.T
        if not (lo[0] == 0 and hi[-1] == self.tilde_partition.n_boundary
                and (hi > lo).all() and np.array_equal(lo[1:], hi[:-1])):
            raise ValidationError("basis arcs must split the boundary walk in order")
        self.support.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.support)


def build_basis(tilde_rect: Rect, h: float, kind: str = "hat", *,
                omega_rect: Rect, arcs_per_side: int = 1) -> BoundaryBasis:
    """Build the boundary basis on the enlarged rectangle.

    The enlarged rectangle must strictly contain ``omega_rect`` and both
    must live on the same h-lattice (checked again when sampling).
    """
    if kind not in ("hat", "indicator"):
        raise ValidationError(f"unknown basis kind {kind!r}")
    if not tilde_rect.strictly_contains(omega_rect):
        raise ValidationError(
            "the enlarged rectangle must strictly contain the reconstruction "
            f"rectangle (got {tilde_rect} vs {omega_rect})"
        )
    grid = build_grid(tilde_rect, h)
    part = boundary_partition(grid, SIDES)
    if kind == "hat":
        splits = np.arange(part.n_boundary + 1)
    else:
        if arcs_per_side < 1:
            raise ValidationError("arcs_per_side must be at least 1")
        # a side's arcs cover the end nodes of its walk segments; the walk
        # start, where the left side ends, goes with the bottom side
        _, seg_side = _boundary_walk(grid.nx, grid.ny)
        ends = np.r_[0, np.searchsorted(seg_side, [1, 2, 3]) + 1, part.n_boundary]
        splits = np.unique(np.concatenate([np.linspace(a, b, arcs_per_side + 1)
                                           for a, b in zip(ends[:-1], ends[1:])]).round())
    support = np.column_stack([splits[:-1], splits[1:]]).astype(np.int64)
    return BoundaryBasis(tilde_grid=grid, tilde_partition=part, kind=kind,
                         support=support)


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled measurement and penalty operators.

    A      (m, n) base-solution values at the Γ nodes.
    B      (m, n) outward normal differences at the Γ nodes.
    F      (k, n) penalty factor: |F b| is the smoothness norm of the traces
           of coefficients b on the inner boundary.
    sigma  (m,) Γ quadrature weights.
    D1     (m, m) tangential difference operator on Γ.
    h      grid spacing.

    Coefficient directions in the null space of F (for hats the n - K
    combinations with zero trace on the inner boundary, the four hats at
    the grid corners of the enlarged boundary among them) are invisible to
    an assembled cost, and the fit gives them zero weight: it returns the
    minimum-norm minimizer.  The fit rejects a hand-built system whose A or
    B sees null(F).  The fit's factorisation of the system, one per pair of
    data weights, is kept in the private ``_fits``.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    h: float
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.A, self.B, self.F, self.sigma, self.D1):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _lattice_offsets(tilde: Grid2D, omega: Grid2D) -> tuple[int, int]:
    if abs(tilde.h - omega.h) > 1e-12 * max(tilde.h, omega.h):
        raise ValidationError(
            f"grids are not aligned: spacings {tilde.h} vs {omega.h} differ"
        )
    h = omega.h
    fi = (omega.rect.x0 - tilde.rect.x0) / h
    fj = (omega.rect.y0 - tilde.rect.y0) / h
    oi, oj = int(round(fi)), int(round(fj))
    if abs(fi - oi) > 1e-9 or abs(fj - oj) > 1e-9:
        raise ValidationError("reconstruction grid nodes do not sit on the enlarged lattice")
    if not (oi >= 1 and oj >= 1 and oi + omega.nx <= tilde.nx - 1
            and oj + omega.ny <= tilde.ny - 1):
        raise ValidationError("reconstruction grid is not strictly inside the enlarged grid")
    return oi, oj


def compute_base_solutions(basis: BoundaryBasis,
                           omega_partition: BoundaryPartition) -> np.ndarray:
    """(2m + K, n) values of the base solutions at the first and the second
    node each of the m Γ nodes' normal differences steps inward to, then at
    the K nodes of the inner boundary walk, the Γ nodes among them."""
    oi, oj = _lattice_offsets(basis.tilde_grid, omega_partition.grid)
    ii, jj, _ = normal_stencil(omega_partition)
    walk = omega_partition.nodes
    rows = rim_extension(basis.tilde_partition,
                         np.concatenate([ii[:, 1:].T.ravel(), walk[:, 0]]) + oi,
                         np.concatenate([jj[:, 1:].T.ravel(), walk[:, 1]]) + oj)
    return np.add.reduceat(rows, basis.support[:, 0], axis=1)


def assemble_system(rows: np.ndarray,
                    omega_partition: BoundaryPartition) -> DiscreteSystem:
    """Build A, B and the penalty factor from the 2m + K rows that
    :func:`compute_base_solutions` sampled for this same partition: A is
    the walk rows at the Γ nodes, B their one-sided normal difference with
    the two stencil blocks, F acts on the walk rows.  Only the row count is
    checked, so rows of another partition of that size (``["top"]`` for
    ``["bottom"]`` on a square) give a wrong system."""
    m, k = omega_partition.m, omega_partition.n_boundary
    if rows.ndim != 2 or rows.shape[0] != 2 * m + k:
        raise ValidationError(f"expected {2 * m + k} sampled rows, got {rows.shape}")
    _, _, coeffs = normal_stencil(omega_partition)
    a_mat = rows[2 * m:][omega_partition.gamma_mask]
    b_mat = np.zeros((m, rows.shape[1]))
    for c, block in zip(coeffs, (a_mat, rows[:m], rows[m:2 * m])):
        b_mat += c * block

    # Penalty from traces on the inner boundary: the circulant C has the
    # eigenvalue 1 + (sin t / h)^2 + (4 sin^2(t/2) / h^2)^2 on the Fourier
    # mode t of the closed walk.
    h = omega_partition.grid.h
    t = 2 * np.pi * np.arange(k // 2 + 1) / k
    root = np.sqrt(h * (1 + (np.sin(t) / h) ** 2 + (4 * np.sin(t / 2) ** 2 / h**2) ** 2))
    f_mat = np.fft.irfft(root[:, None] * np.fft.rfft(rows[2 * m:], axis=0), n=k, axis=0)

    return DiscreteSystem(
        A=a_mat,
        B=b_mat,
        F=f_mat,
        sigma=omega_partition.gamma_sigma.copy(),
        D1=omega_partition.tangential_d1,
        h=h,
    )
