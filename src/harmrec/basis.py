"""Boundary bases on the enlarged rectangle, base solutions, and assembly.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the enlarged rectangle whose Dirichlet data are the boundary basis
functions.  Two basis kinds:

* ``hat`` — piecewise-linear nodal functions in arc length, one per boundary
  node of the enlarged grid.  Sampled at the grid's boundary nodes a hat is
  a unit vector, so its base solution takes data 1 at one node, 0 elsewhere.
* ``indicator`` — characteristic functions of a disjoint cover of the
  boundary by contiguous arcs (``arcs_per_side`` arcs per geometric side).

Assembly evaluates every base solution on the measurement arc: values, and
second-order one-sided outward normal differences.  It builds the smoothness
penalty from the traces on the *inner* rectangle's boundary, treated as a
closed polyline with arc-length spacing h: the squared penalty norm of a
trace v is ``sum h*(v^2 + (D1 v)^2 + (D2 v)^2)`` with circulant central
differences (corner nodes included, no smoothing).  The penalty is held as
its factor ``F = sqrt(h) [V; D1 V; D2 V]``, V the traces of the base
solutions, so that the penalty norm of coefficients b is ``|F b|`` and the
fit never forms the squared matrix ``F^T F``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import (SIDES, BoundaryPartition, Grid2D, Rect, _boundary_walk, boundary_partition,
                   build_grid)
from .poisson import normal_stencil, solve_dirichlet, solve_interior

# Right-hand sides per batched direct solve: bounds the transform work space.
CHUNK = 32


@dataclass(frozen=True)
class BoundaryBasis:
    """Basis functions on the boundary of the enlarged grid."""

    tilde_grid: Grid2D
    tilde_partition: BoundaryPartition = field(repr=False)
    kind: str
    support: np.ndarray = field(repr=False)  # (n, 2) contiguous walk-index ranges

    def __post_init__(self):
        self.support.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.support)

    def boundary_values(self, k: int) -> np.ndarray:
        """Data of basis function k sampled at the boundary walk nodes."""
        v = np.zeros(self.tilde_partition.n_boundary)
        lo, hi = self.support[k]
        v[lo:hi] = 1.0
        return v


def build_basis(tilde_rect: Rect, h: float, kind: str = "hat", *,
                omega_rect: Rect, arcs_per_side: int = 1) -> BoundaryBasis:
    """Build the boundary basis on the enlarged rectangle.

    The enlarged rectangle must strictly contain ``omega_rect`` and both
    must live on the same h-lattice (checked again at assembly).
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
        k = part.n_boundary
        support = np.column_stack([np.arange(k), np.arange(k) + 1])
    else:
        if arcs_per_side < 1:
            raise ValidationError("arcs_per_side must be at least 1")
        # a side's arcs cover the end nodes of its walk segments; the walk
        # start, where the left side ends, goes with the bottom side
        _, seg_side = _boundary_walk(grid.nx, grid.ny)
        ends = np.r_[0, np.searchsorted(seg_side, [1, 2, 3]) + 1, part.n_boundary]
        support_list = []
        for start, stop in zip(ends[:-1], ends[1:]):
            splits = np.linspace(start, stop, arcs_per_side + 1).round().astype(int)
            for a, b in zip(splits[:-1], splits[1:]):
                if b > a:
                    support_list.append((a, b))
        support = np.array(support_list, dtype=np.int64)
    return BoundaryBasis(tilde_grid=grid, tilde_partition=part, kind=kind,
                         support=support)


@dataclass(frozen=True)
class BaseSolutionSet:
    """Solved harmonic fields, one per basis function, stacked (n, ny, nx)."""

    basis: BoundaryBasis
    fields: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.fields.setflags(write=False)

    @property
    def n(self) -> int:
        return self.basis.n


def compute_base_solutions(basis: BoundaryBasis, tol: float = 1e-10,
                           method: str = "direct") -> BaseSolutionSet:
    """Solve the Dirichlet problem for every basis function.

    ``direct`` writes all boundary data into the stack at once and solves
    it ``CHUNK`` right-hand sides per batched transform.  ``cg`` solves one
    at a time; its failures carry the basis index.
    """
    grid, part = basis.tilde_grid, basis.tilde_partition
    n = basis.n
    if method == "direct":
        walk = np.arange(part.n_boundary)
        lo, hi = basis.support[:, :1], basis.support[:, 1:]
        stack = np.zeros((n,) + grid.shape)
        stack[:, part.nodes[:, 1], part.nodes[:, 0]] = (walk >= lo) & (walk < hi)
        for start in range(0, n, CHUNK):
            solve_interior(stack[start:start + CHUNK])
    else:
        fields = []
        for k in range(n):
            try:
                fld = solve_dirichlet(grid, part, basis.boundary_values(k),
                                      tol=tol, method=method)
            except Exception as exc:
                raise type(exc)(f"base solution {k}: {exc}") from exc
            fields.append(fld.values)
        stack = np.stack(fields)
    return BaseSolutionSet(basis=basis, fields=stack)


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

    A basis function whose column is zero in A, B and F alike is invisible
    to the cost (this happens for hat functions at the four grid corners of
    the enlarged boundary: a corner Dirichlet value couples to no interior
    equation).  The minimizer routine returns exactly zero for such
    coefficients.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    h: float

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


def assemble_system(base_set: BaseSolutionSet,
                    omega_partition: BoundaryPartition) -> DiscreteSystem:
    """Evaluate base solutions on Γ and build the penalty factor."""
    omega = omega_partition.grid
    tilde = base_set.basis.tilde_grid
    oi, oj = _lattice_offsets(tilde, omega)
    fields = base_set.fields  # (n, ny_t, nx_t)

    gi = omega_partition.gamma_nodes[:, 0] + oi
    gj = omega_partition.gamma_nodes[:, 1] + oj
    a_mat = fields[:, gj, gi].T.copy()  # (m, n)

    ii, jj, coeffs = normal_stencil(omega_partition)
    b_mat = np.zeros_like(a_mat)
    for p, c in enumerate(coeffs):
        b_mat += c * fields[:, jj[:, p] + oj, ii[:, p] + oi].T

    # Penalty from traces on the inner boundary, closed-polyline differences.
    walk = omega_partition.nodes
    v_tr = fields[:, walk[:, 1] + oj, walk[:, 0] + oi].T  # (K, n)
    h = omega.h
    d1 = (np.roll(v_tr, -1, axis=0) - np.roll(v_tr, 1, axis=0)) / (2 * h)
    d2 = (np.roll(v_tr, -1, axis=0) - 2 * v_tr + np.roll(v_tr, 1, axis=0)) / (h * h)

    return DiscreteSystem(
        A=a_mat,
        B=b_mat,
        F=np.sqrt(h) * np.vstack([v_tr, d1, d2]),
        sigma=omega_partition.gamma_sigma.copy(),
        D1=omega_partition.tangential_d1,
        h=h,
    )
