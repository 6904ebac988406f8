"""Boundary bases on the enlarged rectangle, base solutions, and assembly.

A candidate reconstruction is a combination of *base solutions*: harmonic
fields on the enlarged rectangle whose Dirichlet data are the boundary basis
functions.  Two basis kinds:

* ``hat`` — piecewise-linear nodal functions in arc length, one per boundary
  node of the enlarged grid.  Sampled at the grid's boundary nodes a hat is
  a unit vector, so its base solution takes data 1 at one node, 0 elsewhere.
* ``indicator`` — characteristic functions of a disjoint cover of the
  boundary by contiguous arcs (``arcs_per_side`` arcs per geometric side).

Assembly evaluates every base solution on the measurement arc (values and
outward normal differences) and builds the smoothness penalty from the
traces on the *inner* rectangle's boundary, treated as a closed polyline
with arc-length spacing h: the squared penalty norm of a trace v is
``sum h*(v^2 + (D1 v)^2 + (D2 v)^2)`` with circulant central differences
(corner nodes included, no smoothing).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import SIDES, BoundaryPartition, Grid2D, Rect, boundary_partition, build_grid
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
        support_list = []
        pos = 0
        run_lengths = [grid.nx, grid.ny - 1, grid.nx - 1, grid.ny - 2]
        for length in run_lengths:
            splits = np.linspace(pos, pos + length, arcs_per_side + 1).round().astype(int)
            for a, b in zip(splits[:-1], splits[1:]):
                if b > a:
                    support_list.append((a, b))
            pos += length
        support = np.array(support_list, dtype=np.int64)
    return BoundaryBasis(tilde_grid=grid, tilde_partition=part, kind=kind,
                         support=support)


@dataclass(frozen=True)
class BaseSolutionSet:
    """Solved harmonic fields, one per basis function, stacked (n, ny, nx)."""

    basis: BoundaryBasis
    fields: np.ndarray = field(repr=False)
    solver_tol: float = 1e-10
    method: str = "direct"

    def __post_init__(self):
        self.fields.setflags(write=False)

    @property
    def n(self) -> int:
        return self.basis.n


def compute_base_solutions(basis: BoundaryBasis, tol: float = 1e-10,
                           method: str = "direct", backend: str | None = None,
                           threads: int = 1) -> BaseSolutionSet:
    """Solve the Dirichlet problem for every basis function.

    ``direct`` writes all boundary data into the stack at once and solves
    it ``CHUNK`` right-hand sides per batched transform.  ``cg`` solves one
    at a time; ``threads`` > 1 runs those on a thread pool (the CG kernel
    releases the GIL).  CG failures carry the basis index.
    """
    grid, part = basis.tilde_grid, basis.tilde_partition
    n = basis.n

    def solve_one(k: int) -> np.ndarray:
        try:
            fld = solve_dirichlet(grid, part, basis.boundary_values(k),
                                  tol=tol, method=method, backend=backend)
        except Exception as exc:
            raise type(exc)(f"base solution {k}: {exc}") from exc
        return fld.values

    if method == "direct":
        walk = np.arange(part.n_boundary)
        lo, hi = basis.support[:, :1], basis.support[:, 1:]
        stack = np.zeros((n,) + grid.shape)
        stack[:, part.nodes[:, 1], part.nodes[:, 0]] = (walk >= lo) & (walk < hi)
        for start in range(0, n, CHUNK):
            solve_interior(stack[start:start + CHUNK])
    elif threads > 1 and n > 1:
        first = solve_one(0)  # warm the kernel once before fanning out
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rest = list(pool.map(solve_one, range(1, n)))
        stack = np.stack([first] + rest)
    else:
        stack = np.stack([solve_one(k) for k in range(n)])
    return BaseSolutionSet(basis=basis, fields=stack, solver_tol=tol, method=method)


def tangential_d1(partition: BoundaryPartition) -> np.ndarray:
    """First-difference operator along Γ, (m, m).

    Central differences inside each contiguous Γ run, one-sided at run
    endpoints, zero for an isolated node.  Arc-length spacing is h
    everywhere, including across corners inside a run.
    """
    m, h = partition.m, partition.grid.h
    d1 = np.zeros((m, m))
    for run in partition.gamma_runs():
        if len(run) < 2:
            continue
        for pos, row in enumerate(run):
            if pos == 0:
                d1[row, run[1]] += 1.0 / h
                d1[row, run[0]] -= 1.0 / h
            elif pos == len(run) - 1:
                d1[row, run[-1]] += 1.0 / h
                d1[row, run[-2]] -= 1.0 / h
            else:
                d1[row, run[pos + 1]] += 0.5 / h
                d1[row, run[pos - 1]] -= 0.5 / h
    return d1


def discrete_norms(values: np.ndarray, partition: BoundaryPartition,
                   g: np.ndarray | None = None) -> tuple[float, float]:
    """(graph norm of ``values``, quadrature norm) over Γ.

    The first component is ``sqrt(sum σ v² + sum σ (D1 v)²)`` with the
    Γ-restricted trapezoid weights; the second is the plain weighted l2 norm
    of ``g`` when given, else of ``values``.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (partition.m,):
        raise ValidationError(f"expected {partition.m} values on Γ, got {v.shape}")
    w = partition.gamma_sigma
    l2sq_v = float(w @ (v * v))
    dv = tangential_d1(partition) @ v
    h1 = float(np.sqrt(l2sq_v + w @ (dv * dv)))
    if g is None:
        l2 = float(np.sqrt(l2sq_v))
    else:
        gv = np.asarray(g, dtype=float)
        if gv.shape != (partition.m,):
            raise ValidationError(f"expected {partition.m} values on Γ, got {gv.shape}")
        l2 = float(np.sqrt(w @ (gv * gv)))
    return h1, l2


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled measurement and penalty operators.

    A           (m, n) base-solution values at the Γ nodes.
    B           (m, n) outward normal differences at the Γ nodes.
    C           penalty: (n,) per-basis trace norms in "diagonal" mode, or
                the full (n, n) positive-semidefinite Gram matrix in "gram"
                mode.
    sigma       (m,) Γ quadrature weights.
    D1          (m, m) tangential difference operator on Γ.
    reg_factor  optional (k, n) matrix with F^T F = C (gram mode); solving
                with the factor avoids squaring the conditioning through C.

    A basis function whose column is zero in A, B and C alike is invisible
    to the cost (this happens for hat functions at the four grid corners of
    the enlarged boundary: a corner Dirichlet value couples to no interior
    equation).  The minimizer routine returns exactly zero for such
    coefficients.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    reg_mode: str
    h: float
    reg_factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for arr in (self.A, self.B, self.C, self.sigma, self.D1):
            arr.setflags(write=False)
        if self.reg_factor is not None:
            self.reg_factor.setflags(write=False)

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


def assemble_system(base_set: BaseSolutionSet, omega_partition: BoundaryPartition,
                    reg_mode: str = "gram", norm_order: int = 2) -> DiscreteSystem:
    """Evaluate base solutions on Γ and build the penalty operator."""
    if reg_mode not in ("gram", "diagonal"):
        raise ValidationError(f"unknown regularizer mode {reg_mode!r}")
    if norm_order not in (1, 2):
        raise ValidationError(f"difference order must be 1 or 2, got {norm_order}")
    omega = omega_partition.grid
    tilde = base_set.basis.tilde_grid
    oi, oj = _lattice_offsets(tilde, omega)
    fields = base_set.fields  # (n, ny_t, nx_t)

    gi = omega_partition.gamma_nodes[:, 0] + oi
    gj = omega_partition.gamma_nodes[:, 1] + oj
    a_mat = fields[:, gj, gi].T.copy()  # (m, n)

    ii, jj, coeffs = normal_stencil(omega_partition, norm_order)
    b_mat = np.zeros_like(a_mat)
    for p, c in enumerate(coeffs):
        b_mat += c * fields[:, jj[:, p] + oj, ii[:, p] + oi].T

    # Penalty from traces on the inner boundary, closed-polyline differences.
    walk = omega_partition.nodes
    v_tr = fields[:, walk[:, 1] + oj, walk[:, 0] + oi].T  # (K, n)
    h = omega.h
    d1 = (np.roll(v_tr, -1, axis=0) - np.roll(v_tr, 1, axis=0)) / (2 * h)
    d2 = (np.roll(v_tr, -1, axis=0) - 2 * v_tr + np.roll(v_tr, 1, axis=0)) / (h * h)
    factor = None
    if reg_mode == "gram":
        factor = np.sqrt(h) * np.vstack([v_tr, d1, d2])
        c_op = factor.T @ factor
        c_op = 0.5 * (c_op + c_op.T)
    else:
        c_op = np.sqrt(h * ((v_tr**2).sum(axis=0) + (d1**2).sum(axis=0)
                            + (d2**2).sum(axis=0)))

    return DiscreteSystem(
        A=a_mat,
        B=b_mat,
        C=c_op,
        sigma=omega_partition.gamma_sigma.copy(),
        D1=tangential_d1(omega_partition),
        reg_mode=reg_mode,
        h=h,
        reg_factor=factor,
    )
