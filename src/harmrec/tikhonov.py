"""Regularized least-squares fit of the boundary density and field rebuild.

The cost is general-form Tikhonov,

    w_f * |A b - f|_graph^2  +  w_g * |B b - g|_l2^2  +  alpha * |F b|^2

with the graph norm carrying the Γ quadrature weights and the tangential
difference operator, and F the assembled factor of the smoothness penalty.
The minimizer is obtained from one stacked weighted least-squares problem,
with the block sqrt(alpha) F under the data blocks, via orthogonal
factorization (SVD).  Neither the normal equations nor the penalty's Gram
matrix F^T F is formed: either would square the conditioning, and the
column space is nearly degenerate by the nature of the problem (Eldén,
BIT 17, 1977).  The stacked condition number is reported alongside the
solution, and the penalty norm of a fit as |F b|.

The stacked matrix depends on the data only through alpha, and alpha only
through the noise level, so ``reconstruct`` fits a batch of data sets that
share one noise level with a single SVD least-squares solve whose
right-hand side is a matrix, one column per data set.  A noise sweep costs
one solve per level, whatever the number of seeds.

The a-priori regularization weight follows alpha = c * (eps^2 + h^2): the
basis truncation term of the full rule is not observable, so it is dropped
and compensated by tying the basis size to h in the presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BoundaryBasis, DiscreteSystem, _lattice_offsets
from .errors import SolverError, ValidationError
from .forward import CauchyData
from .grid import Grid2D, graph_norm
from .poisson import ScalarField, solve_interior


def select_alpha(eps: float, h: float, rule: str = "a_priori",
                 c: float = 1.0, fixed: float | None = None) -> float:
    """Resolve the regularization weight.

    rule "a_priori": alpha = c * (eps^2 + h^2); rule "fixed": passthrough of
    ``fixed``.  The resolved value must be positive.
    """
    if rule == "a_priori":
        if eps < 0 or h <= 0:
            raise ValidationError(f"need eps >= 0 and h > 0, got eps={eps}, h={h}")
        alpha = c * (eps * eps + h * h)
    elif rule == "fixed":
        if fixed is None:
            raise ValidationError("rule 'fixed' needs an explicit alpha value")
        alpha = float(fixed)
    else:
        raise ValidationError(f"unknown alpha rule {rule!r}")
    if alpha <= 0:
        raise ValidationError(f"resolved alpha must be positive, got {alpha}")
    return alpha


@dataclass(frozen=True)
class TikhonovConfig:
    alpha_rule: str = "a_priori"
    alpha_c: float = 1.0
    alpha_fixed: float | None = None
    data_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        w_f, w_g = self.data_weights
        if w_f < 0 or w_g < 0 or (w_f == 0 and w_g == 0):
            raise ValidationError(
                f"data weights must be nonnegative and not both zero, got {self.data_weights}"
            )

    def resolve_alpha(self, eps: float, h: float) -> float:
        return select_alpha(eps, h, rule=self.alpha_rule, c=self.alpha_c,
                            fixed=self.alpha_fixed)


def _penalty_factor(sys: DiscreteSystem) -> np.ndarray:
    """Matrix F with |F b| the penalty norm of coefficients b.

    The penalty block of the stacked matrix is read through this function,
    which the benchmark's span counters call to size the stack.
    """
    return sys.F


def _batch(sys: DiscreteSystem, datas: list[CauchyData],
           cfg: TikhonovConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Alpha and the (m, k) data matrices f, g of a batch of k data sets.

    The a-priori rule makes alpha a function of the noise level, so a batch
    must share one level to share the stacked matrix.
    """
    if not datas:
        raise ValidationError("need at least one data set to fit")
    levels = {data.noise_level for data in datas}
    if len(levels) > 1:
        raise ValidationError(
            f"a batched fit needs one noise level, got {sorted(levels)}"
        )
    for data in datas:
        if len(data.f) != sys.m:
            raise ValidationError(
                f"data has {len(data.f)} measurement points, system expects {sys.m}"
            )
    f = np.column_stack([data.f for data in datas])
    g = np.column_stack([data.g for data in datas])
    return cfg.resolve_alpha(datas[0].noise_level, sys.h), f, g


def _stacked_solve(sys: DiscreteSystem, f: np.ndarray, g: np.ndarray,
                   cfg: TikhonovConfig, alpha: float) -> tuple[np.ndarray, float]:
    """(k, n) minimizers for the k data columns of f and g, and the stacked
    condition number."""
    w_f, w_g = cfg.data_weights
    s12 = np.sqrt(sys.sigma)[:, None]
    blocks, rhs = [], []
    if w_f > 0:
        wf = np.sqrt(w_f)
        blocks.append(wf * s12 * sys.A)
        rhs.append(wf * s12 * f)
        blocks.append(wf * s12 * (sys.D1 @ sys.A))
        rhs.append(wf * s12 * (sys.D1 @ f))
    if w_g > 0:
        wg = np.sqrt(w_g)
        blocks.append(wg * s12 * sys.B)
        rhs.append(wg * s12 * g)
    factor = _penalty_factor(sys)
    blocks.append(np.sqrt(alpha) * factor)
    rhs.append(np.zeros((factor.shape[0], f.shape[1])))
    m_stack = np.vstack(blocks)
    d_stack = np.vstack(rhs)

    # Coefficients the cost cannot see (all-zero columns) are pinned to 0;
    # the reduced problem is solved by SVD-based least squares, which under
    # residual numerical rank deficiency returns the minimum-norm minimizer.
    visible = np.abs(m_stack).max(axis=0) > 0.0
    b = np.zeros((f.shape[1], sys.n))
    if not visible.any():
        return b, float("inf")
    try:
        b_vis, _, _, svals = np.linalg.lstsq(m_stack[:, visible], d_stack,
                                             rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"least-squares solve failed: {exc}") from exc
    b[:, visible] = b_vis.T
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    return b, cond


def minimize(sys: DiscreteSystem, data: CauchyData, cfg: TikhonovConfig) -> np.ndarray:
    """Coefficient vector minimizing the regularized cost.

    The a-priori alpha rule is resolved with the data's configured noise
    level (the realized graph-norm error grows like level/h and would
    over-regularize) and the system's grid spacing.
    """
    alpha, f, g = _batch(sys, [data], cfg)
    b, _ = _stacked_solve(sys, f, g, cfg, alpha)
    return b[0]


@dataclass(frozen=True)
class ReconstructionResult:
    b: np.ndarray = field(repr=False)
    u_star: ScalarField
    residual_f: float
    residual_g: float
    reg_norm: float
    alpha_used: float
    condition_estimate: float

    def __post_init__(self):
        self.b.setflags(write=False)


def reconstruct_field(b: np.ndarray, basis: BoundaryBasis,
                      omega_grid: Grid2D) -> ScalarField | list[ScalarField]:
    """Combine base solutions with coefficients, restricted to the grid: the
    harmonic field whose rim data are the combined basis functions, one
    batched solve for all.  ``b`` (n,) gives one field, (k, n) a list of k.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (basis.n,) or b.ndim > 2:
        raise ValidationError(f"expected {basis.n} coefficients, got {b.shape}")
    oi, oj = _lattice_offsets(basis.tilde_grid, omega_grid)
    rim = np.repeat(np.atleast_2d(b), np.diff(basis.support).ravel(), axis=1)
    u = np.zeros(rim.shape[:1] + basis.tilde_grid.shape)
    walk = basis.tilde_partition.nodes
    u[:, walk[:, 1], walk[:, 0]] = rim
    solve_interior(u)
    values = u[:, oj:oj + omega_grid.ny, oi:oi + omega_grid.nx]
    out = [ScalarField(grid=omega_grid, values=v) for v in values]
    return out[0] if b.ndim == 1 else out


def reconstruct(sys: DiscreteSystem, datas: list[CauchyData], cfg: TikhonovConfig,
                basis: BoundaryBasis,
                omega_grid: Grid2D) -> list[ReconstructionResult]:
    """Full solve for data sets sharing one noise level: per data set the
    coefficients, the field on the grid, and the fit diagnostics."""
    alpha, f, g = _batch(sys, datas, cfg)
    b, cond = _stacked_solve(sys, f, g, cfg, alpha)
    u_stars = reconstruct_field(b, basis, omega_grid)
    # Graph norm of the f residual and quadrature norm of the g residual,
    # one column per data set.
    r_g = sys.B @ b.T - g
    res_f = graph_norm(sys.sigma, sys.D1, sys.A @ b.T - f)
    res_g = np.sqrt(sys.sigma @ (r_g * r_g))
    reg = np.linalg.norm(sys.F @ b.T, axis=0)
    return [
        ReconstructionResult(
            b=b[k],
            u_star=u_stars[k],
            residual_f=float(res_f[k]),
            residual_g=float(res_g[k]),
            reg_norm=float(reg[k]),
            alpha_used=alpha,
            condition_estimate=cond,
        )
        for k in range(len(datas))
    ]
