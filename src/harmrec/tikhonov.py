"""Regularized least-squares fit of the boundary density and field rebuild.

The cost is general-form Tikhonov,

    w_f * |A b - f|_graph^2  +  w_g * |B b - g|_l2^2  +  alpha * |F b|^2

with F the assembled factor of the smoothness penalty.  Its data terms are
|M0 b - d|^2 with M0 = [L_f A; L_g B], d = [L_f f; L_g g], L_f sqrt(w_f)
times the triangular factor of [sqrt(sigma); sqrt(sigma) D1] (the graph
norm in 2m rows, not 3m) and L_g = diag(sqrt(w_g sigma)).  The minimum-norm
minimizer comes from the standard form (Eldén, BIT 17, 1977; Hansen,
*Rank-Deficient and Discrete Ill-Posed Problems*, SIAM 1998): one SVD
``F = U S Z^T`` gives coordinates ``z = S Z^T b`` in which the penalty is
``|z|``, and one SVD ``M0 Z S^-1 = P s W^T`` turns every fit into the
filter factors s / (s^2 + alpha): ``b = Z S^-1 W diag(s / (s^2 + alpha))
P^T d``.  Neither the normal equations nor F^T F is formed.  An assembled
data block is blind to null(F), like the penalty; if a hand-built one sees
it, that part is fitted by least squares and projected out first, as
Eldén does.  The pair depends only on the system and the data weights, so
it is built once and kept on the system: a noise sweep costs one
factorisation, then per level two small products with one column per data
set.  The condition estimate reported is that of ``[M0 Z S^-1;
sqrt(alpha) I]``, and the penalty norm of a fit is ``|F b|``.

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

    The fit reads the penalty through this function, which the benchmark's
    span counters also call.
    """
    return sys.F


def _batch(sys: DiscreteSystem, datas: list[CauchyData],
           cfg: TikhonovConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Alpha and the (m, k) data matrices f, g of a batch of k data sets.

    The a-priori rule makes alpha a function of the noise level, so a batch
    must share one level to share one filter.
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


def _channel_weights(sys: DiscreteSystem, weights: tuple[float, float]) -> list:
    """(channel, L) for the f (0) and g (1) channels of nonzero weight, L the
    (m, m) matrix with |L r| the channel's weighted norm of a residual r:
    for f, sqrt(w_f) times the graph norm, as the triangular factor of
    [sqrt(sigma); sqrt(sigma) D1] (no Gram matrix formed); for g,
    sqrt(w_g) times the sigma-weighted norm."""
    w_f, w_g = weights
    s12 = np.sqrt(sys.sigma)
    out = []
    if w_f > 0:
        graph = np.linalg.qr(np.vstack([np.diag(s12), s12[:, None] * sys.D1]), mode="r")
        out.append((0, np.sqrt(w_f) * graph))
    if w_g > 0:
        out.append((1, np.diag(np.sqrt(w_g) * s12)))
    return out


@dataclass(frozen=True)
class _StandardForm:
    """The cost of one system and one pair of data weights, factored for
    every alpha.  For the stacked data fg = [f; g] of k data sets,
    ``b = to_b @ (s / (s^2 + alpha) * (p_t @ fg)) + null_fit @ fg``."""

    p_t: np.ndarray  # (q, 2m) left singular vectors of M, transposed, on [f; g]
    s: np.ndarray  # (q,) singular values of M, descending
    to_b: np.ndarray  # (n, q) coefficients of the right singular vectors of M
    null_fit: np.ndarray | None  # (n, 2m) least-squares fit on null(F), if seen
    rank: int  # rank of F

    def solve(self, f: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
        """(k, n) minimum-norm minimizers for the (m, k) data f and g."""
        fg = np.vstack([f, g])
        b = self.to_b @ ((self.s / (self.s * self.s + alpha))[:, None] * (self.p_t @ fg))
        return (b if self.null_fit is None else b + self.null_fit @ fg).T

    def condition(self, alpha: float) -> float:
        """Condition number of [M; sqrt(alpha) I]: its smallest singular
        value is sqrt(alpha) when M has fewer than rank-F of its own."""
        s = np.zeros(max(self.rank, 1))
        s[:self.s.size] = self.s
        return float(np.sqrt((s[0] ** 2 + alpha) / (s[-1] ** 2 + alpha)))


def _standard_form(sys: DiscreteSystem, weights: tuple[float, float]) -> _StandardForm:
    """Factor the system for the data weights once; later calls reuse it."""
    if weights in sys._fits:
        return sys._fits[weights]
    eps = np.finfo(float).eps
    channels = _channel_weights(sys, weights)
    m0 = np.vstack([lc @ (sys.A, sys.B)[c] for c, lc in channels])  # the data block

    def on_fg(x):  # x (., rows) acting on the data rows, as (., 2m) acting on [f; g]
        out = np.zeros((len(x), 2 * sys.m))
        for i, (c, lc) in enumerate(channels):
            out[:, c * sys.m:(c + 1) * sys.m] = x[:, i * sys.m:(i + 1) * sys.m] @ lc
        return out

    factor = _penalty_factor(sys)
    try:
        _, sf, zt = np.linalg.svd(factor, full_matrices=False)
        rank = int((sf > max(factor.shape) * eps * sf[0]).sum())
        zt, sf = zt[:rank], sf[:rank]
        m_z = m0 @ zt.T
        m_bar = m_z / sf  # M0 Z S^-1
        # The data block on null(F).  For an assembled system it is what
        # rounding leaks into the computed null(F), bounded by the SVD's
        # error over F's smallest kept singular value (Wedin), times |M0|.
        # Above that, fit this part by least squares (its pseudo-inverse
        # maps into null(F)) and project its range out of the standard form.
        seen = m0 - m_z @ zt
        tol = max(m0.shape) * eps * np.linalg.norm(m0) * (sf[0] / sf[-1] if rank else 1.0)
        null_fit = None
        if np.linalg.norm(seen) > tol:
            uw, sw, vwt = np.linalg.svd(seen, full_matrices=False)
            keep = sw > tol
            q = uw[:, keep]
            null_fit = (vwt[keep].T / sw[keep]) @ q.T
            m_bar -= q @ (q.T @ m_bar)
        p, s, wt = np.linalg.svd(m_bar, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"factorising the fit failed: {exc}") from exc
    to_b = zt.T @ (wt.T / sf[:, None])  # b = Z S^-1 z for z = W (filtered data)
    if null_fit is not None:  # b's null(F) part fits the data b's other part leaves
        to_b -= null_fit @ (m0 @ to_b)
        null_fit = on_fg(null_fit)
    fit = _StandardForm(p_t=on_fg(p.T), s=s, to_b=to_b, null_fit=null_fit, rank=rank)
    sys._fits[weights] = fit
    return fit


def minimize(sys: DiscreteSystem, data: CauchyData, cfg: TikhonovConfig) -> np.ndarray:
    """Coefficient vector minimizing the regularized cost.

    The a-priori alpha rule is resolved with the data's configured noise
    level (the realized graph-norm error grows like level/h and would
    over-regularize) and the system's grid spacing.
    """
    alpha, f, g = _batch(sys, [data], cfg)
    return _standard_form(sys, cfg.data_weights).solve(f, g, alpha)[0]


@dataclass(frozen=True)
class ReconstructionResult:
    b: np.ndarray = field(repr=False)
    u_star: ScalarField
    residual_f: float
    residual_g: float
    reg_norm: float
    alpha_used: float
    condition_estimate: float
    effective_rank: int

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
    fit = _standard_form(sys, cfg.data_weights)
    b = fit.solve(f, g, alpha)
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
            condition_estimate=fit.condition(alpha),
            effective_rank=fit.rank,
        )
        for k in range(len(datas))
    ]
