"""The fit's system, its regularized least-squares fit, and field rebuild.

The unknowns are the K traces w of the reconstruction on the domain's
boundary walk.  Every row the fit reads (the Γ values, the two inward
normal-stencil nodes of each Γ node) lies in the closed domain, where the
reconstruction is the harmonic extension of w, so :func:`assemble_system`
builds A and B on w from the partition alone: no hat basis enters the fit
(the hat coefficients of ``b.csv`` are :mod:`basis`'s).  The cost is
general-form Tikhonov,

    w_f * |A w - f|_graph^2  +  w_g * |B w - g|_l2^2  +  alpha * |L w|^2

with ``L = sqrt(h) C^(1/2)`` the factor of the smoothness penalty
``h (|w|^2 + |D1 w|^2 + |D2 w|^2)``, D1 and D2 circulant central differences
along the closed walk.  L is circulant with eigenvalues at least sqrt(h), so
it is invertible and applied, either way, by one rfft/irfft pair.  The data
terms are |M0 w - d|^2 with M0 = [L_f A; L_g B], d = [L_f f; L_g g], L_f
sqrt(w_f) times the triangular factor of [sqrt(sigma); sqrt(sigma) D1] (the
graph norm in 2m rows, not 3m) and L_g = diag(sqrt(w_g sigma)).  In the
standard form (Eldén, BIT 17, 1977; Hansen, *Rank-Deficient and Discrete
Ill-Posed Problems*, SIAM 1998) y = L w, the penalty is |y|, and one SVD
``M0 L^-1 = P s W^T`` turns every fit into the filter factors
s / (s^2 + alpha): ``w = L^-1 W diag(s / (s^2 + alpha)) P^T d``, whose
penalty norm is |diag(s / (s^2 + alpha)) P^T d|.  Neither the normal
equations nor L^T L is formed.  The pair depends only on the system and the
data weights, so it is built once and kept on the system: a noise sweep
costs one factorisation, then per level two small products with one column
per data set.  The condition estimate reported is that of
``[M0 L^-1; sqrt(alpha) I]``, and a fit's field is the harmonic extension of
w on the domain's grid, one :func:`poisson.solve_dirichlet` for a batch.

The a-priori regularization weight follows alpha = c * (eps^2 + h^2): the
basis truncation term of the full rule is not observable, so it is dropped
and compensated by tying the basis size to h in the presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .forward import CauchyData
from .grid import BoundaryPartition, Grid2D, graph_norm
from .poisson import ScalarField, normal_stencil, rim_extension, solve_dirichlet


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled measurement operators on the domain's rim traces w.

    A      (m, K) the Γ rows of the identity: w's values at the Γ nodes.
    B      (m, K) outward normal differences at the Γ nodes of w's harmonic
           extension on the domain.
    sigma  (m,) Γ quadrature weights.
    D1     (m, m) tangential difference operator on Γ.
    h      grid spacing.
    grid   the domain grid whose boundary walk w follows, the one the fit's
           fields live on.  Only :func:`assemble_system` sets it; a
           hand-built system has none, so it can be fitted but not turned
           into a field.

    The fit's factorisation of the system, one per pair of data weights, is
    kept in the private ``_fits``.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    D1: np.ndarray = field(repr=False)
    h: float
    grid: Grid2D | None = field(default=None, init=False)
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, k = self.A.shape if self.A.ndim == 2 else (0, 0)
        for name, shape in (("A", (m, k)), ("B", (m, k)), ("sigma", (m,)), ("D1", (m, m))):
            arr = getattr(self, name)
            if arr.shape != shape or not m * k:
                raise ValidationError(
                    f"{name} has shape {arr.shape}, but a system needs A and B "
                    "m x K, sigma (m,) and D1 m x m, none of them empty")
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]


def assemble_system(partition: BoundaryPartition) -> DiscreteSystem:
    """Build A and B on the partition's own grid.  B is the one-sided normal
    difference of the harmonic extension, whose two inward stencil nodes may
    lie on the rim (a Γ corner's steps run along the next side)."""
    m, k = partition.m, partition.n_boundary
    ii, jj, coeffs = normal_stencil(partition)
    steps = rim_extension(partition, ii[:, 1:].T.ravel(), jj[:, 1:].T.ravel())
    a_mat = np.zeros((m, k))
    a_mat[np.arange(m), np.flatnonzero(partition.gamma_mask)] = 1.0
    b_mat = np.zeros((m, k))
    for c, block in zip(coeffs, (a_mat, steps[:m], steps[m:])):
        b_mat += c * block
    system = DiscreteSystem(A=a_mat, B=b_mat, sigma=partition.gamma_sigma.copy(),
                            D1=partition.tangential_d1, h=partition.grid.h)
    object.__setattr__(system, "grid", partition.grid)
    return system


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
    """(K,) eigenvalues of the circulant penalty factor L on the walk's modes
    t = 2 pi j / K: ``sqrt(h (1 + (sin t / h)^2 + (4 sin^2(t/2) / h^2)^2))``,
    the roots of those of C.

    The fit reads the penalty through this function, which the benchmark's
    span counters also call.
    """
    k, h = sys.A.shape[1], sys.h
    t = 2 * np.pi * np.arange(k) / k
    return np.sqrt(h * (1 + (np.sin(t) / h) ** 2 + (4 * np.sin(t / 2) ** 2 / h**2) ** 2))


def _solve_penalty(root: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^-1 x for the (K, c) columns x, L the circulant with eigenvalues root."""
    k = len(root)
    return np.fft.irfft(np.fft.rfft(x, axis=0) / root[:k // 2 + 1, None], n=k, axis=0)


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


def _channel_weights(sys: DiscreteSystem,
                     weights: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(L_f, L_g), the (m, m) matrices with |L r| a channel's weighted norm
    of a residual r: for f, sqrt(w_f) times the graph norm, as the
    triangular factor of [sqrt(sigma); sqrt(sigma) D1] (no Gram matrix
    formed); for g, sqrt(w_g) times the sigma-weighted norm.  A zero weight
    gives a zero matrix, which cancels its channel's rows in the fit."""
    w_f, w_g = weights
    s12 = np.sqrt(sys.sigma)
    graph = np.linalg.qr(np.vstack([np.diag(s12), s12[:, None] * sys.D1]), mode="r")
    return np.sqrt(w_f) * graph, np.diag(np.sqrt(w_g) * s12)


@dataclass(frozen=True)
class _StandardForm:
    """The cost of one system and one pair of data weights, factored for
    every alpha.  For the stacked data fg = [f; g] of k data sets, the
    filtered coordinates are ``z = s / (s^2 + alpha) * (p_t @ fg)``, the
    traces ``w = to_w @ z`` and the penalty norms |z|."""

    p_t: np.ndarray  # (q, 2m) left singular vectors of M, transposed, on [f; g]
    s: np.ndarray  # (q,) singular values of M, descending
    to_w: np.ndarray  # (K, q) L^-1 applied to the right singular vectors of M

    def solve(self, f: np.ndarray, g: np.ndarray,
              alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(k, K) minimizers and their (k,) penalty norms for the (m, k) data
        f and g."""
        z = (self.s / (self.s * self.s + alpha))[:, None] * (self.p_t @ np.vstack([f, g]))
        return (self.to_w @ z).T, np.linalg.norm(z, axis=0)

    def condition(self, alpha: float) -> float:
        """Condition number of [M; sqrt(alpha) I]: its smallest singular
        value is sqrt(alpha) when M has fewer than K of its own."""
        s_min = self.s[-1] if self.s.size == self.to_w.shape[0] else 0.0
        return float(np.sqrt((self.s[0] ** 2 + alpha) / (s_min ** 2 + alpha)))


def _standard_form(sys: DiscreteSystem, weights: tuple[float, float]) -> _StandardForm:
    """Factor the system for the data weights once; later calls reuse it."""
    if weights in sys._fits:
        return sys._fits[weights]
    lf, lg = _channel_weights(sys, weights)
    m0 = np.vstack([lf @ sys.A, lg @ sys.B])  # the data block
    root = _penalty_factor(sys)
    try:
        p, s, wt = np.linalg.svd(_solve_penalty(root, m0.T).T, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"factorising the fit failed: {exc}") from exc
    p_t = np.hstack([p.T[:, :sys.m] @ lf, p.T[:, sys.m:] @ lg])  # P^T on [f; g]
    fit = _StandardForm(p_t=p_t, s=s, to_w=_solve_penalty(root, wt.T))
    sys._fits[weights] = fit
    return fit


def minimize(sys: DiscreteSystem, data: CauchyData, cfg: TikhonovConfig) -> np.ndarray:
    """The (K,) traces minimizing the regularized cost.

    The a-priori alpha rule is resolved with the data's configured noise
    level (the realized graph-norm error grows like level/h and would
    over-regularize) and the system's grid spacing.
    """
    alpha, f, g = _batch(sys, [data], cfg)
    w, _ = _standard_form(sys, cfg.data_weights).solve(f, g, alpha)
    return w[0]


@dataclass(frozen=True)
class ReconstructionResult:
    w: np.ndarray = field(repr=False)  # (K,) fitted traces on the boundary walk
    u_star: ScalarField
    residual_f: float
    residual_g: float
    reg_norm: float
    alpha_used: float
    condition_estimate: float

    def __post_init__(self):
        self.w.setflags(write=False)


def reconstruct_field(w: np.ndarray, sys: DiscreteSystem) -> ScalarField | list[ScalarField]:
    """The harmonic field on the system's grid whose rim data, in walk order,
    are the traces w, one batched solve for all.  ``w`` (K,) gives one field,
    (k, K) a list of k.
    """
    if sys.grid is None:
        raise ValidationError("a system without a grid has no field to rebuild")
    return solve_dirichlet(sys.grid, w)


def reconstruct(sys: DiscreteSystem, datas: list[CauchyData],
                cfg: TikhonovConfig) -> list[ReconstructionResult]:
    """Full solve for data sets sharing one noise level: per data set the
    traces, the field on the system's grid, and the fit diagnostics."""
    alpha, f, g = _batch(sys, datas, cfg)
    fit = _standard_form(sys, cfg.data_weights)
    w, reg = fit.solve(f, g, alpha)
    u_stars = reconstruct_field(w, sys)
    # Graph norm of the f residual and quadrature norm of the g residual,
    # one column per data set.
    r_g = sys.B @ w.T - g
    res_f = graph_norm(sys.sigma, sys.D1, sys.A @ w.T - f)
    res_g = np.sqrt(sys.sigma @ (r_g * r_g))
    return [
        ReconstructionResult(
            w=w[k],
            u_star=u_stars[k],
            residual_f=float(res_f[k]),
            residual_g=float(res_g[k]),
            reg_norm=float(reg[k]),
            alpha_used=alpha,
            condition_estimate=fit.condition(alpha),
        )
        for k in range(len(datas))
    ]
