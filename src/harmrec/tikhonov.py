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
Ill-Posed Problems*, SIAM 1998) y = L w, the penalty is |y|, and the fit of
data d is ``y = (M^T M + alpha I)^-1 M^T d = M^T (M M^T + alpha I)^-1 d``
for the data block ``M = M0 L^-1`` (2m x K).  One eigendecomposition
``G = Q diag(s^2) Q^T`` of M's smaller Gram matrix, ``M M^T`` when 2m <= K
and ``M^T M`` otherwise, factors ``M = left right^T`` in G's
eigen-coordinates, where the fit is diagonal for every alpha.  G carries
rounding of about eps s_1^2, so that diagonal solve is accurate to about
eps s_1^2 / alpha, and each solve refines it on the residual taken through
M itself (corrected seminormal equations, Björck, Linear Algebra Appl.
88/89, 1987) until the fit is as accurate as one from an SVD of M, about
eps s_1 / sqrt(alpha).  Below alpha = 16 eps s_1^2 the refinement cannot be
trusted to contract, and the fit raises
:class:`~harmrec.errors.SolverError`.  The factorisation depends only on
the system and the data weights, so :func:`factor` builds it once as a
:class:`Spectrum` kept on the system: a noise sweep costs one factorisation,
then per level five products with M and its two factors (one refinement
step), with one column per data set.  The Spectrum builds d and M0 with one
member, ``weighted_data``, and applies L^-1 with another, ``penalty_inverse``.
The condition estimate reported is that of ``[M0 L^-1; sqrt(alpha) I]``.
:func:`reconstruct` fits one noise level's batch, the (k, m) f and g of a
:class:`~harmrec.forward.NoisyBatch`, row k of each array data set k; it
reads no grid, so it fits a hand-built system too.
:func:`reconstruct_field` turns (k, K) traces into their (k, ny, nx)
harmonic extensions on the domain's grid, one
:func:`poisson.solve_dirichlet`, into a new array or the caller's.

A fit's settings come from the experiment's
:class:`~harmrec.config.ExperimentConfig`: its ``data_weights`` and its
``alpha(eps, h)``, resolved at the data's configured noise level (the
realized graph-norm error grows like level/h and would over-regularize) and
the system's h.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import SolverError, ValidationError
from .forward import NoisyBatch
from .grid import BoundaryPartition, Grid2D, graph_norm
from .poisson import normal_stencil, rim_extension, solve_dirichlet


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

    :func:`factor` keeps the fit's :class:`Spectrum` of the system, one per
    pair of data weights, on the system.
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
    b_mat = coeffs[0] * a_mat + coeffs[1] * steps[:m] + coeffs[2] * steps[m:]
    system = DiscreteSystem(A=a_mat, B=b_mat, sigma=partition.gamma_sigma.copy(),
                            D1=partition.tangential_d1, h=partition.grid.h)
    object.__setattr__(system, "grid", partition.grid)
    return system


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


# One refinement step shrinks the fit's error by at most
# _CONTRACTION * eps * s_1^2 / alpha: the measured shrink factor reached
# 6 eps s_1^2 / alpha on one to three sides of the unit square at h = 1/64
# to 1/256 (K up to 1024).
_CONTRACTION = 8.0
_EPS = float(np.finfo(float).eps)


def _refinement_steps(alpha: float, lam1: float) -> int:
    """Refinement steps of a fit at alpha when M's largest squared singular
    value is lam1: at least one, and enough for the error, shrinking by
    q = _CONTRACTION * eps * lam1 / alpha per step from q after the first
    solve, to fall below an SVD fit's own, eps * sqrt(lam1 / alpha).  The
    count depends on alpha and lam1 alone, so a batch and a single data set,
    and either Gram form, take the same steps.

    Where q > 1/2, alpha < 16 eps lam1 (about 3.6e-15 lam1), the refinement
    cannot be trusted to contract: alpha is below what the fit resolves,
    and a SolverError says so.
    """
    q = _CONTRACTION * _EPS * lam1 / alpha
    if not q <= 0.5:
        raise SolverError(
            f"alpha = {alpha:.3g} is below the fit's precision floor "
            f"16 eps s_1^2 = {2 * _CONTRACTION * _EPS * lam1:.3g} (s_1^2 = {lam1:.3g})")
    target = _EPS * np.sqrt(lam1 / alpha)
    steps, err = 1, q * q
    while err > target:
        steps, err = steps + 1, err * q
    return steps


@dataclass(frozen=True)
class Spectrum:
    """The cost of one system and one pair of data weights, factored for
    every alpha: the data block of M0 = [L_f A; L_g B], which :func:`factor`
    builds and keeps.  The fit of data d = [L_f f; L_g g], one column each, is
    y = (M^T M + alpha I)^-1 M^T d = M^T (M M^T + alpha I)^-1 d, w = L^-1 y
    and the penalty norm |y|.  G = Q diag(lam) Q^T is the smaller Gram matrix
    of M, its eigenvalues M's squared singular values, the s^2 of an SVD of
    M.  M = left right^T in G's eigen-coordinates: left = Q and right = M^T Q
    when G = M M^T (2m <= K), left = M Q and right = Q when G = M^T M.
    Every array is read-only, since later fits share them."""

    lf: np.ndarray  # (m, m) L_f
    lg: np.ndarray  # (m,) the diagonal of L_g
    root: np.ndarray  # (K,) eigenvalues of L
    A: InitVar[np.ndarray]
    B: InitVar[np.ndarray]
    block: np.ndarray = field(init=False)  # (2m, K) the data block M = M0 L^-1
    lam: np.ndarray = field(init=False)  # (n,) eigenvalues of G, ascending, clipped at 0
    left: np.ndarray = field(init=False)  # (2m, n) Q or M Q
    right: np.ndarray = field(init=False)  # (K, n) M^T Q or Q

    def __post_init__(self, A, B):
        # M = M0 L^-1 = (L^-1 M0^T)^T, L being symmetric
        mat = self.penalty_inverse(self.weighted_data(A, B).T).T
        dual = mat.shape[0] <= mat.shape[1]
        try:
            lam, vecs = np.linalg.eigh(mat @ mat.T if dual else mat.T @ mat)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SolverError(f"factorising the fit failed: {exc}") from exc
        left, right = (vecs, mat.T @ vecs) if dual else (mat @ vecs, vecs)
        for name, arr in (("block", mat), ("lam", np.maximum(lam, 0.0)),
                          ("left", left), ("right", right)):
            object.__setattr__(self, name, arr)
        for arr in (self.lf, self.lg, self.root, mat, self.lam, left, right):
            arr.setflags(write=False)

    def weighted_data(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """[L_f f; L_g g] for the (m, c) columns f and g: the fit's data d,
        and M0 for f = A and g = B."""
        return np.vstack([self.lf @ f, self.lg[:, None] * g])

    def penalty_inverse(self, x: np.ndarray) -> np.ndarray:
        """L^-1 x for the (K, c) columns x, by one rfft/irfft pair."""
        k = len(self.root)
        return np.fft.irfft(np.fft.rfft(x, axis=0) / self.root[:k // 2 + 1, None], n=k, axis=0)

    def solve(self, f: np.ndarray, g: np.ndarray,
              alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(k, K) minimizers and their (k,) penalty norms for the (m, k) data
        f and g: y = right z for z = F left^T d, F = 1 / (lam + alpha),
        refined by z += F (left^T (d - M y) - alpha z) on the residual
        taken through M itself.  That is the refinement of u = Q z when
        G = M M^T and of y = Q z when G = M^T M."""
        steps = _refinement_steps(alpha, self.lam[-1])
        filt = (1.0 / (self.lam + alpha))[:, None]
        d = self.weighted_data(f, g)
        z = filt * (self.left.T @ d)
        for _ in range(steps):
            z += filt * (self.left.T @ (d - self.block @ (self.right @ z)) - alpha * z)
        y = self.right @ z
        return self.penalty_inverse(y).T, np.linalg.norm(y, axis=0)

    def condition(self, alpha: float) -> float:
        """Condition number of [M; sqrt(alpha) I]: its smallest singular
        value is sqrt(alpha) when M has fewer than K of its own."""
        lam_min = self.lam[0] if self.lam.size == self.block.shape[1] else 0.0
        return float(np.sqrt((self.lam[-1] + alpha) / (lam_min + alpha)))


def factor(sys: DiscreteSystem, weights: tuple[float, float]) -> Spectrum:
    """The system's :class:`Spectrum` for the data weights (w_f, w_g), built
    on the first call and kept on the system for every later one.

    |L_f r| and |L_g r| are the channels' weighted norms of a residual r.
    L_f is sqrt(w_f) times the graph norm's (m, m) triangular factor of
    [sqrt(sigma); sqrt(sigma) D1] (no Gram matrix formed); L_g is sqrt(w_g)
    times the sigma-weighted norm, diagonal, so only its (m,) diagonal is
    kept.  A zero weight gives a zero factor, which cancels its channel's
    rows in the fit."""
    if weights not in sys._fits:
        w_f, w_g = weights
        s12 = np.sqrt(sys.sigma)
        graph = np.linalg.qr(np.vstack([np.diag(s12), s12[:, None] * sys.D1]), mode="r")
        sys._fits[weights] = Spectrum(np.sqrt(w_f) * graph, np.sqrt(w_g) * s12,
                                      _penalty_factor(sys), sys.A, sys.B)
    return sys._fits[weights]


@dataclass(frozen=True)
class ReconstructionResult:
    """The fit of a batch of k data sets of one noise level; row k of every
    array belongs to data set k."""

    w: np.ndarray = field(repr=False)  # (k, K) fitted traces on the boundary walk
    residual_f: np.ndarray  # (k,) graph norms of the f residuals
    residual_g: np.ndarray  # (k,) quadrature norms of the g residuals
    reg_norm: np.ndarray  # (k,) penalty norms |L w|
    alpha_used: float
    condition_estimate: float

    def __post_init__(self):
        self.w.setflags(write=False)


def reconstruct_field(w: np.ndarray, sys: DiscreteSystem,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The (k, ny, nx) harmonic fields on the system's grid whose rim data,
    in walk order, are the (k, K) traces w, one batched solve for all.  With
    ``out`` they overwrite that array and it is returned, as
    :func:`~harmrec.poisson.solve_dirichlet` does."""
    if sys.grid is None:
        raise ValidationError("a system without a grid has no field to rebuild")
    return solve_dirichlet(sys.grid, w, out)


def reconstruct(sys: DiscreteSystem, batch: NoisyBatch,
                cfg: ExperimentConfig) -> ReconstructionResult:
    """Fit the k data sets of one noise level, the rows of ``batch``'s (k, m)
    f and g: the traces and the fit diagnostics, one row each.  The a-priori
    rule makes alpha a function of the level, so a batch shares one filter."""
    level, f, g = batch
    if not len(f) or f.shape[1:] != (sys.m,) or g.shape != f.shape:
        raise ValidationError(f"need (k, {sys.m}) data f and g with k > 0, "
                              f"got {f.shape} and {g.shape}")
    alpha = cfg.alpha(level, sys.h)
    f, g = f.T, g.T  # one column per data set
    fit = factor(sys, cfg.data_weights)
    w, reg = fit.solve(f, g, alpha)
    # Graph norm of the f residual and quadrature norm of the g residual,
    # one column per data set.
    r_g = sys.B @ w.T - g
    res_f = graph_norm(sys.sigma, sys.D1, sys.A @ w.T - f)
    res_g = np.sqrt(sys.sigma @ (r_g * r_g))
    return ReconstructionResult(w=w, residual_f=res_f, residual_g=res_g, reg_norm=reg,
                                alpha_used=alpha, condition_estimate=fit.condition(alpha))
