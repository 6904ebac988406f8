"""Reference code the tests compare the library against; no pipeline path
calls it.

Independent closed forms used as oracles:

* unit square, one side measured: separable sine/sinh series (per side
  ``sum over odd k of (4/(k*pi)) * sin(k*pi*s) * sinh(k*pi*(1-d))/sinh(k*pi)``
  with (s, d) the along-side coordinate and distance from that side);
  multi-side measures are sums of single-side series.
* annulus 1 <= |z| <= R with the inner circle measured:
  ``log(R/r)/log(R)``.

:func:`laplacian_residual` is the h²-scaled 5-point stencil written
directly, for checking that a sampled or solved field is discretely
harmonic.

:func:`svd_filtered_fit` is the standard-form fit by one SVD of the data
block and its filter factors, the reference for the library's
eigendecomposition of the smaller Gram matrix.  :func:`qr_fit` is the same
fit by a Householder QR of the stacked ``[M; sqrt(alpha) I]``, which never
squares M's conditioning: the reference where M is nearly singular.  Both
read M, d = [L_f f; L_g g] and L^-1 from the library's public
:func:`harmrec.tikhonov.factor`, so only the solve of the fit is their own.

:func:`clean_batch` is clean data as the batch of one that the fit takes,
for tests that fit data without noise.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from harmrec import SIDES, NoisyBatch, ScalarField, ValidationError
from harmrec.tikhonov import factor


def rectangle_series_tau(x: float, y: float, gamma_sides, terms: int = 200) -> float:
    """Series oracle for the exponent field on the open unit square.

    Sums the separable series of every flagged side; ``terms`` odd-index
    terms are used per side.  Points on the boundary are rejected (the
    series converges too slowly there to serve as an oracle).
    """
    if terms < 50:
        raise ValidationError(f"need at least 50 series terms, got {terms}")
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValidationError(f"series oracle needs an interior point, got {(x, y)}")
    sides = frozenset(gamma_sides)
    unknown = sides - set(SIDES)
    if unknown:
        raise ValidationError(f"unknown side name(s): {sorted(unknown)}")
    # (along-side coordinate, distance from the side)
    param = {
        "bottom": (x, y),
        "top": (x, 1.0 - y),
        "left": (y, x),
        "right": (y, 1.0 - x),
    }
    total = 0.0
    for side in sides:
        s, d = param[side]
        total += _single_side_series(s, d, terms)
    return total


def _single_side_series(s: float, d: float, terms: int) -> float:
    # sum over odd k of (4/(k pi)) sin(k pi s) sinh(k pi (1-d)) / sinh(k pi),
    # with the sinh ratio evaluated in log space to avoid overflow:
    # sinh(a)/sinh(b) = exp(a-b) * (1 - exp(-2a)) / (1 - exp(-2b)) for 0<=a<=b.
    acc = 0.0
    for idx in range(terms):
        k = 2 * idx + 1
        a = k * math.pi * (1.0 - d)
        b = k * math.pi
        ratio = math.exp(a - b) * (-math.expm1(-2.0 * a)) / (-math.expm1(-2.0 * b))
        acc += (4.0 / (k * math.pi)) * math.sin(k * math.pi * s) * ratio
    return acc


def annulus_tau(r: float, big_r: float) -> float:
    """Exponent on the annulus 1 <= |z| <= R with the inner circle measured."""
    if big_r <= 1.0:
        raise ValidationError(f"outer radius must exceed 1, got R={big_r}")
    if not (1.0 <= r <= big_r):
        raise ValidationError(f"need 1 <= r <= R, got r={r}, R={big_r}")
    return math.log(big_r / r) / math.log(big_r)


def two_constants_bound(eps: float, m_bound: float, tau: float) -> float:
    """Interpolation bound M^(1-tau) * eps^tau for |w| given |w|<=eps on Γ, <=M on Ω."""
    if not (0.0 < eps <= m_bound):
        raise ValidationError(f"need 0 < eps <= M, got eps={eps}, M={m_bound}")
    if not (0.0 <= tau <= 1.0):
        raise ValidationError(f"exponent must lie in [0, 1], got {tau}")
    return m_bound ** (1.0 - tau) * eps ** tau


def laplacian_residual(fld: ScalarField) -> float:
    """Max interior residual of the h²-scaled 5-point stencil, |4u - Σ neighbors|."""
    if fld.grid.nx < 3 or fld.grid.ny < 3:
        raise ValidationError("need nx, ny >= 3 to evaluate the interior stencil")
    v = fld.values
    return float(np.abs(4.0 * v[1:-1, 1:-1] - v[1:-1, :-2] - v[1:-1, 2:]
                        - v[:-2, 1:-1] - v[2:, 1:-1]).max())


def svd_filtered_fit(sys, weights, f, g, alpha):
    """The fit of the (m, k) data f, g by one SVD of the data block
    ``M = M0 L^-1 = P s W^T``: ``w = L^-1 W diag(s / (s^2 + alpha)) P^T d``
    with d = [L_f f; L_g g].  Returns the (k, K) traces, their (k,) penalty
    norms |y|, the condition number of [M; sqrt(alpha) I] and the singular
    values s, descending."""
    fit = factor(sys, weights)
    p, s, wt = np.linalg.svd(fit.block, full_matrices=False)
    z = (s / (s * s + alpha))[:, None] * (p.T @ fit.weighted_data(f, g))
    s_min = s[-1] if s.size == fit.block.shape[1] else 0.0
    cond = math.sqrt((s[0] ** 2 + alpha) / (s_min ** 2 + alpha))
    return fit.penalty_inverse(wt.T @ z).T, np.linalg.norm(z, axis=0), cond, s


def qr_fit(sys, weights, f, g, alpha):
    """The fit of the (m, k) data f, g as the least-squares solution of
    ``[M; sqrt(alpha) I] y = [d; 0]`` by a Householder QR of the stacked
    matrix, ``y = R^-1 Q^T [d; 0]``.  Returns the (k, K) traces L^-1 y and
    their (k,) penalty norms |y|."""
    fit = factor(sys, weights)
    d, k = fit.weighted_data(f, g), fit.block.shape[1]
    q, r = np.linalg.qr(np.vstack([fit.block, math.sqrt(alpha) * np.eye(k)]))
    y = solve_triangular(r, q[:len(d)].T @ d)
    return fit.penalty_inverse(y).T, np.linalg.norm(y, axis=0)


def clean_batch(data) -> NoisyBatch:
    """The f and g of the CauchyData ``data`` as a batch of one at level 0."""
    return NoisyBatch(0.0, data.f[None], data.g[None])
