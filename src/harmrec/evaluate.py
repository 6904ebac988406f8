"""Pointwise error maps and reliability diagnostics for reconstructions.

The central check: reconstruction error at an interior point x should behave
like ``C * eps^tau(x)``, with tau the exponent field.  Fitting C over the
interior, fitting per-point decay rates across noise levels, and comparing
error statistics inside/outside the reliable region are the three views
this module provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import ValidationError
from .forward import ExactSolution, sample_exact
from .measure import IndicateField
from .poisson import ScalarField

# Interior probe lattice (x and y coordinates), chosen to be grid nodes for
# every spacing of the form 1/(8k) on the unit square.
PROBE_COORDS = (0.125, 0.3125, 0.5, 0.6875, 0.875)

# Exponent targets for the sweep's auto-selected decay probes: the decay
# rate is certified over the band [0.3, 0.9], so the probes span it evenly.
PROBE_TAU_TARGETS = tuple(0.3 + 0.6 * k / 11 for k in range(12))

# Nodes closer than this many layers to the outer boundary are excluded from
# envelope fitting: the exponent field endpoints contaminate trace values.
INTERIOR_MARGIN = 3


def auto_probe_nodes(tau: IndicateField, targets=PROBE_TAU_TARGETS,
                     margin: int = INTERIOR_MARGIN) -> list[tuple[int, int]]:
    """Pick one interior node per exponent target, centrally when tied.

    Candidates are interior nodes whose exponent lies inside the targeted
    band (the probes certify that band, so they must not leak out of it).
    Many nodes sit near a level set of the exponent field; the score
    ``((tau - target)/0.03)^2 + (distance to domain center)^2`` prefers the
    node matching the target to within about one grid layer and breaks the
    tie along the level set toward the domain center.  Deterministic given
    the field.  Raises ValidationError when no candidate exists (a grid
    too coarse for the margin, or a field that misses the band).
    """
    g = tau.grid
    t = tau.tau.values
    xg, yg = g.meshgrid()
    cx = 0.5 * (g.rect.x0 + g.rect.x1)
    cy = 0.5 * (g.rect.y0 + g.rect.y1)
    d2 = (xg - cx) ** 2 + (yg - cy) ** 2
    score_base = np.full(g.shape, np.inf)
    score_base[margin:-margin, margin:-margin] = 0.0
    score_base[(t < min(targets)) | (t > max(targets))] = np.inf
    if np.isinf(score_base).all():
        raise ValidationError(
            f"no node {margin} or more layers inside the boundary has an "
            f"exponent in [{min(targets):g}, {max(targets):g}]: the grid "
            f"({g.nx} x {g.ny} nodes) is too coarse for probes")
    nodes = []
    for target in targets:
        score = score_base + ((t - target) / 0.03) ** 2 + d2
        j, i = np.unravel_index(np.argmin(score), score.shape)
        nodes.append((int(i), int(j)))
    return nodes


def pointwise_error(u_star: ScalarField, exact: ExactSolution) -> ScalarField:
    """Node-wise absolute difference |u* - exact|."""
    exact_field = sample_exact(exact, u_star.grid)
    return ScalarField(grid=u_star.grid,
                       values=np.abs(u_star.values - exact_field.values))


def _interior_mask(shape: tuple[int, int], margin: int) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    mask[margin:-margin, margin:-margin] = True
    return mask


def envelope_c_fit(err_values: np.ndarray, tau_values: np.ndarray,
                   eps: float) -> np.ndarray:
    """C = max |err| / eps^tau over the interior nodes, per error field.

    ``err_values`` has shape (..., ny, nx) with any leading axes; the result
    has the leading shape (0-d for one field).
    """
    inner = (Ellipsis,) + (slice(INTERIOR_MARGIN, -INTERIOR_MARGIN),) * 2
    ratio = err_values[inner] / eps ** tau_values[inner]
    return ratio.max(axis=(-2, -1), initial=0.0)


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted envelope constant and its violations.

    violations are counted against ``c_ref`` (the user bound if given, else
    the fitted constant, in which case the count is zero by construction).
    """

    eps: float
    c_fit: float
    c_ref: float
    violations: int
    violation_locations: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    m_used: float | None = None

    def to_jsonable(self) -> dict:
        return {
            "eps": self.eps,
            "c_fit": self.c_fit,
            "c_ref": self.c_ref,
            "violations": self.violations,
            "violation_locations": self.violation_locations,
            "probes": self.probes,
            "m_used": self.m_used,
        }


def envelope_check(err: ScalarField, tau: IndicateField, eps: float,
                   c_max: float | None = None,
                   m_used: float | None = None) -> EnvelopeReport:
    """Fit the envelope constant C = max |err| / eps^tau over interior nodes.

    Requires eps in (0, 1): otherwise eps^tau is not decreasing in tau and
    the envelope carries no information.  Probes are reported on the fixed
    interior lattice PROBE_COORDS x PROBE_COORDS.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"envelope needs eps in (0, 1), got {eps}")
    if err.grid != tau.grid:
        raise ValidationError("error and exponent fields live on different grids")
    t = tau.tau.values
    e = err.values
    mask = _interior_mask(err.grid.shape, INTERIOR_MARGIN)
    bound_unit = eps ** t
    c_fit = float(envelope_c_fit(e, t, eps))
    c_ref = c_max if c_max is not None else c_fit
    # the same ratio c_fit maximises, so the fitted constant has no violations
    viol = (e / bound_unit > c_ref) & mask
    locations = []
    if viol.any():
        jj, ii = np.nonzero(viol)
        xs, ys = err.grid.xs, err.grid.ys
        locations = [[float(xs[i]), float(ys[j])] for j, i in zip(jj[:50], ii[:50])]
    probes = []
    g = err.grid
    for y in PROBE_COORDS:
        for x in PROBE_COORDS:
            i, j = g.nearest_node(g.rect.x0 + x * g.rect.width,
                                  g.rect.y0 + y * g.rect.height)
            probes.append({
                "x": float(g.xs[i]), "y": float(g.ys[j]),
                "tau": float(t[j, i]), "err": float(e[j, i]),
                "bound": float(c_ref * bound_unit[j, i]),
            })
    return EnvelopeReport(
        eps=eps, c_fit=c_fit, c_ref=float(c_ref),
        violations=int(viol.sum()), violation_locations=locations,
        probes=probes, m_used=m_used,
    )


def rate_fit(errors_at_point: list[tuple[float, float]]) -> float:
    """Least-squares slope of log err against log eps.

    Needs at least 3 levels spanning at least two decades, all errors
    positive.
    """
    if len(errors_at_point) < 3:
        raise ValidationError("rate fit needs at least 3 noise levels")
    eps = np.array([p[0] for p in errors_at_point], dtype=float)
    err = np.array([p[1] for p in errors_at_point], dtype=float)
    if (eps <= 0).any() or (err <= 0).any():
        raise ValidationError("rate fit needs positive noise levels and errors")
    if eps.max() / eps.min() < 100.0 * (1.0 - 1e-9):
        raise ValidationError("noise levels must span at least two decades")
    slope = np.polyfit(np.log(eps), np.log(err), 1)[0]
    return float(slope)


def spearman_rank(a, b) -> float:
    """Spearman rank correlation of two equal-length sequences."""
    rho = stats.spearmanr(np.asarray(a, dtype=float), np.asarray(b, dtype=float)).statistic
    return float(rho)


@dataclass(frozen=True)
class RegionStats:
    """Error statistics split by the reliable region {tau >= threshold}."""

    threshold: float
    inside_count: int
    outside_count: int
    inside_median: float | None
    inside_max: float | None
    inside_mean: float | None
    outside_median: float | None
    outside_max: float | None
    outside_mean: float | None
    median_ratio: float | None

    def to_jsonable(self) -> dict:
        return {
            "threshold": self.threshold,
            "inside_count": self.inside_count,
            "outside_count": self.outside_count,
            "inside": {"median": self.inside_median, "max": self.inside_max,
                       "mean": self.inside_mean},
            "outside": {"median": self.outside_median, "max": self.outside_max,
                        "mean": self.outside_mean},
            "median_ratio": self.median_ratio,
        }


def reliability_summary(err: ScalarField, tau: IndicateField,
                        threshold: float) -> RegionStats:
    """Median/max/mean error inside vs outside the reliable region (all nodes)."""
    if err.grid != tau.grid:
        raise ValidationError("error and exponent fields live on different grids")
    inside = tau.tau.values >= threshold
    e_in = err.values[inside]
    e_out = err.values[~inside]

    def _stats(v):
        if v.size == 0:
            return None, None, None
        return float(np.median(v)), float(v.max()), float(v.mean())

    med_in, max_in, mean_in = _stats(e_in)
    med_out, max_out, mean_out = _stats(e_out)
    ratio = None
    if med_in is not None and med_out not in (None, 0.0):
        ratio = med_in / med_out
    return RegionStats(
        threshold=threshold,
        inside_count=int(inside.sum()),
        outside_count=int((~inside).sum()),
        inside_median=med_in, inside_max=max_in, inside_mean=mean_in,
        outside_median=med_out, outside_max=max_out, outside_mean=mean_out,
        median_ratio=ratio,
    )
