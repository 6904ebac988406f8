"""Pointwise error maps and reliability diagnostics for reconstructions.

The central check: reconstruction error at an interior point x should behave
like ``C * eps^tau(x)``, with tau the exponent field.  Fitting C over the
interior, fitting per-point decay rates across noise levels, and comparing
error statistics inside/outside the reliable region are the three views
this module provides.  Every function takes the exponent field as the
:class:`ScalarField` that :func:`measure.compute_indicate` returns, and the
envelope and region reports are the dicts that ``summary.json`` writes.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .poisson import ScalarField

# Interior probe lattice (x and y coordinates), chosen to be grid nodes for
# every spacing of the form 1/(8k) on the unit square.
PROBE_COORDS = (0.125, 0.3125, 0.5, 0.6875, 0.875)

# Exponent targets for the sweep's auto-selected decay probes: the decay
# rate is certified over the band [0.3, 0.9], so the probes span it evenly.
PROBE_TAU_TARGETS = tuple(0.3 + 0.6 * k / 11 for k in range(12))

# Probe scores within this of the best are ties: far above the score's
# rounding (about 1e-14), so mirror-image nodes always tie, and far below its
# step from one node to a neighbour.
PROBE_TIE = 1e-9

# Nodes closer than this many layers to the outer boundary are excluded from
# envelope fitting: the exponent field endpoints contaminate trace values.
INTERIOR_MARGIN = 3


def auto_probe_nodes(tau: ScalarField) -> list[tuple[int, int]]:
    """Pick one node per PROBE_TAU_TARGETS entry, at least INTERIOR_MARGIN
    layers inside the boundary, centrally when tied.

    Candidates are interior nodes whose exponent lies inside the targeted
    band (the probes certify that band, so they must not leak out of it).
    Many nodes sit near a level set of the exponent field; the score
    ``((tau - target)/0.03)^2 + (distance to domain center)^2`` prefers the
    node matching the target to within about one grid layer and breaks the
    tie along the level set toward the domain center.  Scores within
    ``PROBE_TIE`` of the best tie, and among tied nodes the smallest
    ``(j, i)`` (row, then column) wins, so mirror-image nodes, whose scores
    agree only to rounding, cannot swap places when ``tau`` moves by a few
    ULP.  Raises ValidationError when no candidate exists (a grid too coarse
    for the margin, or a field that misses the band).
    """
    g, t = tau.grid, tau.values
    targets, margin = PROBE_TAU_TARGETS, INTERIOR_MARGIN
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
        tied = score <= score.min() + PROBE_TIE
        j, i = np.unravel_index(np.argmax(tied), score.shape)  # first in (j, i)
        nodes.append((int(i), int(j)))
    return nodes


def _check_same_grid(a: ScalarField, b: ScalarField) -> None:
    if a.grid != b.grid:
        raise ValidationError("the two fields live on different grids")


def pointwise_error(u_star: ScalarField, exact_field: ScalarField) -> ScalarField:
    """Node-wise absolute difference |u* - exact| of two fields on one grid."""
    _check_same_grid(u_star, exact_field)
    return ScalarField(grid=u_star.grid,
                       values=np.abs(u_star.values - exact_field.values))


def envelope_c_fit(err_values: np.ndarray, tau_values: np.ndarray,
                   eps: float) -> np.ndarray:
    """C = max |err| / eps^tau over the nodes at least INTERIOR_MARGIN layers
    inside, per error field.

    ``err_values`` has shape (..., ny, nx) with any leading axes; the result
    has the leading shape (0-d for one field).
    """
    inner = (Ellipsis,) + (slice(INTERIOR_MARGIN, -INTERIOR_MARGIN),) * 2
    ratio = err_values[inner] / eps ** tau_values[inner]
    return ratio.max(axis=(-2, -1), initial=0.0)


def envelope_check(err: ScalarField, tau: ScalarField, eps: float) -> dict:
    """Fit the envelope constant C = max |err| / eps^tau over interior nodes.

    Requires eps in (0, 1): otherwise eps^tau is not decreasing in tau and
    the envelope carries no information.  Returns the ``envelope`` object of
    ``summary.json``: ``eps``, ``c_fit`` and ``probes`` (x, y, tau, err and
    the bound ``c_fit * eps^tau`` on the lattice PROBE_COORDS x PROBE_COORDS).
    No interior node exceeds its bound at this eps, by construction; whether
    one C serves every eps shows in the sweep's ``envelope_c_fits``.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"envelope needs eps in (0, 1), got {eps}")
    _check_same_grid(err, tau)
    g, t, e = err.grid, tau.values, err.values
    c_fit = float(envelope_c_fit(e, t, eps))
    pi, pj = np.array([g.nearest_node(g.rect.x0 + x * g.rect.width,
                                      g.rect.y0 + y * g.rect.height)
                       for y in PROBE_COORDS for x in PROBE_COORDS]).T
    bounds = c_fit * eps ** t[pj, pi]
    probes = [{"x": float(g.xs[i]), "y": float(g.ys[j]),
               "tau": float(t[j, i]), "err": float(e[j, i]), "bound": float(b)}
              for i, j, b in zip(pi, pj, bounds)]
    return {"eps": eps, "c_fit": c_fit, "probes": probes}


def check_level_span(levels) -> None:
    """Reject positive noise levels that span less than two decades, too
    narrow a window for :func:`rate_fit` to read a slope from."""
    if max(levels) / min(levels) < 100.0 * (1.0 - 1e-9):
        raise ValidationError("noise levels must span at least two decades")


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
    check_level_span(eps)
    slope = np.polyfit(np.log(eps), np.log(err), 1)[0]
    return float(slope)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman_rank(a, b) -> float:
    """Spearman rank correlation of two equal-length sequences: the Pearson
    correlation of their average ranks.  NaN when either sequence contains
    NaN or is constant, where the correlation is undefined."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValidationError(f"need two equal-length sequences, got shapes "
                              f"{a.shape} and {b.shape}")
    if np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    ra, rb = (r - r.mean() for r in (_average_ranks(a), _average_ranks(b)))
    norm = np.sqrt(ra @ ra * (rb @ rb))
    if norm == 0.0:
        return float("nan")
    return float(np.clip(ra @ rb / norm, -1.0, 1.0))


def reliability_summary(err: ScalarField, tau: ScalarField, threshold: float) -> dict:
    """Error statistics split by the reliable region {tau >= threshold}, over
    all nodes.  Returns the ``reliability`` object of ``summary.json``:
    ``threshold``, ``inside_count``, ``outside_count``, ``inside`` and
    ``outside`` (each ``{median, max, mean}`` of the error there, all None
    for an empty side) and ``median_ratio`` (inside over outside median;
    None when either side is empty or the outside median is 0)."""
    _check_same_grid(err, tau)
    inside = tau.values >= threshold

    def _stats(v):
        if v.size == 0:
            return {"median": None, "max": None, "mean": None}
        return {"median": float(np.median(v)), "max": float(v.max()),
                "mean": float(v.mean())}

    stats_in, stats_out = _stats(err.values[inside]), _stats(err.values[~inside])
    ratio = None
    if stats_in["median"] is not None and stats_out["median"] not in (None, 0.0):
        ratio = stats_in["median"] / stats_out["median"]
    return {"threshold": threshold, "inside_count": int(inside.sum()),
            "outside_count": int((~inside).sum()), "inside": stats_in,
            "outside": stats_out, "median_ratio": ratio}
