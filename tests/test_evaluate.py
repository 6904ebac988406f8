import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from harmrec import (Constant, Rect, ValidationError, boundary_partition,
                     build_grid, compute_indicate, envelope_check,
                     pointwise_error, rate_fit, reliability_summary,
                     resolve_config, sample_exact, spearman_rank)
from harmrec.evaluate import (PROBE_COORDS, PROBE_TAU_TARGETS, PROBE_TIE,
                              auto_probe_nodes, envelope_c_fit)
from harmrec.grid import SIDES
from harmrec.poisson import ScalarField


@pytest.fixture(scope="module")
def tau16():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    return compute_indicate(p)


def test_pointwise_error_zero_and_offset(tau16):
    g = tau16.grid
    exact = Constant(2.5)
    fld = sample_exact(exact, g)
    assert np.abs(pointwise_error(fld, fld).values).max() == 0.0
    shifted = ScalarField(grid=g, values=fld.values + 0.1)
    err = pointwise_error(shifted, fld)
    assert np.allclose(err.values, 0.1)


def test_envelope_synthetic_identity(tau16):
    g = tau16.grid
    eps = 0.01
    err = ScalarField(grid=g, values=eps ** tau16.values)
    rep = envelope_check(err, tau16, eps)
    assert abs(rep["c_fit"] - 1.0) < 1e-12
    assert len(rep["probes"]) == 25


def test_envelope_zero_error(tau16):
    g = tau16.grid
    err = ScalarField(grid=g, values=np.zeros(g.shape))
    rep = envelope_check(err, tau16, 0.5)
    assert rep["c_fit"] == 0.0


def test_envelope_definitional_bound(tau16):
    g = tau16.grid
    rng = np.random.default_rng(0)
    err = ScalarField(grid=g, values=np.abs(rng.normal(size=g.shape)))
    eps = 0.2
    rep = envelope_check(err, tau16, eps)
    bound = rep["c_fit"] * eps ** tau16.values
    inner = (slice(3, -3), slice(3, -3))
    assert (bound[inner] >= err.values[inner] - 1e-12).all()


def test_envelope_c_fit_per_field_of_a_stack(tau16):
    # the batched constant of the sweep is the c_fit of each field's report,
    # to the bit; the (2, 3) leading axes and a zero field included
    g = tau16.grid
    rng = np.random.default_rng(1)
    stack = np.abs(rng.normal(size=(2, 3) + g.shape)) * 10.0 ** rng.integers(-8, 8, (2, 3, 1, 1))
    stack[1, 2] = 0.0
    c_fit = envelope_c_fit(stack, tau16.values, 0.03)
    assert c_fit.shape == (2, 3)
    for k in np.ndindex(2, 3):
        err = ScalarField(grid=g, values=stack[k])
        assert c_fit[k] == envelope_check(err, tau16, 0.03)["c_fit"]
    assert c_fit[1, 2] == 0.0


def test_envelope_rejects_eps_out_of_range(tau16):
    err = ScalarField(grid=tau16.grid, values=np.zeros(tau16.grid.shape))
    for eps in (0.0, 1.0, 2.0):
        with pytest.raises(ValidationError):
            envelope_check(err, tau16, eps)


def test_fields_on_different_grids_rejected(tau16):
    other = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    on_other = ScalarField(grid=other, values=np.zeros(other.shape))
    for call in (lambda: pointwise_error(on_other, tau16),
                 lambda: envelope_check(on_other, tau16, 0.5),
                 lambda: reliability_summary(on_other, tau16, 0.5)):
        with pytest.raises(ValidationError, match="different grids"):
            call()


def test_rate_fit_exact_power_law():
    eps = [1e-1, 1e-2, 1e-3]
    pairs = [(e, e**0.6) for e in eps]
    assert abs(rate_fit(pairs) - 0.6) < 1e-12
    pairs_scaled = [(e, 7.3 * e**0.6) for e in eps]
    assert abs(rate_fit(pairs_scaled) - 0.6) < 1e-12


def test_rate_fit_preconditions():
    with pytest.raises(ValidationError):
        rate_fit([(1e-1, 1.0), (1e-2, 0.5)])
    with pytest.raises(ValidationError):
        rate_fit([(1e-1, 1.0), (5e-2, 0.5), (2e-2, 0.2)])  # < 2 decades
    with pytest.raises(ValidationError):
        rate_fit([(1e-1, 1.0), (1e-2, 0.0), (1e-3, 0.1)])


def test_spearman_rank_basics():
    assert spearman_rank([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman_rank([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def _tied_pair(n):
    # few distinct values, so most draws carry ties, some whole-sequence ones
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
    return st.tuples(st.lists(values, min_size=n, max_size=n),
                     st.lists(st.integers(0, 4), min_size=n, max_size=n))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(2, 40).flatmap(_tied_pair))
def test_spearman_rank_matches_scipy(pair):
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant input
        ref = stats.spearmanr(a, b).statistic
    for rho in (spearman_rank(a, b), spearman_rank(b, a)):
        if len(set(a)) < 2 or len(set(b)) < 2:
            assert np.isnan(rho) and np.isnan(ref)
        else:
            assert abs(rho - ref) <= 1e-12


def test_spearman_rank_undefined_cases():
    assert np.isnan(spearman_rank([1, 1, 1], [1, 2, 3]))
    assert np.isnan(spearman_rank([1, float("nan"), 3], [1, 2, 3]))
    with pytest.raises(ValidationError):
        spearman_rank([1, 2, 3], [1, 2])


def test_reliability_summary_split(tau16):
    g = tau16.grid
    eps = 0.01
    err = ScalarField(grid=g, values=eps ** tau16.values)
    stats = reliability_summary(err, tau16, 0.5)
    # eps^tau decreases in tau for eps < 1: inside errors are smaller
    assert stats["inside"]["max"] < stats["outside"]["max"]
    assert stats["inside"]["median"] < stats["outside"]["median"]
    assert stats["median_ratio"] < 1.0
    assert stats["inside_count"] + stats["outside_count"] == g.nx * g.ny


def test_reliability_summary_empty_outside(tau16):
    g = tau16.grid
    err = ScalarField(grid=g, values=np.ones(g.shape))
    stats = reliability_summary(err, tau16, 0.0)
    assert stats["outside_count"] == 0
    assert stats["outside"]["median"] is None
    assert stats["median_ratio"] is None


def test_region_monotone_in_threshold(tau16):
    masks = [tau16.values >= thr for thr in (0.3, 0.5, 0.7)]
    assert masks[0].sum() >= masks[1].sum() >= masks[2].sum()
    # set inclusion, not just counts
    assert (masks[1] <= masks[0]).all()
    assert (masks[2] <= masks[1]).all()


def test_auto_probe_nodes_span_band():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 32)
    p = boundary_partition(g, ["bottom"])
    tau = compute_indicate(p)
    nodes = auto_probe_nodes(tau)
    taus = np.array([tau.values[j, i] for i, j in nodes])
    assert len(nodes) == 12
    assert (taus >= 0.3).all() and (taus <= 0.9).all()
    assert taus.max() - taus.min() > 0.4
    assert len(set(nodes)) >= 8


def _mirrored_tau(seed, nx, ny, h, x0, y0):
    """Random exponent field with t[j, i] == t[j, nx - 1 - i], on a grid whose
    mirror-image coordinates need not be exact negatives about the centre."""
    g = build_grid(Rect(x0, y0, x0 + (nx - 1) * h, y0 + (ny - 1) * h), h)
    a = np.random.default_rng(seed).uniform(0.25, 0.95, (ny, nx))
    i = np.arange(nx)
    t = np.where(i <= nx - 1 - i, a, a[:, ::-1])
    return ScalarField(grid=g, values=t)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(9, 26), st.integers(9, 26),
       st.sampled_from([1 / 8, 0.1, 1 / 12, 0.07]), st.sampled_from([0.0, 0.1, -0.3]),
       st.sampled_from([0.0, 0.2, -1.7]))
def test_probe_ties_go_to_the_smallest_row_then_column(seed, nx, ny, h, x0, y0):
    tau = _mirrored_tau(seed, nx, ny, h, x0, y0)
    t = tau.values
    nodes = auto_probe_nodes(tau)
    g = tau.grid
    xg, yg = g.meshgrid()
    r = g.rect
    d2 = (xg - 0.5 * (r.x0 + r.x1)) ** 2 + (yg - 0.5 * (r.y0 + r.y1)) ** 2
    inner = np.zeros(g.shape, dtype=bool)
    inner[3:-3, 3:-3] = True
    for (i, j), target in zip(nodes, PROBE_TAU_TARGETS):
        # a mirror pair ties, so the probe is never right of its mirror image
        assert i <= nx - 1 - i
        score = np.where(inner & (t >= 0.3) & (t <= 0.9),
                         ((t - target) / 0.03) ** 2 + d2, np.inf)
        tied = score <= score.min() + PROBE_TIE
        assert tied[j, i]
        assert not tied[:j].any() and not tied[j, :i].any()
    # a perturbation far below the tie width moves no probe
    noise = np.random.default_rng(seed + 1).uniform(-1e-12, 1e-12, t.shape)
    moved = ScalarField(grid=g, values=t + noise)
    assert auto_probe_nodes(moved) == nodes


@pytest.mark.parametrize("preset, expected", [
    ("paper-sec5-one-side",
     [(28, 28), (31, 25), (30, 22), (27, 19), (32, 17), (25, 14), (26, 12),
      (25, 10), (24, 8), (22, 6), (32, 5), (24, 3)]),
    ("paper-sec5-two-sides",
     [(12, 27), (15, 28), (19, 32), (24, 32), (31, 26), (29, 20), (28, 16),
      (28, 13), (32, 11), (27, 8), (30, 6), (32, 4)]),
])
def test_preset_probes_are_fixed(preset, expected):
    # the probes the sweep has always picked; (22, 6) on one side is an exact
    # mirror tie with (42, 6), so a change of tau by one ULP must not move it
    cfg = resolve_config(preset=preset)
    g = build_grid(cfg.rect, cfg["h"])
    tau = compute_indicate(boundary_partition(g, cfg["gamma_sides"]))
    assert auto_probe_nodes(tau) == expected
    right = np.sign(g.meshgrid()[0] - 0.5)  # +1 right of the mirror line
    for sign in (1.0, -1.0):
        nudged = tau.values + sign * 1e-12 * right
        nudged = ScalarField(grid=g, values=nudged)
        assert auto_probe_nodes(nudged) == expected


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 0.99),
       st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True))
def test_fitted_envelope_constant_has_no_violations(seed, eps, sides):
    # c_fit is the largest ratio err / eps^tau, so no interior node's ratio
    # exceeds it; comparing err against c_fit * eps^tau instead rounds the
    # other way on about one random field in twenty
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    tau = compute_indicate(boundary_partition(g, sides))
    rng = np.random.default_rng(seed)
    err = ScalarField(grid=g, values=rng.uniform(0.0, 1.0, g.shape) * 10.0 ** rng.integers(-6, 6))
    rep = envelope_check(err, tau, eps)
    inner = (slice(3, -3), slice(3, -3))
    assert (err.values[inner] / eps ** tau.values[inner] <= rep["c_fit"]).all()


def _brute_region(t, e, threshold):
    """The reliability report, node by node."""
    inside = [e[j, i] for j, i in np.ndindex(t.shape) if t[j, i] >= threshold]
    outside = [e[j, i] for j, i in np.ndindex(t.shape) if not t[j, i] >= threshold]

    def stats(v):
        if not v:
            return {"median": None, "max": None, "mean": None}
        return {"median": float(np.median(v)), "max": float(max(v)), "mean": float(np.mean(v))}

    ins, outs = stats(inside), stats(outside)
    ratio = None
    if inside and outside and outs["median"] != 0.0:
        ratio = ins["median"] / outs["median"]
    return {"threshold": threshold, "inside_count": len(inside),
            "outside_count": len(outside), "inside": ins, "outside": outs,
            "median_ratio": ratio}


def _brute_envelope(g, t, e, eps):
    """The envelope report node by node."""
    unit = eps ** t
    ny, nx = t.shape
    interior = [(j, i) for j in range(3, ny - 3) for i in range(3, nx - 3)]  # row by row
    c_fit = max((e[j, i] / unit[j, i] for j, i in interior), default=0.0)
    probes = []
    for y in PROBE_COORDS:
        for x in PROBE_COORDS:
            i, j = g.nearest_node(g.rect.x0 + x * g.rect.width, g.rect.y0 + y * g.rect.height)
            probes.append({"x": g.xs[i], "y": g.ys[j], "tau": t[j, i], "err": e[j, i],
                           "bound": c_fit * unit[j, i]})
    return {"eps": eps, "c_fit": c_fit, "probes": probes}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(2, 22), st.integers(2, 22),
       st.sampled_from([1 / 8, 0.1, 0.07]),
       st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), st.floats(0.0, 1.0)),
       st.floats(1e-6, 0.999), st.floats(0.0, 0.9))
def test_reports_match_brute_force(seed, nx, ny, h, threshold, eps, zeros):
    # exponents on a coarse lattice so that some sit exactly at the threshold,
    # errors with exact zeros so that the outside median can be 0, and grids
    # from 2 x 2 (no interior for the envelope) to 22 x 22
    g = build_grid(Rect(0.0, 0.0, (nx - 1) * h, (ny - 1) * h), h)
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 9, g.shape) / 8
    e = np.where(rng.random(g.shape) < zeros, 0.0,
                 rng.uniform(0.0, 1.0, g.shape) * 10.0 ** rng.integers(-6, 6))
    tau, err = ScalarField(grid=g, values=t), ScalarField(grid=g, values=e)
    assert reliability_summary(err, tau, threshold) == _brute_region(t, e, threshold)
    expected = _brute_envelope(g, t, e, eps)
    rep = envelope_check(err, tau, eps)
    assert list(rep) == list(expected)
    assert rep == expected
    assert all(type(v) is float for p in rep["probes"] for v in p.values())
