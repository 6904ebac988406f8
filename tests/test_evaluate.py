import numpy as np
import pytest

from harmrec import (Constant, Rect, ValidationError, boundary_partition,
                     build_grid, compute_indicate, envelope_check,
                     pointwise_error, rate_fit, reliability_summary,
                     sample_exact, spearman_rank)
from harmrec.evaluate import auto_probe_nodes, envelope_c_fit
from harmrec.poisson import ScalarField


@pytest.fixture(scope="module")
def tau16():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    p = boundary_partition(g, ["bottom"])
    return compute_indicate(g, p, method="direct")


def test_pointwise_error_zero_and_offset(tau16):
    g = tau16.grid
    exact = Constant(2.5)
    fld = sample_exact(exact, g)
    assert np.abs(pointwise_error(fld, exact).values).max() == 0.0
    shifted = ScalarField(grid=g, values=fld.values + 0.1)
    err = pointwise_error(shifted, exact)
    assert np.allclose(err.values, 0.1)


def test_envelope_synthetic_identity(tau16):
    g = tau16.grid
    eps = 0.01
    err = ScalarField(grid=g, values=eps ** tau16.tau.values)
    rep = envelope_check(err, tau16, eps, c_max=1.0 + 1e-9)
    assert abs(rep.c_fit - 1.0) < 1e-12
    assert rep.violations == 0
    assert len(rep.probes) == 25


def test_envelope_zero_error(tau16):
    g = tau16.grid
    err = ScalarField(grid=g, values=np.zeros(g.shape))
    rep = envelope_check(err, tau16, 0.5)
    assert rep.c_fit == 0.0
    assert rep.violations == 0


def test_envelope_definitional_bound(tau16):
    g = tau16.grid
    rng = np.random.default_rng(0)
    err = ScalarField(grid=g, values=np.abs(rng.normal(size=g.shape)))
    eps = 0.2
    rep = envelope_check(err, tau16, eps)
    bound = rep.c_fit * eps ** tau16.tau.values
    inner = (slice(3, -3), slice(3, -3))
    assert (bound[inner] >= err.values[inner] - 1e-12).all()
    assert rep.violations == 0


def test_envelope_c_fit_per_field_of_a_stack(tau16):
    # the batched constant of the sweep is the c_fit of each field's report,
    # to the bit; the (2, 3) leading axes and a zero field included
    g = tau16.grid
    rng = np.random.default_rng(1)
    stack = np.abs(rng.normal(size=(2, 3) + g.shape)) * 10.0 ** rng.integers(-8, 8, (2, 3, 1, 1))
    stack[1, 2] = 0.0
    c_fit = envelope_c_fit(stack, tau16.tau.values, 0.03)
    assert c_fit.shape == (2, 3)
    for k in np.ndindex(2, 3):
        err = ScalarField(grid=g, values=stack[k])
        assert c_fit[k] == envelope_check(err, tau16, 0.03).c_fit
    assert c_fit[1, 2] == 0.0


def test_envelope_counts_violations(tau16):
    g = tau16.grid
    eps = 0.01
    err = ScalarField(grid=g, values=eps ** tau16.tau.values)
    rep = envelope_check(err, tau16, eps, c_max=0.5)
    assert rep.violations > 0
    assert len(rep.violation_locations) > 0


def test_envelope_rejects_eps_out_of_range(tau16):
    err = ScalarField(grid=tau16.grid, values=np.zeros(tau16.grid.shape))
    for eps in (0.0, 1.0, 2.0):
        with pytest.raises(ValidationError):
            envelope_check(err, tau16, eps)


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


def test_reliability_summary_split(tau16):
    g = tau16.grid
    eps = 0.01
    err = ScalarField(grid=g, values=eps ** tau16.tau.values)
    stats = reliability_summary(err, tau16, 0.5)
    # eps^tau decreases in tau for eps < 1: inside errors are smaller
    assert stats.inside_max < stats.outside_max
    assert stats.inside_median < stats.outside_median
    assert stats.median_ratio < 1.0
    assert stats.inside_count + stats.outside_count == g.nx * g.ny


def test_reliability_summary_empty_outside(tau16):
    g = tau16.grid
    err = ScalarField(grid=g, values=np.ones(g.shape))
    stats = reliability_summary(err, tau16, 0.0)
    assert stats.outside_count == 0
    assert stats.outside_median is None
    assert stats.median_ratio is None


def test_region_monotone_in_threshold(tau16):
    masks = [tau16.tau.values >= thr for thr in (0.3, 0.5, 0.7)]
    assert masks[0].sum() >= masks[1].sum() >= masks[2].sum()
    # set inclusion, not just counts
    assert (masks[1] <= masks[0]).all()
    assert (masks[2] <= masks[1]).all()


def test_auto_probe_nodes_span_band():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 32)
    p = boundary_partition(g, ["bottom"])
    tau = compute_indicate(g, p, method="direct")
    nodes = auto_probe_nodes(tau)
    taus = np.array([tau.tau.values[j, i] for i, j in nodes])
    assert len(nodes) == 12
    assert (taus >= 0.3).all() and (taus <= 0.9).all()
    assert taus.max() - taus.min() > 0.4
    assert len(set(nodes)) >= 8
