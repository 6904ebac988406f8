import math

import numpy as np
import pytest

from harmrec import (Rect, ValidationError, boundary_partition, build_grid,
                     compute_indicate, reliable_region)
from oracles import annulus_tau, rectangle_series_tau, two_constants_bound

# frozen from a 60-digit evaluation of the bottom-side series; the partial
# sum is already converged to this value at 200 terms
TAU_SERIES_05_025 = 0.5405292182595098750245246


def _indicate(h, sides):
    g = build_grid(Rect(0, 0, 1, 1), h)
    p = boundary_partition(g, sides)
    return compute_indicate(p)


def test_center_value_single_side():
    ind = _indicate(1 / 16, ["bottom"])
    c = ind.values[8, 8]
    assert abs(c - 0.25) < 1e-10  # exact by discrete four-fold symmetry


def test_boundary_values_are_exact():
    ind = _indicate(1 / 8, ["bottom"])
    v = ind.values
    assert (v[0, :] == 1.0).all()
    assert (v[-1, :] == 0.0).all()
    assert (v[1:-1, 0] == 0.0).all()
    assert (v[1:-1, -1] == 0.0).all()


def test_interior_strictly_between_zero_and_one():
    ind = _indicate(1 / 16, ["bottom"])
    interior = ind.values[1:-1, 1:-1]
    assert interior.min() > 0.0
    assert interior.max() < 1.0


def test_all_sides_rejected():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    p = boundary_partition(g, ["bottom", "right", "top", "left"])
    with pytest.raises(ValidationError, match="degenerate"):
        compute_indicate(p)


def test_series_symmetry_values():
    assert abs(rectangle_series_tau(0.5, 0.5, ["bottom"], 200) - 0.25) < 1e-9
    v = rectangle_series_tau(0.5, 0.5, ["bottom", "top", "left"], 200)
    assert abs(v - 0.75) < 1e-9


def test_series_frozen_value_and_convergence():
    v200 = rectangle_series_tau(0.5, 0.25, ["bottom"], 200)
    v400 = rectangle_series_tau(0.5, 0.25, ["bottom"], 400)
    assert abs(v200 - TAU_SERIES_05_025) < 1e-12
    assert abs(v400 - v200) < 1e-12


def test_series_rejects_boundary_and_few_terms():
    with pytest.raises(ValidationError):
        rectangle_series_tau(0.0, 0.5, ["bottom"])
    with pytest.raises(ValidationError):
        rectangle_series_tau(0.5, 0.25, ["bottom"], terms=10)
    with pytest.raises(ValidationError):
        rectangle_series_tau(0.5, 0.25, ["south"])


def test_fdm_matches_series_oracle_coarse(oracle_comparison_mask):
    ind = _indicate(1 / 32, ["bottom"])
    g = ind.grid
    mask = oracle_comparison_mask(ind, boundary_partition(g, ["bottom"]))
    worst = 0.0
    for j in range(g.ny):
        for i in range(g.nx):
            if mask[j, i]:
                o = rectangle_series_tau(g.xs[i], g.ys[j], ["bottom"], 200)
                worst = max(worst, abs(ind.values[j, i] - o))
    assert worst < 2e-2


def test_annulus_endpoints_and_midpoint():
    assert annulus_tau(1.0, 2.0) == 1.0
    assert annulus_tau(2.0, 2.0) == 0.0
    assert abs(annulus_tau(math.sqrt(2.0), 2.0) - 0.5) < 1e-15
    with pytest.raises(ValidationError):
        annulus_tau(0.5, 2.0)
    with pytest.raises(ValidationError):
        annulus_tau(1.0, 1.0)


def test_two_constants_endpoints():
    assert two_constants_bound(0.5, 0.5, 0.3) == 0.5
    assert two_constants_bound(1e-3, 2.0, 1.0) == 1e-3
    assert two_constants_bound(1e-3, 2.0, 0.0) == 2.0
    with pytest.raises(ValidationError):
        two_constants_bound(3.0, 2.0, 0.5)
    with pytest.raises(ValidationError):
        two_constants_bound(0.1, 2.0, 1.5)


def test_two_constants_attained_on_annulus():
    n, big_r, r, eps = 3, 2.0, 1.5, 1e-2
    w_mag = eps * r**n
    m_bound = eps * big_r**n
    bound = two_constants_bound(eps, m_bound, annulus_tau(r, big_r))
    assert abs(w_mag - bound) / w_mag <= 1e-12


def test_additivity_and_complement_interior():
    h = 1 / 16
    inner = (slice(1, -1), slice(1, -1))
    t_b = _indicate(h, ["bottom"]).values
    t_t = _indicate(h, ["top"]).values
    t_bt = _indicate(h, ["bottom", "top"]).values
    assert np.abs((t_b + t_t - t_bt)[inner]).max() < 2e-10
    # adjacent pair: corners overlap but corner data cannot reach the interior
    t_r = _indicate(h, ["right"]).values
    t_br = _indicate(h, ["bottom", "right"]).values
    assert np.abs((t_b + t_r - t_br)[inner]).max() < 2e-10
    # complement: three sides vs one
    t_l = _indicate(h, ["left"]).values
    t_brt = _indicate(h, ["bottom", "right", "top"]).values
    assert np.abs((t_brt - (1.0 - t_l))[inner]).max() < 2e-10


def test_monotone_in_gamma():
    h = 1 / 16
    inner = (slice(1, -1), slice(1, -1))
    t_b = _indicate(h, ["bottom"]).values
    t_bt = _indicate(h, ["bottom", "top"]).values
    assert (t_bt[inner] - t_b[inner]).min() > -1e-10


def test_reliable_region_threshold_limits():
    ind = _indicate(1 / 16, ["bottom"])
    mask0, _ = reliable_region(ind, 1e-12)
    v = ind.values
    assert mask0.sum() == (v > 0).sum()  # everything except non-measured rim
    mask1, contour1 = reliable_region(ind, 1.0)
    assert mask1.sum() == boundary_partition(ind.grid, ["bottom"]).m
    assert contour1.polylines == []
    with pytest.raises(ValidationError):
        reliable_region(ind, 0.0)
    with pytest.raises(ValidationError):
        reliable_region(ind, 1.5)


def test_region_grows_with_added_side():
    m_one, _ = reliable_region(_indicate(1 / 32, ["bottom"]), 0.5)
    m_two, _ = reliable_region(_indicate(1 / 32, ["bottom", "top"]), 0.5)
    assert m_two.sum() > m_one.sum()


def test_gamma_endpoints(gamma_endpoints):
    g = build_grid(Rect(0, 0, 1, 1), 1 / 8)
    pts = sorted(map(tuple, gamma_endpoints(boundary_partition(g, ["bottom"]))))
    assert pts == [(0.0, 0.0), (1.0, 0.0)]
    pts2 = sorted(map(tuple, gamma_endpoints(boundary_partition(g, ["bottom", "left"]))))
    assert pts2 == [(0.0, 1.0), (1.0, 0.0)]  # shared corner is interior to Γ
