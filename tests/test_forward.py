import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (Constant, ExpCos, HarmonicPoly, Rect, ValidationError,
                     add_noise, boundary_partition, build_grid, sample_exact,
                     trace_cauchy)
from oracles import laplacian_residual


def _partition(h=1 / 16, sides=("bottom",)):
    g = build_grid(Rect(0, 0, 1, 1), h)
    return boundary_partition(g, sides)


def test_constant_trace():
    data = trace_cauchy(Constant(1.0), _partition())
    assert np.abs(data.f - 1.0).max() == 0.0
    assert np.abs(data.g).max() == 0.0
    assert data.noise_level == 0.0


def test_exp_cos_trace_bottom():
    p = _partition(h=1 / 8)
    data = trace_cauchy(ExpCos(a=4.0, shift=0.2), p)
    x = data.points[:, 0]
    assert np.allclose(data.f, np.exp(4 * x) * math.cos(0.8), rtol=1e-14)
    assert np.allclose(data.g, 4 * np.exp(4 * x) * math.sin(0.8), rtol=1e-14)
    # spot values at x=0
    k = np.where(x == 0.0)[0][0]
    assert abs(data.f[k] - math.cos(0.8)) < 1e-15
    assert abs(data.g[k] - 4 * math.sin(0.8)) < 1e-15


def test_harmonic_poly_trace_bottom():
    # u = Re z^2 = x^2 - y^2: normal derivative on y=0 vanishes
    data = trace_cauchy(HarmonicPoly(coeffs=(0, 0, 1.0)), _partition())
    x = data.points[:, 0]
    assert np.allclose(data.f, x**2, rtol=1e-14)
    assert np.abs(data.g).max() < 1e-14


def test_trace_uses_side_normals():
    p = _partition(sides=("left",))
    data = trace_cauchy(HarmonicPoly(coeffs=(0, 1.0)), p)  # u = x
    assert np.abs(data.g + 1.0).max() < 1e-14  # outward normal (-1, 0)


def test_noise_level_zero_is_identity():
    data = trace_cauchy(ExpCos(4.0, 0.2), _partition())
    noisy, = add_noise(data, 0.0, [9])
    assert np.array_equal(noisy.f, data.f)
    assert np.array_equal(noisy.g, data.g)
    assert noisy.realized_eps == 0.0


@pytest.mark.parametrize("level", [0.0, 0.01])
def test_noise_needs_the_partition(level):
    # hand-built data carry no partition, so no Γ quadrature for the
    # realized data error: a validation error, not an AttributeError
    data = replace(trace_cauchy(ExpCos(4.0, 0.2), _partition()), partition=None)
    with pytest.raises(ValidationError, match="partition"):
        add_noise(data, level, [5])


def test_noise_deterministic_given_seed_and_model():
    data = trace_cauchy(ExpCos(4.0, 0.2), _partition())
    a, = add_noise(data, 0.01, [5], model="uniform")
    b, = add_noise(data, 0.01, [5], model="uniform")
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)
    assert a.realized_eps == b.realized_eps
    c, = add_noise(data, 0.01, [6], model="uniform")
    assert not np.array_equal(a.f, c.f)
    d, = add_noise(data, 0.01, [5], model="gaussian")
    assert not np.array_equal(a.f, d.f)


def test_uniform_noise_bounded_by_level_times_sup():
    data = trace_cauchy(ExpCos(4.0, 0.2), _partition())
    noisy, = add_noise(data, 0.01, [11], model="uniform")
    assert np.abs(noisy.f - data.f).max() <= 0.01 * np.abs(data.f).max()
    assert np.abs(noisy.g - data.g).max() <= 0.01 * np.abs(data.g).max()
    assert noisy.realized_eps > 0


def test_realized_eps_monotone_in_level():
    data = trace_cauchy(ExpCos(4.0, 0.2), _partition())
    eps = [add_noise(data, lv, [3])[0].realized_eps for lv in (0.001, 0.01, 0.1)]
    assert eps[0] < eps[1] < eps[2]


def test_negative_level_rejected():
    data = trace_cauchy(Constant(1.0), _partition())
    with pytest.raises(ValidationError):
        add_noise(data, -0.1, [1])
    with pytest.raises(ValidationError):
        add_noise(data, 0.1, [1], model="laplace")


@pytest.mark.parametrize("level", [0.0, 0.1])
@pytest.mark.parametrize("seeds", [[1], [1, 2]], ids=["1", "seed1"])
def test_unknown_noise_model_rejected_at_every_level(level, seeds):
    # the level-0 shortcut must not let an unknown model through
    data = trace_cauchy(Constant(1.0), _partition())
    with pytest.raises(ValidationError, match="unknown noise model"):
        add_noise(data, level, seeds, model="laplace")


@pytest.mark.parametrize("level", [0.0, 0.1])
@pytest.mark.parametrize("seeds", [5, (1, 2), [1.0], [True], [1, "2"], "12", None],
                         ids=["int", "tuple", "float", "bool", "str-item", "str", "none"])
def test_seeds_must_be_a_list_of_ints_at_every_level(level, seeds):
    # the single-seed int form of add_noise is gone: it and any other
    # non-list are rejected as a validation error, not a TypeError
    data = trace_cauchy(Constant(1.0), _partition())
    with pytest.raises(ValidationError, match="seeds must be a list of integers"):
        add_noise(data, level, seeds)


@settings(max_examples=40, deadline=None)
@given(h=st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32]),
       sides=st.sampled_from([("bottom",), ("left",), ("bottom", "top"),
                              ("bottom", "right", "top", "left")]),
       model=st.sampled_from(["uniform", "gaussian"]),
       level=st.sampled_from([0.0, 1e-3, 0.1, 1.5]),
       seeds=st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=5))
def test_seed_list_equals_per_seed_calls(h, sides, model, level, seeds):
    data = trace_cauchy(ExpCos(4.0, 0.2), _partition(h, sides))
    together = add_noise(data, level, seeds, model)
    assert len(together) == len(seeds)
    for seed, a in zip(seeds, together):
        b, = add_noise(data, level, [seed], model)
        assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)
        assert (a.realized_eps, a.seed, a.noise_model, a.noise_level) == (
            b.realized_eps, b.seed, b.noise_model, b.noise_level)


def test_quadratic_harmonics_have_zero_stencil_residual():
    g = build_grid(Rect(0, 0, 1, 1), 1 / 16)
    for coeffs in ((0, 0, 1.0), (0, 1.0), (0, 0, 0.5 + 0.25j)):
        fld = sample_exact(HarmonicPoly(coeffs=coeffs), g)
        assert laplacian_residual(fld) < 1e-12


def test_transcendental_harmonic_residual_scales_h2():
    res = {}
    for h in (1 / 16, 1 / 32):
        g = build_grid(Rect(0, 0, 1, 1), h)
        res[h] = laplacian_residual(sample_exact(ExpCos(2.0, 0.1), g))
    # residual of the h^2-scaled stencil behaves like h^4 for smooth fields
    assert 10.0 <= res[1 / 16] / res[1 / 32] <= 22.0


def test_gradient_consistency_finite_difference():
    exact = ExpCos(3.0, 0.4)
    x, y = 0.3, 0.7
    d = 1e-6
    gx = (exact.value(x + d, y) - exact.value(x - d, y)) / (2 * d)
    gy = (exact.value(x, y + d) - exact.value(x, y - d)) / (2 * d)
    ux, uy = exact.gradient(x, y)
    assert abs(gx - ux) < 1e-6
    assert abs(gy - uy) < 1e-6
