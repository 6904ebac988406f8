import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (CauchyData, Constant, ExpCos, HarmonicPoly, Rect, ValidationError,
                     add_noise, boundary_partition, build_grid, draw_noise, sample_exact,
                     trace_cauchy)
from harmrec.forward import realized_eps
from oracles import laplacian_residual


def _partition(h=1 / 16, sides=("bottom",)):
    g = build_grid(Rect(0, 0, 1, 1), h)
    return boundary_partition(g, sides)


def _noisy(part, data, level, seeds, model="uniform"):
    """The batch add_noise scales from one draw of ``seeds``, and its
    realized data errors."""
    draws = draw_noise(seeds, part.m, model)
    return add_noise(data, level, draws), realized_eps(part, data, level, draws)


def test_constant_trace():
    data = trace_cauchy(Constant(1.0), _partition())
    assert np.abs(data.f - 1.0).max() == 0.0
    assert np.abs(data.g).max() == 0.0
    # clean data only: the noise level, seed, model and error live elsewhere
    assert [fld.name for fld in fields(CauchyData)] == ["points", "f", "g"]


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
    # level 0 reads no draw: run draws none, a sweep's draws go unused, and
    # either way the rows are the clean f and g bit for bit, -0.0 included
    p = _partition()
    for exact in (ExpCos(4.0, 0.2), Constant(-0.0)):
        data = trace_cauchy(exact, p)
        for draws in (draw_noise([9], 0), draw_noise([9, 10], p.m, "gaussian")):
            noisy = add_noise(data, 0.0, draws)
            assert noisy.level == 0.0 and noisy.f.shape == (len(draws), p.m)
            for row_f, row_g in zip(noisy.f, noisy.g):
                assert row_f.tobytes() == data.f.tobytes()
                assert row_g.tobytes() == data.g.tobytes()
            assert realized_eps(p, data, 0.0, draws).tolist() == [0.0] * len(draws)
    assert np.signbit(add_noise(data, 0.0, draw_noise([9], 0)).f).all()


def test_noise_draws_must_be_two_per_node():
    # a level above 0 reads f's m draws, then g's m: any other width is an error
    p = _partition()
    data = trace_cauchy(ExpCos(4.0, 0.2), p)
    for bad in (draw_noise([5], 0), draw_noise([5], p.m)[:, 1:], draw_noise([5], p.m)[0]):
        with pytest.raises(ValidationError, match="noise draws"):
            add_noise(data, 0.01, bad)
        with pytest.raises(ValidationError, match="noise draws"):
            realized_eps(p, data, 0.01, bad)


def test_noise_deterministic_given_seed_and_model():
    p = _partition()
    data = trace_cauchy(ExpCos(4.0, 0.2), p)
    a, eps_a = _noisy(p, data, 0.01, [5], model="uniform")
    b, eps_b = _noisy(p, data, 0.01, [5], model="uniform")
    assert np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)
    assert eps_a.tolist() == eps_b.tolist()
    c, _ = _noisy(p, data, 0.01, [6], model="uniform")
    assert not np.array_equal(a.f, c.f)
    d, _ = _noisy(p, data, 0.01, [5], model="gaussian")
    assert not np.array_equal(a.f, d.f)


def test_uniform_noise_bounded_by_level_times_sup():
    p = _partition()
    data = trace_cauchy(ExpCos(4.0, 0.2), p)
    noisy, eps = _noisy(p, data, 0.01, [11], model="uniform")
    assert np.abs(noisy.f - data.f).max() <= 0.01 * np.abs(data.f).max()
    assert np.abs(noisy.g - data.g).max() <= 0.01 * np.abs(data.g).max()
    assert eps[0] > 0


def test_realized_eps_monotone_in_level():
    p = _partition()
    data = trace_cauchy(ExpCos(4.0, 0.2), p)
    eps = [_noisy(p, data, lv, [3])[1][0] for lv in (0.001, 0.01, 0.1)]
    assert eps[0] < eps[1] < eps[2]


def test_negative_level_rejected():
    p = _partition()
    data = trace_cauchy(Constant(1.0), p)
    with pytest.raises(ValidationError):
        add_noise(data, -0.1, draw_noise([1], p.m))
    with pytest.raises(ValidationError):
        realized_eps(p, data, -0.1, draw_noise([1], p.m))
    with pytest.raises(ValidationError):
        draw_noise([1], p.m, model="laplace")


@pytest.mark.parametrize("level", [0.0, 0.1])
@pytest.mark.parametrize("seeds", [[1], [1, 2]], ids=["1", "seed1"])
def test_unknown_noise_model_rejected_at_every_level(level, seeds):
    # run draws no node's noise at level 0, but the draw still checks the model
    m = 0 if level == 0 else _partition().m
    with pytest.raises(ValidationError, match="unknown noise model"):
        draw_noise(seeds, m, model="laplace")


@pytest.mark.parametrize("level", [0.0, 0.1])
@pytest.mark.parametrize("seeds", [5, (1, 2), [1.0], [True], [1, "2"], "12", None],
                         ids=["int", "tuple", "float", "bool", "str-item", "str", "none"])
def test_seeds_must_be_a_list_of_ints_at_every_level(level, seeds):
    # a single int and any other non-list are rejected as a validation
    # error, not a TypeError, also where run draws no node's noise (level 0)
    m = 0 if level == 0 else _partition().m
    with pytest.raises(ValidationError, match="seeds must be a list of integers"):
        draw_noise(seeds, m)


@settings(max_examples=40, deadline=None)
@given(h=st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32]),
       sides=st.sampled_from([("bottom",), ("left",), ("bottom", "top"),
                              ("bottom", "right", "top", "left")]),
       model=st.sampled_from(["uniform", "gaussian"]),
       level=st.sampled_from([0.0, 1e-3, 0.1, 1.5]),
       seeds=st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=5))
def test_seed_list_equals_per_seed_calls(h, sides, model, level, seeds):
    # a sweep's one draw of every seed against run's draw of one seed (none
    # at level 0): the same f, g and realized data error, bit for bit
    p = _partition(h, sides)
    data = trace_cauchy(ExpCos(4.0, 0.2), p)
    together, eps = _noisy(p, data, level, seeds, model)
    assert together.level == level and together.f.shape == (len(seeds), p.m)
    for seed, f, g, e in zip(seeds, together.f, together.g, eps):
        draws = draw_noise([seed], 0 if level == 0 else p.m, model)
        b = add_noise(data, level, draws)
        assert f.tobytes() == b.f[0].tobytes() and g.tobytes() == b.g[0].tobytes()
        assert [e] == realized_eps(p, data, level, draws).tolist()


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
