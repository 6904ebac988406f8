"""Numerical invariants of the Dirichlet solve, the normal stencil and the
exponent field, as properties on small generated grids: any aspect ratio,
h from 1/4 to 1/12, and any set of measured sides short of all four."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (HarmonicPoly, Rect, boundary_partition, build_grid, compute_indicate,
                     sample_exact, solve_dirichlet, trace_cauchy)
from harmrec.grid import SIDES
from harmrec.poisson import normal_stencil

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

MIRROR_X = {"left": "right", "right": "left", "bottom": "bottom", "top": "top"}
MIRROR_Y = {"bottom": "top", "top": "bottom", "left": "left", "right": "right"}


@st.composite
def grids(draw):
    """A grid of 3..(3k+1) by 3..(3k+1) nodes at spacing h = 1/k, k in 4..12."""
    k = draw(st.integers(4, 12))
    h = 1.0 / k
    ix, iy = draw(st.integers(2, 3 * k)), draw(st.integers(2, 3 * k))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-0.5, 0.25), (2.0, -1.0)]))
    return build_grid(Rect(x0, y0, x0 + ix * h, y0 + iy * h), h)


side_sets = st.lists(st.sampled_from(SIDES), min_size=1, max_size=3, unique=True)


@PROPERTY
@given(grids(), side_sets)
def test_tau_in_unit_interval_and_equal_to_gamma_mask_on_boundary(grid, sides):
    part = boundary_partition(grid, sides)
    tau = compute_indicate(part).values
    assert tau.min() >= -1e-14 and tau.max() <= 1.0 + 1e-14  # [0, 1] to rounding
    assert np.array_equal(tau[part.nodes[:, 1], part.nodes[:, 0]],
                          part.gamma_mask.astype(float))


@PROPERTY
@given(grids(), side_sets, st.sampled_from(["x", "y"]))
def test_mirrored_sides_give_mirrored_tau(grid, sides, axis):
    # a mirror-symmetric side set (mirror == sides) gives a symmetric field
    mirror, flip = (MIRROR_X, np.s_[:, ::-1]) if axis == "x" else (MIRROR_Y, np.s_[::-1, :])
    tau = compute_indicate(boundary_partition(grid, sides)).values
    mirrored = [mirror[s] for s in sides]
    tau_m = compute_indicate(boundary_partition(grid, mirrored)).values
    assert np.abs(tau_m - tau[flip]).max() <= 1e-12


@PROPERTY
@given(grids(), st.integers(0, 2**32 - 1))
def test_solve_is_linear_and_obeys_the_maximum_principle(grid, seed):
    part = boundary_partition(grid, ["bottom"])
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (2, part.n_boundary)) * rng.uniform(0.1, 10.0, 2)[:, None]
    ca, cb = rng.normal(size=2)
    ua, = solve_dirichlet(grid, [a])
    ub, = solve_dirichlet(grid, [b])
    uab, = solve_dirichlet(grid, [ca * a + cb * b])
    scale = abs(ca) * np.abs(a).max() + abs(cb) * np.abs(b).max()
    assert np.abs(uab - (ca * ua + cb * ub)).max() <= 1e-12 * scale
    for data, u in ((a, ua), (b, ub)):
        slack = 1e-12 * np.abs(data).max()
        assert data.min() - slack <= u.min() and u.max() <= data.max() + slack


def _harmonic_poly(seed, degree):
    """Re Σ c_k z^k, k <= degree, with complex standard normal c_k."""
    c = np.random.default_rng(seed).normal(size=(2, degree + 1))
    return HarmonicPoly(coeffs=tuple(c[0] + 1j * c[1]))


@PROPERTY
@given(grids(), st.integers(0, 2**32 - 1))
def test_solve_reproduces_harmonic_cubics_from_their_rim(grid, seed):
    # the 5-point stencil annihilates harmonic polynomials through degree 3
    part = boundary_partition(grid, ["bottom"])
    u = sample_exact(_harmonic_poly(seed, 3), grid).values
    sol, = solve_dirichlet(grid, [u[part.nodes[:, 1], part.nodes[:, 0]]])
    assert np.abs(sol - u).max() <= 1e-12 * np.abs(u).max()


@PROPERTY
@given(grids(), side_sets, st.integers(0, 2**32 - 1))
def test_normal_stencil_is_exact_on_harmonic_quadratics(grid, sides, seed):
    # the one-sided second-order difference along each Γ node's normal, the
    # vertical one at a corner of two measured sides, is exact on quadratics
    part = boundary_partition(grid, sides)
    poly = _harmonic_poly(seed, 2)
    ii, jj, coeffs = normal_stencil(part)
    flux = sample_exact(poly, grid).values[jj, ii] @ coeffs
    g = trace_cauchy(poly, part).g
    assert np.abs(flux - g).max() <= 1e-11 * np.abs(g).max()
