from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmrec import (ExpCos, Rect, ValidationError, add_noise, assemble_system,
                     boundary_partition, build_grid, reconstruct, reconstruct_field,
                     trace_cauchy, validate_config)
from harmrec.basis import build_basis, coefficients, compute_base_solutions
from harmrec.grid import SIDES, graph_norm
from harmrec.poisson import ScalarField, normal_stencil, rim_extension, solve_dirichlet
from oracles import batch_of


def test_hat_count_matches_reference_setup():
    # one layer around the unit square at h=1/64: 66 intervals per side,
    # 264 boundary hats
    hats = build_basis(build_grid(Rect(0, 0, 1, 1), 1 / 64))
    assert hats.grid.rect == Rect(-1 / 64, -1 / 64, 1 + 1 / 64, 1 + 1 / 64)
    assert hats.n_boundary == 264


def test_hat_data_are_unit_vectors():
    # sampled on the hats' rim itself, hat k's base solution is 1 at walk
    # node k alone: the rim rows of the extension are unit rows
    hats = build_basis(build_grid(Rect(0, 0, 1, 1), 0.25))
    walk = hats.nodes
    rows = rim_extension(hats, walk[:, 0], walk[:, 1])
    assert np.array_equal(rows, np.eye(hats.n_boundary))


def test_strict_containment_required():
    # the hats lie one layer outside the domain: hats on the domain's own
    # rim, or two layers out, belong to another grid
    grid = build_grid(Rect(0, 0, 1, 1), 0.125)
    part = boundary_partition(grid, ["bottom"])
    for hats in (boundary_partition(grid, SIDES), build_basis(build_basis(grid).grid)):
        with pytest.raises(ValidationError, match="grown by one node"):
            compute_base_solutions(hats, part)


def _small_setup(h=1 / 8):
    grid = build_grid(Rect(0, 0, 1, 1), h)
    hats = build_basis(grid)
    part = boundary_partition(grid, ["bottom"])
    return hats, compute_base_solutions(hats, part), grid, part


def test_whole_boundary_arc_gives_constant_one():
    # the hats sum to 1 on the whole enlarged boundary, so their base
    # solutions sum to the constant 1: its traces, field and data
    hats, traces, grid, part = _small_setup(h=0.125)
    w = traces @ np.ones(hats.n_boundary)
    assert np.abs(w - 1.0).max() < 1e-10
    sys = assemble_system(part)
    assert np.abs(reconstruct_field([w], sys) - 1.0).max() < 1e-10
    assert np.abs(sys.A @ w - 1.0).max() < 1e-10
    assert np.abs(sys.B @ w).max() < 1e-10 / 0.125  # zero up to tol/h


def test_base_solutions_partition_of_unity_and_max_principle():
    # on the sampled traces, and on every base solution rebuilt over the grid
    hats, traces, grid, part = _small_setup()
    n = hats.n_boundary
    sys = assemble_system(part)
    fields = reconstruct_field(traces.T, sys)
    for values, total in ((traces, traces.sum(axis=1)), (fields, fields.sum(axis=0))):
        assert np.abs(total - 1.0).max() < n * 1e-11
        assert values.min() > -1e-11
        assert values.max() < 1.0 + 1e-11


@pytest.mark.parametrize("sides", [["bottom"], ["left", "top"], ["bottom", "right", "top"]])
def test_base_solution_rows_match_sparse_reference(base_solution_fields, sides):
    # non-square grid of the hats (11 x 9 nodes around a 9 x 7 domain): the
    # traces on the inner walk, and the system's values and normal
    # differences at Γ applied to them, against the base solutions' own
    h, omega = 1 / 8, Rect(0, 0, 1, 0.75)
    grid = build_grid(omega, h)
    hats = build_basis(grid)
    assert hats.grid.shape == (9, 11)
    part = boundary_partition(grid, sides)
    fields = base_solution_fields(hats)[:, 1:-1, 1:-1]
    walk = part.nodes
    traces = compute_base_solutions(hats, part)
    assert traces.shape == (part.n_boundary, part.n_boundary + 8)
    assert np.abs(traces - fields[:, walk[:, 1], walk[:, 0]].T).max() <= 1e-12
    ii, jj, coeffs = normal_stencil(part)
    normal = sum(c * fields[:, jj[:, p], ii[:, p]].T for p, c in enumerate(coeffs))
    sys = assemble_system(part)
    assert np.abs(sys.A @ traces - fields[:, jj[:, 0], ii[:, 0]].T).max() <= 1e-12
    assert np.abs(sys.B @ traces - normal).max() <= 1e-12 / h


def test_assembly_shapes_and_row_sums():
    hats, traces, grid, part = _small_setup()
    sys = assemble_system(part)
    k = part.n_boundary
    assert sys.A.shape == sys.B.shape == (part.m, k)
    assert traces.shape == (k, hats.n_boundary)
    assert np.array_equal(sys.A.sum(axis=1), np.ones(part.m))
    assert np.abs(sys.B.sum(axis=1)).max() < 1e-11 / grid.h  # constants have no normal slope
    assert sys.sigma.shape == (part.m,)


def _closed_walk(nx, ny):
    """(i, j) of the boundary nodes of an nx x ny grid, once round."""
    return ([(i, 0) for i in range(nx - 1)] + [(nx - 1, j) for j in range(ny - 1)]
            + [(i, ny - 1) for i in range(nx - 1, 0, -1)]
            + [(0, j) for j in range(ny - 1, 0, -1)])


def test_penalty_factor_gives_closed_polyline_trace_norm():
    # reg_norm^2 = sum h (t^2 + (D1 t)^2 + (D2 t)^2) over the domain's
    # boundary, t the trace of the fitted field and D1, D2 the circulant
    # central differences, summed node by node
    h = 1 / 8
    grid = build_grid(Rect(0, 0, 1, 0.75), h)  # non-square: 9 x 7 nodes
    part = boundary_partition(grid, ["bottom"])
    sys = assemble_system(part)
    datas = add_noise(trace_cauchy(ExpCos(2.0, 0.1), part), 0.2, [5])
    r = reconstruct(sys, batch_of(datas),
                    validate_config({"alpha_rule": "fixed", "alpha_fixed": 1e-3}))
    u_star, = reconstruct_field(r.w, sys)
    t = [u_star[j, i] for i, j in _closed_walk(9, 7)]
    k = len(t)
    norm2 = 0.0
    for p in range(k):
        prev, nxt = t[p - 1], t[(p + 1) % k]
        norm2 += h * (t[p] ** 2 + ((nxt - prev) / (2 * h)) ** 2
                      + ((nxt - 2 * t[p] + prev) / h**2) ** 2)
    assert abs(r.reg_norm[0]**2 - norm2) <= 1e-12 * norm2


def test_misaligned_grids_rejected():
    hats, traces, _, _ = _small_setup(h=1 / 8)
    shifted = boundary_partition(build_grid(Rect(0.01, 0, 1.01, 1), 1 / 8),
                                 ["bottom"])
    with pytest.raises(ValidationError):
        compute_base_solutions(hats, shifted)
    with pytest.raises(ValidationError, match="grown by one node"):
        coefficients(hats, ScalarField(shifted.grid, solve_dirichlet(
            shifted.grid, [np.zeros(shifted.n_boundary)])[0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(shape=st.tuples(st.integers(2, 29), st.integers(2, 29)),
       h=st.sampled_from([1 / 64, 0.1, 0.3, 1.0, 7.5]),
       origin=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       seed=st.integers(0, 2**32 - 1))
def test_coefficients_are_the_min_norm_solution(min_norm_coefficients, shape, h, origin, seed):
    # b read off u*'s 5-point residual is V+ w, the QR's minimum-norm
    # solution of V b = w; the four corner hats of the grown grid, whose
    # columns of V are zero, take exactly 0, and the two hats beside a
    # domain corner, whose columns are equal, take equal halves
    (ix, iy), (i0, j0) = shape, origin
    grid = build_grid(Rect(i0 * h, j0 * h, (i0 + ix) * h, (j0 + iy) * h), h)
    part = boundary_partition(grid, SIDES)
    hats = build_basis(grid)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=part.n_boundary) * 10.0 ** rng.uniform(-3, 3, part.n_boundary)
    b = coefficients(hats, ScalarField(grid, solve_dirichlet(grid, [w])[0]))
    traces = compute_base_solutions(hats, part)
    ref = min_norm_coefficients(traces, w)
    assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(traces @ b - w).max() <= 1e-13 * np.abs(w).max()
    hi, hj = hats.nodes.T
    nx, ny = hats.grid.nx, hats.grid.ny
    corner = np.isin(hi, [0, nx - 1]) & np.isin(hj, [0, ny - 1])
    assert corner.sum() == 4 and not b[corner].any()
    for ci, cj in ((1, 1), (nx - 2, 1), (nx - 2, ny - 2), (1, ny - 2)):
        pair = b[(np.abs(hi - ci) + np.abs(hj - cj) == 1) & ~corner]
        assert len(pair) == 2 and pair[0] == pair[1]


def _graph_norm(part, v):
    return graph_norm(part.gamma_sigma, part.tangential_d1, v)


def test_discrete_norms_constant_on_unit_side():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 16), ["bottom"])
    c = 1.7
    assert abs(_graph_norm(part, np.full(part.m, c)) - c) < 1e-12


def test_discrete_norms_zero_and_mismatch():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    assert _graph_norm(part, np.zeros(part.m)) == 0.0
    with pytest.raises(ValueError):
        _graph_norm(part, np.zeros(part.m + 1))


def test_discrete_norms_sine_matches_integrals():
    # int sin^2 = 1/2 and int (pi cos)^2 = pi^2/2 over the unit side; the
    # columns of a batch are normed one by one
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 64), ["bottom"])
    x = part.gamma_points[:, 0]
    h1 = _graph_norm(part, np.sin(np.pi * x))
    target = 0.5 + np.pi**2 / 2
    assert abs(h1**2 - target) / target < 1e-3
    batch = np.column_stack([np.sin(np.pi * x), np.zeros(part.m), 3.0 * x])
    singles = [_graph_norm(part, v) for v in batch.T]
    assert np.abs(_graph_norm(part, batch) - singles).max() <= 1e-14 * max(singles)


def test_discrete_norms_g_channel():
    # the realized data error adds the graph norm of the f perturbation and
    # the plain quadrature norm of the g perturbation; f = 0 draws no f noise
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    clean = replace(trace_cauchy(ExpCos(2.0, 0.1), part), f=np.zeros(part.m))
    noisy, = add_noise(clean, 0.05, [3])
    dg = noisy.g - clean.g
    assert np.array_equal(noisy.f, clean.f) and dg.any()
    expected = np.sqrt(sum(s * d * d for s, d in zip(part.gamma_sigma, dg)))
    assert abs(noisy.realized_eps - expected) <= 1e-14 * expected


def test_tangential_d1_constant_and_linear():
    part = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom"])
    d1 = part.tangential_d1
    assert np.abs(d1 @ np.ones(part.m)).max() < 1e-13
    x = part.gamma_points[:, 0]
    assert np.abs(d1 @ x - 1.0).max() < 1e-12


def test_trace_error_decays_as_h_shrinks():
    # interpolate a harmonic field's boundary data into the hat basis and
    # compare its reconstructed trace on Γ against the exact trace; the
    # graph-norm error must at least halve when h halves (basis tied to h).
    exact = ExpCos(2.0, 0.1)
    errs = []
    for h in (1 / 8, 1 / 16):
        grid = build_grid(Rect(0, 0, 1, 1), h)
        hats = build_basis(grid)
        part = boundary_partition(grid, ["bottom"])
        sys = assemble_system(part)
        traces = compute_base_solutions(hats, part)
        walk = hats.nodes
        bx = hats.grid.rect.x0 + walk[:, 0] * h
        by = hats.grid.rect.y0 + walk[:, 1] * h
        b = np.asarray(exact.value(bx, by))
        f_exact = np.asarray(exact.value(part.gamma_points[:, 0],
                                         part.gamma_points[:, 1]))
        errs.append(_graph_norm(part, sys.A @ (traces @ b) - f_exact))
    assert errs[1] <= errs[0] / 2.0
