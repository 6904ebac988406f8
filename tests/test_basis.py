from dataclasses import replace

import numpy as np
import pytest

from harmrec import (ExpCos, Rect, ValidationError, add_noise,
                     assemble_system, boundary_partition, build_basis,
                     build_grid, compute_base_solutions, reconstruct_field,
                     trace_cauchy)
from harmrec.basis import BoundaryBasis
from harmrec.grid import SIDES, graph_norm
from harmrec.poisson import normal_stencil


def test_hat_count_matches_reference_setup():
    # one padding layer at h=1/64: 66 intervals per side, 264 boundary hats
    tilde = Rect(-1 / 64, -1 / 64, 1 + 1 / 64, 1 + 1 / 64)
    basis = build_basis(tilde, 1 / 64, "hat", omega_rect=Rect(0, 0, 1, 1))
    assert basis.n == 264


def test_indicator_four_arcs_partition_boundary():
    tilde = Rect(-0.125, -0.125, 1.125, 1.125)
    basis = build_basis(tilde, 0.125, "indicator", omega_rect=Rect(0, 0, 1, 1))
    assert basis.n == 4
    lo, hi = basis.support.T  # consecutive arcs, each walk node in one
    assert lo[0] == 0 and hi[-1] == basis.tilde_partition.n_boundary
    assert np.array_equal(lo[1:], hi[:-1]) and (hi > lo).all()


def test_hat_data_are_unit_vectors():
    tilde = Rect(-0.25, -0.25, 1.25, 1.25)
    basis = build_basis(tilde, 0.25, "hat", omega_rect=Rect(0, 0, 1, 1))
    # hat k is 1 at walk node k alone
    k = np.arange(basis.tilde_partition.n_boundary)
    assert np.array_equal(basis.support, np.column_stack([k, k + 1]))


@pytest.mark.parametrize("support", [[[4, 5], [5, 6]], [[0, 3], [2, 16]],
                                     [[0, 0], [0, 16]], [[0, 8]], [[8, 16], [0, 8]]])
def test_basis_arcs_must_split_the_walk(support):
    tilde_grid = build_grid(Rect(0, 0, 1, 1), 0.25)  # 16 walk nodes
    tilde_part = boundary_partition(tilde_grid, SIDES)
    with pytest.raises(ValidationError, match="split the boundary walk"):
        BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                      kind="indicator", support=np.array(support))


def test_strict_containment_required():
    with pytest.raises(ValidationError):
        build_basis(Rect(0, 0, 1, 1), 0.125, "hat", omega_rect=Rect(0, 0, 1, 1))
    with pytest.raises(ValidationError):
        build_basis(Rect(0, -0.125, 1.125, 1.125), 0.125, "hat",
                    omega_rect=Rect(0, 0, 1, 1))


def _small_setup(h=1 / 8, pad_layers=1, kind="hat"):
    omega = Rect(0, 0, 1, 1)
    pad = pad_layers * h
    basis = build_basis(omega.padded(pad), h, kind, omega_rect=omega)
    grid = build_grid(omega, h)
    part = boundary_partition(grid, ["bottom"])
    return basis, compute_base_solutions(basis, part), grid, part


def test_whole_boundary_arc_gives_constant_one():
    omega = Rect(0, 0, 1, 1)
    tilde_grid = build_grid(omega.padded(0.125), 0.125)
    tilde_part = boundary_partition(tilde_grid, SIDES)
    basis = BoundaryBasis(tilde_grid=tilde_grid, tilde_partition=tilde_part,
                          kind="indicator",
                          support=np.array([[0, tilde_part.n_boundary]]))
    grid = build_grid(omega, 0.125)
    assert np.abs(reconstruct_field([1.0], basis, grid).values - 1.0).max() < 1e-10
    part = boundary_partition(grid, ["bottom"])
    rows = compute_base_solutions(basis, part)
    assert np.abs(rows - 1.0).max() < 1e-10
    sys = assemble_system(rows, part)
    assert np.abs(sys.A - 1.0).max() < 1e-10
    assert np.abs(sys.B).max() < 1e-10 / 0.125  # zero up to tol/h


def test_base_solutions_partition_of_unity_and_max_principle():
    # on the sampled rows, and on every base solution rebuilt over the grid
    basis, rows, grid, part = _small_setup()
    n = basis.n
    fields = np.stack([f.values for f in reconstruct_field(np.eye(n), basis, grid)])
    for values, total in ((rows, rows.sum(axis=1)), (fields, fields.sum(axis=0))):
        assert np.abs(total - 1.0).max() < n * 1e-11
        assert values.min() > -1e-11
        assert values.max() < 1.0 + 1e-11


@pytest.mark.parametrize("kind", ["hat", "indicator"])
@pytest.mark.parametrize("sides", [["bottom"], ["left", "top"], ["bottom", "right", "top"]])
def test_base_solution_rows_match_sparse_reference(base_solution_fields, kind, sides):
    # non-square enlarged grid (13 x 11 nodes, two padding layers): the rows
    # at the two inward stencil nodes and on the inner walk
    h, omega = 1 / 8, Rect(0, 0, 1, 0.75)
    basis = build_basis(omega.padded(2 * h), h, kind, omega_rect=omega,
                        arcs_per_side=3)
    assert basis.tilde_grid.shape == (11, 13)
    part = boundary_partition(build_grid(omega, h), sides)
    ii, jj, _ = normal_stencil(part)
    pi = np.concatenate([ii[:, 1], ii[:, 2], part.nodes[:, 0]]) + 2
    pj = np.concatenate([jj[:, 1], jj[:, 2], part.nodes[:, 1]]) + 2
    expected = base_solution_fields(basis)[:, pj, pi].T
    rows = compute_base_solutions(basis, part)
    assert rows.shape == (2 * part.m + part.n_boundary, basis.n)
    assert np.abs(rows - expected).max() <= 1e-12


def test_assembly_shapes_and_row_sums():
    basis, rows, grid, part = _small_setup()
    sys = assemble_system(rows, part)
    assert sys.A.shape == (part.m, basis.n)
    assert sys.B.shape == (part.m, basis.n)
    assert sys.F.shape == (part.n_boundary, basis.n)
    assert np.abs(sys.A.sum(axis=1) - 1.0).max() < basis.n * 1e-11
    assert sys.sigma.shape == (part.m,)


def test_assembly_is_linear_in_basis_data():
    # a two-node arc equals the sum of its two single-node hats
    omega = Rect(0, 0, 1, 1)
    hats = build_basis(omega.padded(0.125), 0.125, "hat", omega_rect=omega)
    arc = BoundaryBasis(tilde_grid=hats.tilde_grid, tilde_partition=hats.tilde_partition,
                        kind="indicator",
                        support=np.array([[0, 4], [4, 6], [6, hats.n]]))
    part = boundary_partition(build_grid(omega, 0.125), ["bottom"])
    sys_h = assemble_system(compute_base_solutions(hats, part), part)
    sys_a = assemble_system(compute_base_solutions(arc, part), part)
    assert np.abs(sys_h.A[:, 4:6].sum(axis=1) - sys_a.A[:, 1]).max() < 1e-10
    assert np.abs(sys_h.B[:, 4:6].sum(axis=1) - sys_a.B[:, 1]).max() < 1e-9


def _closed_walk(nx, ny):
    """(i, j) of the boundary nodes of an nx x ny grid, once round."""
    return ([(i, 0) for i in range(nx - 1)] + [(nx - 1, j) for j in range(ny - 1)]
            + [(i, ny - 1) for i in range(nx - 1, 0, -1)]
            + [(0, j) for j in range(ny - 1, 0, -1)])


def test_penalty_factor_gives_closed_polyline_trace_norm(base_solution_fields):
    # |F b|^2 = sum h (t^2 + (D1 t)^2 + (D2 t)^2) over the inner boundary,
    # t the trace of the combined base solutions and D1, D2 the circulant
    # central differences, summed node by node from the sparse reference
    h = 1 / 8
    omega = Rect(0, 0, 1, 0.75)  # non-square: 9 x 7 inner nodes
    basis = build_basis(omega.padded(h), h, "hat", omega_rect=omega)
    part = boundary_partition(build_grid(omega, h), ["bottom"])
    sys = assemble_system(compute_base_solutions(basis, part), part)
    b = np.random.default_rng(5).normal(size=basis.n)
    u = np.tensordot(b, base_solution_fields(basis), axes=1)
    t = [u[j + 1, i + 1] for i, j in _closed_walk(9, 7)]  # one padding layer
    k = len(t)
    norm2 = 0.0
    for p in range(k):
        prev, nxt = t[p - 1], t[(p + 1) % k]
        norm2 += h * (t[p] ** 2 + ((nxt - prev) / (2 * h)) ** 2
                      + ((nxt - 2 * t[p] + prev) / h**2) ** 2)
    assert abs(np.sum((sys.F @ b) ** 2) - norm2) <= 1e-12 * norm2


def test_misaligned_grids_rejected():
    basis, rows, _, _ = _small_setup(h=1 / 8)
    shifted = boundary_partition(build_grid(Rect(0.01, 0, 1.01, 1), 1 / 8),
                                 ["bottom"])
    with pytest.raises(ValidationError):
        compute_base_solutions(basis, shifted)
    # rows sampled for another partition do not fit this one
    other = boundary_partition(build_grid(Rect(0, 0, 1, 1), 1 / 8), ["bottom", "top"])
    with pytest.raises(ValidationError, match="sampled rows"):
        assemble_system(rows, other)


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
    noisy = add_noise(clean, 0.05, seed=3)
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
        omega = Rect(0, 0, 1, 1)
        basis = build_basis(omega.padded(0.125), h, "hat", omega_rect=omega)
        part = boundary_partition(build_grid(omega, h), ["bottom"])
        sys = assemble_system(compute_base_solutions(basis, part), part)
        walk = basis.tilde_partition.nodes
        bx = basis.tilde_grid.rect.x0 + walk[:, 0] * h
        by = basis.tilde_grid.rect.y0 + walk[:, 1] * h
        b = np.asarray(exact.value(bx, by))
        f_exact = np.asarray(exact.value(part.gamma_points[:, 0],
                                         part.gamma_points[:, 1]))
        errs.append(_graph_norm(part, sys.A @ b - f_exact))
    assert errs[1] <= errs[0] / 2.0
